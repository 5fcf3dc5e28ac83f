//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--spans <path>]`
//!
//! Runs one workload, prints its metrics as a table and, as the last
//! line, one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! (written to `--spans` as Chrome-trace JSON) and reports the per-layer
//! metrics. Exits 1 when any output is wrong, 2 on bad arguments.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::process::ExitCode;

use perfbench::harness::{Outcome, Tracer};
use perfbench::{finish_end_to_end, finish_per_layer, run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut spans) =
        (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--spans" => spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans,
    })
}

/// A JSON number; non-finite values (never expected) become 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn result_json(out: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in out.metrics.iter().enumerate() {
        let _ = write!(
            metrics,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            num(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--spans <path>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(0, |p| p.get());
    println!(
        "perfbench workload={} seed={} seconds={} trace={} available_parallelism={threads}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let mut tracer = Tracer::new(args.trace);
    let Some(mut out) = run_workload(&args.workload, args.seed, args.seconds, &mut tracer) else {
        return ExitCode::from(2);
    };
    if args.trace {
        finish_per_layer(&mut out);
        if let Some(path) = &args.spans {
            let json = tracer
                .chrome_trace_json(&format!("perfbench {} seed {}", args.workload, args.seed));
            match std::fs::write(path, json) {
                Ok(()) => println!("spans: {} written to {path}", tracer.spans().len()),
                Err(e) => {
                    eprintln!("perfbench: writing spans to {path}: {e}");
                    return ExitCode::from(1);
                }
            }
        }
    } else {
        finish_end_to_end(&mut out);
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "{:<34} {:>22} {:<8} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for m in &out.metrics {
        println!(
            "{:<34} {:>22} {:<8} {:>7}",
            m.name,
            num(m.value),
            m.unit,
            m.samples
        );
    }
    println!("attempted={} failed={}", out.attempted, out.failed);
    println!("{}", result_json(&out));
    if out.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
