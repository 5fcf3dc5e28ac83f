//! # distmsm-bench — experiment harness
//!
//! Regenerates every table and figure of the DistMSM paper's evaluation
//! (§5). Each binary prints a functional-validation preamble (bit-exact
//! MSM at reduced N) followed by the paper-scale analytic reproduction
//! with the paper's reported numbers side by side:
//!
//! | binary | reproduces |
//! |---|---|
//! | `table3` | Table 3 — MSM time across curves/sizes/GPU counts |
//! | `table4` | Table 4 — end-to-end proof generation |
//! | `fig3` | Figure 3 — per-thread workload vs window size |
//! | `fig8` | Figure 8 — multi-GPU scalability |
//! | `fig9` | Figure 9 — A100 / RTX4090 / 6900XT comparison |
//! | `fig9_scaling` | Figure 9 ext. — EC collectives and multi-node scaling |
//! | `fig10` | Figure 10 — optimisation-group breakdown |
//! | `fig11` | Figure 11 — hierarchical vs naive bucket scatter |
//! | `fig12` | Figure 12 — PADD-kernel optimisation waterfall |
//! | `fault_sweep` | fault rate × GPU count sweep with verified recovery |
//!
//! Criterion microbenchmarks of the substrate itself (field multiply,
//! point ops, MSM, NTT, scatter) live under `benches/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod args;
pub mod paper;
pub mod runners;
pub mod table;

/// Extracts the `--telemetry <out.json>` (or `--telemetry=<out.json>`)
/// argument from a binary's argument list.
///
/// # Panics
///
/// Panics if the flag is present without a path.
pub fn telemetry_path(args: &[String]) -> Option<String> {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--telemetry" {
            return Some(
                it.next()
                    .expect("--telemetry requires an output path")
                    .clone(),
            );
        }
        if let Some(p) = a.strip_prefix("--telemetry=") {
            return Some(p.to_owned());
        }
    }
    None
}

/// Runs `f`, recording a telemetry session and exporting it to `path`
/// when one is given.
///
/// With a path and the `telemetry` feature, the run's span timeline is
/// written as Chrome-trace JSON (open in `ui.perfetto.dev`) and a live
/// phase table is printed. Without the feature, a requested export is a
/// hard error rather than a silently missing trace.
///
/// # Panics
///
/// Panics if the trace file cannot be written, or if `path` is given on
/// a build without the `telemetry` feature.
pub fn run_with_telemetry<T>(path: Option<&str>, f: impl FnOnce() -> T) -> T {
    let Some(path) = path else {
        return f();
    };
    #[cfg(feature = "telemetry")]
    {
        let (out, captured) = distmsm_telemetry::record(f);
        let timeline = captured.timeline;
        std::fs::write(path, distmsm_telemetry::to_chrome_trace(&timeline))
            .unwrap_or_else(|e| panic!("cannot write trace to {path}: {e}"));
        println!("{}", distmsm_telemetry::phase_table(&timeline));
        println!("telemetry: wrote Chrome-trace JSON to {path} (open in ui.perfetto.dev)");
        out
    }
    #[cfg(not(feature = "telemetry"))]
    {
        panic!(
            "--telemetry {path} requested, but this binary was built without the \
             `telemetry` feature; rebuild with `--features telemetry`"
        );
    }
}
