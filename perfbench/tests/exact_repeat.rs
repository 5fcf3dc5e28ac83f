//! Two traced runs with the same seed must agree bit-for-bit on every
//! metric the catalogue marks exact (simulated times, simulator and
//! comms counters, fleet counts, journal size), so a host-only change
//! that moves one of them shows up as a behaviour change, not noise.
//!
//! Runs the workloads at reduced sizes, on the system configuration the
//! benchmark runs; `cargo test --release` keeps it to about a minute.

#![forbid(unsafe_code)]

use perfbench::harness::{Outcome, Tracer};
use perfbench::{finish_per_layer, fleet_burst, groth16, msm_large, END_TO_END, PER_LAYER};

fn exact_metrics(out: &Outcome) -> Vec<(&'static str, u64)> {
    let mut full = out.clone();
    finish_per_layer(&mut full);
    let exact = |name: &str| PER_LAYER.iter().any(|d| d.name == name && d.exact);
    let mut v: Vec<_> = full
        .metrics
        .iter()
        .filter(|m| exact(m.name))
        .map(|m| (m.name, m.value.to_bits()))
        .collect();
    v.sort_unstable();
    v
}

fn assert_repeats(run: impl Fn(&mut Tracer) -> Outcome) {
    let (a, b) = (run(&mut Tracer::new(true)), run(&mut Tracer::new(true)));
    assert_eq!(a.failed, 0, "first run had failures: {:?}", a.notes);
    assert_eq!(b.failed, 0, "second run had failures: {:?}", b.notes);
    for m in &a.metrics {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|d| d.name == m.name);
        assert_eq!(
            def.map(|d| d.unit),
            Some(m.unit),
            "{} is not catalogued with unit {}",
            m.name,
            m.unit
        );
    }
    let (ea, eb) = (exact_metrics(&a), exact_metrics(&b));
    assert!(
        ea.iter().any(|&(n, v)| n == "sim.total_s" && v != 0),
        "sim.total_s missing: {ea:?}"
    );
    assert_eq!(ea, eb, "exact metrics differ between same-seed runs");
}

#[test]
fn msm_large_exact_metrics_repeat() {
    let p = msm_large::Params { n: 512 };
    assert_repeats(|t| msm_large::run(&p, 7, 0.0, t));
}

#[test]
fn groth16_exact_metrics_repeat() {
    let p = groth16::Params { constraints: 32 };
    assert_repeats(|t| groth16::run(&p, 7, 0.0, t));
}

#[test]
fn fleet_burst_exact_metrics_repeat() {
    let p = fleet_burst::Params {
        bursts: 2,
        burst_jobs: 24,
        msm_size: 32,
    };
    assert_repeats(|t| fleet_burst::run(&p, 7, 0.0, t));
}
