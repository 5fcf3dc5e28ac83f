//! Measured host wall-clock benchmark of the DistMSM stack.
//!
//! Three seeded workloads drive the repository's public APIs from
//! outside, check every output, and report end-to-end metrics (untraced
//! run) or per-layer metrics (traced run). See `README.md` next to this
//! crate for the metric map and how to run it.

#![forbid(unsafe_code)]

pub mod fleet_burst;
pub mod groth16;
pub mod harness;
pub mod layers;
pub mod msm_large;

use harness::{Outcome, Tracer};

/// One catalogued metric: name, unit, and whether it must repeat
/// bit-for-bit across runs with the same seed.
pub struct MetricDef {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Comes from a report or counter, never from a clock.
    pub exact: bool,
}

const fn def(name: &'static str, unit: &'static str, exact: bool) -> MetricDef {
    MetricDef { name, unit, exact }
}

/// End-to-end metrics, reported by every workload's untraced run.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", false),
    def("call_ms_p50", "ms", false),
    def("peak_rss_mb", "MB", false),
];

/// Per-layer metrics, reported by every workload's traced run. A layer
/// the workload never calls reports 0 and is named on stdout.
pub const PER_LAYER: &[MetricDef] = &[
    def("ff.mul_ns", "ns", false),
    def("ff.square_ns", "ns", false),
    def("ff.inverse_us", "us", false),
    def("ec.pacc_ns", "ns", false),
    def("ec.padd_ns", "ns", false),
    def("ec.scalar_mul_us", "us", false),
    def("ec.pairing_ms", "ms", false),
    def("core.analytic.estimate_ms", "ms", false),
    def("core.execute_ms", "ms", false),
    def("core.scatter_ms", "ms", false),
    def("core.bucket_sum_ms", "ms", false),
    def("core.reduce_ms", "ms", false),
    def("core.self_ms", "ms", false),
    def("core.engine_over_serial", "ratio", false),
    def("sim.total_s", "sim_s", true),
    def("sim.scatter_s", "sim_s", true),
    def("sim.bucket_sum_s", "sim_s", true),
    def("sim.bucket_reduce_s", "sim_s", true),
    def("sim.window_reduce_s", "sim_s", true),
    def("sim.transfer_s", "sim_s", true),
    def("sim.int_ops", "count", true),
    def("sim.global_atomics", "count", true),
    def("sim.global_bytes", "bytes", true),
    def("model.host_over_sim.scatter", "ratio", false),
    def("model.host_over_sim.bucket_sum", "ratio", false),
    def("comms.bytes", "bytes", true),
    def("comms.steps", "count", true),
    def("zksnark.qap_ms", "ms", false),
    def("zksnark.ntt_ms", "ms", false),
    def("zksnark.msm_g1_ms", "ms", false),
    def("zksnark.msm_g2_ms", "ms", false),
    def("zksnark.verify_ms", "ms", false),
    def("zksnark.msm_share", "ratio", false),
    def("zksnark.ntt_share", "ratio", false),
    def("zksnark.other_share", "ratio", false),
    def("zksnark.sim_prove_s", "sim_s", true),
    def("service.shed", "count", true),
    def("service.deadline_missed", "count", true),
    def("service.sojourn_p95_s", "sim_s", true),
    def("fleet.outsource.twin_ms", "ms", false),
    def("fleet.outsource.verify_ms", "ms", false),
    def("fleet.self_s", "s", false),
    def("fleet.placed", "count", true),
    def("fleet.accepted", "count", true),
    def("fleet.steals", "count", true),
    def("fleet.detections", "count", true),
    def("fleet.replaced", "count", true),
    def("fleet.accept_ratio", "ratio", true),
    def("journal.records", "count", true),
    def("journal.bytes", "bytes", true),
    def("journal.recover_ms", "ms", false),
    def("bench.failed_frac", "ratio", true),
    def("trace.overhead_frac", "ratio", false),
];

/// The workloads, by command-line name.
pub const WORKLOADS: &[&str] = &["msm-large", "groth16", "fleet-burst"];

/// Runs workload `name` at its benchmark size. `None` for an unknown
/// name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, tracer: &mut Tracer) -> Option<Outcome> {
    Some(match name {
        "msm-large" => msm_large::run(&msm_large::Params::BENCH, seed, seconds, tracer),
        "groth16" => groth16::run(&groth16::Params::BENCH, seed, seconds, tracer),
        "fleet-burst" => fleet_burst::run(&fleet_burst::Params::BENCH, seed, seconds, tracer),
        _ => return None,
    })
}

/// Completes a traced run's metrics to the full [`PER_LAYER`] list in
/// catalogue order, filling layers the workload never calls with 0 and
/// naming them in the notes. Adds `bench.failed_frac`.
pub fn finish_per_layer(out: &mut Outcome) {
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    out.push(
        "bench.failed_frac",
        failed_frac,
        "ratio",
        out.attempted as usize,
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    let mut unused = Vec::new();
    for d in PER_LAYER {
        match out.metrics.iter().find(|m| m.name == d.name) {
            Some(m) => metrics.push(m.clone()),
            None => {
                unused.push(d.name);
                metrics.push(harness::Metric {
                    name: d.name,
                    value: 0.0,
                    unit: d.unit,
                    samples: 0,
                });
            }
        }
    }
    if !unused.is_empty() {
        out.notes.push(format!(
            "layers this workload never calls (reported as 0): {}",
            unused.join(", ")
        ));
    }
    out.metrics = metrics;
}

/// Adds the process's peak resident memory as `peak_rss_mb` and keeps
/// only the [`END_TO_END`] metrics, in catalogue order.
pub fn finish_end_to_end(out: &mut Outcome) {
    match harness::peak_rss_mb() {
        Some(mb) => out.push("peak_rss_mb", mb, "MB", 1),
        None => out
            .notes
            .push("peak_rss_mb: /proc/self/status reports no VmHWM".into()),
    }
    out.metrics = END_TO_END
        .iter()
        .filter_map(|d| out.metrics.iter().find(|m| m.name == d.name).cloned())
        .collect();
}
