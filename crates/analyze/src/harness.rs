//! Drives the shipped MSM kernels under trace capture and feeds the
//! captured launches to the race checker.
//!
//! Each scenario runs inside its own `distmsm_telemetry::capture::record`
//! call. The capture belongs to the calling thread (and the engine's slice
//! workers, which join it), so scenarios on concurrent threads never see
//! each other's launches.

use crate::race::{check_traces, RaceConfig};
use crate::report::{Finding, Report, Severity};
use distmsm::engine::{DistMsm, DistMsmConfig};
use distmsm::{cuzk, BestGpuBaseline, DistMsmConfigBuilder, ScatterKind};
use distmsm_ec::{curves::Bn254G1, MsmInstance};
use distmsm_gpu_sim::trace::LaunchTrace;
use distmsm_gpu_sim::MultiGpuSystem;
use distmsm_telemetry::capture;
use rand::{rngs::StdRng, SeedableRng};

/// The execution paths the dynamic checker exercises. Together they cover
/// every instrumented kernel: hierarchical and naive scatter, signed-digit
/// scatter, multi-thread bucket-sum, the cuZK sparse transpose, and the
/// single-GPU baseline.
pub const SCENARIOS: [&str; 5] = [
    "distmsm-default",
    "distmsm-naive",
    "distmsm-signed",
    "cuzk",
    "baseline",
];

/// MSM sizes the checker runs each scenario at.
pub const SIZES: [usize; 2] = [256, 1024];

/// Runs one scenario at one size under trace capture and returns the
/// captured launches.
///
/// # Panics
///
/// Panics on an unknown scenario name or if the engine rejects the
/// generated instance (both indicate a bug in this crate).
pub fn capture_scenario(scenario: &str, size: usize) -> Vec<LaunchTrace> {
    let mut rng = StdRng::seed_from_u64(0xD157_0000 ^ size as u64);
    let instance = MsmInstance::<Bn254G1>::random(size, &mut rng);
    const WINDOW: u32 = 8;
    let distmsm = |builder: DistMsmConfigBuilder| {
        let cfg = builder.window_size(WINDOW).build().unwrap();
        DistMsm::with_config(MultiGpuSystem::dgx_a100(4), cfg)
            .execute(&instance)
            .expect(scenario);
    };
    let run = || match scenario {
        "distmsm-default" => distmsm(DistMsmConfig::builder()),
        "distmsm-naive" => distmsm(DistMsmConfig::builder().scatter(ScatterKind::Naive)),
        "distmsm-signed" => distmsm(DistMsmConfig::builder().signed_digits(true)),
        "cuzk" => {
            cuzk::execute(&instance, &MultiGpuSystem::dgx_a100(2), Some(WINDOW));
        }
        "baseline" => {
            BestGpuBaseline::new(MultiGpuSystem::dgx_a100(1))
                .with_window_size(8)
                .execute(&instance)
                .expect("baseline");
        }
        other => panic!("unknown scenario `{other}`"),
    };
    let ((), mut captured) = capture::record(|| {
        capture::collect::<LaunchTrace>();
        run();
    });
    captured.take()
}

/// Runs every scenario at every size and checks the captured launches.
///
/// Besides race findings, a scenario that captures **no** launches is
/// reported (`TRACE-001`): an empty capture would make a "zero findings"
/// verdict vacuous.
pub fn check_shipped_kernels(cfg: &RaceConfig) -> Report {
    let mut report = Report::new();
    for scenario in SCENARIOS {
        for size in SIZES {
            let traces = capture_scenario(scenario, size);
            if traces.is_empty() {
                report.push(Finding::new(
                    "TRACE-001",
                    Severity::Error,
                    format!("{scenario}/n={size}"),
                    "scenario captured no launches — instrumentation inactive".to_owned(),
                ));
                continue;
            }
            report.push(Finding::new(
                "TRACE-000",
                Severity::Info,
                format!("{scenario}/n={size}"),
                format!(
                    "checked {} launch(es), {} accesses",
                    traces.len(),
                    traces.iter().map(|t| t.accesses.len()).sum::<usize>()
                ),
            ));
            report.extend(check_traces(&traces, cfg));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scenario_captures_scatter_and_bucket_sum() {
        let traces = capture_scenario("distmsm-default", 256);
        assert!(traces.iter().any(|t| t.kernel.contains("scatter")));
        assert!(traces.iter().any(|t| t.kernel == "bucket-sum"));
    }

    #[test]
    fn cuzk_scenario_captures_transpose() {
        let traces = capture_scenario("cuzk", 256);
        assert!(traces.iter().any(|t| t.kernel == "cuzk-transpose"));
    }

    #[test]
    fn shipped_kernels_are_race_free() {
        let r = check_shipped_kernels(&RaceConfig::default());
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }
}
