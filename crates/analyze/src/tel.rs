//! Telemetry-consistency checker: runs the engine with live telemetry
//! and verifies the emitted timeline against the report it came from.
//!
//! Rules:
//!
//! * **TEL-001 — spans well-nested and sum-consistent.** Per lane, the
//!   span forest must nest properly (no partial overlap), and for every
//!   phase the engine's [`MsmReport`] claims, the timeline's attributed
//!   span time (max over device lanes, summed over serial lanes,
//!   structural containers excluded) must reproduce the report's number
//!   within rounding. The timeline must also not extend past the
//!   report's `total_s`.
//! * **TEL-002 — exports round-trip.** The Chrome-trace JSON the
//!   timeline exports must parse with the crate's own parser and pass
//!   [`distmsm_telemetry::validate_chrome_trace`] — the same validation
//!   `distmsm-analyze trace <file>` applies to traces on disk.

use crate::report::{Finding, Report, Severity};
use distmsm::engine::{DistMsm, DistMsmConfig, MsmReport};
use distmsm::report::Report as _;
use distmsm_ec::{curves::Bn254G1, Curve, MsmInstance};
use distmsm_gpu_sim::{FaultPlan, MultiGpuSystem};
use distmsm_telemetry::{parse_json, record, to_chrome_trace, validate_chrome_trace, Timeline};
use rand::{rngs::StdRng, SeedableRng};

/// Relative tolerance for span-sum vs report-phase comparisons: the
/// emitter re-accumulates per-slice kernel times in a different order
/// than the engine, so the sums may differ by floating-point rounding,
/// never by a kernel's worth of time.
const REL_EPS: f64 = 1e-9;

/// The scenarios the checker traces. Together they cover the engine's
/// emission paths: the pipelined CPU bucket-reduce, the GPU-reduce
/// collective with its host combine, and a supervised fail-stop with
/// the full recovery tail.
pub const TEL_SCENARIOS: [&str; 3] = [
    "default-pipelined",
    "gpu-reduce-collective",
    "fail-stop-recovery",
];

/// Builds `(system, config)` for one scenario.
///
/// # Panics
///
/// Panics on an unknown scenario name (a bug in this crate).
fn scenario_setup(scenario: &str) -> (MultiGpuSystem, DistMsmConfig) {
    let base = DistMsmConfig::builder().window_size(8);
    let (system, builder) = match scenario {
        "default-pipelined" => (MultiGpuSystem::dgx_a100(4), base),
        "gpu-reduce-collective" => (
            MultiGpuSystem::dgx_a100(4),
            base.bucket_reduce_on_cpu(false),
        ),
        "fail-stop-recovery" => (
            MultiGpuSystem::dgx_a100(8),
            base.fault_plan(FaultPlan::fail_stop(3, 0)),
        ),
        other => panic!("unknown telemetry scenario `{other}`"),
    };
    (system, builder.build().expect("scenario config is valid"))
}

/// Runs one scenario under a telemetry capture and returns the
/// captured timeline with the engine report it must be consistent with.
///
/// # Panics
///
/// Panics on an unknown scenario or an engine failure (every shipped
/// scenario is recoverable by construction).
pub fn run_tel_scenario(scenario: &str) -> (Timeline, MsmReport<Bn254G1>) {
    let (system, config) = scenario_setup(scenario);
    let mut rng = StdRng::seed_from_u64(0x7e1e ^ scenario.len() as u64);
    let instance = MsmInstance::<Bn254G1>::random(256, &mut rng);
    let (report, captured) = record(|| {
        DistMsm::with_config(system, config)
            .execute(&instance)
            .unwrap_or_else(|e| panic!("{scenario}: engine must succeed, got {e}"))
    });
    (captured.timeline, report)
}

/// Checks one captured timeline against its report (`TEL-001`) and its
/// export round-trip (`TEL-002`).
pub fn check_timeline<C: Curve>(
    scenario: &str,
    timeline: &Timeline,
    report: &MsmReport<C>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    if let Err(e) = timeline.check_well_nested() {
        findings.push(Finding::new(
            "TEL-001",
            Severity::Error,
            scenario.to_owned(),
            format!("span nesting violated: {e}"),
        ));
    }
    for phase in report.phase_breakdown() {
        let got = timeline.category_s(&phase.name);
        let tol = REL_EPS * phase.seconds.abs().max(1e-12);
        if (got - phase.seconds).abs() > tol {
            findings.push(Finding::new(
                "TEL-001",
                Severity::Error,
                format!("{scenario}/{}", phase.name),
                format!(
                    "span time {got:.9e}s disagrees with report phase {:.9e}s",
                    phase.seconds
                ),
            ));
        }
    }
    let extent = timeline.extent_s();
    if extent > report.total_s() * (1.0 + REL_EPS) + 1e-15 {
        findings.push(Finding::new(
            "TEL-001",
            Severity::Error,
            scenario.to_owned(),
            format!(
                "timeline extends to {extent:.9e}s past the report total {:.9e}s",
                report.total_s()
            ),
        ));
    }
    let json = to_chrome_trace(timeline);
    match parse_json(&json) {
        Ok(doc) => {
            for e in validate_chrome_trace(&doc) {
                findings.push(Finding::new(
                    "TEL-002",
                    Severity::Error,
                    scenario.to_owned(),
                    format!("exported trace fails validation: {e}"),
                ));
            }
        }
        Err(e) => findings.push(Finding::new(
            "TEL-002",
            Severity::Error,
            scenario.to_owned(),
            format!("exported trace is not valid JSON: {e}"),
        )),
    }
    findings
}

/// Runs every telemetry scenario and checks span nesting, report
/// sum-consistency and export validity.
pub fn check_telemetry() -> Report {
    let mut report = Report::new();
    for scenario in TEL_SCENARIOS {
        let (timeline, msm) = run_tel_scenario(scenario);
        report.push(Finding::new(
            "TEL-000",
            Severity::Info,
            scenario.to_owned(),
            format!(
                "{} span(s), {} instant(s), {} counter sample(s) captured",
                timeline.spans.len(),
                timeline.instants.len(),
                timeline.counters.len()
            ),
        ));
        if timeline.spans.is_empty() {
            report.push(Finding::new(
                "TEL-000",
                Severity::Error,
                scenario.to_owned(),
                "engine emitted no spans — telemetry hooks inactive".to_owned(),
            ));
        }
        for f in check_timeline(scenario, &timeline, &msm) {
            report.push(f);
        }
    }
    report
}

/// Validates a Chrome-trace JSON file on disk (the `trace` subcommand):
/// parses it with the telemetry crate's own parser and applies
/// [`validate_chrome_trace`].
///
/// # Errors
///
/// Returns the I/O error message if the file cannot be read.
pub fn check_trace_file(path: &str) -> Result<Report, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut report = Report::new();
    match parse_json(&text) {
        Ok(doc) => {
            let events = doc
                .get("traceEvents")
                .and_then(|v| v.as_arr())
                .map_or(0, <[_]>::len);
            report.push(Finding::new(
                "TEL-000",
                Severity::Info,
                path.to_owned(),
                format!("{events} trace event(s) parsed"),
            ));
            for e in validate_chrome_trace(&doc) {
                report.push(Finding::new(
                    "TEL-002",
                    Severity::Error,
                    path.to_owned(),
                    e,
                ));
            }
        }
        Err(e) => report.push(Finding::new(
            "TEL-002",
            Severity::Error,
            path.to_owned(),
            format!("not valid JSON: {e}"),
        )),
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_pass_tel_rules() {
        let report = check_telemetry();
        assert_eq!(
            report.actionable(),
            0,
            "telemetry rules must hold:\n{}",
            report.render_text()
        );
    }

    #[test]
    fn recovery_scenario_carries_fault_instant_and_recovery_spans() {
        let (tl, msm) = run_tel_scenario("fail-stop-recovery");
        assert!(
            tl.instants.iter().any(|i| i.cat == "fault"),
            "fault instants must be recorded"
        );
        assert!(
            tl.spans.iter().any(|s| s.cat == "recovery"),
            "recovery spans must be recorded"
        );
        let rec = msm.recovery.as_ref().expect("supervised run");
        let got = tl.category_s("recovery");
        assert!(
            (got - rec.recovery_s()).abs() <= REL_EPS * rec.recovery_s().max(1e-12),
            "recovery category {got} vs report {}",
            rec.recovery_s()
        );
    }

    #[test]
    fn tampered_timeline_is_caught() {
        let (mut tl, msm) = run_tel_scenario("default-pipelined");
        // shift one attributed span to overlap its sibling: nesting or
        // the phase sum (or both) must now fail
        let idx = tl
            .spans
            .iter()
            .position(|s| s.cat == "scatter")
            .expect("scatter spans exist");
        tl.spans[idx].t1_s += msm.total_s;
        let findings = check_timeline("tampered", &tl, &msm);
        assert!(
            findings.iter().any(|f| f.rule == "TEL-001"),
            "tampering must surface as TEL-001: {findings:?}"
        );
    }

    #[test]
    fn trace_file_checker_accepts_own_export() {
        let (tl, _) = run_tel_scenario("default-pipelined");
        let path = std::env::temp_dir().join("distmsm_tel_check.json");
        std::fs::write(&path, to_chrome_trace(&tl)).expect("write temp trace");
        let report = check_trace_file(path.to_str().expect("utf-8 path")).expect("readable");
        assert_eq!(report.actionable(), 0, "{}", report.render_text());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_file_checker_rejects_garbage() {
        let path = std::env::temp_dir().join("distmsm_tel_garbage.json");
        std::fs::write(&path, "{not json").expect("write temp file");
        let report = check_trace_file(path.to_str().expect("utf-8 path")).expect("readable");
        assert!(report.actionable() > 0);
        let _ = std::fs::remove_file(&path);
    }
}
