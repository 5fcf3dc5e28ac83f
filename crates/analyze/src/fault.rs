//! Fault-recovery checker: runs the engine under seeded fault plans and
//! verifies that recovery kept every invariant it claims to.
//!
//! Two rule families over every fault scenario:
//!
//! * **FAULT-001 — byte conservation under replay.** The comm schedules
//!   a *recovering* execution emits (degraded host gathers, survivor-only
//!   bucket gathers) must still replay clean through the `COMM-00x`
//!   rules: a lost rank contributes nothing, but nothing any survivor
//!   shipped may be dropped or fabricated. The recovered MSM value must
//!   also equal the fault-free execution bit-for-bit — conservation of
//!   the *payload*, not just the byte counts.
//! * **FAULT-002 — no orphaned work after re-plan.** The supervisor's
//!   [`RecoveryReport::completed`] slice set must tile the plan's
//!   `n_windows × n_buckets` space exactly (every bucket folded exactly
//!   once — an orphaned bucket silently corrupts the result, a
//!   double-covered one corrupts it loudly), and every re-planned slice
//!   must be owned by a surviving GPU.

use crate::comm::check_schedule;
use crate::report::{Finding, Report, Severity};
use distmsm::engine::{DistMsm, DistMsmConfig};
use distmsm::supervisor::RecoveryReport;
use distmsm_ec::{curves::Bn254G1, MsmInstance, XyzzPoint};
use distmsm_gpu_sim::{FaultEvent, FaultKind, FaultPlan, LinkFault, MultiGpuSystem};
use distmsm_telemetry::capture;
use rand::{rngs::StdRng, SeedableRng};

/// The fault scenarios the checker injects. Together they cover the
/// supervisor's recovery paths: fail-stop on the CPU-gather path,
/// fail-stop degrading the GPU-reduce collective, a fabric-isolated
/// rank, a mid-recovery cascade, and a transient bit-flip caught by the
/// RLC self-check.
pub const FAULT_SCENARIOS: [&str; 5] = [
    "fail-stop-cpu-gather",
    "fail-stop-degraded-collective",
    "isolated-rank",
    "cascading-fail-stop",
    "bit-flip-self-check",
];

/// Builds `(system, faulted config, clean config)` for one scenario.
///
/// # Panics
///
/// Panics on an unknown scenario name (a bug in this crate).
fn scenario_setup(scenario: &str) -> (MultiGpuSystem, DistMsmConfig, DistMsmConfig) {
    let base = DistMsmConfig::builder().window_size(8);
    let (system, faulted) = match scenario {
        "fail-stop-cpu-gather" => (
            MultiGpuSystem::dgx_a100(8),
            base.fault_plan(FaultPlan::fail_stop(3, 0)),
        ),
        "fail-stop-degraded-collective" => (
            MultiGpuSystem::dgx_a100(4),
            base.bucket_reduce_on_cpu(false)
                .fault_plan(FaultPlan::fail_stop(2, 0)),
        ),
        "isolated-rank" => (
            MultiGpuSystem::dgx_a100(4),
            base.fault_plan(
                FaultPlan::none()
                    .with_link_fault(LinkFault::PeerPortDown { rank: 2 })
                    .with_link_fault(LinkFault::HostPortDown { rank: 2 }),
            ),
        ),
        "cascading-fail-stop" => (
            MultiGpuSystem::dgx_a100(8),
            base.window_size(4)
                .fault_plan(FaultPlan::fail_stop(3, 0).with_event(FaultEvent {
                    device: 4,
                    at_event: 8,
                    attempt: 0,
                    kind: FaultKind::FailStop,
                })),
        ),
        "bit-flip-self-check" => (
            MultiGpuSystem::dgx_a100(4),
            base.fault_plan(FaultPlan::bit_flip(1, 0)),
        ),
        other => panic!("unknown fault scenario `{other}`"),
    };
    let faulted = faulted.build().expect("scenario config is valid");
    // the clean reference must use the same path flags as the faulted run
    let clean = faulted
        .to_builder()
        .fault_plan(FaultPlan::none())
        .build()
        .expect("clean twin of a valid config is valid");
    (system, faulted, clean)
}

/// Runs one fault scenario: the clean reference result, the recovering
/// execution's result + recovery report, and the comm schedules the
/// recovering execution emitted.
///
/// # Panics
///
/// Panics on an unknown scenario or an unrecoverable engine failure
/// (every shipped scenario is recoverable by construction).
pub fn run_fault_scenario(
    scenario: &str,
) -> (
    XyzzPoint<Bn254G1>,
    XyzzPoint<Bn254G1>,
    RecoveryReport,
    Vec<distmsm_comms::CommSchedule>,
) {
    let (system, faulted_cfg, clean_cfg) = scenario_setup(scenario);
    let mut rng = StdRng::seed_from_u64(0xFA_017);
    let instance = MsmInstance::<Bn254G1>::random(256, &mut rng);

    let clean = DistMsm::with_config(system.clone(), clean_cfg)
        .execute(&instance)
        .expect(scenario);

    let (faulted, mut captured) = capture::record(|| {
        capture::collect::<distmsm_comms::CommSchedule>();
        DistMsm::with_config(system, faulted_cfg)
            .execute(&instance)
            .expect(scenario)
    });
    let schedules = captured.take();

    let recovery = faulted.recovery.expect("supervised run reports recovery");
    (clean.result, faulted.result, recovery, schedules)
}

/// Replays one recovery report against the FAULT-002 rules.
///
/// `location` prefixes every finding.
pub fn check_recovery_report(location: &str, rec: &RecoveryReport) -> Report {
    let mut report = Report::new();
    let (w, b) = (rec.n_windows as usize, rec.n_buckets as usize);
    if w == 0 || b == 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            "recovery report carries an empty plan geometry".to_owned(),
        ));
        return report;
    }
    let mut seen = vec![0u32; w * b];
    for s in &rec.completed {
        for bucket in s.bucket_lo..s.bucket_hi {
            let i = s.window as usize * b + bucket as usize;
            match seen.get_mut(i) {
                Some(c) => *c += 1,
                None => {
                    report.push(Finding::new(
                        "FAULT-002",
                        Severity::Error,
                        location.to_owned(),
                        format!(
                            "completed slice (gpu {}, window {}, buckets {}..{}) \
                             lies outside the {w}×{b} plan",
                            s.gpu, s.window, s.bucket_lo, s.bucket_hi
                        ),
                    ));
                    return report;
                }
            }
        }
    }
    let orphaned = seen.iter().filter(|&&c| c == 0).count();
    let doubled = seen.iter().filter(|&&c| c > 1).count();
    if orphaned > 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            format!("{orphaned}/{} bucket(s) orphaned after re-plan", w * b),
        ));
    }
    if doubled > 0 {
        report.push(Finding::new(
            "FAULT-002",
            Severity::Error,
            location.to_owned(),
            format!("{doubled}/{} bucket(s) folded more than once", w * b),
        ));
    }
    for s in &rec.replanned {
        // a cascade may lose a survivor *after* it completed re-planned
        // work (checkpointed pre-death, so the partial counts); only a
        // slice on a lost GPU that never completed is orphaned work
        if rec.lost_gpus.contains(&s.gpu) && !rec.completed.contains(s) {
            report.push(Finding::new(
                "FAULT-002",
                Severity::Error,
                location.to_owned(),
                format!(
                    "re-planned slice (window {}, buckets {}..{}) assigned to \
                     lost GPU {} and never completed",
                    s.window, s.bucket_lo, s.bucket_hi, s.gpu
                ),
            ));
        }
    }
    report
}

/// Runs every fault scenario and replays the FAULT rules. A scenario
/// whose recovering execution captured no comm schedules is itself an
/// error (`FAULT-000`), mirroring `COMM-000`.
pub fn check_fault_recovery() -> Report {
    let mut report = Report::new();
    for scenario in FAULT_SCENARIOS {
        let (clean, recovered, rec, schedules) = run_fault_scenario(scenario);
        report.push(Finding::new(
            "FAULT-000",
            Severity::Info,
            scenario.to_owned(),
            format!(
                "{} fault(s) observed, {} slice(s) re-planned, {} schedule(s) replayed",
                rec.faults.len(),
                rec.replanned.len(),
                schedules.len()
            ),
        ));
        if recovered != clean {
            report.push(Finding::new(
                "FAULT-001",
                Severity::Error,
                scenario.to_owned(),
                "recovered MSM differs from the fault-free execution".to_owned(),
            ));
        }
        if schedules.is_empty() {
            report.push(Finding::new(
                "FAULT-000",
                Severity::Error,
                scenario.to_owned(),
                "recovering execution captured no comm schedules — trace stream inactive"
                    .to_owned(),
            ));
        }
        for (i, s) in schedules.iter().enumerate() {
            let replay = check_schedule(&format!("{scenario}/{}#{i}", s.strategy), s);
            if replay.actionable() > 0 {
                report.push(Finding::new(
                    "FAULT-001",
                    Severity::Error,
                    format!("{scenario}/{}#{i}", s.strategy),
                    format!(
                        "recovery comm schedule violates conservation/ordering \
                         ({} actionable replay finding(s))",
                        replay.actionable()
                    ),
                ));
            }
            report.extend(replay);
        }
        report.extend(check_recovery_report(scenario, &rec));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm::plan::Slice;

    #[test]
    fn shipped_fault_scenarios_replay_clean() {
        let r = check_fault_recovery();
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    fn toy_report() -> RecoveryReport {
        RecoveryReport {
            n_windows: 2,
            n_buckets: 4,
            completed: vec![
                Slice { gpu: 0, window: 0, bucket_lo: 0, bucket_hi: 4 },
                Slice { gpu: 1, window: 1, bucket_lo: 0, bucket_hi: 4 },
            ],
            ..RecoveryReport::default()
        }
    }

    #[test]
    fn exact_tiling_passes() {
        let r = check_recovery_report("toy", &toy_report());
        assert_eq!(r.actionable(), 0, "{}", r.render_text());
    }

    #[test]
    fn orphaned_bucket_flagged() {
        let mut rec = toy_report();
        rec.completed[1].bucket_hi = 3; // bucket (1, 3) now orphaned
        let r = check_recovery_report("orphan", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("orphaned")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn double_fold_flagged() {
        let mut rec = toy_report();
        rec.completed.push(Slice { gpu: 2, window: 0, bucket_lo: 1, bucket_hi: 2 });
        let r = check_recovery_report("double", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("more than once")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn replan_onto_lost_gpu_flagged() {
        let mut rec = toy_report();
        rec.lost_gpus = vec![1];
        // not in `completed`: genuinely orphaned on a dead device
        rec.replanned = vec![Slice { gpu: 1, window: 0, bucket_lo: 0, bucket_hi: 2 }];
        let r = check_recovery_report("lost-owner", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("lost GPU")),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn out_of_plan_slice_flagged() {
        let mut rec = toy_report();
        rec.completed.push(Slice { gpu: 0, window: 5, bucket_lo: 0, bucket_hi: 1 });
        let r = check_recovery_report("oob", &rec);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "FAULT-002" && f.message.contains("outside")),
            "{}",
            r.render_text()
        );
    }
}
