//! Comm-schedule checker: replays [`CommSchedule`]s captured from the
//! comms crate's schedule stream and verifies conservation and feasibility.
//!
//! Three rule families over every captured schedule:
//!
//! * **COMM-001 — byte conservation.** Each flow must carry exactly
//!   `(hi − lo) · elem_bytes` (when the schedule declares an element
//!   size), and after replaying every step the host's per-element
//!   contribution mask must equal the union of the ranks that
//!   [`CommSchedule::rank_owns`] declares as contributors: no partial may
//!   be dropped on the fabric and none may be fabricated.
//! * **COMM-002 — deadlock-free step ordering.** Replay tracks, per
//!   endpoint and element, the set of rank contributions held (a `u64`
//!   bitmask). A flow may only send data its source already holds at the
//!   *start* of the step (steps are barrier-synchronised: intra-step
//!   sends see pre-step state), and a flow marked
//!   [`reduced`](distmsm_comms::Flow::reduced) must hold *every*
//!   contribution for its range — claiming a full reduction before the
//!   inputs arrived is exactly the ordering bug that deadlocks (or
//!   corrupts) a real NCCL-style pipeline.
//! * **COMM-003 — link over-subscription.** Each GPU rank models a
//!   single-port NIC: at most one injected and one ejected flow per
//!   step (the host is a many-ported sink). A physical link whose
//!   peak concurrent flow count exceeds the rank count indicates a
//!   schedule that serialises on the wire while the model assumes
//!   concurrency.

use crate::report::{Finding, Report, Severity};
use distmsm_comms::{CommSchedule, Endpoint};

/// Replays one schedule against all three rule families.
///
/// `location` prefixes every finding (typically
/// `"<scenario>/<strategy>#<index>"`).
pub fn check_schedule(location: &str, s: &CommSchedule) -> Report {
    let mut report = Report::new();
    let n = s.n_ranks;
    let v = s.vec_len;
    if n > 64 {
        report.push(Finding::new(
            "COMM-000",
            Severity::Info,
            location.to_owned(),
            format!("{n} ranks exceed the 64-bit replay mask; schedule skipped"),
        ));
        return report;
    }

    // Contribution universe: which ranks feed each element.
    let mut contrib = vec![0u64; v];
    for (r, &(lo, hi)) in s.rank_owns.iter().enumerate() {
        for c in &mut contrib[lo.min(v)..hi.min(v)] {
            *c |= 1 << r;
        }
    }
    // Held-contribution masks per endpoint; index `n` is the host.
    let mut held = vec![vec![0u64; v]; n + 1];
    for (r, &(lo, hi)) in s.rank_owns.iter().enumerate() {
        for h in &mut held[r][lo.min(v)..hi.min(v)] {
            *h |= 1 << r;
        }
    }
    let idx = |ep: Endpoint| match ep {
        Endpoint::Rank(r) => r,
        Endpoint::Host => n,
    };

    for (si, step) in s.steps.iter().enumerate() {
        if step.flows.is_empty() {
            report.push(Finding::new(
                "COMM-002",
                Severity::Warning,
                format!("{location}/step{si}"),
                "empty step: every rank stalls for a full barrier".to_owned(),
            ));
            continue;
        }
        let snapshot = held.clone();
        let mut sends = vec![0usize; n + 1];
        let mut recvs = vec![0usize; n + 1];
        for (fi, f) in step.flows.iter().enumerate() {
            let (src, dst) = (idx(f.src), idx(f.dst));
            let loc = format!("{location}/step{si}/flow{fi}");
            sends[src] += 1;
            recvs[dst] += 1;
            if src == dst && f.bytes > 0.0 {
                report.push(Finding::new(
                    "COMM-003",
                    Severity::Warning,
                    loc.clone(),
                    format!("self-flow of {} bytes occupies the fabric for nothing", f.bytes),
                ));
            }
            if s.elem_bytes > 0.0 {
                let want = (f.hi.saturating_sub(f.lo)) as f64 * s.elem_bytes;
                if (f.bytes - want).abs() > 0.5 {
                    report.push(Finding::new(
                        "COMM-001",
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "flow carries {} bytes but its element range {}..{} is {} bytes",
                            f.bytes, f.lo, f.hi, want
                        ),
                    ));
                }
            }
            for e in f.lo..f.hi.min(v) {
                let have = snapshot[src][e];
                if have == 0 {
                    report.push(Finding::new(
                        "COMM-002",
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "source sends element {e} before holding any contribution for it"
                        ),
                    ));
                    break;
                }
                if f.reduced && have != contrib[e] {
                    report.push(Finding::new(
                        "COMM-002",
                        Severity::Error,
                        loc.clone(),
                        format!(
                            "flow claims a fully reduced payload but its source holds \
                             {}/{} contributions for element {e}",
                            have.count_ones(),
                            contrib[e].count_ones()
                        ),
                    ));
                    break;
                }
            }
            for e in f.lo..f.hi.min(v) {
                held[dst][e] |= snapshot[src][e];
            }
        }
        for r in 0..n {
            if sends[r] > 1 {
                report.push(Finding::new(
                    "COMM-003",
                    Severity::Warning,
                    format!("{location}/step{si}"),
                    format!("rank {r} injects {} concurrent flows on a single port", sends[r]),
                ));
            }
            if recvs[r] > 1 {
                report.push(Finding::new(
                    "COMM-003",
                    Severity::Warning,
                    format!("{location}/step{si}"),
                    format!("rank {r} ejects {} concurrent flows on a single port", recvs[r]),
                ));
            }
        }
    }

    let lost = (0..v).filter(|&e| held[n][e] != contrib[e]).count();
    if lost > 0 {
        report.push(Finding::new(
            "COMM-001",
            Severity::Error,
            location.to_owned(),
            format!(
                "host coverage incomplete: {lost}/{v} element(s) missing or carrying \
                 fabricated contributions after the final step"
            ),
        ));
    }
    for l in &s.link_loads {
        if l.peak_flows > n.max(1) {
            report.push(Finding::new(
                "COMM-003",
                Severity::Warning,
                format!("{location}/{}", l.label),
                format!(
                    "link carries {} concurrent flows in one step with only {n} rank(s)",
                    l.peak_flows
                ),
            ));
        }
    }
    report
}

/// Execution paths whose comm schedules the checker captures: the engine's
/// GPU-reduce path under every collective strategy (on a multi-node pod,
/// so routes cross the NIC), the CPU bucket-gather path, and the best-GPU
/// baseline merge.
pub const COMM_SCENARIOS: [&str; 6] = [
    "collective-host-gather",
    "collective-ring-all-reduce",
    "collective-tree-all-reduce",
    "collective-reduce-scatter-gather",
    "cpu-bucket-gather",
    "baseline-merge",
];

/// Runs one comm scenario under a telemetry capture and
/// returns every schedule it finalized.
///
/// # Panics
///
/// Panics on an unknown scenario name or an engine failure (both indicate
/// a bug in this crate).
pub fn capture_comm_scenario(scenario: &str) -> Vec<CommSchedule> {
    use distmsm::engine::{DistMsm, DistMsmConfig};
    use distmsm::BestGpuBaseline;
    use distmsm_ec::{curves::Bn254G1, MsmInstance};
    use distmsm_gpu_sim::MultiGpuSystem;
    use distmsm_telemetry::capture;
    use rand::{rngs::StdRng, SeedableRng};

    let mut rng = StdRng::seed_from_u64(0xC0_4417);
    let instance = MsmInstance::<Bn254G1>::random(256, &mut rng);
    let run = || match scenario {
        s if s.starts_with("collective-") => {
            let strat = distmsm::CollectiveStrategy::parse(&s["collective-".len()..])
                .expect("strategy name");
            let cfg = DistMsmConfig::builder()
                .window_size(8)
                .bucket_reduce_on_cpu(false)
                .collective(strat)
                .build()
                .unwrap();
            // 12 GPUs → two-box dgx pod: routes cross the NIC tier.
            DistMsm::with_config(MultiGpuSystem::dgx_a100(12), cfg)
                .execute(&instance)
                .expect(scenario);
        }
        "cpu-bucket-gather" => {
            let cfg = DistMsmConfig::builder()
                .window_size(8)
                .build()
                .unwrap();
            DistMsm::with_config(MultiGpuSystem::dgx_a100(4), cfg)
                .execute(&instance)
                .expect(scenario);
        }
        "baseline-merge" => {
            BestGpuBaseline::new(MultiGpuSystem::dgx_a100(4))
                .with_window_size(8)
                .execute(&instance)
                .expect(scenario);
        }
        other => panic!("unknown comm scenario `{other}`"),
    };
    let ((), mut captured) = capture::record(|| {
        capture::collect::<CommSchedule>();
        run();
    });
    captured.take()
}

/// Captures every comm scenario and replays each schedule through the
/// COMM rules. A scenario that captures no schedules is itself an error
/// (`COMM-000`): a vacuously clean verdict would hide dead
/// instrumentation.
pub fn check_comm_schedules() -> Report {
    let mut report = Report::new();
    for scenario in COMM_SCENARIOS {
        let schedules = capture_comm_scenario(scenario);
        if schedules.is_empty() {
            report.push(Finding::new(
                "COMM-000",
                Severity::Error,
                scenario.to_owned(),
                "scenario captured no comm schedules — trace stream inactive".to_owned(),
            ));
            continue;
        }
        report.push(Finding::new(
            "COMM-000",
            Severity::Info,
            scenario.to_owned(),
            format!(
                "checked {} schedule(s), {} flow(s)",
                schedules.len(),
                schedules.iter().map(CommSchedule::n_flows).sum::<usize>()
            ),
        ));
        for (i, s) in schedules.iter().enumerate() {
            report.extend(check_schedule(&format!("{scenario}/{}#{i}", s.strategy), s));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use distmsm_comms::{
        plan_collective, CollectiveStrategy, CommConfig, CommStep, Fabric, Topology,
    };

    fn pod_fabric(topo: &Topology) -> Fabric<'_> {
        Fabric::Topology(topo)
    }

    fn clean_plan(strategy: CollectiveStrategy) -> CommSchedule {
        let topo = Topology::dgx_pod(12);
        plan_collective(
            strategy,
            12,
            96,
            96.0,
            &pod_fabric(&topo),
            &CommConfig::default(),
        )
    }

    #[test]
    fn shipped_collectives_replay_clean() {
        for strat in CollectiveStrategy::ALL {
            let s = clean_plan(strat);
            let r = check_schedule(strat.name(), &s);
            assert_eq!(r.actionable(), 0, "{}", r.render_text());
        }
    }

    #[test]
    fn dropped_final_step_breaks_conservation() {
        let mut s = clean_plan(CollectiveStrategy::RingAllReduce);
        s.steps.pop(); // lose the rank-0 → host shipment
        let r = check_schedule("truncated", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-001"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn premature_reduced_claim_is_an_ordering_error() {
        let mut s = clean_plan(CollectiveStrategy::TreeAllReduce);
        // Claim the very first reduce flow already carries a full
        // reduction: its source cannot hold the other contributions yet.
        s.steps[0].flows[0].reduced = true;
        let r = check_schedule("premature", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Error),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn wrong_flow_bytes_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        s.steps[0].flows[0].bytes *= 2.0;
        let r = check_schedule("inflated", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-001"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn double_injection_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        let dup = s.steps[0].flows[0].clone();
        s.steps[0].flows.push(dup);
        let r = check_schedule("double-send", &s);
        assert!(
            r.findings.iter().any(|f| f.rule == "COMM-003"),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn empty_step_flagged_as_stall() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        s.steps.insert(0, CommStep::default());
        let r = check_schedule("stall", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Warning),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn send_before_receive_flagged() {
        let mut s = clean_plan(CollectiveStrategy::HostGather);
        // Rank 3 forwards elements nobody gave it: strip its ownership
        // while its flow still ships the full range.
        s.rank_owns[3] = (0, 0);
        let r = check_schedule("unowned", &s);
        assert!(
            r.findings
                .iter()
                .any(|f| f.rule == "COMM-002" && f.severity == Severity::Error),
            "{}",
            r.render_text()
        );
    }

    #[test]
    fn captured_engine_scenarios_replay_clean() {
        for scenario in COMM_SCENARIOS {
            let schedules = capture_comm_scenario(scenario);
            assert!(!schedules.is_empty(), "{scenario} captured nothing");
            for (i, s) in schedules.iter().enumerate() {
                let r = check_schedule(&format!("{scenario}#{i}"), s);
                assert_eq!(r.actionable(), 0, "{}", r.render_text());
            }
        }
    }
}
