//! `fleet-burst`: a seeded bursty arrival trace of 240 small BN254 MSM
//! jobs (at most 64 points each), in ten bursts of 24, each burst its own
//! `FleetCoordinator::run` on 4 pods × 4 devices with work stealing, a
//! 2G2T check on every job, one byzantine pod and one pod lost a quarter
//! into the burst's horizon.
//!
//! Arrivals are an open loop on the simulated clock; the host replays
//! the bursts in turn as fast as it can. Host time goes to per-call cost
//! (analytic estimates, engine set-up), service dispatch, fleet
//! placement, 2G2T twins and journal appends, with almost no bulk field
//! arithmetic: it uses the engine as many tiny calls instead of one big one.

use std::collections::BTreeMap;
use std::hint::black_box;

use distmsm::prelude::{Bn254G1, DistMsm, DistMsmConfig, MultiGpuSystem, XyzzPoint};
use distmsm_fleet::soak::{
    build_fleet_chaos, build_fleet_jobs, check_fleet_invariants, fleet_config,
};
use distmsm_fleet::{
    Challenge, FleetChaos, FleetConfig, FleetCoordinator, FleetEventKind, FleetOutcome,
    FleetReport, FleetSoakSpec,
};
use distmsm_service::JobSpec;

use crate::harness::{closed_loop, median, overhead_frac, percentile, Outcome, Tracer, Yardstick};
use crate::layers::{arithmetic, core_layers, same_point, serial_pippenger, CoreInputs};

/// Workload size.
pub struct Params {
    /// Bursts in the trace, each replayed by its own fleet run.
    pub bursts: usize,
    /// Jobs per burst.
    pub burst_jobs: usize,
    /// Upper bound on per-job MSM length (jobs draw from `[size/2, size)`).
    pub msm_size: usize,
}

impl Params {
    /// The benchmarked size: 240 jobs, enough that the pooled p95
    /// sojourn has at least ten samples beyond it, in bursts short enough
    /// that a run times many of them.
    pub const BENCH: Params = Params {
        bursts: 10,
        burst_jobs: 24,
        msm_size: 64,
    };
}

/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 5;

/// Burst `burst` of the scenario: `FleetSoakSpec::smoke` scaled to
/// `p.burst_jobs` at the same arrival density, without its random
/// device-fault windows. Bursts of one seed draw disjoint arrival seeds
/// from those of the next seed.
pub fn spec(p: &Params, seed: u64, burst: usize) -> FleetSoakSpec {
    let smoke = FleetSoakSpec::smoke();
    FleetSoakSpec {
        arrival_seed: seed
            .wrapping_mul(p.bursts as u64)
            .wrapping_add(burst as u64),
        n_jobs: p.burst_jobs,
        horizon_s: smoke.horizon_s * p.burst_jobs as f64 / smoke.n_jobs as f64,
        msm_size: p.msm_size,
        n_fault_windows: 0,
        ..smoke
    }
}

/// The fleet configuration for `spec`. Pods allow 8 attempts per job
/// (the soak allows 3): with 3, the jobs in flight on the lost pod
/// exhaust their attempts before its breakers open and fail, and every
/// failed job counts against the benchmark.
pub fn config(spec: &FleetSoakSpec) -> FleetConfig {
    let mut c = fleet_config(spec);
    c.pod.max_attempts = 8;
    c
}

/// One burst's inputs and correctness references.
struct Burst {
    spec: FleetSoakSpec,
    config: FleetConfig,
    jobs: Vec<JobSpec<Bn254G1>>,
    chaos: FleetChaos,
    references: Vec<XyzzPoint<Bn254G1>>,
}

/// Runs the workload; see the module docs.
pub fn run(p: &Params, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let set_up = |tracer: &mut Tracer| -> Vec<Burst> {
        (0..p.bursts)
            .map(|b| {
                let spec = spec(p, seed, b);
                let jobs = build_fleet_jobs(&spec);
                let (references, _) = tracer.time("bench.serial_pippenger", |_| {
                    jobs.iter()
                        .map(|j| serial_pippenger(&j.instance))
                        .collect::<Vec<_>>()
                });
                Burst {
                    config: config(&spec),
                    chaos: build_fleet_chaos(&spec),
                    spec,
                    jobs,
                    references,
                }
            })
            .collect()
    };
    let mut speed = Yardstick::new(tracer);
    let (bursts, first_setup_s) = tracer.time("bench.setup", set_up);
    let first_setup_s = speed.scale(tracer, first_setup_s);

    let mut last: Vec<Option<(FleetCoordinator<Bn254G1>, FleetOutcome<Bn254G1>)>> =
        (0..p.bursts).map(|_| None).collect();
    let times = closed_loop(
        tracer,
        &mut speed,
        (seconds, p.bursts),
        SETUPS - 1,
        |tracer| drop(black_box(set_up(tracer))),
        |tracer, i| {
            let b = &bursts[i % p.bursts];
            // Drop the burst's previous run first, so peak memory does
            // not depend on how many passes the loop makes.
            last[i % p.bursts] = None;
            let mut coordinator = FleetCoordinator::new(b.config.clone());
            let (outcome, t) =
                tracer.time("fleet.run", |_| coordinator.run(b.jobs.clone(), &b.chaos));
            check_jobs(&mut out, &b.jobs, &b.references, &outcome);
            last[i % p.bursts] = Some((coordinator, outcome));
            t
        },
    );
    let runs: Vec<(FleetCoordinator<Bn254G1>, FleetOutcome<Bn254G1>)> = last
        .into_iter()
        .map(|r| r.expect("the loop runs every burst"))
        .collect();
    // A burst's run is deterministic, so the (costly) invariant check of
    // its last run covers the rest; it runs after the loop so that it
    // takes none of the loop's time.
    for (k, (b, (_, outcome))) in bursts.iter().zip(&runs).enumerate() {
        for v in check_fleet_invariants(&b.spec, &b.jobs, outcome, &b.config) {
            out.check(false, || {
                format!("burst {k}: fleet invariant {}: {}", v.invariant, v.detail)
            });
        }
    }
    out.push_loop("fleet.run", first_setup_s, &times, &speed, p.burst_jobs);
    let run_s = &times.calls;
    let sojourns: Vec<f64> = bursts
        .iter()
        .zip(&runs)
        .flat_map(|(b, (_, outcome))| sojourns(&b.jobs, outcome))
        .collect();
    out.push(
        "service.sojourn_p95_s",
        percentile(&sojourns, 95.0),
        "sim_s",
        sojourns.len(),
    );
    if tracer.enabled() {
        arithmetic::<Bn254G1>(tracer, &mut out, seed);
        // Host time of one pass over the bursts: each burst's median run.
        let pass_s: f64 = (0..p.bursts)
            .map(|b| {
                median(
                    &run_s[b..]
                        .iter()
                        .step_by(p.bursts)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
            .sum();
        fleet_layers(tracer, &mut out, &bursts, &runs, pass_s);
        let records: usize = runs
            .iter()
            .map(|(c, _)| c.durable().journal.n_records())
            .sum();
        let bytes: usize = runs
            .iter()
            .map(|(c, _)| c.durable().journal.bytes().len())
            .sum();
        out.push("journal.records", records as f64, "count", p.bursts);
        out.push("journal.bytes", bytes as f64, "bytes", p.bursts);
        let recover_s: Vec<f64> = (0..5)
            .map(|_| {
                let (clean, t) = tracer.time("journal.recover", |_| {
                    runs.iter()
                        .all(|(c, _)| c.durable().recover().is_ok_and(|r| r.torn_tail_bytes == 0))
                });
                out.check(clean, || {
                    "a burst's fleet journal does not recover cleanly".into()
                });
                t
            })
            .collect();
        out.push(
            "journal.recover_ms",
            median(&recover_s) * 1e3,
            "ms",
            recover_s.len(),
        );
        out.push(
            "trace.overhead_frac",
            overhead_frac(&times.calls_ref, p.bursts),
            "ratio",
            run_s.len(),
        );
    }
    out
}

/// Every submitted job must be accepted exactly once, with a result
/// bit-identical to its serial reference.
fn check_jobs(
    out: &mut Outcome,
    jobs: &[JobSpec<Bn254G1>],
    references: &[XyzzPoint<Bn254G1>],
    outcome: &FleetOutcome<Bn254G1>,
) {
    let mut accepted: BTreeMap<u64, Vec<&XyzzPoint<Bn254G1>>> = BTreeMap::new();
    for a in &outcome.accepted {
        accepted.entry(a.id).or_default().push(&a.result);
    }
    for (job, reference) in jobs.iter().zip(references) {
        let results = accepted.get(&job.id).map_or(&[][..], Vec::as_slice);
        out.check(
            results.len() == 1 && same_point(results[0], reference),
            || {
                format!(
                    "job {}: {} accepted results, want 1 equal to the reference",
                    job.id,
                    results.len()
                )
            },
        );
    }
}

/// Simulated sojourn (2G2T `Verified` time minus arrival) of every
/// accepted job.
fn sojourns(jobs: &[JobSpec<Bn254G1>], outcome: &FleetOutcome<Bn254G1>) -> Vec<f64> {
    let arrival: BTreeMap<u64, f64> = jobs.iter().map(|j| (j.id, j.arrival_s)).collect();
    outcome
        .events
        .iter()
        .filter(|e| matches!(e.kind, FleetEventKind::Verified { .. }))
        .filter_map(|e| e.job.and_then(|id| arrival.get(&id)).map(|a| e.t_s - a))
        .collect()
}

/// The engine a pod builds for one job, as `distmsm-service` configures
/// it for a fault-free partition.
fn pod_engine(config: &FleetConfig) -> DistMsm {
    let pod = &config.pod;
    let mut b = DistMsmConfig::builder().window_size(pod.window_size);
    b = match pod.straggler_sla {
        Some(sla) => b.straggler_sla(sla),
        None => b.no_straggler_sla(),
    };
    DistMsm::with_config(
        MultiGpuSystem::dgx_a100(pod.gpus_per_job.min(pod.n_devices)),
        b.build()
            .expect("the service's engine configuration is valid"),
    )
}

/// The engine the coordinator re-executes each returned job's blinded
/// twin on (`FleetCoordinator`'s 2G2T checker: one device, default
/// configuration, so every call runs the analytic window search).
fn checker_engine() -> DistMsm {
    DistMsm::new(MultiGpuSystem::dgx_a100(1))
}

/// `service.*`, `fleet.*`, and the engine families on the checker
/// engine at the largest job's size, over every burst. `pass_s` is the
/// host time of one run of every burst.
fn fleet_layers(
    tracer: &mut Tracer,
    out: &mut Outcome,
    bursts: &[Burst],
    runs: &[(FleetCoordinator<Bn254G1>, FleetOutcome<Bn254G1>)],
    pass_s: f64,
) {
    let config = &bursts[0].config;
    let (pod, checker) = (pod_engine(config), checker_engine());
    // Per returned result, the fleet's children are the pod executing
    // the job, the twin's generation, the checker executing the twin,
    // and the 2G2T check; a rejected result repeats them.
    let (mut twin_s, mut verify_s) = (Vec::new(), Vec::new());
    let mut children_s = 0.0;
    for (b, (_, outcome)) in bursts.iter().zip(runs) {
        let mut rejections: BTreeMap<u64, usize> = BTreeMap::new();
        for e in &outcome.events {
            if let (FleetEventKind::ByzantineDetected { .. }, Some(id)) = (&e.kind, e.job) {
                *rejections.entry(id).or_default() += 1;
            }
        }
        for (job, reference) in b.jobs.iter().zip(&b.references) {
            let n = job.instance.len();
            let (twin, t_twin) = tracer.time("fleet.outsource.twin", |_| {
                let challenge = Challenge::<Bn254G1>::generate(b.config.check_seed ^ job.id, n);
                let twin = challenge.twin_instance(&job.instance);
                (challenge, twin)
            });
            let (challenge, twin) = twin;
            let r2 = serial_pippenger(&twin);
            let (ok, t_verify) = tracer.time("fleet.outsource.verify", |_| {
                challenge.verify(&job.instance.points, reference, &r2)
            });
            out.check(ok, || format!("job {}: honest 2G2T pair rejected", job.id));
            let (_, t_exec) = tracer.time("core.execute", |_| pod.execute(&job.instance));
            let (_, t_exec_twin) = tracer.time("core.execute", |_| checker.execute(&twin));
            let repeats = 1 + rejections.get(&job.id).copied().unwrap_or(0);
            children_s += repeats as f64 * (t_twin + t_verify + t_exec + t_exec_twin);
            twin_s.push(t_twin);
            verify_s.push(t_verify);
        }
    }
    out.push(
        "fleet.outsource.twin_ms",
        median(&twin_s) * 1e3,
        "ms",
        twin_s.len(),
    );
    out.push(
        "fleet.outsource.verify_ms",
        median(&verify_s) * 1e3,
        "ms",
        verify_s.len(),
    );
    out.push("fleet.self_s", pass_s - children_s, "s", 1);

    let largest = bursts
        .iter()
        .flat_map(|b| b.jobs.iter().zip(&b.references))
        .max_by_key(|(j, _)| j.instance.len())
        .expect("the trace has jobs");
    let mut execute_s = Vec::new();
    let mut report = None;
    for _ in 0..5 {
        let (r, t) = tracer.time("core.execute", |_| checker.execute(&largest.0.instance));
        execute_s.push(t);
        report = r.ok();
    }
    let serial_s: Vec<f64> = (0..5)
        .map(|_| {
            tracer
                .time("bench.serial_pippenger", |_| {
                    serial_pippenger(&largest.0.instance)
                })
                .1
        })
        .collect();
    match &report {
        Some(report) => core_layers(
            tracer,
            out,
            &CoreInputs {
                engine: &checker,
                instance: &largest.0.instance,
                reference: largest.1,
                report,
                execute_s: &execute_s,
                serial_s: &serial_s,
            },
        ),
        None => out.check(false, || {
            "the checker engine fails on the largest job".into()
        }),
    }

    let pod_reports = || runs.iter().flat_map(|(_, o)| &o.pod_reports);
    let shed: u64 = pod_reports().map(|r| r.shed()).sum();
    let missed: u64 = pod_reports()
        .flat_map(|r| &r.tenants)
        .map(|t| t.deadline_missed)
        .sum();
    out.push("service.shed", shed as f64, "count", 1);
    out.push("service.deadline_missed", missed as f64, "count", 1);
    let total = |f: fn(&FleetReport) -> u64| -> f64 {
        runs.iter().map(|(_, o)| f(&o.report)).sum::<u64>() as f64
    };
    let (placed, accepted) = (total(|r| r.placed), total(|r| r.accepted));
    let bursts = runs.len();
    out.push("fleet.placed", placed, "count", bursts);
    out.push("fleet.accepted", accepted, "count", bursts);
    out.push("fleet.steals", total(|r| r.steals), "count", bursts);
    out.push("fleet.detections", total(|r| r.detections), "count", bursts);
    out.push("fleet.replaced", total(|r| r.replaced), "count", bursts);
    out.push(
        "fleet.accept_ratio",
        accepted / placed.max(1.0),
        "ratio",
        bursts,
    );
}
