//! Telemetry integration tests (compiled only with the `telemetry`
//! feature): span nesting and sum-consistency of the engine's live
//! emission, a byte-exact golden Chrome-trace export for a seeded
//! 4-GPU run with one injected fail-stop, and the scoping contract of
//! `capture::record` — a capture holds exactly its own work, whatever
//! other threads run meanwhile, and all of its slice workers' launches.
//!
//! The emission is a pure function of the simulated timing model, so
//! the exported JSON is deterministic down to the byte; the golden file
//! (`tests/golden/telemetry_4gpu_fault.json`) pins it. Regenerate after
//! an intentional timing or emission change with:
//!
//! ```text
//! BLESS=1 cargo test -p distmsm --features telemetry --test telemetry
//! ```

#![cfg(feature = "telemetry")]

use distmsm::prelude::*;
use distmsm_comms::CommSchedule;
use distmsm_gpu_sim::trace::LaunchTrace;
use distmsm_telemetry::{capture, record, to_chrome_trace};
use rand::{rngs::StdRng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A 4-GPU, window-8 run over 256 points seeded by `seed`, uncaptured.
fn run_engine(seed: u64, plan: FaultPlan) -> MsmReport<Bn254G1> {
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = MsmInstance::<Bn254G1>::random(256, &mut rng);
    let config = DistMsmConfig::builder()
        .window_size(8)
        .fault_plan(plan)
        .build()
        .expect("valid config");
    DistMsm::with_config(MultiGpuSystem::dgx_a100(4), config)
        .execute(&inst)
        .expect("seeded run completes")
}

/// The golden scenario: one fail-stop on GPU 2 at its first slice.
fn golden_engine() -> MsmReport<Bn254G1> {
    run_engine(42, FaultPlan::fail_stop(2, 0))
}

/// `distmsm-analyze`'s `distmsm-default` race scenario at n = 256.
fn default_engine() {
    run_engine(0xD157_0000 ^ 256, FaultPlan::none());
}

/// What one capture holds, in comparable form: the Chrome-trace export,
/// then the launch traces and comm schedules as sorted multisets of their
/// `Debug` text (slice workers commit launches in scheduling order, and
/// launch numbers follow it, so both are left out).
fn recorded(run: impl FnOnce()) -> [Vec<String>; 3] {
    let ((), mut captured) = record(|| {
        capture::collect::<LaunchTrace>();
        capture::collect::<CommSchedule>();
        run();
    });
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let launches = captured.take::<LaunchTrace>().into_iter();
    let launches = launches.map(|t| format!("{:?}", LaunchTrace { launch: 0, ..t }));
    let schedules = captured.take::<CommSchedule>();
    let schedules = schedules.iter().map(|s| format!("{s:?}"));
    [
        vec![to_chrome_trace(&captured.timeline)],
        sorted(launches.collect()),
        sorted(schedules.collect()),
    ]
}

fn assert_same(label: &str, got: &[Vec<String>; 3], solo: &[Vec<String>; 3]) {
    let parts = ["Chrome-trace export", "launch traces", "comm schedules"];
    for ((part, got), solo) in parts.iter().zip(got).zip(solo) {
        assert!(!solo.is_empty(), "{label}: solo capture holds no {part}");
        assert!(
            got == solo,
            "{label}: {part} differ from the solo capture ({} vs {} items)",
            got.len(),
            solo.len()
        );
    }
}

/// Runs `f` on this thread while a sibling thread loops `sibling` outside
/// any capture. `f` gets `overlap`, which returns once a whole sibling run
/// has started and finished since it was called.
fn with_uncaptured_sibling<R>(sibling: fn(), f: impl FnOnce(&dyn Fn()) -> R) -> R {
    let runs = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let looping = scope.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                sibling();
                runs.fetch_add(1, Ordering::Relaxed);
            }
        });
        let overlap = || {
            // the run after the one in flight starts after this call
            let from = runs.load(Ordering::Relaxed);
            while runs.load(Ordering::Relaxed) < from + 2 {
                assert!(!looping.is_finished(), "sibling engine loop stopped");
                std::thread::yield_now();
            }
        };
        let out = f(&overlap);
        stop.store(true, Ordering::Relaxed);
        out
    })
}

#[test]
fn spans_nest_and_sum_to_report_phases() {
    let (rep, captured) = record(golden_engine);
    let tl = captured.timeline;
    tl.check_well_nested().expect("spans must nest per lane");
    for (name, want) in [
        ("scatter", rep.phases.scatter_s),
        ("bucket-sum", rep.phases.bucket_sum_s),
        ("bucket-reduce", rep.phases.bucket_reduce_s),
        ("window-reduce", rep.phases.window_reduce_s),
        ("transfer", rep.phases.transfer_s),
    ] {
        let got = tl.category_s(name);
        assert!(
            (got - want).abs() <= 1e-9 * want.abs().max(1e-12),
            "{name}: span sum {got} vs report {want}"
        );
    }
    let rec = rep.recovery.as_ref().expect("supervised run");
    let got = tl.category_s("recovery");
    assert!(
        (got - rec.recovery_s()).abs() <= 1e-9 * rec.recovery_s().max(1e-12),
        "recovery: span sum {got} vs report {}",
        rec.recovery_s()
    );
    assert!(
        tl.extent_s() <= rep.total_s * (1.0 + 1e-9),
        "timeline extent {} must not pass total {}",
        tl.extent_s(),
        rep.total_s
    );
    assert!(
        tl.instants
            .iter()
            .any(|i| i.cat == "fault" && i.name == "fault:fail-stop"),
        "the injected fail-stop must appear as an instant"
    );
}

#[test]
fn golden_chrome_trace_is_byte_stable() {
    let json = to_chrome_trace(&record(golden_engine).1.timeline);
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/golden/telemetry_4gpu_fault.json"
    );
    if std::env::var_os("BLESS").is_some() {
        std::fs::write(path, &json).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists — BLESS=1 to create");
    assert_eq!(
        json, golden,
        "exported trace drifted from the golden file; if the timing or \
         emission change is intentional, regenerate with BLESS=1"
    );
}

#[test]
fn sequential_msms_lay_out_end_to_end() {
    let mut rng = StdRng::seed_from_u64(43);
    let inst = MsmInstance::<Bn254G1>::random(128, &mut rng);
    let engine = DistMsm::new(MultiGpuSystem::dgx_a100(2));
    let ((first, mid, second), captured) = record(|| {
        let first = engine.execute(&inst).expect("first MSM");
        let mid = capture::clock_s();
        (first, mid, engine.execute(&inst).expect("second MSM"))
    });
    let tl = captured.timeline;
    assert!(
        (mid - first.total_s).abs() < 1e-12,
        "clock advances by total_s"
    );
    let extent = tl.extent_s();
    let want = first.total_s + second.total_s;
    assert!(
        (extent - want).abs() <= 1e-9 * want,
        "two MSMs extend to {extent}, want {want}"
    );
}

#[test]
fn concurrent_captures_match_their_solo_captures() {
    let start = std::sync::Barrier::new(2);
    let at_once = |run: fn()| {
        recorded(|| {
            start.wait();
            run();
        })
    };
    let (fault, clean) = std::thread::scope(|scope| {
        let fault = scope.spawn(|| at_once(|| drop(golden_engine())));
        let clean = at_once(default_engine);
        (fault.join().unwrap(), clean)
    });
    assert_same("fail-stop run", &fault, &recorded(|| drop(golden_engine())));
    assert_same("clean run", &clean, &recorded(default_engine));
}

#[test]
fn capture_ignores_uncaptured_engines_on_other_threads() {
    let solo = recorded(|| drop(golden_engine()));
    let got = with_uncaptured_sibling(default_engine, |overlap| {
        recorded(|| {
            drop(golden_engine());
            overlap();
        })
    });
    assert_same("fail-stop run beside an uncaptured sibling", &got, &solo);
}

/// On a host with more than one CPU the engine spreads its 32 slices
/// over scoped worker threads; the capture must still hold all of their
/// launches. (With one CPU the engine runs them on the calling thread.)
#[test]
fn capture_holds_every_slice_workers_launches() {
    let [_, launches, _] = with_uncaptured_sibling(
        || drop(golden_engine()),
        |overlap| {
            recorded(|| {
                default_engine();
                overlap();
            })
        },
    );
    // distmsm-analyze's TRACE-000 count for distmsm-default at n = 256
    assert_eq!(launches.len(), 64);
}
