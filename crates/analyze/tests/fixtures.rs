//! End-to-end fixtures for the race detector, driven through the real
//! capture pipeline (`capture::record` → `LaunchRecorder` →
//! `Capture::take`) rather than hand-built `LaunchTrace` values.

use distmsm_analyze::{check_traces, RaceConfig};
use distmsm_gpu_sim::trace::{AccessKind, LaunchRecorder, LaunchTrace, Space};
use distmsm_telemetry::capture;

/// Records the launches `kernel` commits.
fn launches(kernel: impl FnOnce()) -> Vec<LaunchTrace> {
    let ((), mut captured) = capture::record(|| {
        capture::collect::<LaunchTrace>();
        kernel();
    });
    captured.take()
}

#[test]
fn racy_toy_kernel_is_flagged() {
    let traces = launches(|| {
        let mut rec = LaunchRecorder::start("toy-racy", 0).expect("collecting");
        // Two blocks accumulate into the same global cell with plain writes
        // and no grid sync between them — the classic lost-update race.
        rec.access(0, 0, 0, Space::Global, AccessKind::Read, 0x99);
        rec.access(0, 0, 0, Space::Global, AccessKind::Write, 0x99);
        rec.access(1, 0, 0, Space::Global, AccessKind::Read, 0x99);
        rec.access(1, 0, 0, Space::Global, AccessKind::Write, 0x99);
        rec.commit();
    });

    assert_eq!(traces.len(), 1, "capture must see the toy launch");
    let report = check_traces(&traces, &RaceConfig::default());
    assert!(
        report.findings.iter().any(|f| f.rule == "RACE-001"),
        "racy toy kernel must be flagged:\n{}",
        report.render_text()
    );
}

#[test]
fn barrier_correct_toy_kernel_passes_clean() {
    let traces = launches(|| {
        let mut rec = LaunchRecorder::start("toy-clean", 0).expect("collecting");
        // Same communication pattern, done correctly: the producer writes in
        // phase 0, the whole block passes one barrier, the consumer reads in
        // phase 1. Cross-block accumulation goes through an atomic.
        rec.access(0, 0, 0, Space::Shared, AccessKind::Write, 0x10);
        rec.access(0, 1, 1, Space::Shared, AccessKind::Read, 0x10);
        rec.access(0, 1, 1, Space::Global, AccessKind::Atomic, 0x99);
        rec.access(1, 0, 0, Space::Shared, AccessKind::Write, 0x10);
        rec.access(1, 1, 1, Space::Shared, AccessKind::Read, 0x10);
        rec.access(1, 1, 1, Space::Global, AccessKind::Atomic, 0x99);
        rec.block_barriers(0, 2, 1);
        rec.block_barriers(1, 2, 1);
        rec.commit();
    });

    assert_eq!(traces.len(), 1);
    let report = check_traces(&traces, &RaceConfig::default());
    assert_eq!(
        report.actionable(),
        0,
        "barrier-correct toy kernel must pass clean:\n{}",
        report.render_text()
    );
}

#[test]
fn missing_barrier_within_a_block_is_flagged() {
    let traces = launches(|| {
        let mut rec = LaunchRecorder::start("toy-missing-barrier", 0).expect("collecting");
        // Producer and consumer in the same block but nobody ever hits a
        // barrier — both accesses sit in phase 0 and are unordered.
        rec.access(0, 0, 0, Space::Shared, AccessKind::Write, 0x10);
        rec.access(0, 1, 0, Space::Shared, AccessKind::Read, 0x10);
        rec.commit();
    });

    let report = check_traces(&traces, &RaceConfig::default());
    assert!(
        report.findings.iter().any(|f| f.rule == "RACE-002"),
        "intra-block shared race must be flagged:\n{}",
        report.render_text()
    );
}
