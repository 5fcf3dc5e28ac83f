#!/usr/bin/env bash
# Tier-1 gate for the DistMSM reproduction.
#
#   ./ci.sh            # build, test, lint, analyze
#
# Every step must pass; the analyze step runs the simulated-GPU race
# detector, the kernel resource linter, the comm-schedule checker, the
# fault-recovery checker, and the service-invariant checker
# (crates/analyze) over traced executions and fails on any warning- or
# error-level finding. The verify step runs the static plan verifier:
# symbolic write-set disjointness/coverage proofs, static collective
# deadlock checks over every topology preset, the mutant corpus and the
# workspace determinism lint — no execution, all N/window/GPU shapes.
# The soak smokes replay seeded chaos scenarios through the
# multi-tenant service and the multi-pod fleet coordinator (whole-pod
# loss plus a byzantine pod caught by the 2G2T check), the journaling
# crash soak, and the partition soak (heartbeat leases, epoch fencing,
# anti-entropy rejoin) and diff their byte-stable reports against
# goldens (BLESS=1 ./ci.sh regenerates).
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release (suite + bench binaries) =="
# The root is itself a package (distmsm-suite), so a bare build on a
# fresh target skips the bench binaries the later steps run; bench is
# selected explicitly. Not --workspace: that would unify the analyze
# crate's unconditional telemetry dependency into the default-feature
# bench binaries and defeat the zero-symbol gate below.
cargo build --release -p distmsm-suite -p distmsm-bench

echo "== telemetry: default build carries no telemetry symbols =="
# feature-off must mean compiled out, not merely inactive (the positive
# control for this grep runs after the feature smoke run below)
for bin in fault_sweep fig8 soak fleet_soak crash_soak partition_soak; do
    if grep -qa distmsm_telemetry "target/release/$bin"; then
        echo "FAIL: default-feature $bin binary contains telemetry symbols" >&2
        exit 1
    fi
done

echo "== cargo test -q --workspace =="
cargo test -q --workspace

echo "== perfbench exact-repeat + catalogue tests =="
# a host-only change that moves an exact sim/comms/fleet/journal metric
# fails here; builds into the benchmark's own target dir
CARGO_TARGET_DIR=.bench_build cargo test --release --manifest-path perfbench/Cargo.toml

echo "== cargo test -p distmsm-comms -q =="
cargo test -p distmsm-comms -q

echo "== fault-injection tests (supervisor + cross-curve recovery props) =="
cargo test -p distmsm -q --test fault_props
cargo test -p distmsm -q --lib supervisor::
cargo test -p distmsm-gpu-sim -q --lib fault::

echo "== service soak smoke (seeded chaos, zero violations) + golden =="
SOAK_JSON="$(mktemp /tmp/distmsm_ci_soak.XXXXXX.json)"
target/release/soak --smoke --json "$SOAK_JSON"
GOLDEN="crates/bench/golden/soak_smoke.json"
if [[ "${BLESS:-0}" == "1" ]]; then
    cp "$SOAK_JSON" "$GOLDEN"
    echo "blessed $GOLDEN"
fi
# the ServiceReport JSON is byte-stable: any drift is a behaviour change
diff -u "$GOLDEN" "$SOAK_JSON"
rm -f "$SOAK_JSON"

echo "== fleet soak smoke (4 pods, 1024 tenants, byzantine + pod loss) + golden =="
FLEET_JSON="$(mktemp /tmp/distmsm_ci_fleet_soak.XXXXXX.json)"
target/release/fleet_soak --smoke --json "$FLEET_JSON"
FLEET_GOLDEN="crates/bench/golden/fleet_soak_smoke.json"
if [[ "${BLESS:-0}" == "1" ]]; then
    cp "$FLEET_JSON" "$FLEET_GOLDEN"
    echo "blessed $FLEET_GOLDEN"
fi
# the FleetReport JSON is byte-stable: any drift is a behaviour change
diff -u "$FLEET_GOLDEN" "$FLEET_JSON"
rm -f "$FLEET_JSON"

echo "== crash soak smoke (journal kill points, torn writes, ckpt resume) + golden =="
CRASH_JSON="$(mktemp /tmp/distmsm_ci_crash_soak.XXXXXX.json)"
target/release/crash_soak --smoke --json "$CRASH_JSON"
CRASH_GOLDEN="crates/bench/golden/crash_soak_smoke.json"
if [[ "${BLESS:-0}" == "1" ]]; then
    cp "$CRASH_JSON" "$CRASH_GOLDEN"
    echo "blessed $CRASH_GOLDEN"
fi
# the CrashReport JSON is byte-stable: any drift is a behaviour change
diff -u "$CRASH_GOLDEN" "$CRASH_JSON"
rm -f "$CRASH_JSON"

echo "== partition soak smoke (leases, fencing, anti-entropy rejoin) + golden =="
PART_JSON="$(mktemp /tmp/distmsm_ci_partition_soak.XXXXXX.json)"
target/release/partition_soak --smoke --json "$PART_JSON"
PART_GOLDEN="crates/bench/golden/partition_soak_smoke.json"
if [[ "${BLESS:-0}" == "1" ]]; then
    cp "$PART_JSON" "$PART_GOLDEN"
    echo "blessed $PART_GOLDEN"
fi
# the PartitionReport JSON is byte-stable: any drift is a behaviour change
diff -u "$PART_GOLDEN" "$PART_JSON"
rm -f "$PART_JSON"

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

echo "== cargo doc --no-deps =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

echo "== telemetry feature tests (span sums + golden trace) =="
cargo test -p distmsm-telemetry -q
cargo test -p distmsm -q --features telemetry --test telemetry

echo "== telemetry smoke run (fault_sweep --telemetry + trace validation) =="
TRACE="$(mktemp /tmp/distmsm_ci_trace.XXXXXX.json)"
cargo run --release -q -p distmsm-bench --features telemetry --bin fault_sweep -- \
    --telemetry "$TRACE" > /dev/null
grep -q '"producer":"distmsm_telemetry"' "$TRACE"
# positive control: the same grep that must fail on the default build
# does detect the feature build it just produced
grep -qa distmsm_telemetry target/release/fault_sweep
cargo run --release -q -p distmsm-analyze -- trace "$TRACE"
rm -f "$TRACE"

echo "== distmsm-analyze check (race + lint + comm + fault + service + ckpt + partition + fleet + telemetry) =="
cargo run -p distmsm-analyze -- check

echo "== distmsm-analyze verify --all-presets (static proofs incl. fleet plans + mutants + det lint) =="
cargo run --release -q -p distmsm-analyze -- verify --all-presets

echo "== unsafe audit: every crate root must forbid unsafe_code =="
for lib in crates/*/src/lib.rs; do
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "FAIL: $lib does not carry #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "== fig9 scaling smoke + BENCH_msm.json trajectory artefact =="
cargo run --release -q -p distmsm-bench --bin fig9_scaling -- \
    --smoke --bench-json BENCH_msm.json
grep -q '"bench": "fig9_scaling"' BENCH_msm.json
grep -q '"pods": 4' BENCH_msm.json
grep -q '"ckpt_rows"' BENCH_msm.json
grep -q '"interval": 1' BENCH_msm.json
grep -q '"partition_rows"' BENCH_msm.json

echo "CI OK"
