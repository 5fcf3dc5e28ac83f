#!/usr/bin/env python3
"""Build and run one workload of the DistMSM host benchmark.

usage: python3 perfbench/run.py --workload <msm-large|groth16|fleet-burst>
                                --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` Cargo package
(a workspace of its own, next to this file) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload in a child
process pinned to one CPU, and prints provenance (source stamp, rustc
version, core count) ahead of the child's report.

The child runs on one CPU so that it shares its CPU with nothing of its
own: the engine then uses one host thread, and the speed probe the
benchmark times between calls runs on the same CPU as the calls it
scales (see perfbench/README.md). With `--trace 1` the child writes its spans
to `perfbench/out/`.

The last line of stdout is the result JSON. Exit status: 0 when every
output checked out, 1 when the build failed or an output was wrong, 2 on
bad arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("msm-large", "groth16", "fleet-burst")
DEFAULT_SEED = 1
HOLDOUT_SEED = 9001
STAMPED = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench")
SKIPPED_DIRS = {"out", "target", ".git"}
SOURCE_SUFFIXES = (".rs", ".toml", ".lock", ".py")


def source_stamp():
    """SHA-256 over every source file the benchmark builds or runs from."""
    digest = hashlib.sha256()
    files = []
    for top in STAMPED:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files.append(top)
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if d not in SKIPPED_DIRS)
            files.extend(os.path.relpath(os.path.join(dirpath, f), ROOT)
                         for f in filenames if f.endswith(SOURCE_SUFFIXES))
    for rel in sorted(files):
        digest.update(rel.encode())
        with open(os.path.join(ROOT, rel), "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unavailable"


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    cmd = [os.path.join(target, "release", "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(HERE, "out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--spans", os.path.join(out_dir, f"{args.workload}-seed{args.seed}.trace.json")]

    cpu = min(os.sched_getaffinity(0))
    git = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = command_output(["git", "-C", ROOT, "describe", "--always", "--dirty"])
    print(f"provenance: source_sha256={source_stamp()} git={git} "
          f"rustc={command_output(['rustc', '--version'])!r} nproc={os.cpu_count()} "
          f"affinity={len(os.sched_getaffinity(0))} workload_cpu={cpu}")
    print(f"seeds: this run {args.seed}; default {DEFAULT_SEED}, hold-out {HOLDOUT_SEED} "
          "(compare runs only at equal seeds, source stamps and core counts)")
    sys.stdout.flush()

    status = subprocess.run(cmd, preexec_fn=lambda: os.sched_setaffinity(0, {cpu})).returncode
    if status < 0:
        print(f"perfbench: workload killed by signal {-status}", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
