#!/usr/bin/env python3
"""Runs one workload of the lifter's benchmark and prints its result.

    python3 perfbench/run.py --workload suite|tail|serve --seed N \
        --seconds S --trace 0|1

Run from the repository root. The script builds `perfbench/` (a cargo
package of its own) in release mode into $CARGO_TARGET_DIR (default
`.bench_build`), times the workload's set-up in SETUP_RUNS fresh
processes (untraced runs only), runs the workload, and prints two JSON
lines: the full report (run context, deterministic counters, every
metric), then the result `{"correct", "attempted", "failed", "metrics"}`.
It exits non-zero without a result line when the build or the run fails.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5
# The first build of a checkout compiles every crate; later ones are no-ops.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 150


def build(env):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        check=True, stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def timed_run(command, env):
    """Runs `command` to its end; returns (seconds, exit code).

    Waits with a blocking waitpid: a wait with a timeout polls, and its
    50 ms polling steps showed up in the set-up times. A watchdog kills
    the process after RUN_TIMEOUT_S instead.
    """
    started = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.DEVNULL, env=env)
    watchdog = threading.Timer(RUN_TIMEOUT_S, process.kill)
    watchdog.start()
    try:
        code = process.wait()
    finally:
        watchdog.cancel()
    return time.perf_counter() - started, code


def source_revision():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=os.environ,
                             capture_output=True, text=True, timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "src", "perfbench"):
        files += sorted(p for p in (ROOT / top).rglob("*")
                        if p.is_file() and "target" not in p.parts)
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-sha256:" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["suite", "tail", "serve"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    env = dict(os.environ)
    target = pathlib.Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    try:
        build(env)
    except (OSError, subprocess.SubprocessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    # One glibc malloc arena for all threads: with an arena per thread,
    # the serving process's peak RSS depended on which worker ran which
    # lift (82-116 MiB across seeds); with one it is a property of the
    # work (43-44 MiB). Single-threaded workloads are unaffected.
    run_env = dict(env, MALLOC_ARENA_MAX="1")
    tmp = target / "perfbench-tmp"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--tmp", str(tmp)]

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            seconds, code = timed_run([str(binary), *common, "--setup-only"], run_env)
            if code != 0:
                print(f"run.py: set-up exited with {code}", file=sys.stderr)
                return 1
            setup_s.append(seconds)

    try:
        done = subprocess.run(
            [str(binary), *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, env=run_env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: the workload did not finish in time", file=sys.stderr)
        return 1
    if done.returncode != 0 or not done.stdout.strip():
        print(f"run.py: the workload exited with {done.returncode}", file=sys.stderr)
        return 1
    report = json.loads(done.stdout.strip().splitlines()[-1])

    metrics = report["metrics"]
    if not args.trace:
        if metrics["peak_rss_mb"]["value"] == 0:
            # No /proc: the largest child's peak, which is the workload run.
            kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            metrics["peak_rss_mb"]["value"] = kib / 1024
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
    report["context"] = {
        "nproc": report.pop("nproc"),
        "revision": source_revision(),
        "profile": "release",
        "seed": args.seed,
        "seconds": args.seconds,
        "passes": report.pop("passes"),
        "setup_s_runs": setup_s,
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
