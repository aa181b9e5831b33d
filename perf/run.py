#!/usr/bin/env python3
"""Benchmark entry point for the m2hew simulator.

    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]
    python3 perf/run.py --selftest

Run it from the root of a checkout. It builds the perf/ CMake package (the
repository's libraries plus the m2hew_perf driver) into $CARGO_TARGET_DIR,
or .bench_build when that is unset, then runs each workload in a fresh
m2hew_perf process. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics and --trace 1 the per-layer metrics. A traced run
also writes its spans to <build dir>/traces/. See perf/README.md.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

PERF = pathlib.Path(__file__).resolve().parent
ROOT = PERF.parent
WORKLOADS = ("soa_ud_1e5", "soa_ud_1e6_setup", "sweep_engine_faulted",
             "async_alg4_drift")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One workload process must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def build_dir():
    path = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(target):
    """Configures and builds `target`; returns its path, or None on failure.

    Build output goes to stderr so stdout stays the result stream."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (["cmake", "-S", str(PERF), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", str(out), "--target", target, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return None
    return out / target


def git_describe():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "describe", "--always", "--dirty", "--tags"],
        capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def expected_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode, if it exists."""
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return None
    spec = json.loads(path.read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload process; returns (result, log lines) or (None, log)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--reference", str(PERF / "reference_digests.txt"),
           "--git-describe", git_describe()]
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, [f"{workload}: timed out after {RUN_TIMEOUT_S} s"]
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        return None, lines + [f"{workload}: exit code {proc.returncode}"]
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None, lines + [f"{workload}: no result line"]
    if set(result) != RESULT_KEYS:
        return None, lines[:-1] + [f"{workload}: malformed result line"]
    expected = expected_metrics(trace)
    if expected is not None and sorted(result["metrics"]) != sorted(expected):
        return None, lines[:-1] + [
            f"{workload}: metrics differ from BENCHMARK.json"]
    return result, lines[:-1]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the harness self-tests")
    args = parser.parse_args()

    if args.selftest:
        binary = build("perf_selftest")
        if binary is None:
            return 1
        return subprocess.run([str(binary)]).returncode
    if args.workload is None:
        parser.error("--workload is required")

    binary = build("m2hew_perf")
    if binary is None:
        print("build failed", file=sys.stderr)
        return 1

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result, log = run_workload(binary, name, args.seed, args.seconds,
                                   args.trace)
        if result is None:
            print("\n".join(log), file=sys.stderr)
            return 1
        print("\n".join(log), flush=True)
        if len(names) == 1:
            combined = result
            break
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
