#!/usr/bin/env python3
"""Runs one workload of the coregap host-cost benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` binary from source (into `$CARGO_TARGET_DIR`,
default `.bench_build`), runs it, compares its simulated outputs with
the committed ones in `perfbench/expected.json` when that file has the
seed, and prints a human-readable summary followed by one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the `end_to_end` ones of
`BENCHMARK.json`, with `--trace 1` the `per_layer` ones. Exits non-zero,
without a result line, when the benchmark cannot be built or run.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    """Builds the benchmark in release mode; returns the binary's path."""
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail(f"build failed (exit {done.returncode})")
    return os.path.join(target, "release", "perfbench")


def metric_names(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def expected_outputs(workload, seed):
    path = os.path.join(HERE, "expected.json")
    with open(path) as f:
        return json.load(f).get(workload, {}).get(str(seed))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", help="also write the binary's full JSON report here")
    args = ap.parse_args()

    binary = build()
    names = metric_names(args.trace)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"run failed (exit {done.returncode})")
    report = json.loads(lines[-1])
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(report, f, indent=1)

    attempted, failed = report["attempted"], report["failed"]
    failures = list(report["failures"])
    expected = expected_outputs(args.workload, args.seed)
    if expected is None:
        verdict = "no committed outputs for this seed; runs checked against each other"
    elif expected == report["outputs"]:
        verdict = "outputs match the committed ones"
    else:
        verdict = "outputs DIFFER from the committed ones"
        failures.append(f"expected {expected}, got {report['outputs']}")
        failed = attempted
    missing = [n for n in names if n not in report["metrics"]]
    if missing and not failed:
        fail(f"binary did not report {missing}")
    # A failed probe measures nothing; its metrics read null.
    metrics = {n: report["metrics"].get(n, {"value": None, "unit": None}) for n in names}

    for f in failures:
        print(f"perfbench: check failed: {f}", file=sys.stderr)
    if not args.trace:
        shown = "  ".join(f"{n}={m['value']:.6g} {m['unit']}" for n, m in metrics.items())
        print(f"{args.workload} seed={args.seed}: {shown}  "
              f"check_fail_frac={failed / attempted:.3g} ({failed}/{attempted} runs)  [{verdict}]")
    else:
        print(f"{args.workload} seed={args.seed} traced: {len(metrics)} per-layer metrics  "
              f"check_fail_frac={failed / attempted:.3g} ({failed}/{attempted} runs)  [{verdict}]")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
