#!/usr/bin/env python3
"""Result files of the coregap host-cost benchmark.

    python3 perfbench/results.py collect [--seeds 1-10] [--out FILE]
    python3 perfbench/results.py diff BASE.json NEW.json
    python3 perfbench/results.py expect [--seeds 1,9001]

`collect` runs every workload once per seed for `run_seconds` of
`BENCHMARK.json` with tracing off, plus one traced run with the first
seed, and writes the end-to-end medians and quartiles (with each
metric's spread against its bound), the unscaled times and gauge
readings behind them, and the traced per-layer numbers to one JSON
file. It fails when a check failed or a spread exceeds a third of its
bound.

`diff` prints, for every workload and metric, the base value, the new
value and the change; count metrics are marked `=` when they are
exactly equal and `!=` otherwise, and end-to-end medians that moved by
more than their bound are marked `WORSE` or `better`. It refuses result
files collected with different `run_seconds`.

`expect` records the simulated outputs of the given seeds into
`perfbench/expected.json`, which `run.py` checks every run against.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run(workload, seed, seconds, trace):
    """One run.py invocation: its result line and the binary's full report."""
    with tempfile.NamedTemporaryFile(suffix=".json", dir=HERE) as raw:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
               "--raw", raw.name]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"{workload} seed {seed}: run.py failed (exit {done.returncode})")
        print(lines[0] if len(lines) > 1 else lines[-1], flush=True)
        with open(raw.name) as f:
            return json.loads(lines[-1]), json.load(f)


def stats(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": vals}


def hardware():
    model = "unknown CPU"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return f"{model}, {os.cpu_count()} vCPUs, {platform.system()} {platform.release()}"


def collect(args):
    spec = load_spec()
    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    result = {"hardware": hardware(), "run_seconds": seconds, "seeds": seeds,
              "traced_seed": seeds[0], "workloads": {}}
    ok = True
    for w in (x["name"] for x in spec["workloads"]):
        values, unscaled = {name: [] for name in bounds}, {}
        attempted = failed = 0
        for seed in seeds:
            r, report = run(w, seed, seconds, 0)
            attempted += r["attempted"]
            failed += r["failed"]
            for name in bounds:
                values[name].append(r["metrics"][name]["value"])
            for name, m in report["metrics"].items():
                if name not in bounds:
                    unscaled.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        e2e = {}
        for name, vals in values.items():
            e2e[name] = {"unit": bounds[name]["unit"], "bound": bounds[name]["bound"], **stats(vals)}
            ok = ok and e2e[name]["spread"] <= bounds[name]["bound"] / 3
        traced, _ = run(w, seeds[0], seconds, 1)
        failed += traced["failed"]
        attempted += traced["attempted"]
        result["workloads"][w] = {
            "check": {"attempted": attempted, "failed": failed,
                      "check_fail_frac": failed / attempted},
            "end_to_end": e2e,
            "unscaled": {name: {"unit": u["unit"], **stats(u["values"])} for name, u in unscaled.items()},
            "per_layer": traced["metrics"],
        }
        ok = ok and failed == 0
    print_summary(result)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
            f.write("\n")
        print(f"wrote {args.out}")
    if not ok:
        sys.exit("some spread exceeds a third of its bound, or a check failed")


def print_summary(result):
    print(f"{'workload':16s} {'metric':12s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>7s} {'bound':>6s}")
    for w, r in result["workloads"].items():
        for name, m in r["end_to_end"].items():
            print(f"{w:16s} {name:12s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:7.3f} {m['bound']:6.2f}  {m['unit']}")
        for name, m in r["unscaled"].items():
            print(f"{w:16s} {name:12s} {m['median']:12.6g} {m['q1']:12.6g} {m['q3']:12.6g} "
                  f"{m['spread']:7.3f} {'':>6s}  {m['unit']}")
        c = r["check"]
        print(f"{w:16s} {'check_fail_frac':12s} {c['check_fail_frac']:12.6g}  "
              f"({c['failed']}/{c['attempted']} runs)")


def fmt(x):
    return f"{x:.6g}" if isinstance(x, (int, float)) else str(x)


def ordered(base, new):
    """Keys of `base` in its order, then those only in `new`."""
    return list(base) + [k for k in new if k not in base]


def diff(args):
    with open(args.base) as f:
        base = json.load(f)
    with open(args.new) as f:
        new = json.load(f)
    # The times are fastest-of-repeats estimates, so they depend on how
    # many repeats fit into a run.
    if base["run_seconds"] != new["run_seconds"]:
        sys.exit(f"run_seconds differ: {base['run_seconds']} in {args.base}, "
                 f"{new['run_seconds']} in {args.new}")
    print(f"{'workload':16s} {'metric':34s} {'base':>14s} {'new':>14s} {'delta':>9s}")
    for w in sorted(set(base["workloads"]) | set(new["workloads"])):
        b, n = base["workloads"].get(w), new["workloads"].get(w)
        if b is None or n is None:
            print(f"{w:16s} only in {'new' if b is None else 'base'}")
            continue
        for name in ordered(b["end_to_end"], n["end_to_end"]):
            bm, nm = b["end_to_end"].get(name), n["end_to_end"].get(name)
            if bm is None or nm is None:
                print(f"{w:16s} {name:34s} only in {'new' if bm is None else 'base'}")
                continue
            rel = (nm["median"] - bm["median"]) / bm["median"]
            mark = ""
            if abs(rel) > bm["bound"]:
                mark = "WORSE" if rel > 0 else "better"
            print(f"{w:16s} {name:34s} {fmt(bm['median']):>14s} {fmt(nm['median']):>14s} "
                  f"{rel:+9.2%} {mark}")
        # Unscaled times and gauge readings: shown, never marked.
        for name in ordered(b["unscaled"], n["unscaled"]):
            bm, nm = b["unscaled"].get(name), n["unscaled"].get(name)
            if bm is None or nm is None:
                continue
            rel = (nm["median"] - bm["median"]) / bm["median"]
            print(f"{w:16s} {name:34s} {fmt(bm['median']):>14s} {fmt(nm['median']):>14s} {rel:+9.2%}")
        for name in ordered(b["per_layer"], n["per_layer"]):
            bm, nm = b["per_layer"].get(name), n["per_layer"].get(name)
            if bm is None or nm is None:
                print(f"{w:16s} {name:34s} only in {'new' if bm is None else 'base'}")
                continue
            bv, nv = bm["value"], nm["value"]
            rel = f"{(nv - bv) / bv:+9.2%}" if bv else f"{'n/a':>9s}"
            mark = ("=" if bv == nv else "!=") if bm["unit"] == "count" else ""
            print(f"{w:16s} {name:34s} {fmt(bv):>14s} {fmt(nv):>14s} {rel} {mark}")


def expect(args):
    spec = load_spec()
    path = os.path.join(HERE, "expected.json")
    with open(path) as f:
        expected = json.load(f)
    for w in (x["name"] for x in spec["workloads"]):
        for seed in parse_seeds(args.seeds):
            _, report = run(w, seed, 1, 0)
            if report["failed"]:
                sys.exit(f"{w} seed {seed}: runs disagree: {report['failures']}")
            expected.setdefault(w, {})[str(seed)] = report["outputs"]
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect", help="run every workload over several seeds")
    c.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 1,9001")
    c.add_argument("--out", help="result file to write")
    d = sub.add_parser("diff", help="compare two result files")
    d.add_argument("base")
    d.add_argument("new")
    e = sub.add_parser("expect", help="record expected simulated outputs")
    e.add_argument("--seeds", default="1,9001")
    args = ap.parse_args()
    {"collect": collect, "diff": diff, "expect": expect}[args.cmd](args)


if __name__ == "__main__":
    main()
