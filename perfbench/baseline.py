#!/usr/bin/env python3
"""Record a baseline: run the benchmark several times per workload and
write every metric's median, quartiles, spread and sample count.

    python3 perfbench/baseline.py [--runs 10] [--trace-runs 3]
                                  [--workloads cold_json,cold_bin,...]
                                  [--out perfbench/baseline.json]

Untraced run k uses seed k (1..runs), traced run k seed k as well. The
spread of a metric is (Q3 - Q1) / median over its runs, with the quartiles
of Python's statistics.quantiles(values, n=4) — the rule BENCHMARK.json's
bounds are judged by. Run from anywhere; the benchmark runs from the
repository root. Uses only the standard library.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, seconds, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(lines[-1])


def summarise(values):
    med = statistics.median(values)
    summary = {"n": len(values), "median": med}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    summary["values"] = values
    return summary


def main():
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace-runs", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--out", default=os.path.join(ROOT, "perfbench", "baseline.json"))
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    describe = subprocess.run(bench["command"] + ["--describe"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    result = {
        "nproc": os.cpu_count(),
        "metrics": json.loads(describe.stdout),
        "run_seconds": args.seconds,
        "runs": args.runs,
        "trace_runs": args.trace_runs,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        entry = {}
        for trace, count, key in ((0, args.runs, "end_to_end"), (1, args.trace_runs, "per_layer")):
            values = {}
            attempted = failed = 0
            for seed in range(1, count + 1):
                started = time.time()
                doc = run(bench, workload, seed, args.seconds, trace)
                attempted += doc["attempted"]
                failed += doc["failed"]
                if not doc["correct"]:
                    sys.exit(f"{workload} seed {seed} trace {trace}: incorrect run")
                for name, m in doc["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"{workload} trace={trace} seed={seed}: {time.time() - started:.1f} s",
                      file=sys.stderr, flush=True)
            entry[key] = {
                name: dict(summarise(v), unit=units.get(name)) for name, v in values.items()
            }
            entry[key + "_requests"] = {"attempted": attempted, "failed": failed}
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            spread = s.get("spread")
            verdict = "" if spread is None or bound is None else (
                "ok" if spread < bound / 3 else "within bound" if spread <= bound else "OVER BOUND")
            print(f"{workload:11s} {name:16s} median {s['median']:<14.6g} "
                  f"spread {spread if spread is not None else float('nan'):.4f} "
                  f"(bound {bound}) {verdict}")
        result["workloads"][workload] = entry
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
