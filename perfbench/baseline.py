#!/usr/bin/env python3
"""Runs every workload of BENCHMARK.json over several seeds and summarizes.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 1] [--trace 0]
                                  [--workload NAME ...] [--label TEXT]
                                  [--out perfbench/results/baseline.json]

Run it from the repository root. Each run is one `perfbench/run.py` call
with its own seed (first-seed, first-seed + 1, ...). For every workload and
metric it reports the values, their median, first and third quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median. The spread is what a
metric's bound in BENCHMARK.json must cover.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def summarize(values):
    median = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / median if median else None
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--label", default="")
    parser.add_argument("--out")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {"label": args.label, "run_seconds": spec["run_seconds"],
              "trace": args.trace, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in workloads:
        runs = []
        for seed in seeds:
            started = time.time()
            done = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if done.returncode != 0 or result is None:
                print(f"{workload} seed {seed}: run failed "
                      f"(exit {done.returncode})", file=sys.stderr)
                ok = False
                continue
            result["seed"] = seed
            result["wall_s"] = round(time.time() - started, 1)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']} s, "
                  f"correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}",
                  file=sys.stderr, flush=True)
        metrics = {}
        for run in runs:
            for name, metric in run["metrics"].items():
                metrics.setdefault(name, {"unit": metric["unit"],
                                          "values": []})
                metrics[name]["values"].append(metric["value"])
        summary = {name: {"unit": m["unit"], **summarize(m["values"])}
                   for name, m in sorted(metrics.items())}
        report["workloads"][workload] = {
            "runs": len(runs),
            "correct": all(r["correct"] for r in runs),
            "error_rate": [r["failed"] / r["attempted"] for r in runs],
            "wall_s": [r["wall_s"] for r in runs],
            "metrics": summary,
        }
        for name, s in summary.items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"{workload:15s} {name:32s} median={s['median']:<14.6g} "
                  f"q1={s['q1']:<12.6g} q3={s['q3']:<12.6g} "
                  f"spread={spread}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
