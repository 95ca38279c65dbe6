#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run it from the repository root. The first run configures and builds
perfbench (and the program's sources it links) into .bench_build/perfbench.
Every run starts the workload in a fresh process.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with tracing
off. --trace 1 runs the workload twice for half of --seconds each, first
untraced and then traced, reports the per-layer metrics from the traced
run, and reports the difference between the two as trace.overhead_pct.
The traced run writes its spans to .bench_build/perfbench/spans-*.jsonl.

Human-readable lines (every metric by name, unit and sample count) come
first; the last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
answer was correct and 1 otherwise (or when the build or a run fails).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
SELFTEST = os.path.join(BUILD, "perfbench_selftest")
RUN_BUDGET_S = 170  # all measuring processes of one run together
SETUPS = 5  # set-up repetitions per untraced run; setup_s is their median
# End-to-end metrics every untraced run prints but BENCHMARK.json does not
# gate (see README.md).
PRINTED_ONLY = ("write_p50_ms", "write_p99_ms", "error_rate")


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds perfbench; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release", *generator]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    built = subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                           stdout=sys.stderr)
    return built.returncode == 0


def run_workload(workload, seed, seconds, trace, setups, deadline,
                 spans=None):
    """Runs perfbench once, killing it at `deadline` (time.monotonic());
    returns (human lines, parsed result) or None."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "1" if trace else "0",
           "--setups", str(setups)]
    if spans:
        cmd += ["--spans", spans]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} did not finish within {RUN_BUDGET_S} s")
        return None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        log(f"perfbench: {workload} exited {done.returncode}")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"perfbench: unparseable result line: {lines[-1]!r}")
        return None
    return lines[:-1], result


def select(result, wanted):
    """The metrics named in `wanted` (BENCHMARK.json entries), checked
    against the units the spec gives them."""
    out = {}
    for entry in wanted:
        name = entry["name"]
        got = result["metrics"].get(name)
        if got is None:
            raise KeyError(f"metric {name} missing from the run")
        if got["unit"] != entry["unit"]:
            raise KeyError(f"metric {name}: unit {got['unit']}, "
                           f"spec says {entry['unit']}")
        out[name] = {"value": got["value"], "unit": got["unit"]}
    return out


def measure(spec, workload, seed, seconds, trace):
    """One benchmark run; returns (human lines, final result dict) or None."""
    deadline = time.monotonic() + RUN_BUDGET_S
    if not trace:
        ran = run_workload(workload, seed, seconds, False, SETUPS, deadline)
        if ran is None:
            return None
        lines, result = ran
        metrics = select(result, spec["end_to_end"])
        correct = result["correct"]
        attempted, failed = result["attempted"], result["failed"]
    else:
        half = seconds / 2.0
        plain = run_workload(workload, seed, half, False, 1, deadline)
        spans = os.path.join(BUILD, f"spans-{workload}-{seed}.jsonl")
        traced = (run_workload(workload, seed, half, True, 1, deadline, spans)
                  if plain is not None else None)
        if plain is None or traced is None:
            return None
        plain_p50 = plain[1]["metrics"]["read_p50_ms"]["value"]
        traced_p50 = traced[1]["metrics"]["read_p50_ms"]["value"]
        overhead = (100.0 * (traced_p50 / plain_p50 - 1.0)
                    if plain_p50 > 0 else 0.0)
        traced[1]["metrics"]["trace.overhead_pct"] = {
            "value": overhead, "unit": "%"}
        lines = (["# untraced half-run:"] + plain[0] +
                 ["# traced half-run:"] + traced[0] +
                 [f"# trace.overhead_pct {overhead:.3f} % (read_p50_ms "
                  f"traced {traced_p50:.6f} vs untraced {plain_p50:.6f}); "
                  f"spans in {os.path.relpath(spans, ROOT)}"])
        metrics = select(traced[1], spec["per_layer"])
        correct = plain[1]["correct"] and traced[1]["correct"]
        attempted = plain[1]["attempted"] + traced[1]["attempted"]
        failed = plain[1]["failed"] + traced[1]["failed"]
    final = {"correct": bool(correct), "attempted": int(attempted),
             "failed": int(failed), "metrics": metrics}
    return lines, final


def selftest(spec):
    """The benchmark's own tests: the C++ self-tests (percentile rule,
    seeded inputs, oracle), then a short run of every workload in both
    modes whose output must parse and carry every metric with its unit."""
    ok = subprocess.run([SELFTEST]).returncode == 0
    for entry in spec["workloads"]:
        for trace in (False, True):
            try:
                got = measure(spec, entry["name"], 7, 1.0, trace)
            except KeyError as err:
                print(f"FAIL {entry['name']} trace={int(trace)}: {err}")
                ok = False
                continue
            if got is None:
                print(f"FAIL {entry['name']} trace={int(trace)}: run failed")
                ok = False
                continue
            lines, final = got
            line = json.dumps(final)
            parsed = json.loads(line)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            good = (set(parsed) == {"correct", "attempted", "failed",
                                    "metrics"}
                    and parsed["correct"] is True
                    and parsed["attempted"] >= 1
                    and set(parsed["metrics"]) == {m["name"] for m in wanted}
                    and all(isinstance(v["value"], (int, float))
                            for v in parsed["metrics"].values())
                    and (trace or all(any(name in l for l in lines)
                                      for name in PRINTED_ONLY)))
            print(f"{'PASS' if good else 'FAIL'} {entry['name']} "
                  f"trace={int(trace)}: output carries "
                  f"{len(parsed['metrics'])} metrics with units")
            ok = ok and good
    print("ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        log(f"perfbench: cannot read BENCHMARK.json: {err}")
        return 1
    if not build():
        log("perfbench: build failed")
        return 1
    if args.selftest:
        return selftest(spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"perfbench: --workload must be one of {names}")
        return 2
    if args.seconds <= 0:
        log("perfbench: --seconds must be positive")
        return 2
    try:
        got = measure(spec, args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except KeyError as err:
        log(f"perfbench: {err}")
        return 1
    if got is None:
        return 1
    lines, final = got
    for line in lines:
        print(line)
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
