"""Run the benchmark over several seeds and report each metric's median,
quartiles and spread (quartile distance over the median) against the
bounds in BENCHMARK.json.

    python3 bench/spread.py [--workloads presets box-large ...]
        [--seeds 1-10] [--trace 0|1] [--out FILE]

Runs one benchmark process at a time, in the checkout that holds this
directory, with BENCHMARK.json's ``run_seconds``.  Exits with code 1 if a
run fails, prints a malformed result or reports incorrect outputs.  With
``--out`` it writes the medians, quartiles and raw values as JSON, the
form of the committed baselines (BENCH_<n>.json).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[4:]) for line in lines
                if line.startswith("env ")), None)
    return result, env


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    listed = bench["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in listed}
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace,
              "seeds": args.seeds, "workloads": {}}
    ok = True
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        runs = []
        for seed in args.seeds:
            result, env = run_once(bench, workload, seed, args.trace)
            report.setdefault("env", env)
            if set(result) != {"correct", "attempted", "failed", "metrics"} \
                    or set(result["metrics"]) != set(bounds):
                print(f"{workload} seed {seed}: malformed result {result}")
                return 1
            ok = ok and result["correct"]
            runs.append({k: result[k] for k in
                         ("correct", "attempted", "failed")} | {"seed": seed})
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}",
                  flush=True)
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else None
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vals}
            bound = bounds[name]
            flag = ""
            if bound is not None and spread is not None:
                flag = "ok" if spread < bound / 3 else \
                    "within bound" if spread <= bound else "WIDER THAN BOUND"
            print(f"  {workload:12s} {name:30s} median {med:12.6g} "
                  f"spread {spread if spread is None else round(spread, 4)}"
                  f" bound {bound} {flag}", flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
