"""Steadiness check: run each workload on several seeds and compare spreads to bounds.

    python3 bench/steady.py                      # every workload, seeds 1..10
    python3 bench/steady.py --workloads deep_levels --seeds 5 --overhead

For every end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median next to the metric's bound from BENCHMARK.json. A
spread above the bound marks the metric unsteady. Seeds run from 1 and
each run lasts BENCHMARK.json's ``run_seconds``. The share of failed
operations must be identical on every run. ``--overhead`` adds
traced runs on the first three seeds of each workload and reports how
much slower they ran than the untraced median, keeping their per-layer
figures. Everything is also written to ``bench_steady.json`` at the
repo root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TRACED_SEEDS = 3


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    return lines[-1], lines[:-1]


def _stats(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--overhead", action="store_true", help="add traced runs on the first three seeds")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {"seconds": seconds, "seeds": args.seeds,
              "nproc": os.cpu_count(), "python": sys.version.split()[0], "workloads": {}}
    steady = True
    for workload in args.workloads:
        pairs = [_run(workload, seed, seconds, 0) for seed in seeds]
        runs = [result for result, _ in pairs]
        shares = {r["failed"] / r["attempted"] for r in runs}
        entry = {"correct": all(r["correct"] for r in runs), "failed_shares": sorted(shares),
                 "speeds": [extra[-1]["speed"] for _, extra in pairs],
                 "as_measured": [extra[-1]["as_measured"] for _, extra in pairs], "metrics": {}}
        print(f"{workload}: {len(runs)} runs, correct={entry['correct']}, "
              f"failed shares={sorted(shares)}")
        for name, bound in bounds.items():
            stats = _stats([r["metrics"][name]["value"] for r in runs])
            ok = stats["spread"] <= bound["bound"]
            steady &= ok
            entry["metrics"][name] = dict(stats, bound=bound["bound"], ok=ok,
                                          values=[r["metrics"][name]["value"] for r in runs])
            print(f"  {name:12s} median {stats['median']:12.4f} {bound['unit']:5s} "
                  f"Q1 {stats['q1']:12.4f} Q3 {stats['q3']:12.4f} spread {stats['spread']:.4f} "
                  f"bound {bound['bound']:.2f} {'ok' if ok else 'UNSTEADY'}")
        steady &= entry["correct"] and len(shares) == 1
        if args.overhead:
            traced_runs = [_run(workload, seed, seconds, 1) for seed in seeds[:TRACED_SEEDS]]
            traced = statistics.median(extra[-1]["traced_ops_per_s"] for _, extra in traced_runs)
            untraced = entry["metrics"]["ops_per_s"]["median"]
            entry["traced_ops_per_s"] = traced
            entry["tracing_overhead"] = untraced / traced - 1
            entry["traced"] = [result["metrics"] for result, _ in traced_runs]
            print(f"  traced ops_per_s {traced:.4f}: tracing overhead {entry['tracing_overhead']:.1%}")
        report["workloads"][workload] = entry
    with open(os.path.join(ROOT, "bench_steady.json"), "w") as f:
        json.dump(report, f, indent=1)
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
