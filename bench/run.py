"""Benchmark for syracuse: four workloads, end-to-end and per-layer figures.

Run from the root of a checkout:

    python3 bench/run.py --workload long_runs --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each run builds the workload's inputs from the seed, checks the oracle
against corrupted results (``selftest.py``), and then starts fresh
processes of ``worker.py``: a few that only set up, for ``setup_s``,
and one that measures. With ``--trace 1`` the measuring process wraps
the library's public functions in spans and the run reports per-layer
figures instead. The last line of output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import selftest  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9  # fresh processes timed to READY; the measuring one is the last
RUN_DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("SYRACUSE_EXP_CAP", None)  # library defaults only
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(workload, mode, seconds, trace, payload, deadline):
    """Start one worker; return (seconds from start to READY, its result)."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), workload, mode, str(seconds),
           "1" if trace else "0"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_child_env(), stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(deadline - start, 0), proc.kill)
    timer.start()
    try:
        proc.stdin.write(payload)
        proc.stdin.close()
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "READY":
        raise BenchError(f"worker for {workload} ({mode}) exited with code {code}")
    return ready_s, json.loads(rest.strip().splitlines()[-1])


def _at_reference(value, unit, speed):
    """Scale a figure measured at host speed `speed` to the reference speed."""
    if unit in ("s", "ms"):
        return value * speed
    if unit in ("op/s", "1/s"):
        return value / speed
    return value


def _summary(child):
    if child["errors"]:
        print("failed operations: " + "; ".join(child["errors"]), file=sys.stderr)
    return {"correct": child["wrong"] == 0, "attempted": child["attempted"],
            "failed": child["failed"]}


def run_workload(workload, seed, seconds, trace, deadline):
    """One benchmark run; returns (result object, extra figures)."""
    payload = json.dumps(workloads.BUILDERS[workload][0](seed))
    if trace:
        _, child = _spawn(workload, "measure", seconds, True, payload, deadline)
        speed = child["speed"]
        metrics = {name: {"value": _at_reference(m["value"], m["unit"], speed), "unit": m["unit"]}
                   for name, m in child["layers"].items()}
        extra = {"workload": workload, "speed": speed, "rounds": child["rounds"],
                 "traced_ops_per_s": _at_reference(child["ops_per_s"], "op/s", speed)}
        return dict(_summary(child), metrics=metrics), extra
    setup = [_spawn(workload, "setup", seconds, False, payload, deadline)
             for _ in range(SETUP_SAMPLES - 1)]
    setup.append(_spawn(workload, "measure", seconds, False, payload, deadline))
    child = setup[-1][1]
    speed = child["speed"]
    raw = {
        "setup_s": (statistics.median(ready_s for ready_s, _ in setup), "s"),
        "ops_per_s": (child["ops_per_s"], "op/s"),
        "op_p50_ms": (child["op_p50_ms"], "ms"),
        "op_p90_ms": (child["op_p90_ms"], "ms"),
        "peak_rss_mb": (child["peak_rss_mb"], "MiB"),
    }
    metrics = {name: {"value": _at_reference(value, unit, speed), "unit": unit}
               for name, (value, unit) in raw.items()}
    # each set-up process is scaled by the speed it measured itself
    setup_s = statistics.median(ready_s * proc["speed"] for ready_s, proc in setup)
    metrics["setup_s"]["value"] = setup_s
    extra = {"workload": workload, "speed": speed, "rounds": child["rounds"],
             "ops_per_round": child["ops_per_round"],
             "as_measured": {name: value for name, (value, _) in raw.items()}}
    return dict(_summary(child), metrics=metrics), extra


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "syracuse", "__init__.py")):
        print(f"bench: no syracuse package under {SRC}", file=sys.stderr)
        return 2
    try:
        failures = selftest.run()
        if failures:
            raise BenchError("oracle self-test missed: " + ", ".join(failures))
        if args.workload != "all":
            deadline = time.perf_counter() + RUN_DEADLINE_S
            result, extra = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                         deadline)
            print(json.dumps(extra))
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in workloads.WORKLOADS:
            deadline = time.perf_counter() + RUN_DEADLINE_S
            result, extra = run_workload(workload, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps(dict(result, **extra)))
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, metric in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = metric
        print(json.dumps(combined))
        return 0
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
