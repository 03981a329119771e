"""One measured process for one workload; started by run.py, not by hand.

Usage: worker.py WORKLOAD MODE SECONDS TRACE, with the workload's inputs
as JSON on stdin. It imports the library from the checkout's ``src``,
builds the operations, warms up, and prints ``READY``; that instant ends
set-up. In ``setup`` mode it stops there. In ``measure`` mode it runs
whole rounds of the operation list, one call at a time, until the timed
part reaches SECONDS, checks each round's results outside the timed
part, and prints one JSON line of results.

Times are reported as measured, with the host speed from
``calibrate.py`` alongside; run.py scales them. Only ``sys``, ``os`` and
``time`` are imported before the library, so the import figures include
what the library itself pulls in.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MAX_ERRORS_SHOWN = 5
SETUP_KERNELS = 5
KERNELS_PER_GAP = 2  # host-speed samples on each side of a round


def _import_library():
    sys.path.insert(0, SRC)
    t0 = time.perf_counter_ns()
    import syracuse
    t1 = time.perf_counter_ns()
    import syracuse.cli
    t2 = time.perf_counter_ns()
    if not os.path.abspath(syracuse.__file__).startswith(SRC + os.sep):
        raise ImportError(f"syracuse was imported from {syracuse.__file__}, not {SRC}")
    return syracuse, syracuse.cli, (t1 - t0) / 1e6, (t2 - t1) / 1e6


def _bytes_per_node(syracuse, specs):
    """Memory the materialized trees hold per node, by tracemalloc."""
    import tracemalloc

    held = nodes = 0
    tracemalloc.start()
    try:
        for spec in specs:
            cfg = syracuse.EnumConfig(source=spec["source"], t=spec["t"], s=spec["s"],
                                      k_cap=spec["k_cap"])
            before = tracemalloc.get_traced_memory()[0]
            tree = syracuse.enumerate_tree(cfg)
            held += tracemalloc.get_traced_memory()[0] - before
            nodes += len(tree.nodes)
            del tree
    finally:
        tracemalloc.stop()
    return held / nodes if nodes else 0.0


def _run_rounds(ops, seconds, tracer):
    """Closed loop over whole rounds; checks and calibration run between rounds, untimed."""
    import gc

    import calibrate

    latencies = []
    round_ns = []
    kernel_s = []
    failed = wrong = 0
    errors = []
    budget_ns = seconds * 1e9
    clock = time.perf_counter_ns
    while not round_ns or sum(round_ns) < budget_ns:
        gc.collect()
        kernel_s += [calibrate.kernel() for _ in range(KERNELS_PER_GAP)]
        if tracer is not None:
            tracer.active = True
        results = []
        start = clock()
        for op in ops:
            t = clock()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result = exc
            latencies.append(clock() - t)
            results.append(result)
        round_ns.append(clock() - start)
        if tracer is not None:
            tracer.active = False
        kernel_s += [calibrate.kernel() for _ in range(KERNELS_PER_GAP)]
        for op, result in zip(ops, results):
            if isinstance(result, Exception):
                failed += 1
                note = f"{op.kind}: {type(result).__name__}: {result}"
            else:
                try:
                    ok = op.check(result)
                except Exception as exc:  # a malformed result fails its check
                    ok, note = False, f"{op.kind}: check raised {type(exc).__name__}: {exc}"
                else:
                    note = f"{op.kind}: wrong result"
                if ok:
                    continue
                failed += 1
                wrong += 1
            if len(errors) < MAX_ERRORS_SHOWN:
                errors.append(note[:300])
        del results
    return latencies, round_ns, calibrate.speed(kernel_s), failed, wrong, errors


def main(argv):
    workload, mode, seconds, trace = argv[0], argv[1], float(argv[2]), argv[3] == "1"
    raw = sys.stdin.buffer.read()
    syracuse, cli, import_syracuse_ms, import_cli_ms = _import_library()

    import json
    import resource
    import statistics

    import workloads

    inputs = json.loads(raw)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()  # before the operations bind the library's functions
    ops, warmup = workloads.BUILDERS[workload][1](inputs, syracuse, cli)
    for op in warmup:
        op.call()
    print("READY", flush=True)
    if mode == "setup":
        import calibrate

        speed = calibrate.speed([calibrate.kernel() for _ in range(SETUP_KERNELS)])
        print(json.dumps({"speed": speed}), flush=True)
        return 0

    latencies, round_ns, speed, failed, wrong, errors = _run_rounds(ops, seconds, tracer)
    rounds = len(round_ns)
    ms = [x / 1e6 for x in latencies]
    result = {
        "speed": speed,
        "attempted": len(latencies),
        "failed": failed,
        "wrong": wrong,
        "errors": errors,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "ops_per_s": len(latencies) / (sum(round_ns) / 1e9),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": statistics.quantiles(ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        layers = {name: {"value": value, "unit": unit}
                  for name, (value, unit) in tracer.metrics(rounds).items()}
        layers["import.syracuse_ms"] = {"value": import_syracuse_ms, "unit": "ms"}
        layers["import.cli_ms"] = {"value": import_cli_ms, "unit": "ms"}
        per_node = _bytes_per_node(syracuse, workloads.tree_specs(workload, inputs))
        layers["tree.bytes_per_node"] = {"value": per_node, "unit": "B"}
        result["layers"] = layers
        with open(os.path.join(os.getcwd(), f"bench_trace_{workload}.jsonl"), "w") as out:
            spans = tracer.spans()
            out.write(json.dumps({"workload": workload, "rounds": rounds,
                                  "spans_kept": len(spans)}) + "\n")
            for span in spans:
                out.write(json.dumps(span) + "\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
