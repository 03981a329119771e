"""Span tracing around the library's public functions, from outside the library.

``Tracer.install`` replaces each traced function with a wrapper in every
loaded ``syracuse`` module that holds it, so calls between modules (the
solver's ``decode`` and ``dlog2``, the CLI's ``parse_vtuple`` and
``iter_nodes``) are traced too. A span records its name, start, end and
parent; a name's self time is the sum of its spans' durations minus the
time their child spans cover. A generator gets one span per item drawn.
"""

import sys
import time
from collections import defaultdict

# (defining module, function, span name)
TRACED = [
    ("cli", "main", "cli.main"),
    ("tuples", "parse_vtuple", "tuples.parse_vtuple"),
    ("tuples", "encode", "tuples.encode"),
    ("tuples", "decode", "tuples.decode"),
    ("tuples", "canonicalize", "tuples.canonicalize"),
    ("tuples", "shift", "tuples.shift"),
    ("collatz", "trajectory", "collatz.trajectory"),
    ("numtheory", "dlog2", "numtheory.dlog2"),
    ("numtheory", "pow2_mod", "numtheory.pow2_mod"),
    ("solver", "solve_v1", "solver.solve_v1"),
    ("solver", "solve_constant_k", "solver.solve_constant_k"),
    ("solver", "periodic_12_check", "solver.periodic_12_check"),
    ("solver", "ascending_all_ones", "solver.ascending_all_ones"),
    ("tree", "iter_nodes", "tree.iter_nodes"),
    ("tree", "enumerate_tree", "tree.enumerate_tree"),
    ("tree", "node_record", "tree.node_record"),
    ("tree", "verify_tree", "tree.verify_tree"),
]
GENERATORS = {"tree.iter_nodes"}
# Counted without a span: it runs once per tree child and per decode.
COUNTED = [("caps", "check_bits", "caps.check_bits")]

MAX_KEPT_SPANS = 20000


def _observe_cli(tracer, args, kwargs, result):
    out = kwargs.get("out", args[1] if len(args) > 1 else None)
    if out is not None:
        tracer.counts["cli.records"] += out.getvalue().count("\n")


def _observe_trajectory(tracer, args, kwargs, result):
    tracer.counts["collatz.steps"] += result.b
    bits = max(x.bit_length() for x in result.odd_iterates)
    tracer.maxima["collatz.max_operand_bits"] = max(tracer.maxima["collatz.max_operand_bits"], bits)


def _observe_encode(tracer, args, kwargs, result):
    tracer.counts["tuples.encode.steps"] += result.b


def _observe_decode(tracer, args, kwargs, result):
    b = args[0].b
    tracer.counts["tuples.decode.gaps"] += b
    tracer.maxima["tuples.decode.max_b"] = max(tracer.maxima["tuples.decode.max_b"], b)


def _observe_dlog2(tracer, args, kwargs, result):
    level = args[0].level
    tracer.maxima["numtheory.dlog2.max_level"] = max(tracer.maxima["numtheory.dlog2.max_level"], level)


def _observe_node(tracer, args, kwargs, item):
    tracer.counts["tree.iter_nodes.nodes"] += 1


OBSERVERS = {
    "cli.main": _observe_cli,
    "collatz.trajectory": _observe_trajectory,
    "tuples.encode": _observe_encode,
    "tuples.decode": _observe_decode,
    "numtheory.dlog2": _observe_dlog2,
    "tree.iter_nodes": _observe_node,
}


class Tracer:
    """Span stack, per-name totals, and the first spans kept for the trace file."""

    def __init__(self):
        self.active = False
        self.stack = []  # [span id, ns covered by children]
        self.next_id = 0
        self.kept = []  # (id, parent id, name, start ns, end ns)
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)

    def _enter(self):
        sid = self.next_id
        self.next_id += 1
        parent = self.stack[-1][0] if self.stack else None
        self.stack.append([sid, 0])
        return sid, parent, time.perf_counter_ns()

    def _exit(self, name, sid, parent, start):
        end = time.perf_counter_ns()
        _, child_ns = self.stack.pop()
        duration = end - start
        if self.stack:
            self.stack[-1][1] += duration
        self.calls[name] += 1
        self.self_ns[name] += duration - child_ns
        if len(self.kept) < MAX_KEPT_SPANS:
            self.kept.append((sid, parent, name, start, end))

    def _wrap(self, name, fn):
        tracer = self
        observe = OBSERVERS.get(name)

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid, parent, start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, sid, parent, start)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        def traced_items(*args, **kwargs):
            items = fn(*args, **kwargs)
            while tracer.active:
                sid, parent, start = tracer._enter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    tracer._exit(name, sid, parent, start)
                observe(tracer, args, kwargs, item)
                yield item
            yield from items

        return traced_items if name in GENERATORS else traced

    def _count(self, name, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Swap every traced function for its wrapper wherever it is bound."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "syracuse" or key.startswith("syracuse."))
        ]
        plan = [(mod, attr, name, self._wrap) for mod, attr, name in TRACED]
        plan += [(mod, attr, name, self._count) for mod, attr, name in COUNTED]
        for mod, attr, name, make in plan:
            original = getattr(sys.modules[f"syracuse.{mod}"], attr)
            wrapper = make(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def metrics(self, rounds):
        """Per-layer figures for one round of the operation list."""

        def ms(name):
            return self.self_ns[name] / 1e6 / rounds

        def rate(work, name):
            busy_s = self.self_ns[name] / 1e9
            return self.counts[work] / busy_s if busy_s else 0.0

        return {
            "cli.main.calls": (self.calls["cli.main"] // rounds, "count"),
            "cli.main.self_ms": (ms("cli.main"), "ms"),
            "cli.records": (self.counts["cli.records"] // rounds, "count"),
            "tuples.parse_vtuple.self_ms": (ms("tuples.parse_vtuple"), "ms"),
            "collatz.trajectory.self_ms": (ms("collatz.trajectory"), "ms"),
            "collatz.steps": (self.counts["collatz.steps"] // rounds, "count"),
            "collatz.steps_per_s": (rate("collatz.steps", "collatz.trajectory"), "1/s"),
            "collatz.max_operand_bits": (self.maxima["collatz.max_operand_bits"], "bits"),
            "tuples.encode.self_ms": (ms("tuples.encode"), "ms"),
            "tuples.encode.steps_per_s": (rate("tuples.encode.steps", "tuples.encode"), "1/s"),
            "tuples.decode.calls": (self.calls["tuples.decode"] // rounds, "count"),
            "tuples.decode.self_ms": (ms("tuples.decode"), "ms"),
            "tuples.decode.gaps_per_s": (rate("tuples.decode.gaps", "tuples.decode"), "1/s"),
            "tuples.decode.max_b": (self.maxima["tuples.decode.max_b"], "count"),
            "tuples.canonicalize.self_ms": (ms("tuples.canonicalize"), "ms"),
            "tuples.shift.self_ms": (ms("tuples.shift"), "ms"),
            "numtheory.dlog2.calls": (self.calls["numtheory.dlog2"] // rounds, "count"),
            "numtheory.dlog2.self_ms": (ms("numtheory.dlog2"), "ms"),
            "numtheory.dlog2.max_level": (self.maxima["numtheory.dlog2.max_level"], "count"),
            "numtheory.pow2_mod.self_ms": (ms("numtheory.pow2_mod"), "ms"),
            "solver.solve_v1.self_ms": (ms("solver.solve_v1"), "ms"),
            "solver.solve_constant_k.self_ms": (ms("solver.solve_constant_k"), "ms"),
            "solver.periodic_12_check.self_ms": (ms("solver.periodic_12_check"), "ms"),
            "solver.ascending_all_ones.self_ms": (ms("solver.ascending_all_ones"), "ms"),
            "tree.iter_nodes.nodes": (self.counts["tree.iter_nodes.nodes"] // rounds, "count"),
            "tree.iter_nodes.self_ms": (ms("tree.iter_nodes"), "ms"),
            "tree.nodes_per_s": (rate("tree.iter_nodes.nodes", "tree.iter_nodes"), "1/s"),
            "tree.node_record.self_ms": (ms("tree.node_record"), "ms"),
            "tree.verify_tree.self_ms": (ms("tree.verify_tree"), "ms"),
            "caps.check_bits.calls": (self.calls["caps.check_bits"] // rounds, "count"),
        }

    def spans(self):
        """Kept spans as JSON-ready dicts, in the order they ended."""
        return [
            {"id": sid, "parent": parent, "name": name, "start_ns": start, "end_ns": end}
            for sid, parent, name, start, end in self.kept
        ]
