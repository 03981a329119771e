"""The four workloads: seeded inputs, the operations that use them, and their checks.

Each workload has a pair in ``BUILDERS``. Its inputs function runs in
the benchmark's parent process and uses only the oracle, so the library
receives nothing but the generated inputs. Its ops function runs in the
measured process and turns the inputs into calls of public ``syracuse``
names, plus a short warm-up list. Each check takes an operation's
result and returns True when the oracle confirms it; the self-test feeds
the same checks corrupted results.

Every round of a workload is the same fixed list of operations. Sizes
follow a fixed ladder and the seed only picks the values at each size,
so two seeds cost about the same and no one operation dominates.
"""

import io
import json
import random
from functools import partial
from typing import Callable, NamedTuple

import oracle

WORKLOADS = ("request_stream", "long_runs", "deep_levels", "tree_enum")


class Op(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _odd_below(rng, limit):
    return rng.randrange(1, limit, 2)


def _unit_residue(rng, b):
    x = rng.randrange(1, 3**b)
    return x if x % 3 else x + 1


# ---------------------------------------------------------------- request_stream

# Requests per round: the seven request types of the stream in equal
# shares, 40 each, shuffled by the seed. The shares are assumed, as there
# is no record of real traffic to take them from; equal shares keep any
# one type from setting the figures. The four ascend modes split their
# 40 evenly, and enum cycles through (t, s) in {1, 2}^2, every fifth
# request with --k-cap instead of the span bound.
REQUESTS_PER_TYPE = 40
REQUEST_MIX = {
    "decode": REQUESTS_PER_TYPE, "encode": REQUESTS_PER_TYPE, "traj": REQUESTS_PER_TYPE,
    "solve-v1": REQUESTS_PER_TYPE, "dlog": REQUESTS_PER_TYPE,
    "all-ones": REQUESTS_PER_TYPE // 4, "family": REQUESTS_PER_TYPE // 4,
    "constant-k": REQUESTS_PER_TYPE // 4, "targets": REQUESTS_PER_TYPE // 4,
    "enum": REQUESTS_PER_TYPE,
}
ENUM_SIZES = [(1, 1), (1, 2), (2, 1), (2, 2)]
K_CAP_EVERY = 5


def _request(kind, index, rng):
    """One CLI request (the index-th of its kind): its argv plus what its check needs."""
    if kind in ("decode", "encode", "traj"):
        n = _odd_below(rng, 10**6)
        if kind != "decode":
            return {"kind": kind, "argv": [kind, str(n)], "n": n}
        full = oracle.gaps_to(n)
        # Half the decodes end at an intermediate source of the run.
        cut = rng.randrange(1, len(full)) if len(full) > 1 and rng.random() < 0.5 else len(full)
        gaps = full[len(full) - cut:]
        source = n
        for g in reversed(gaps):
            source = oracle.step(source)[0]
        text = f"{len(gaps)}:" + ",".join(map(str, gaps))
        return {"kind": kind, "argv": ["decode", text, "--source", str(source)],
                "gaps": gaps, "source": source}
    if kind == "solve-v1":
        b = rng.randint(2, 8)
        tail = [rng.randint(1, 4) for _ in range(b - 1)]
        return {"kind": kind, "argv": ["solve-v1", "--b", str(b), "--tail", ",".join(map(str, tail))],
                "b": b, "tail": tail}
    if kind == "dlog":
        b = rng.randint(1, 30)
        x = _unit_residue(rng, b)
        return {"kind": kind, "argv": ["dlog", str(x), "--b", str(b)], "b": b, "x": x}
    if kind == "all-ones":
        b = rng.randint(2, 6)
        return {"kind": kind, "argv": ["ascend", "all-ones", "--b", str(b)], "b": b}
    if kind == "family":
        q, p = rng.randint(1, 4), rng.randint(0, 4)
        return {"kind": kind, "argv": ["ascend", "family", "--q", str(q), "--p", str(p)], "q": q, "p": p}
    if kind == "constant-k":
        b, k = rng.randint(1, 6), rng.randint(1, 6)
        source = rng.choice([1, 5, 7, 11, 13])
        return {"kind": kind, "b": b, "k": k, "source": source,
                "argv": ["ascend", "constant-k", "--b", str(b), "--k", str(k), "--source", str(source)]}
    if kind == "targets":
        b, k, p = rng.randint(1, 6), rng.randint(1, 2), rng.randint(1, 20)
        return {"kind": kind, "b": b, "k": k, "p": p,
                "argv": ["ascend", "targets", "--b", str(b), "--p", str(p), "--k", str(k)]}
    # enum at t <= 2: a closed-form count, or with --k-cap the BFS value set
    source = rng.choice([1, 1, 5, 7, 11, 13, 17, 19, 23, 25])
    t, s = ENUM_SIZES[index % len(ENUM_SIZES)]
    k_cap = rng.randint(4, 8) if index % K_CAP_EVERY == K_CAP_EVERY - 1 else None
    argv = ["enum", "--t", str(t), "--s", str(s), "--source", str(source)]
    if k_cap is not None:
        argv += ["--k-cap", str(k_cap)]
    return {"kind": "enum", "argv": argv, "t": t, "s": s, "source": source, "k_cap": k_cap}


def request_inputs(seed):
    rng = _rng("request_stream", seed)
    kinds = [(kind, i) for kind, count in REQUEST_MIX.items() for i in range(count)]
    rng.shuffle(kinds)
    return [_request(kind, i, rng) for kind, i in kinds]


def _records(text):
    return [json.loads(line) for line in text.splitlines()]


def _tree_expectation(spec):
    if spec["k_cap"] is not None:
        return {"expected_values": oracle.preimages(spec["source"], spec["t"], spec["k_cap"])}
    return {"expected_count": oracle.tree_count(spec["t"], spec["s"])}


def _enum_lines_ok(spec, text):
    """Every streamed node walks to the source; count or value set as expected."""
    records = map(json.loads, text.splitlines())
    nodes = ((int(r["value"]), r["depth"], oracle.parse_tuple(r["tuple"])) for r in records)
    return oracle.tree_ok(spec["source"], nodes, **_tree_expectation(spec))


def check_request(spec, result):
    """Check one CLI call's (exit code, output text); elapsed_ms is ignored."""
    code, text = result
    if code != 0:
        return False
    kind = spec["kind"]
    if kind == "enum":
        return _enum_lines_ok(spec, text)
    (rec,) = _records(text)
    if rec.get("status") != "ok":
        return False
    if kind == "decode":
        return oracle.walks_to(int(rec["n"]), spec["gaps"], spec["source"])
    if kind == "encode":
        gaps = oracle.parse_tuple(rec["tuple"])
        return rec["v"] == gaps and oracle.walks_to(spec["n"], gaps, 1)
    if kind == "traj":
        return trajectory_ok(spec["n"], [int(x) for x in rec["iterates"]], rec["v"],
                             rec["b"], rec["reached_one"])
    if kind == "solve-v1":
        b, gaps = spec["b"], [rec["v1_star"]] + spec["tail"]
        return (rec["modulus"] == oracle.group_order(b)
                and rec["a_class"] == sum(gaps) % rec["modulus"]
                and oracle.in_first_gap_window(rec["v1_star"], b, 1)
                and oracle.walks_to(int(rec["n"]), gaps, 1))
    if kind == "dlog":
        return (rec["x"] == spec["x"] and rec["modulus"] == oracle.group_order(spec["b"])
                and oracle.dlog_ok(spec["x"], rec["log"], spec["b"]))
    if kind == "all-ones":
        b = spec["b"]
        gaps = [3 ** (b - 1) + 1] + [1] * (b - 1)
        return oracle.parse_tuple(rec["tuple"]) == gaps and oracle.walks_to(int(rec["n"]), gaps, 1)
    if kind == "family":
        q, p = spec["q"], spec["p"]
        return oracle.walks_to(int(rec["n"]), [(2 * p + 1) * 3**q + 1] + [1] * q, 1)
    if kind == "constant-k":
        b, k = spec["b"], spec["k"]
        return (rec["modulus"] == oracle.group_order(b) and 0 <= rec["v1_class"] < rec["modulus"]
                and oracle.admissible_mod(spec["source"], [rec["v1_class"]] + [k] * (b - 1), b))
    if kind == "targets":
        return oracle.walks_to(int(rec["m"]), [spec["k"]] * spec["b"], int(rec["n"]))
    raise ValueError(f"unknown request kind {kind!r}")


def _cli_call(cli, argv):
    out = io.StringIO()
    code = cli.main(argv, out=out)
    return code, out.getvalue()


def _first_of_each_kind(ops):
    seen = set()
    return [op for op in ops if not (op.kind in seen or seen.add(op.kind))]


def request_ops(inputs, syracuse, cli):
    ops = [Op(spec["kind"], partial(_cli_call, cli, spec["argv"]), partial(check_request, spec))
           for spec in inputs]
    return ops, _first_of_each_kind(ops)


# ---------------------------------------------------------------- long_runs

# (bits, how many n per round). n is kept only when its run has within
# 2% of the typical 2.41 odd steps per bit, so decode costs (about
# steps^2.5) do not swing with the seed.
LONG_LADDER = [(64, 4), (128, 4), (256, 4), (512, 3), (768, 2), (1024, 2)]
STEPS_PER_BIT = 2.41
STEP_TOLERANCE = 0.02


def long_inputs(seed):
    rng = _rng("long_runs", seed)
    out = []
    for bits, count in LONG_LADDER:
        target = STEPS_PER_BIT * bits
        for _ in range(count):
            while True:
                n = rng.getrandbits(bits) | 1 | (1 << (bits - 1))
                gaps = oracle.gaps_to(n)
                if abs(len(gaps) - target) <= STEP_TOLERANCE * target:
                    break
            j = len(gaps) - rng.randint(1, 4)  # shift a late gap: adds 2*3^(b-j-1)
            shifted = list(gaps)
            shifted[j] += 2 * 3 ** (len(gaps) - j - 1)
            out.append({"n": n, "gaps": gaps, "j": j,
                        "base": oracle.canonical_gaps(gaps), "shifted": shifted})
    return out


def trajectory_ok(n, iterates, v, b, reached_one):
    """Iterates follow the forward map from n to 1 with valuations v reversed."""
    if not reached_one or not iterates or iterates[0] != n or b != len(v):
        return False
    if n == 1:
        return b == 0
    fwd = list(reversed(v))
    if len(iterates) != len(fwd):
        return False
    nxt = iterates[1:] + [1]
    return all(oracle.step(x) == (y, g) for x, y, g in zip(iterates, nxt, fwd))


def check_trajectory(spec, t):
    return trajectory_ok(spec["n"], list(t.odd_iterates), list(t.v), t.b, t.reached_one)


def check_tuple_walk(n, source, vt):
    """vt is the gap tuple of n's run down to source."""
    return vt.b == len(vt.v) and oracle.walks_to(n, list(vt.v), source)


def check_decoded(gaps, source, n):
    return oracle.walks_to(n, gaps, source)


def check_canonical(gaps, ct):
    return oracle.canonical_ok(gaps, list(ct.base.v), list(ct.c))


def check_shift(shifted, vt):
    return list(vt.v) == shifted


def long_ops(inputs, syracuse, cli):
    S = syracuse
    ops = []
    for spec in inputs:
        n, gaps = spec["n"], spec["gaps"]
        vt, base, shifted = (S.VTuple.from_gaps(g) for g in (gaps, spec["base"], spec["shifted"]))
        ops += [
            Op("trajectory", partial(S.trajectory, n), partial(check_trajectory, spec)),
            Op("encode", partial(S.encode, n), partial(check_tuple_walk, n, 1)),
            Op("decode", partial(S.decode, vt), partial(check_decoded, gaps, 1)),
            Op("canonicalize", partial(S.canonicalize, vt), partial(check_canonical, gaps)),
            Op("decode_base", partial(S.decode, base), partial(check_decoded, spec["base"], 1)),
            Op("shift", partial(S.shift, vt, spec["j"]), partial(check_shift, spec["shifted"])),
            Op("decode_shifted", partial(S.decode, shifted), partial(check_decoded, spec["shifted"], 1)),
        ]
    return ops, ops[:7]  # the smallest n


# ---------------------------------------------------------------- deep_levels

# dlog2 cost grows about as b^3 (26 ms at level 150, 250 ms at 300 and
# 630 ms at 400 on the reference host), so the deep levels hold several
# calls each and the one call at 400 is about a seventh of a round.
# pow2_mod runs once per level. The 90th percentile falls inside the six
# dlog2 calls at level 250 and the median inside the cheap solve_v1
# calls at b = 8, so neither percentile sits on a cliff between kinds of
# operation.
DLOG_LEVELS = [50, 100] + [150] * 10 + [200] * 8 + [250] * 6 + [300] * 10 + [400]
POW2_LEVELS = sorted(set(DLOG_LEVELS))
CONSTANT_K_LEVELS = [51, 101, 151, 201]
PERIODIC_LEVELS = [9, 11, 13, 15]
SOLVE_LEVELS = [8] * 72 + [9, 10, 11, 12, 13, 14]
ALL_ONES_LEVELS = range(2, 9)


def _full_digit_residue(rng, b):
    """2^e mod 3^b where no base-3 digit of e mod 3^(b-1) is zero.

    dlog2 spends its time on the nonzero digits of the logarithm, so
    fixing their count makes every seed cost the same at a level.
    """
    a3 = sum(rng.choice((1, 2)) * 3**i for i in range(b - 1))
    e = a3 + 3 ** (b - 1) * rng.randrange(2)
    return pow(2, e, 3**b)


def deep_inputs(seed):
    rng = _rng("deep_levels", seed)
    return {
        "pow2": [(b, rng.randrange(oracle.group_order(b))) for b in POW2_LEVELS],
        "dlog": [(b, _full_digit_residue(rng, b)) for b in DLOG_LEVELS],
        "constant_k": [(b, rng.randint(1, 6)) for b in CONSTANT_K_LEVELS],
        "periodic": list(PERIODIC_LEVELS),
        "solve_v1": [(b, [rng.randint(1, 4) for _ in range(b - 1)]) for b in SOLVE_LEVELS],
        "all_ones": list(ALL_ONES_LEVELS),
    }


def check_pow2(e, b, r):
    return r.level == b and r.value == pow(2, e, 3**b)


def check_dlog(x, b, cls):
    return cls.level == b and oracle.dlog_ok(x, cls.value, b)


def check_constant_k(b, k, cls):
    return (cls.level == b and 0 <= cls.value < oracle.group_order(b)
            and oracle.admissible_mod(1, [cls.value] + [k] * (b - 1), b))


def alternating_tail(b):
    return [1 if i % 2 == 0 else 2 for i in range(b - 1)]


def check_periodic(b, res):
    v1 = res.v1_class.value
    return (res.verified and oracle.periodic_ok(v1, b)
            and oracle.admissible_mod(1, [v1] + alternating_tail(b), b))


def check_solved(b, tail, res):
    gaps = [res.v1_star] + list(tail)
    return (list(res.vtuple.v) == gaps and oracle.in_first_gap_window(res.v1_star, b, 1)
            and oracle.walks_to(res.n, gaps, 1))


def check_all_ones(b, res):
    gaps = [3 ** (b - 1) + 1] + [1] * (b - 1)
    return list(res.vtuple.v) == gaps and oracle.walks_to(res.n, gaps, 1)


def deep_ops(inputs, syracuse, cli):
    S = syracuse
    ops = [Op("pow2_mod", partial(S.pow2_mod, e, b), partial(check_pow2, e, b))
           for b, e in inputs["pow2"]]
    ops += [Op("dlog2", partial(S.dlog2, S.Residue(x, b)), partial(check_dlog, x, b))
            for b, x in inputs["dlog"]]
    ops += [Op("solve_constant_k", partial(S.solve_constant_k, b, k), partial(check_constant_k, b, k))
            for b, k in inputs["constant_k"]]
    ops += [Op("periodic_12_check", partial(S.periodic_12_check, b), partial(check_periodic, b))
            for b in inputs["periodic"]]
    ops += [Op("solve_v1", partial(S.solve_v1, b, tuple(tail)), partial(check_solved, b, tail))
            for b, tail in inputs["solve_v1"]]
    ops += [Op("ascending_all_ones", partial(S.ascending_all_ones, b), partial(check_all_ones, b))
            for b in inputs["all_ones"]]
    return ops, _first_of_each_kind(ops)


# ---------------------------------------------------------------- tree_enum

# (source, t, s, k_cap); source None is drawn from the seed. The first,
# smallest, config is also the warm-up and the second, 8,191 nodes, the
# memory load. The other ten hold 2,047 or about 2,320 nodes, so the
# sorted calls fall into blocks (verify_tree, then enumerate_tree, then
# the CLI stream) and the median and 90th percentile land inside a block
# rather than on a cliff between kinds. k_cap trees change size with
# their source, so theirs are fixed.
TREE_CONFIGS = [
    (1, 7, 1, None),
    (1, 6, 2, None),
    (1, 5, 2, None),
] + [(None, 5, 2, None)] * 7 + [
    (1, 6, 1, 10),
    (5, 6, 1, 10),
]


def tree_inputs(seed):
    rng = _rng("tree_enum", seed)
    out = []
    for source, t, s, k_cap in TREE_CONFIGS:
        if source is None:
            source = rng.choice([x for x in range(5, 1000, 2) if x % 3])
        out.append({"source": source, "t": t, "s": s, "k_cap": k_cap})
    return out


def check_tree(spec, node_record, tree):
    """A materialized tree: oracle checks on the node records, via node_record."""
    records = map(node_record, tree.nodes)
    nodes = ((int(r["value"]), r["depth"], oracle.parse_tuple(r["tuple"])) for r in records)
    return oracle.tree_ok(spec["source"], nodes, **_tree_expectation(spec))


def check_verified(ok):
    return ok is True


def _enum_argv(spec):
    argv = ["enum", "--t", str(spec["t"]), "--s", str(spec["s"]), "--source", str(spec["source"])]
    return argv + (["--k-cap", str(spec["k_cap"])] if spec["k_cap"] is not None else [])


def tree_ops(inputs, syracuse, cli):
    S = syracuse
    ops = []
    for spec in inputs:
        cfg = S.EnumConfig(source=spec["source"], t=spec["t"], s=spec["s"], k_cap=spec["k_cap"])
        box = []  # the materialized tree, handed to verify_tree

        def materialize(cfg=cfg, box=box):
            box[:] = [S.enumerate_tree(cfg)]
            return box[0]

        ops += [
            Op("enum_cli", partial(_cli_call, cli, _enum_argv(spec)),
               partial(check_request, dict(spec, kind="enum"))),
            Op("enumerate_tree", materialize, partial(check_tree, spec, S.tree.node_record)),
            Op("verify_tree", lambda box=box: S.verify_tree(box[0]), check_verified),
        ]
    return ops, ops[:3]


def tree_specs(workload, inputs):
    """Enumeration configs the workload builds, for bytes per node."""
    if workload == "tree_enum":
        return inputs
    if workload == "request_stream":
        return [spec for spec in inputs if spec["kind"] == "enum"]
    return []


BUILDERS = {
    "request_stream": (request_inputs, request_ops),
    "long_runs": (long_inputs, long_ops),
    "deep_levels": (deep_inputs, deep_ops),
    "tree_enum": (tree_inputs, tree_ops),
}
