"""Oracle self-test: the workloads' checks must reject corrupted results.

Each case takes a real library result, confirms the check the workloads
use accepts it, then corrupts it (a perturbed n, a gap off by one, a
dropped tree node, a wrong log) and confirms the same check rejects it.
The tree check of ``verify_tree`` is fed broken trees, which
``verify_tree`` itself must reject.
Corrupted results are plain namespaces with the attributes the checks
read, so the test does not depend on the result types' constructors.

    python3 bench/selftest.py
"""

import json
import os
import sys
from types import SimpleNamespace as NS

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import workloads as w  # noqa: E402


def _edit_record(text, **changes):
    rec = json.loads(text)
    rec.update(changes)
    return json.dumps(rec) + "\n"


def _cases(S, cli):
    """(name, check, good result, corrupted result) for every corruption."""
    n = 27
    gaps = oracle.gaps_to(n)
    vt = S.VTuple.from_gaps(gaps)
    decoded = S.decode(vt)
    encoded = S.encode(n)
    bumped = list(encoded.v)
    bumped[len(bumped) // 2] += 1
    canon = S.canonicalize(vt)
    base_bumped = list(canon.base.v)
    base_bumped[-1] += 1

    yield ("perturbed n: decode", lambda r: w.check_decoded(gaps, 1, r), decoded, decoded + 2)
    solved = S.solve_v1(4, (1, 2, 1))
    yield ("perturbed n: solve_v1", lambda r: w.check_solved(4, (1, 2, 1), r), solved,
           NS(v1_star=solved.v1_star, vtuple=solved.vtuple, n=solved.n + 2))
    spec = {"kind": "decode", "gaps": gaps, "source": 1}
    code, text = w._cli_call(cli, ["decode", f"{len(gaps)}:" + ",".join(map(str, gaps))])
    yield ("perturbed n: cli decode", lambda r: w.check_request(spec, r), (code, text),
           (code, _edit_record(text, n=str(decoded + 2))))

    yield ("gap off by one: encode", lambda r: w.check_tuple_walk(n, 1, r), encoded,
           NS(b=encoded.b, v=tuple(bumped)))
    yield ("gap off by one: canonicalize", lambda r: w.check_canonical(gaps, r), canon,
           NS(base=NS(v=tuple(base_bumped)), c=canon.c))
    traj = S.trajectory(n)
    yield ("gap off by one: trajectory", lambda r: w.check_trajectory({"n": n}, r), traj,
           NS(odd_iterates=traj.odd_iterates, b=traj.b, v=tuple(bumped), reached_one=True))

    for spec in ({"source": 1, "t": 3, "s": 2, "k_cap": None},
                 {"source": 1, "t": 3, "s": 1, "k_cap": 8}):
        tree = S.enumerate_tree(S.EnumConfig(**spec))
        dropped = NS(nodes=tree.nodes[:-1])
        yield (f"dropped node: tree {spec}", lambda r, spec=spec: w.check_tree(spec, S.tree.node_record, r),
               tree, dropped)
    # verify_tree must itself reject a broken tree: a leaf whose value does
    # not map onto its parent, and a value listed twice.
    tree = S.enumerate_tree(S.EnumConfig(source=1, t=3, s=2))
    leaf = tree.nodes[-1]
    wrong_leaf = NS(value=leaf.value + 2, parent=leaf.parent, depth=leaf.depth)
    verified = lambda r: w.check_verified(S.verify_tree(r))  # noqa: E731
    yield ("wrong value: verify_tree", verified, tree,
           NS(config=tree.config, nodes=tree.nodes[:-1] + (wrong_leaf,)))
    yield ("duplicated node: verify_tree", verified, tree,
           NS(config=tree.config, nodes=tree.nodes + (leaf,)))
    spec = {"kind": "enum", "source": 5, "t": 2, "s": 2, "k_cap": None}
    code, text = w._cli_call(cli, ["enum", "--t", "2", "--s", "2", "--source", "5"])
    lines = text.splitlines(keepends=True)
    yield ("dropped node: cli enum", lambda r: w.check_request(spec, r), (code, text),
           (code, "".join(lines[:3] + lines[4:])))

    b, x = 7, 1234
    cls = S.dlog2(S.Residue(x, b))
    yield ("wrong log: dlog2", lambda r: w.check_dlog(x, b, r), cls,
           NS(value=(cls.value + 1) % cls.modulus, level=b))
    spec = {"kind": "dlog", "b": b, "x": x}
    code, text = w._cli_call(cli, ["dlog", str(x), "--b", str(b)])
    yield ("wrong log: cli dlog", lambda r: w.check_request(spec, r), (code, text),
           (code, _edit_record(text, log=(cls.value + 2) % cls.modulus)))
    k_cls = S.solve_constant_k(9, 3)
    yield ("wrong log: solve_constant_k", lambda r: w.check_constant_k(9, 3, r), k_cls,
           NS(value=(k_cls.value + 1) % k_cls.modulus, level=9))


def run():
    """Names of the corruptions the checks failed to catch (empty when sound)."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import syracuse
    import syracuse.cli

    missed = []
    for name, check, good, bad in _cases(syracuse, syracuse.cli):
        if not check(good):
            missed.append(f"{name} (rejected the true result)")
        elif check(bad):
            missed.append(name)
    return missed


if __name__ == "__main__":
    missed = run()
    for name in missed:
        print(f"MISSED {name}")
    print("selftest: ok" if not missed else f"selftest: {len(missed)} missed")
    sys.exit(1 if missed else 0)
