"""Command-line surface: every library operation, one JSON record per line.

Exit codes: 0 success, 1 domain error (reported as a JSON record with a
machine-readable code), 2 usage error. Integers from the trajectory
domain are serialized as decimal strings so arbitrary sizes round-trip
bit-exactly; structural numbers (gaps, depths, classes) stay JSON
numbers. ``--format table`` renders the same records as aligned text.
"""

import argparse
import json
import os
import sys
import time

from . import verify as verify_mod
from .caps import set_exponent_cap
from .collatz import trajectory
from .errors import SyracuseError, TupleFormatError
from .numtheory import Residue, dlog2, group_order
from .solver import (
    ascending_all_ones,
    ascending_family,
    solve_constant_k,
    solve_v1,
    target_families,
)
from .tree import EnumConfig, iter_nodes, node_record
from .tuples import decode, encode, format_vtuple, parse_vtuple

ENV_EXP_CAP = "SYRACUSE_EXP_CAP"


def _unlimited_int_strings():
    # Serializing very large results must not trip the str() guard.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)


def _tail_arg(text: str) -> tuple[int, ...]:
    if not text:
        return ()
    parts = text.split(",")
    if not all(p.isascii() and p.isdigit() and int(p) >= 1 for p in parts):
        raise argparse.ArgumentTypeError(f"tail must be comma-separated gaps >= 1: {text!r}")
    return tuple(int(p) for p in parts)


def _tuple_arg(text: str):
    try:
        return parse_vtuple(text)
    except TupleFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="syracuse",
        description="Exact arithmetic for Collatz predecessor sets.",
    )
    parser.add_argument(
        "--format", choices=("jsonl", "table"), default="jsonl", help="output format"
    )
    parser.add_argument(
        "--seed-cap", type=int, default=None, metavar="BITS",
        help=f"exponent cap in bits (overrides ${ENV_EXP_CAP})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("traj", help="forward trajectory of an odd integer")
    p.add_argument("n", type=int)
    p.add_argument("--max-steps", type=int, default=10**6)

    p = sub.add_parser("decode", help="odd integer for a gap tuple")
    p.add_argument("tuple", type=_tuple_arg, help="text form b:v1,...,vb")
    p.add_argument("--source", type=int, default=1)

    p = sub.add_parser("encode", help="gap tuple for an odd integer")
    p.add_argument("n", type=int)
    p.add_argument("--source", type=int, default=1)
    p.add_argument("--max-steps", type=int, default=10**6)

    p = sub.add_parser("solve-v1", help="unique canonical first gap for a tail")
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--tail", type=_tail_arg, default=())
    p.add_argument("--source", type=int, default=1)

    p = sub.add_parser("ascend", help="ascending-run generators")
    mode = p.add_subparsers(dest="mode", required=True)
    q = mode.add_parser("all-ones", help="strictly ascending run into 1")
    q.add_argument("--b", type=int, required=True)
    q = mode.add_parser("family", help="explicit ascending family")
    q.add_argument("--q", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q = mode.add_parser("constant-k", help="first-gap class for a constant tail")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--source", type=int, default=1)
    q = mode.add_parser("targets", help="constant-valuation target pairs")
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--k", type=int, required=True)

    p = sub.add_parser("enum", help="bounded predecessor tree, one node per line")
    p.add_argument("--source", type=int, default=1)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--k-cap", type=int, default=None)

    p = sub.add_parser("dlog", help="discrete logarithm base 2 mod 3^b")
    p.add_argument("x", type=int)
    p.add_argument("--b", type=int, required=True)

    p = sub.add_parser("verify", help="self-verification suite")
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def _emit(record: dict, fmt: str, out) -> None:
    if fmt == "jsonl":
        out.write(json.dumps(record, separators=(",", ":")) + "\n")
    else:
        _emit_table([record], out)


def _cell(value) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_cell(v) for v in value) + "]"
    return str(value)


def _emit_table(records: list[dict], out) -> None:
    if not records:
        return
    cols = list(records[0].keys())
    rows = [[_cell(rec.get(col, "")) for col in cols] for rec in records]
    widths = [max(len(col), max(len(row[i]) for row in rows)) for i, col in enumerate(cols)]
    out.write("  ".join(col.ljust(w) for col, w in zip(cols, widths)).rstrip() + "\n")
    for row in rows:
        out.write("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n")


def _run_traj(args) -> dict:
    t = trajectory(args.n, args.max_steps)
    return {
        "n": str(args.n),
        "b": t.b,
        "v": list(t.v),
        "iterates": [str(x) for x in t.odd_iterates],
        "reached_one": t.reached_one,
    }


def _run_decode(args) -> dict:
    n = decode(args.tuple, args.source)
    return {
        "b": args.tuple.b,
        "v": list(args.tuple.v),
        "source": str(args.source),
        "n": str(n),
    }


def _run_encode(args) -> dict:
    t = encode(args.n, args.source, args.max_steps)
    return {
        "n": str(args.n),
        "source": str(args.source),
        "b": t.b,
        "v": list(t.v),
        "tuple": format_vtuple(t),
    }


def _run_solve_v1(args) -> dict:
    res = solve_v1(args.b, args.tail, args.source)
    return {
        "b": args.b,
        "tail": list(args.tail),
        "source": str(args.source),
        "a_class": res.a_class.value,
        "modulus": res.v1_class.modulus,
        "v1_star": res.v1_star,
        "n": str(res.n),
    }


def _run_ascend(args) -> dict:
    if args.mode == "all-ones":
        res = ascending_all_ones(args.b)
        return {
            "b": args.b,
            "v1_star": res.v1_star,
            "tuple": format_vtuple(res.vtuple),
            "n": str(res.n),
        }
    if args.mode == "family":
        n = ascending_family(args.q, args.p)
        return {"q": args.q, "p": args.p, "n": str(n)}
    if args.mode == "constant-k":
        cls = solve_constant_k(args.b, args.k, args.source)
        return {
            "b": args.b,
            "k": args.k,
            "source": str(args.source),
            "v1_class": cls.value,
            "modulus": cls.modulus,
        }
    pair = target_families(args.b, args.p, args.k)
    return {
        "b": args.b,
        "p": args.p,
        "k": args.k,
        "n": str(pair.n),
        "m": str(pair.m),
    }


def _run_dlog(args) -> dict:
    mod = 3**args.b
    cls = dlog2(Residue(args.x % mod, args.b))
    return {
        "x": args.x % mod,
        "b": args.b,
        "log": cls.value,
        "modulus": group_order(args.b),
    }


def _run_enum(args, fmt: str, out) -> int:
    cfg = EnumConfig(source=args.source, t=args.t, s=args.s, k_cap=args.k_cap)
    records = (node_record(node) for node in iter_nodes(cfg))
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
    else:
        _emit_table(list(records), out)
    return 0


def _run_verify(args, fmt: str, out) -> int:
    results = verify_mod.verify_suite(args.level)
    records = [
        {
            "check": r.name,
            "passed": r.passed,
            "detail": r.detail,
            "elapsed_ms": r.elapsed_ms,
        }
        for r in results
    ]
    failed = sum(1 for r in results if not r.passed)
    summary = {
        "status": "ok" if failed == 0 else "error",
        "level": args.level,
        "passed": len(results) - failed,
        "failed": failed,
    }
    if fmt == "jsonl":
        for rec in records:
            out.write(json.dumps(rec, separators=(",", ":")) + "\n")
        out.write(json.dumps(summary, separators=(",", ":")) + "\n")
    else:
        _emit_table(records, out)
        _emit_table([summary], out)
    return 0 if failed == 0 else 1


def main(argv=None, out=None) -> int:
    _unlimited_int_strings()
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    cap = os.environ.get(ENV_EXP_CAP)
    try:
        if args.seed_cap is not None:
            set_exponent_cap(args.seed_cap)
        elif cap is not None:
            set_exponent_cap(int(cap))
    except ValueError as exc:
        print(f"syracuse: bad exponent cap: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    try:
        if args.command == "enum":
            return _run_enum(args, args.format, out)
        if args.command == "verify":
            return _run_verify(args, args.format, out)
        runner = {
            "traj": _run_traj,
            "decode": _run_decode,
            "encode": _run_encode,
            "solve-v1": _run_solve_v1,
            "ascend": _run_ascend,
            "dlog": _run_dlog,
        }[args.command]
        payload = runner(args)
    except SyracuseError as exc:
        record = {
            "status": "error",
            "code": exc.code,
            "message": str(exc),
            "elapsed_ms": round((time.perf_counter() - started) * 1000.0, 3),
        }
        _emit(record, args.format, out)
        return 1
    except ValueError as exc:
        print(f"syracuse: {exc}", file=sys.stderr)
        return 2

    record = {"status": "ok", **payload}
    record["elapsed_ms"] = round((time.perf_counter() - started) * 1000.0, 3)
    _emit(record, args.format, out)
    return 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
