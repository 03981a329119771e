"""CLI surface: JSON-lines records, exit codes, error taxonomy."""

import io
import json
import os
import subprocess
import sys

import pytest

import syracuse
from syracuse import SolveResult, cli, solver, tree


def run_cli(*argv):
    out = io.StringIO()
    code = cli.main(list(argv), out=out)
    return code, out.getvalue()


def run_module(*argv):
    # the child must import the same syracuse as this process, installed or not
    src = os.path.dirname(os.path.dirname(syracuse.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "syracuse.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def records(text):
    return [json.loads(line) for line in text.splitlines() if line]


class TestDecode:
    def test_published_tuple(self):
        code, out = run_cli("decode", "3:4,3,2")
        (rec,) = records(out)
        assert code == 0
        assert rec["status"] == "ok"
        assert rec["n"] == "17"
        assert rec["b"] == 3 and rec["v"] == [4, 3, 2]

    def test_not_admissible_is_domain_error(self):
        code, out = run_cli("decode", "2:3,1")
        (rec,) = records(out)
        assert code == 1
        assert rec["status"] == "error"
        assert rec["code"] == "not_admissible"

    def test_malformed_tuple_is_usage_error(self, capsys):
        code, _ = run_cli("decode", "3:4,,2")
        assert code == 2
        assert "position" in capsys.readouterr().err

    def test_non_ascii_digit_is_usage_error(self, capsys):
        # '\u0664' is ARABIC-INDIC DIGIT FOUR: str.isdigit accepts it, the codec must not
        code, out = run_cli("decode", "1:\u0664")
        assert code == 2 and out == ""
        assert "position 2" in capsys.readouterr().err

    def test_sourced(self):
        code, out = run_cli("decode", "1:1", "--source", "5")
        (rec,) = records(out)
        assert code == 0 and rec["n"] == "3"

    def test_source_divisible_by_3(self):
        code, out = run_cli("decode", "1:2", "--source", "9")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "source_divisible_by_3"

    def test_even_source_is_usage_error(self):
        code, _ = run_cli("decode", "1:2", "--source", "4")
        assert code == 2


class TestEncodeTraj:
    def test_encode(self):
        code, out = run_cli("encode", "17")
        (rec,) = records(out)
        assert code == 0
        assert rec["tuple"] == "3:4,3,2" and rec["v"] == [4, 3, 2]

    def test_traj_published(self):
        code, out = run_cli("traj", "151")
        (rec,) = records(out)
        assert code == 0
        assert rec["b"] == 3
        assert rec["v"] == [10, 1, 1]
        assert rec["iterates"] == ["151", "227", "341"]
        assert rec["reached_one"] is True

    def test_traj_root(self):
        _, out = run_cli("traj", "1")
        (rec,) = records(out)
        assert rec["b"] == 0 and rec["v"] == []

    def test_traj_cutoff_is_ok_outcome(self):
        code, out = run_cli("traj", "27", "--max-steps", "3")
        (rec,) = records(out)
        assert code == 0 and rec["reached_one"] is False

    def test_bigint_string_round_trip(self):
        n = 2**200 + 1
        code, out = run_cli("traj", str(n), "--max-steps", "5")
        (rec,) = records(out)
        assert code == 0
        assert int(rec["iterates"][0]) == n
        # every serialized iterate reparses to the exact integer
        cur = n
        for s in rec["iterates"][1:]:
            m = 3 * cur + 1
            cur = m >> ((m & -m).bit_length() - 1)
            assert int(s) == cur

    def test_encode_cutoff_domain_error(self):
        code, out = run_cli("encode", "27", "--max-steps", "3")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "cutoff_reached"

    def test_encode_source_not_on_trajectory(self):
        code, out = run_cli("encode", "17", "--source", "7")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "source_not_on_trajectory"


class TestSolveAndAscend:
    def test_solve_v1_published(self):
        code, out = run_cli("solve-v1", "--b", "3", "--tail", "1,1")
        (rec,) = records(out)
        assert code == 0
        assert rec["v1_star"] == 10 and rec["n"] == "151"
        assert rec["modulus"] == 18 and rec["a_class"] == 12

    def test_solve_v1_empty_tail(self):
        code, out = run_cli("solve-v1", "--b", "1", "--source", "5")
        (rec,) = records(out)
        assert code == 0 and rec["n"] == "3" and rec["v1_star"] == 1

    def test_solve_v1_non_ascii_tail_is_usage_error(self):
        # ARABIC-INDIC DIGIT THREE, SUPERSCRIPT TWO; each tail has the right length
        for b, tail in (("2", "\u0663"), ("3", "1,\u00b2")):
            code, out = run_cli("solve-v1", "--b", b, "--tail", tail)
            assert code == 2 and out == ""

    def test_ascend_all_ones(self):
        code, out = run_cli("ascend", "all-ones", "--b", "5")
        (rec,) = records(out)
        assert code == 0
        assert rec["v1_star"] == 82
        assert rec["n"] == "318400215865581346424671"

    def test_ascend_family(self):
        code, out = run_cli("ascend", "family", "--q", "1", "--p", "1")
        (rec,) = records(out)
        assert code == 0 and rec["n"] == "227"

    def test_ascend_constant_k(self):
        code, out = run_cli("ascend", "constant-k", "--b", "3", "--k", "1")
        (rec,) = records(out)
        assert code == 0 and rec["v1_class"] == 10 and rec["modulus"] == 18

    def test_ascend_targets(self):
        code, out = run_cli("ascend", "targets", "--b", "2", "--p", "1", "--k", "1")
        (rec,) = records(out)
        assert code == 0 and rec["n"] == "17" and rec["m"] == "7"

    def test_ascend_targets_invalid_p(self):
        code, out = run_cli("ascend", "targets", "--b", "2", "--p", "0", "--k", "1")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "invalid_p"

    def test_cap_flag(self):
        code, out = run_cli("--seed-cap", "1000", "ascend", "all-ones", "--b", "9")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "cap_exceeded"

    def test_cap_env(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_EXP_CAP, "1000")
        code, out = run_cli("ascend", "all-ones", "--b", "9")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "cap_exceeded"

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_EXP_CAP, "1000")
        code, out = run_cli("--seed-cap", "100000", "ascend", "all-ones", "--b", "9")
        (rec,) = records(out)
        assert code == 0 and records(out)[0]["v1_star"] == 3**8 + 1

    def test_bad_env_cap_is_usage_error(self, monkeypatch):
        monkeypatch.setenv(cli.ENV_EXP_CAP, "zero")
        code, _ = run_cli("traj", "7")
        assert code == 2


class TestEnum:
    def test_stream_matches_example(self):
        code, out = run_cli("enum", "--t", "1", "--s", "1")
        recs = records(out)
        assert code == 0
        assert [r["value"] for r in recs] == ["1", "5", "21", "85"]
        assert recs[0] == {"value": "1", "depth": 0, "tuple": "0:", "fertile": True}
        assert recs[2]["fertile"] is False  # 21 is sterile

    def test_stream_sorted_by_depth_then_tuple(self):
        _, out = run_cli("enum", "--t", "3", "--s", "2")
        recs = records(out)

        def gaps(rec):
            tail = rec["tuple"].partition(":")[2]
            return [int(g) for g in tail.split(",") if g]

        keys = [(r["depth"], gaps(r)) for r in recs]
        assert keys == sorted(keys)
        assert len(recs) == 31 + 6 * 4**2  # count formula at t=3, s=2

    def test_other_source(self):
        _, out = run_cli("enum", "--source", "5", "--t", "1")
        assert sorted(int(r["value"]) for r in records(out)) == [3, 5, 13, 53]

    def test_k_cap_widens_root_window(self):
        _, out = run_cli("enum", "--t", "1", "--k-cap", "12")
        values = sorted(int(r["value"]) for r in records(out))
        assert values == [1, 5, 21, 85, 341, 1365]

    def test_usage_error_on_sterile_source(self):
        code, _ = run_cli("enum", "--source", "9")
        assert code == 2


class TestDlog:
    def test_published_example(self):
        code, out = run_cli("dlog", "7", "--b", "2")
        (rec,) = records(out)
        assert code == 0
        assert rec == {
            "status": "ok",
            "x": 7,
            "b": 2,
            "log": 4,
            "modulus": 6,
            "elapsed_ms": rec["elapsed_ms"],
        }

    def test_reduction_of_large_input(self):
        _, out = run_cli("dlog", "16", "--b", "2")
        (rec,) = records(out)
        assert rec["x"] == 7 and rec["log"] == 4

    def test_not_in_group(self):
        code, out = run_cli("dlog", "6", "--b", "2")
        (rec,) = records(out)
        assert code == 1 and rec["code"] == "not_in_group"


class TestTableFormat:
    def test_single_record(self):
        code, out = run_cli("--format", "table", "decode", "3:4,3,2")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].split()[:4] == ["status", "b", "v", "source"]
        assert "17" in lines[1]

    def test_enum_table(self):
        _, out = run_cli("--format", "table", "enum", "--t", "1")
        lines = out.splitlines()
        assert lines[0].split() == ["value", "depth", "tuple", "fertile"]
        assert len(lines) == 5


class TestVerify:
    def test_quick_passes(self):
        code, out = run_cli("verify", "--level", "quick")
        recs = records(out)
        assert code == 0
        assert recs[-1]["status"] == "ok" and recs[-1]["failed"] == 0
        assert {r["check"] for r in recs[:-1]} == {
            "table_b3_census",
            "all_ones_table",
            "dlog_example",
        }
        assert all(r["passed"] for r in recs[:-1])

    def test_injected_fault_fails(self, monkeypatch):
        # sabotage one constant the suite re-derives: nonzero exit required
        def broken(b):
            res = solver.solve_v1(b, (1,) * (b - 1))
            wrong = res.v1_star + 2 * 3 ** (b - 1)
            return SolveResult(res.v1_class, wrong, res.vtuple, res.n)

        monkeypatch.setattr(solver, "ascending_all_ones", broken)
        code, out = run_cli("verify", "--level", "quick")
        recs = records(out)
        assert code == 1
        assert recs[-1]["failed"] >= 1
        failed = {r["check"] for r in recs[:-1] if not r["passed"]}
        assert "all_ones_table" in failed

    def test_injected_fault_full_level(self, monkeypatch):
        # a wrong closed-form constant must fail the full suite too
        monkeypatch.setattr(tree, "count_formula", lambda t, s: 1)
        code, out = run_cli("verify", "--level", "full")
        recs = records(out)
        assert code == 1
        failed = {r["check"] for r in recs[:-1] if not r["passed"]}
        assert "tree_cardinality" in failed


class TestUsage:
    def test_missing_subcommand(self):
        code, _ = run_cli()
        assert code == 2

    def test_unknown_flag(self):
        code, _ = run_cli("traj", "7", "--bogus")
        assert code == 2

    def test_help_exits_zero(self):
        code, _ = run_cli("--help")
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ("traj", "1_5_1"),                 # int() reads this as 151
            ("enum", "--t", "\u0662"),    # ARABIC-INDIC DIGIT TWO
            ("traj", "+7"),
            ("traj", " 7"),
            ("encode", "17", "--source", "5_"),
            ("dlog", "\u00b2", "--b", "2"),  # SUPERSCRIPT TWO
            ("--seed-cap", "1e3", "traj", "7"),
            ("traj", "-"),
        ],
    )
    def test_integer_arguments_take_ascii_digits_only(self, argv, capsys):
        code, out = run_cli(*argv)
        assert code == 2 and out == ""
        assert "invalid integer" in capsys.readouterr().err

    def test_negative_integer_reaches_range_check(self, capsys):
        code, out = run_cli("traj", "-3")
        assert code == 2 and out == ""
        assert "n must be >= 1, got -3" in capsys.readouterr().err
        code, out = run_cli("dlog", "-5", "--b", "3")
        assert code == 0 and records(out)[0]["x"] == 22


class TestSubprocess:
    def test_module_entry_point(self):
        proc = run_module("decode", "3:4,3,2")
        assert proc.returncode == 0
        rec = json.loads(proc.stdout)
        assert rec["n"] == "17"

    def test_module_entry_point_domain_error(self):
        proc = run_module("decode", "2:3,1")
        assert proc.returncode == 1
        assert json.loads(proc.stdout)["code"] == "not_admissible"
