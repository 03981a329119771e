"""Gap-tuple codec: decode, encode, canonical windows, shifts."""

import pytest

from syracuse import (
    CanonicalTuple,
    CapExceeded,
    CutoffReached,
    IndexOutOfRange,
    NotAdmissible,
    SourcedTuple,
    SourceDivisibleBy3,
    SourceNotOnTrajectory,
    TupleFormatError,
    VTuple,
    canonicalize,
    decode,
    encode,
    format_vtuple,
    is_admissible,
    parse_vtuple,
    shift,
    syracuse,
    to_exponents,
    trajectory,
)
from syracuse.caps import capped

TABLE_B3 = [
    (4, 3, 2), (4, 5, 1), (8, 2, 1), (8, 6, 2), (10, 1, 1), (10, 5, 2),
    (14, 4, 2), (14, 6, 1), (16, 1, 2), (16, 3, 1), (20, 2, 2), (20, 4, 1),
]


def vt(*gaps):
    return VTuple(len(gaps), gaps)


class TestVTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            VTuple(2, (1,))
        with pytest.raises(ValueError):
            VTuple(1, (0,))
        with pytest.raises(ValueError):
            VTuple(-1, ())

    def test_empty_tuple_allowed(self):
        assert VTuple(0, ()).b == 0

    def test_from_gaps(self):
        assert VTuple.from_gaps([4, 3, 2]) == vt(4, 3, 2)


class TestTextFormat:
    @pytest.mark.parametrize("t", [vt(4, 3, 2), vt(2), VTuple(0, ())])
    def test_round_trip(self, t):
        assert parse_vtuple(format_vtuple(t)) == t

    def test_format(self):
        assert format_vtuple(vt(4, 3, 2)) == "3:4,3,2"
        assert format_vtuple(VTuple(0, ())) == "0:"

    @pytest.mark.parametrize(
        "text,position",
        [
            ("432", 3),        # no separator
            ("x:1", 0),        # bad length field
            ("3:4, 3,2", 4),   # whitespace is not accepted
            ("2:4,0", 4),      # zero gap
            ("3:4,3", 5),      # count mismatch
            ("1:", 2),         # missing gaps
            ("1:\u00b2", 2),   # SUPERSCRIPT TWO: a Unicode digit, not a decimal one
            ("\u00b2:1", 0),
            ("1:\u0664", 2),   # ARABIC-INDIC DIGIT FOUR
            ("2:4,\u0663", 4),
        ],
    )
    def test_errors_carry_position(self, text, position):
        with pytest.raises(TupleFormatError) as excinfo:
            parse_vtuple(text)
        assert excinfo.value.position == position


class TestToExponents:
    @pytest.mark.parametrize(
        "t,a,u",
        [
            (vt(4, 3, 2), 9, (5, 2, 0)),
            (vt(2), 2, (0,)),
            (vt(10, 1, 1), 12, (2, 1, 0)),
            (VTuple(0, ()), 0, ()),
        ],
    )
    def test_examples(self, t, a, u):
        assert to_exponents(t) == (a, u)

    def test_strictly_decreasing(self):
        a, u = to_exponents(vt(5, 1, 2, 3))
        assert a > u[0] and all(u[i] > u[i + 1] for i in range(len(u) - 1))


class TestDecode:
    def test_published_triple(self):
        assert decode(vt(4, 3, 2)) == 17

    def test_root_loop_tuple(self):
        assert decode(vt(2)) == 1

    def test_inexact_division(self):
        with pytest.raises(NotAdmissible):
            decode(vt(3, 1))

    def test_sourced(self):
        assert decode(vt(1), source=5) == 3

    def test_empty_tuple_is_source(self):
        assert decode(VTuple(0, ())) == 1
        assert decode(VTuple(0, ()), source=7) == 7

    def test_source_validation(self):
        with pytest.raises(SourceDivisibleBy3):
            decode(vt(2), source=9)
        with pytest.raises(ValueError):
            decode(vt(2), source=4)
        with pytest.raises(ValueError):
            decode(vt(2), source=-5)

    def test_cap(self):
        with capped(100):
            with pytest.raises(CapExceeded):
                decode(vt(200, 1))

    def test_decodes_are_odd_and_positive(self):
        for t in TABLE_B3:
            n = decode(vt(*t))
            assert n >= 1 and n % 2 == 1


class TestIsAdmissible:
    def test_published(self):
        assert is_admissible(vt(10, 1, 1))

    def test_inexact(self):
        assert not is_admissible(vt(3, 1))

    def test_shifted(self):
        assert is_admissible(vt(4, 3, 4))
        assert decode(vt(4, 3, 4)) == 69

    def test_non_admissible_errors_still_raise(self):
        with pytest.raises(SourceDivisibleBy3):
            is_admissible(vt(2), source=3)


class TestEncode:
    def test_published_triple(self):
        assert encode(17) == vt(4, 3, 2)

    def test_root(self):
        assert encode(1) == VTuple(0, ())

    def test_single_step(self):
        assert encode(5) == vt(4)

    def test_sourced(self):
        # 17 -> 13 -> 5, re-anchored at 5
        assert encode(17, source=5) == vt(3, 2)
        assert decode(vt(3, 2), source=5) == 17

    def test_source_not_on_trajectory(self):
        with pytest.raises(SourceNotOnTrajectory):
            encode(17, source=7)

    def test_cutoff(self):
        with pytest.raises(CutoffReached):
            encode(27, max_steps=5)

    def test_matches_trajectory_gaps(self):
        for n in range(1, 500, 2):
            assert encode(n).v == trajectory(n).v


class TestRoundTrip:
    def test_small_sweep(self):
        for n in range(1, 2001, 2):
            t = encode(n)
            assert decode(t) == n

    def test_sourced_round_trip(self):
        for n in (7, 9, 27, 97):
            iterates = trajectory(n).odd_iterates
            for source in iterates[1:]:
                if source % 3 == 0:
                    continue
                assert decode(encode(n, source), source) == n

    def test_prefix_tuples_decode_to_later_iterates(self):
        # dropping trailing gaps keeps admissibility: the prefix of
        # length b-i decodes (at source 1) to the i-th forward iterate
        for n in (17, 27, 151, 97):
            t = encode(n)
            cur = n
            for i in range(1, t.b):
                cur = syracuse(cur)
                prefix = VTuple(t.b - i, t.v[: t.b - i])
                assert decode(prefix) == cur

    def test_suffix_tuples_decode_at_shifted_source(self):
        # the suffix of length b-i is the same run re-anchored at the
        # iterate it now ends on, and decodes back to n there
        for n in (17, 27, 151, 97):
            t = encode(n)
            iterates = trajectory(n).odd_iterates
            for i in range(1, t.b):
                suffix = VTuple(t.b - i, t.v[i:])
                new_source = iterates[t.b - i]
                if new_source % 3 == 0:
                    continue
                assert decode(suffix, source=new_source) == n


class TestParityLaw:
    def test_first_gap_parity_by_source_class(self):
        # admissible first gaps: even when source = 1 mod 3, odd when 2 mod 3
        for source in [s for s in range(1, 50, 2) if s % 3]:
            want_even = source % 3 == 1
            for b in (1, 2, 3):
                tails = [()]
                for i in range(2, b + 1):
                    tails = [tl + (v,) for tl in tails for v in range(1, 2 * 3 ** (b - i) + 1)]
                for tail in tails:
                    for v1 in range(1, 2 * 3 ** (b - 1) + 1):
                        if is_admissible(VTuple(b, (v1,) + tail), source):
                            assert (v1 % 2 == 0) == want_even


class TestCanonicalize:
    def test_reduction_with_count(self):
        got = canonicalize(vt(28, 1, 1))
        assert got.base == vt(10, 1, 1)
        assert got.c == (1, 0, 0)
        assert decode(vt(28, 1, 1)) == 39768215
        assert decode(got.base) == 151

    @pytest.mark.parametrize("t", [(20, 2, 2), (4, 3, 2)])
    def test_already_canonical(self, t):
        got = canonicalize(vt(*t))
        assert got.base == vt(*t)
        assert got.c == (0, 0, 0)

    def test_original_reconstruction(self):
        for t in [vt(28, 1, 1), vt(4, 3, 4), vt(22, 3, 2), vt(40, 2, 2)]:
            if not is_admissible(t):
                continue
            got = canonicalize(t)
            assert got.original() == t

    def test_base_remains_admissible(self):
        for t in TABLE_B3:
            big = vt(t[0] + 36, t[1] + 12, t[2] + 2)  # three shifted gaps
            assert is_admissible(big)
            got = canonicalize(big)
            assert got.base == vt(*t)
            assert got.c == (2, 2, 1)

    def test_root_loop_class_rejected(self):
        # (2, 2) decodes to 1 itself; the correspondence excludes it
        assert decode(vt(2, 2)) == 1
        with pytest.raises(NotAdmissible):
            canonicalize(vt(2, 2))

    def test_inadmissible_rejected(self):
        with pytest.raises(NotAdmissible):
            canonicalize(vt(3, 1))

    def test_b1_window(self):
        got = canonicalize(vt(6))
        assert got.base == vt(4) and got.c == (1,)
        with pytest.raises(NotAdmissible):
            canonicalize(vt(2))

    def test_general_source_window(self):
        got = canonicalize(vt(1), source=5)
        assert got.base == vt(1) and got.c == (0,)

    def test_empty(self):
        got = canonicalize(VTuple(0, ()))
        assert got.base.b == 0 and got.c == ()

    def test_census_is_canonical_fixed_point(self):
        for t in TABLE_B3:
            got = canonicalize(vt(*t))
            assert got.base == vt(*t) and got.c == (0, 0, 0)

    def test_general_source_shifted_round_trip(self):
        # encode real runs at shifted sources, push gaps above their
        # windows with shift moves, and reduce back
        for n in (97, 161, 485):
            iterates = trajectory(n).odd_iterates
            for i, source in enumerate(iterates[1:], start=1):
                b = i  # run length from n down to this iterate
                if source % 3 == 0 or source == 1 or b > 6:
                    continue
                t = encode(n, source)
                assert t.b == b
                bumped = t
                for j in range(t.b):
                    bumped = shift(bumped, j)
                got = canonicalize(bumped, source)
                assert got.original() == bumped
                assert got.base == canonicalize(t, source).base
                assert is_admissible(got.base, source)


class TestShift:
    def test_examples(self):
        assert shift(vt(4, 3, 2), 2) == vt(4, 3, 4)
        assert decode(vt(4, 3, 4)) == 69
        assert shift(vt(4, 3, 2), 0) == vt(22, 3, 2)
        assert decode(vt(22, 3, 2)) == 4971025
        assert shift(vt(2), 0) == vt(4)
        assert decode(vt(4)) == 5

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            shift(vt(4, 3, 2), 3)
        with pytest.raises(IndexOutOfRange):
            shift(vt(4, 3, 2), -1)

    def test_closure_on_census(self):
        # shifts of admissible tuples stay admissible, any index
        for t in TABLE_B3 + [(4,), (2,), (4, 1), (8, 2)]:
            base = vt(*t)
            if not is_admissible(base):
                continue
            for j in range(base.b):
                shifted = shift(base, j)
                assert is_admissible(shifted)
                n = decode(shifted)
                assert n >= 1 and n % 2 == 1


class TestSourcedTuple:
    def test_decode(self):
        st = SourcedTuple(5, vt(1))
        assert st.decode() == 3

    def test_validation(self):
        with pytest.raises(SourceDivisibleBy3):
            SourcedTuple(9, vt(2))
