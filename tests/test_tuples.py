"""Gap-tuple codec: decode, encode, canonical windows, shifts."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    canonical_v1,
    canonicalize,
    decode,
    encode,
    format_vtuple,
    gap_modulus,
    is_admissible,
    parse_vtuple,
    shift,
    syracuse,
    to_exponents,
    trajectory,
)
from syracuse.caps import DEFAULT_EXP_CAP, capped, check_bits

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
        with pytest.raises(SourceNotOnTrajectory):
            encode(1, source=5)

    def test_cutoff(self):
        with pytest.raises(CutoffReached):
            encode(27, max_steps=5)
        with pytest.raises(CutoffReached):
            encode(1, source=5, max_steps=0)

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


# ---------------------------------------------------------------- differential
# References: the term-by-term closed form decode and the per-index
# gap_modulus windows that the library evaluated before binary splitting
# and incremental window moduli.

SOURCES = (1, 5, 7, 11)


def reference_decode(t, source=1):
    a, u = to_exponents(t)
    check_bits(a + source.bit_length() + 2, "decode")
    num = source * 2**a - sum(2 ** u[i] * 3**i for i in range(t.b))
    den = 3**t.b
    if num <= 0 or num % den:
        raise NotAdmissible(f"{format_vtuple(t)} does not decode at source {source}")
    return num // den


def reference_canonicalize(t, source=1):
    """(base gaps, counts) of the reduction; raises NotAdmissible where the library does."""
    reference_decode(t, source)
    base, counts = list(t.v), [0] * t.b
    for i in range(2, t.b + 1):
        m = gap_modulus(t.b, i)
        w = 1 + (t.v[i - 1] - 1) % m
        base[i - 1], counts[i - 1] = w, (t.v[i - 1] - w) // m
    if t.b:
        m1 = gap_modulus(t.b, 1)
        w1 = canonical_v1(t.v[0] % m1, t.b, source)
        if t.v[0] < w1:
            raise NotAdmissible("root loop")
        base[0], counts[0] = w1, (t.v[0] - w1) // m1
    return tuple(base), tuple(counts)


def outcome(f, *args):
    try:
        return "ok", f(*args)
    except (NotAdmissible, CapExceeded) as exc:
        return type(exc), str(exc)


@st.composite
def sourced_tuples(draw, max_b=30):
    """(source, tuple): free gaps, or an admissible run walked up from the source."""
    source = draw(st.sampled_from(SOURCES))
    if draw(st.booleans()):
        return source, VTuple.from_gaps(draw(st.lists(st.integers(1, 40), max_size=max_b)))
    gaps, cur = [], source
    for _ in range(draw(st.integers(0, max_b))):
        if cur % 3 == 0:
            break
        k = 2 * draw(st.integers(0, 12)) + (2 if cur % 3 == 1 else 1)
        gaps.append(k)
        cur = (cur * 2**k - 1) // 3
    return source, VTuple.from_gaps(gaps)


class TestDifferential:
    @settings(max_examples=300, deadline=None)
    @given(case=sourced_tuples(), cap=st.sampled_from((DEFAULT_EXP_CAP, 48)))
    def test_decode_matches_closed_form(self, case, cap):
        source, t = case
        with capped(cap):
            assert outcome(decode, t, source) == outcome(reference_decode, t, source)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**2047 - 1))
    def test_round_trip_large_odd(self, k):
        n = 2 * k + 1
        assert decode(encode(n)) == n

    def test_deep_round_trip(self):
        n = 2**20000 - 1
        t = encode(n)
        assert t.b == 96987
        assert decode(t) == n

    @settings(max_examples=200, deadline=None)
    @given(case=sourced_tuples(max_b=12), shifts=st.lists(st.integers(0, 3), max_size=12))
    def test_canonicalize_matches_per_index_windows(self, case, shifts):
        source, t = case
        # push gaps above their windows by whole moduli
        t = VTuple.from_gaps(
            v + gap_modulus(t.b, i) * c
            for i, (v, c) in enumerate(zip(t.v, shifts + [0] * t.b), start=1)
        )
        want = outcome(reference_canonicalize, t, source)
        got = outcome(canonicalize, t, source)
        if want[0] == "ok":
            assert got[0] == "ok"
            assert (got[1].base.v, got[1].c) == want[1]
            assert got[1].original() == t
        else:
            assert got[0] == want[0]

    @settings(max_examples=200, deadline=None)
    @given(
        base=st.lists(st.integers(1, 60), max_size=5),
        counts=st.lists(st.integers(0, 3), max_size=5),
    )
    def test_canonical_tuple_window_and_original(self, base, counts):
        b = len(base)
        c = tuple((counts + [0] * b)[:b])
        inside = all(
            v <= gap_modulus(b, i) + (2 if i == 1 else 0) for i, v in enumerate(base, start=1)
        )
        if not inside:
            with pytest.raises(ValueError, match="outside its canonical window"):
                CanonicalTuple(VTuple(b, base), c)
            return
        ct = CanonicalTuple(VTuple(b, base), c)
        assert ct.original().v == tuple(
            v + gap_modulus(b, i) * ci for i, (v, ci) in enumerate(zip(base, c), start=1)
        )
