"""Exact codec between gap tuples and the odd integers they stand for.

A length-b tuple (v1..vb) describes a run of b Syracuse steps ending at
a source value, v1 being the valuation of the final step into the
source. decode evaluates the closed form for the starting integer in
exact arithmetic; encode reads the gaps off a forward trajectory;
canonicalize reduces each gap into the window where every class of
equivalent runs keeps exactly one representative.
"""

from dataclasses import dataclass

from .caps import check_bits
from .collatz import DEFAULT_MAX_STEPS, _forward, _require_odd
from .errors import (
    CutoffReached,
    IndexOutOfRange,
    NotAdmissible,
    SourceDivisibleBy3,
    SourceNotOnTrajectory,
    TupleFormatError,
)


@dataclass(frozen=True)
class VTuple:
    """Gap tuple (v1..vb); b = 0 is the empty tuple of the source itself."""

    b: int
    v: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "v", tuple(self.v))
        if self.b < 0:
            raise ValueError(f"b must be >= 0, got {self.b}")
        if len(self.v) != self.b:
            raise ValueError(f"expected {self.b} gaps, got {len(self.v)}")
        for i, gap in enumerate(self.v, start=1):
            if not isinstance(gap, int) or gap < 1:
                raise ValueError(f"gap v{i} must be a positive integer, got {gap!r}")

    @classmethod
    def from_gaps(cls, gaps) -> "VTuple":
        gaps = tuple(gaps)
        return cls(len(gaps), gaps)

    def __str__(self):
        return format_vtuple(self)


@dataclass(frozen=True)
class CanonicalTuple:
    """A window-reduced tuple plus the per-gap shift counts it absorbed."""

    base: VTuple
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(self.c))
        if len(self.c) != self.base.b:
            raise ValueError(f"expected {self.base.b} shift counts, got {len(self.c)}")
        if any(ci < 0 for ci in self.c):
            raise ValueError(f"shift counts must be nonnegative, got {self.c}")
        b = self.base.b
        for i, v, m in zip(range(b, 0, -1), reversed(self.base.v), _moduli_from_last(b)):
            # first-gap window depends on the source; 2*3^(b-1)+2 is the
            # loosest bound, the deeper windows are source-independent
            if v > (m + 2 if i == 1 else m):
                raise ValueError(f"gap v{i}={v} outside its canonical window")

    def original(self) -> VTuple:
        """Rebuild the tuple this was reduced from: v_i + 2*3^(b-i)*c_i."""
        b = self.base.b
        last_first = [
            v + m * ci
            for v, ci, m in zip(reversed(self.base.v), reversed(self.c), _moduli_from_last(b))
        ]
        return VTuple(b, tuple(reversed(last_first)))


@dataclass(frozen=True)
class SourcedTuple:
    """A gap tuple paired with the source value its run ends at."""

    source: int
    vtuple: VTuple

    def __post_init__(self):
        _require_source(self.source)

    def decode(self) -> int:
        return decode(self.vtuple, self.source)


def _require_source(source: int) -> None:
    _require_odd(source, "source")
    if source % 3 == 0:
        raise SourceDivisibleBy3(f"source {source} is divisible by 3")


def format_vtuple(t: VTuple) -> str:
    return f"{t.b}:" + ",".join(map(str, t.v))


def parse_vtuple(text: str) -> VTuple:
    """Parse 'b:v1,v2,...,vb' (whitespace-free); errors carry the offset."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise TupleFormatError("missing ':' separator", len(text))
    if not (head.isascii() and head.isdigit()):
        raise TupleFormatError("length before ':' must be a decimal integer", 0)
    b = int(head)
    gaps = []
    pos = len(head) + 1
    if rest:
        for part in rest.split(","):
            if not (part.isascii() and part.isdigit()):
                raise TupleFormatError("gap must be a decimal integer", pos)
            if int(part) < 1:
                raise TupleFormatError("gap must be >= 1", pos)
            gaps.append(int(part))
            pos += len(part) + 1
    if len(gaps) != b:
        raise TupleFormatError(f"expected {b} gaps, got {len(gaps)}", len(text))
    return VTuple(b, tuple(gaps))


def to_exponents(t: VTuple) -> tuple[int, tuple[int, ...]]:
    """Exponent form (a, (u1..ub)): u_i is the sum of the gaps after i.

    The u are strictly decreasing with u_b = 0 and a = u_0 = sum of all
    gaps.
    """
    u = [0] * t.b
    for i in range(t.b - 2, -1, -1):
        u[i] = u[i + 1] + t.v[i + 1]
    a = u[0] + t.v[0] if t.b else 0
    return a, tuple(u)


def _power_sum(v: tuple[int, ...]) -> int:
    """sum_i 2^(u_i) * 3^(i-1) for gaps v, by binary splitting.

    A block of consecutive terms i = lo..hi is a pair (S, lead): S is
    sum 2^(u_i - u_hi) * 3^(i - lo) and lead = u_(lo-1) - u_hi is the
    sum of the block's gaps (u_0 = a). Neighbours L, R merge into
    ((S_L << lead_R) + 3^len(L) * S_R, lead_L + lead_R). Pairing from
    the left makes every left block of a round 2^r terms long, so
    3^len(L) is one power per round, squared between rounds. The
    products stay balanced: O(M(a) log b) in place of b full-size ones.
    """
    blocks = [(1, gap) for gap in v]
    pow3 = 3
    while len(blocks) > 1:
        merged = [
            ((s_l << lead_r) + pow3 * s_r, lead_l + lead_r)
            for (s_l, lead_l), (s_r, lead_r) in zip(blocks[::2], blocks[1::2])
        ]
        if len(blocks) % 2:
            merged.append(blocks[-1])
        blocks = merged
        pow3 *= pow3
    return blocks[0][0] if blocks else 0


def decode(t: VTuple, source: int = 1) -> int:
    """The odd integer whose b-step run to `source` has gaps t.

    Evaluates (source*2^a - sum_i 2^(u_i) * 3^(i-1)) / 3^b exactly, in
    this order: the bit cap on a, the power sum by binary splitting
    over the gaps (_power_sum), then one division by 3^b. A failed
    division, or a nonpositive quotient, means no such run exists:
    NotAdmissible. One check at full depth suffices: stepping forward
    from the start n, each value of the run is (3m + 1)/2^v of the one
    before it, so once n is an integer every later value is an integer
    over a power of two; the closed form of the same value, taken from
    the source end, has a power of three as its denominator; so each
    is an integer.
    """
    _require_source(source)
    a = sum(t.v)
    check_bits(a + source.bit_length() + 2, "decode")
    num = (source << a) - _power_sum(t.v)
    q, r = divmod(num, 3**t.b)
    if num <= 0 or r:
        raise NotAdmissible(f"{format_vtuple(t)} does not decode at source {source}")
    return q


def is_admissible(t: VTuple, source: int = 1) -> bool:
    """True when decode succeeds; other decode errors still propagate."""
    try:
        decode(t, source)
    except NotAdmissible:
        return False
    return True


def encode(n: int, source: int = 1, max_steps: int = DEFAULT_MAX_STEPS) -> VTuple:
    """Gap tuple of the forward run from n to `source`.

    encode(source, source) is the empty tuple. Raises
    SourceNotOnTrajectory when the run reaches 1 without passing the
    source, CutoffReached when the budget runs out first.
    """
    _require_odd(n)
    _require_source(source)
    if n == source:
        return VTuple(0, ())
    gaps, last = _forward(n, source, max_steps)
    if last == source:
        return VTuple(len(gaps), tuple(reversed(gaps)))
    if last == 1 and gaps:  # with max_steps < 1 no step is taken: a cutoff
        raise SourceNotOnTrajectory(f"run from {n} reached 1 without passing source {source}")
    raise CutoffReached(f"no run from {n} to {source} within {max_steps} steps")


def gap_modulus(b: int, i: int) -> int:
    """Modulus 2*3^(b-i) of the admissibility class of gap i (1-based)."""
    return 2 * 3 ** (b - i)


def _moduli_from_last(b: int):
    """gap_modulus(b, i) for i = b, b-1, ..., 1: 2, then times 3 per gap."""
    m = 2
    for _ in range(b):
        yield m
        m *= 3


def canonical_v1(v1_class: int, b: int, source: int = 1) -> int:
    """Windowed representative of a first-gap class mod 2*3^(b-1).

    Source 1 window: the even values in [4, 2*3^(b-1)+2]. First gaps at
    source 1 are always even, and a first gap of 2 would walk the loop
    at the root instead of arriving from a new integer, hence the start
    at 4. Any other source gets the plain window [1, 2*3^(b-1)].
    """
    if b < 1:
        raise ValueError(f"b must be >= 1, got {b}")
    m = 2 * 3 ** (b - 1)
    if source == 1:
        if v1_class % 2:
            raise ValueError(f"first-gap class at source 1 must be even, got {v1_class}")
        return 4 + (v1_class - 4) % m
    return 1 + (v1_class - 1) % m


def canonicalize(t: VTuple, source: int = 1) -> CanonicalTuple:
    """Reduce every gap into its canonical window, recording shift counts.

    Subtracting 2*3^(b-i) from gap i undoes one shift move and keeps the
    tuple admissible, so the reduced base decodes too. Tuples whose
    first gap is literally 2 at source 1 describe runs that revisit the
    root; they sit below the canonical window (their count would be -1)
    and are rejected, matching the one-to-one correspondence which
    covers root-avoiding runs only.
    """
    decode(t, source)
    if t.b == 0:
        return CanonicalTuple(t, ())
    base = list(t.v)
    counts = [0] * t.b
    for i, m in zip(range(t.b - 1, 0, -1), _moduli_from_last(t.b)):
        w = 1 + (t.v[i] - 1) % m
        base[i], counts[i] = w, (t.v[i] - w) // m
    m1 = gap_modulus(t.b, 1)
    w1 = canonical_v1(t.v[0] % m1, t.b, source)
    c1 = (t.v[0] - w1) // m1
    if c1 < 0:
        raise NotAdmissible(
            f"first gap {t.v[0]} at source 1 walks the root loop; "
            "no canonical representative"
        )
    base[0], counts[0] = w1, c1
    base_tuple = VTuple(t.b, tuple(base))
    try:
        decode(base_tuple, source)
    except NotAdmissible as exc:  # window reduction preserves admissibility
        raise AssertionError(f"window reduction broke admissibility: {exc}") from exc
    return CanonicalTuple(base_tuple, tuple(counts))


def shift(t: VTuple, j: int) -> VTuple:
    """Add 2*3^(b-j-1) to gap j+1 (0 <= j < b); preserves admissibility."""
    if not 0 <= j < t.b:
        raise IndexOutOfRange(f"shift index {j} not in [0, {t.b})")
    v = list(t.v)
    v[j] += gap_modulus(t.b, j + 1)
    return VTuple(t.b, tuple(v))
