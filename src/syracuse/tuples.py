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
from .collatz import DEFAULT_MAX_STEPS, _require_odd
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
        for i, v in enumerate(self.base.v, start=1):
            # first-gap window depends on the source; 2*3^(b-1)+2 is the
            # loosest bound, the deeper windows are source-independent
            limit = gap_modulus(b, i) + (2 if i == 1 else 0)
            if v > limit:
                raise ValueError(f"gap v{i}={v} outside its canonical window")

    def original(self) -> VTuple:
        """Rebuild the tuple this was reduced from: v_i + 2*3^(b-i)*c_i."""
        b = self.base.b
        return VTuple(
            b,
            tuple(
                v + gap_modulus(b, i) * ci
                for i, (v, ci) in enumerate(zip(self.base.v, self.c), start=1)
            ),
        )


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


def decode(t: VTuple, source: int = 1) -> int:
    """The odd integer whose b-step run to `source` has gaps t.

    Evaluates (source*2^a - sum_i 2^(u_i) * 3^(i-1)) / 3^b exactly. A
    failed division, or a nonpositive quotient, means no such run
    exists: NotAdmissible. The division is checked once at full depth;
    intermediate integrality is implied.
    """
    _require_source(source)
    a, u = to_exponents(t)
    check_bits(a + source.bit_length() + 2, "decode")
    s = sum(2 ** u[i] * 3**i for i in range(t.b))
    num = source * 2**a - s
    den = 3**t.b
    if num <= 0 or num % den:
        raise NotAdmissible(f"{format_vtuple(t)} does not decode at source {source}")
    return num // den


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
    gaps: list[int] = []
    cur = n
    for _ in range(max_steps):
        m = 3 * cur + 1
        k = (m & -m).bit_length() - 1
        gaps.append(k)
        cur = m >> k
        if cur == source:
            return VTuple(len(gaps), tuple(reversed(gaps)))
        if cur == 1:
            raise SourceNotOnTrajectory(
                f"run from {n} reached 1 without passing source {source}"
            )
    raise CutoffReached(f"no run from {n} to {source} within {max_steps} steps")


def gap_modulus(b: int, i: int) -> int:
    """Modulus 2*3^(b-i) of the admissibility class of gap i (1-based)."""
    return 2 * 3 ** (b - i)


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
    for i in range(2, t.b + 1):
        m = gap_modulus(t.b, i)
        w = 1 + (t.v[i - 1] - 1) % m
        base[i - 1], counts[i - 1] = w, (t.v[i - 1] - w) // m
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
