"""Forward and inverse Collatz maps, on all integers and on odd only.

The odd-to-odd map (the Syracuse function) and its inverse branches are
the ground truth for everything else here: codec and solver results are
always checkable by iterating these maps forward.
"""

from dataclasses import dataclass

from .errors import OddInput

DEFAULT_MAX_STEPS = 10**6


def _require_positive(n: int, name: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{name} must be >= 1, got {n}")


def _require_odd(n: int, name: str = "n") -> None:
    _require_positive(n, name)
    if n % 2 == 0:
        raise ValueError(f"{name} must be odd, got {n}")


def t_step(n: int) -> int:
    """One step of the full map: 3n+1 on odd, n/2 on even."""
    _require_positive(n)
    return 3 * n + 1 if n % 2 else n // 2


def u_children(n: int) -> set[int]:
    """Preimages of n under the full map: 2n, plus (n-1)/3 when n = 4 mod 6."""
    _require_positive(n)
    out = {2 * n}
    if n % 6 == 4:
        out.add((n - 1) // 3)
    return out


def j_val(m: int) -> int:
    """2-adic valuation of an even integer."""
    _require_positive(m, "m")
    if m % 2:
        raise OddInput(f"{m} is odd; its 2-adic valuation is 0")
    return (m & -m).bit_length() - 1


def syracuse(n: int) -> int:
    """The odd-to-odd map: divide 3n+1 by its full power of two."""
    _require_odd(n)
    m = 3 * n + 1
    return m >> ((m & -m).bit_length() - 1)


def h_children(n: int, k_max: int) -> list[tuple[int, int]]:
    """Inverse branches of the Syracuse map as (gap, child), gap <= k_max.

    Multiples of 3 have no preimages. Otherwise (n*2^k - 1)/3 is an
    integer exactly when k has the parity forced by n mod 3: even for
    n = 1 mod 3, odd for n = 2 mod 3. Listed in increasing k.
    """
    _require_odd(n)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    r = n % 3
    if r == 0:
        return []
    start = 2 if r == 1 else 1
    return [(k, (n * 2**k - 1) // 3) for k in range(start, k_max + 1, 2)]


@dataclass(frozen=True)
class Trajectory:
    """Odd iterates of n under the Syracuse map, with the extracted gaps.

    When the run reaches 1, b counts the odd values before 1 and v lists
    the step valuations indexed from the far end: v[0] belongs to the
    final step into 1. On cutoff (reached_one False) the iterates are
    the full prefix computed, b counts the steps taken, and v holds
    their valuations in the same reversed order.
    """

    odd_iterates: tuple[int, ...]
    b: int
    v: tuple[int, ...]
    reached_one: bool


def trajectory(n: int, max_steps: int = DEFAULT_MAX_STEPS) -> Trajectory:
    """Iterate the Syracuse map until 1 or until max_steps runs out.

    trajectory(1) is the root convention: b = 0 and an empty v; the loop
    at 1 is not unrolled.
    """
    _require_odd(n)
    if max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {max_steps}")
    if n == 1:
        return Trajectory((1,), 0, (), True)
    iterates = [n]
    vals, last = _forward(n, 1, max_steps, iterates)
    return Trajectory(tuple(iterates), len(vals), tuple(reversed(vals)), last == 1)


def _forward(n: int, stop: int, max_steps: int, iterates: list | None = None):
    """Step the Syracuse map from n until `stop` or 1, at most max_steps times.

    Returns the valuations of the steps taken, in forward order, and
    the value the run ended on. When `iterates` is a list, every value
    reached before the end is appended to it.
    """
    vals: list[int] = []
    push = vals.append
    keep = iterates is not None
    cur = n
    for _ in range(max_steps):
        m = 3 * cur + 1
        k = (m & -m).bit_length() - 1
        push(k)
        cur = m >> k
        if cur == stop or cur == 1:
            break
        if keep:
            iterates.append(cur)
    return vals, cur
