"""Independent oracle for the benchmark's correctness checks.

It imports nothing from ``syracuse``. Everything here is written from
the definitions: the odd-to-odd forward step, the inverse branches
(n * 2^k - 1) / 3, the closed-form node count of a bounded tree, and
modular identities checked with the built-in ``pow``.

Gap lists are in tuple order: v1 first, and v1 is the valuation of the
*last* forward step, the one into the source.
"""


def step(n):
    """One odd-to-odd step: (next odd value, 2-adic valuation of 3n+1)."""
    m = 3 * n + 1
    v = (m & -m).bit_length() - 1
    return m >> v, v


def gaps_to(n, source=1, max_steps=10**6):
    """Tuple-order gaps of the forward run from odd n down to source."""
    gaps = []
    cur = n
    while cur != source:
        if cur == 1 or len(gaps) >= max_steps:
            raise ValueError(f"run from {n} does not reach {source}")
        cur, v = step(cur)
        gaps.append(v)
    gaps.reverse()
    return gaps


def walks_to(n, gaps, source):
    """True when odd n forward-iterates to source with exactly these gaps reversed."""
    if n < 1 or n % 2 == 0:
        return False
    cur = n
    for g in reversed(gaps):
        cur, v = step(cur)
        if v != g:
            return False
    return cur == source


def parse_tuple(text):
    """Gaps of the text form 'b:v1,...,vb'."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"no ':' in {text!r}")
    gaps = [int(p) for p in rest.split(",")] if rest else []
    if len(gaps) != int(head):
        raise ValueError(f"length {head} does not match {len(gaps)} gaps")
    return gaps


def tree_count(t, s):
    """Nodes of the bounded tree at depth t, span s: 1 + 3s * sum_{i<t} (2s)^i.

    Each fertile node gets 3s gaps of one parity; the children's
    residues mod 3 cycle through all three classes, so 2s of the 3s
    children are fertile again.
    """
    return 1 + 3 * s * sum((2 * s) ** i for i in range(t))


def preimages(source, depth, k_max):
    """Every odd m reaching source within depth steps using gaps <= k_max (BFS)."""
    seen = {source}
    frontier = [source]
    for _ in range(depth):
        nxt = []
        for x in frontier:
            for k in range(1, k_max + 1):
                num = x * 2**k - 1
                if num % 3 == 0 and num // 3 not in seen:
                    seen.add(num // 3)
                    nxt.append(num // 3)
        frontier = nxt
    return seen


def tree_ok(source, nodes, expected_count=None, expected_values=None):
    """Check enumerated (value, depth, gaps) triples.

    The root (no gaps) must be the source, and one forward step from
    every other node must land on the node whose gaps drop the last one,
    with that last gap as its valuation; by induction every value walks
    to the source with its gaps reversed. Depths must match, values must
    be distinct, and the set must match the closed-form count or the
    BFS value set.
    """
    by_gaps = {}
    for value, depth, gaps in nodes:
        key = tuple(gaps)
        if depth != len(key) or key in by_gaps:
            return False
        by_gaps[key] = value
    if by_gaps.get(()) != source:
        return False
    values = set(by_gaps.values())
    if len(values) != len(by_gaps):
        return False
    if any(key and step(value) != (by_gaps.get(key[:-1]), key[-1]) for key, value in by_gaps.items()):
        return False
    if expected_count is not None and len(by_gaps) != expected_count:
        return False
    return expected_values is None or values == expected_values


def group_order(b):
    return 2 * 3 ** (b - 1)


def dlog_ok(x, log, b):
    """log is the base-2 logarithm of x in (Z/3^b Z)*, reduced mod the order."""
    return 0 <= log < group_order(b) and pow(2, log, 3**b) == x % 3**b


def admissible_mod(source, gaps, b):
    """Gap tuple (v1..vb) admits an integer start, checked mod 3^b only.

    Composing the b forward steps x -> (3x+1)/2^v gives
    source * 2^E = 3^b n + C with C = sum over steps of 3^(b-1-i) 2^(E_i)
    and E the gap total, so the run exists mod 3^b exactly when
    source * 2^E = C (mod 3^b). v1 may be given as any representative of
    its class mod 2*3^(b-1), the order of 2.
    """
    if len(gaps) != b:
        return False
    mod = 3**b
    c, e = 0, 0
    for g in reversed(gaps):
        c = (3 * c + pow(2, e, mod)) % mod
        e += g
    return source * pow(2, e, mod) % mod == c


def first_gap_window(b, source):
    """(lo, hi, step) of the canonical first-gap window at level b."""
    m = group_order(b)
    return (4, m + 2, 2) if source == 1 else (1, m, 1)


def in_first_gap_window(v1, b, source):
    lo, hi, stride = first_gap_window(b, source)
    return lo <= v1 <= hi and (v1 - lo) % stride == 0


def canonical_gaps(gaps, source=1):
    """Reduce each gap into its window: gap i mod 2*3^(b-i), gap 1 per first_gap_window."""
    b = len(gaps)
    out = list(gaps)
    top = max(gaps, default=0) + 2
    m = 2  # 2 * 3^(b-i), walking i down from b
    for i in range(b, 0, -1):
        if m > top:  # this window and every earlier one hold their gap already
            break
        v = gaps[i - 1]
        lo = first_gap_window(b, source)[0] if i == 1 else 1
        out[i - 1] = lo + (v - lo) % m
        m *= 3
    return out


def canonical_ok(gaps, base, counts, source=1):
    """base is the window reduction of gaps and v_i = base_i + 2*3^(b-i) * c_i."""
    if list(base) != canonical_gaps(gaps, source) or len(counts) != len(gaps):
        return False
    top = max(gaps, default=0) + 2
    m = 2
    for i in range(len(gaps), 0, -1):
        v, w, c = gaps[i - 1], base[i - 1], counts[i - 1]
        if c < 0 or (c == 0 and w != v) or (c and (m > top or v != w + m * c)):
            return False
        if m <= top:
            m *= 3
    return True


def periodic_ok(v1, b):
    """The alternating (1,2) tail closes: 2^v1 = -20 (mod 3^b)."""
    mod = 3**b
    return pow(2, v1, mod) == (-20) % mod
