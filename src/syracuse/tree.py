"""Bounded enumeration of Syracuse predecessor trees.

Nodes at depth d are the odd integers whose d-th forward image is the
source. Gaps per edge are capped, multiples of 3 are sterile, and at
source 1 the root's own loop branch (gap 2) is kept as an annotation
rather than an edge, so the result is a genuine tree.
"""

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .caps import check_bits
from .collatz import _require_odd, h_children
from .tuples import VTuple


@dataclass(frozen=True)
class EnumConfig:
    """Bounds for one enumeration run.

    t is the depth bound, s the span parameter: by default each expanded
    node receives the 3s gap values of the right parity up to 6s (the
    root at source 1 uses the even gaps in [4, 2+6s] instead). k_cap,
    when set, replaces those defaults with one uniform hard gap bound,
    which is what the breadth-first oracle uses.
    """

    source: int = 1
    t: int = 1
    s: int = 1
    k_cap: Optional[int] = None

    def __post_init__(self):
        _require_odd(self.source, "source")
        if self.source != 1 and self.source % 3 == 0:
            raise ValueError(f"source {self.source} is divisible by 3: sterile root")
        if self.t < 1:
            raise ValueError(f"t must be >= 1, got {self.t}")
        if self.s < 1:
            raise ValueError(f"s must be >= 1, got {self.s}")
        if self.k_cap is not None and self.k_cap < 1:
            raise ValueError(f"k_cap must be >= 1, got {self.k_cap}")

    def gap_window(self, value: int, depth: int) -> range:
        if depth == 0 and self.source == 1:
            hi = self.k_cap if self.k_cap is not None else 2 + 6 * self.s
            return range(4, hi + 1, 2)
        hi = self.k_cap if self.k_cap is not None else 6 * self.s
        start = 2 if value % 3 == 1 else 1
        return range(start, hi + 1, 2)


@dataclass(slots=True, eq=False)
class TreeNode:
    """One enumerated value and the gap of its step onto the parent.

    The root's gap is 0. The run's gap tuple is read off the parent
    chain, and nodes compare by identity.
    """

    value: int
    gap: int
    depth: int
    parent: Optional["TreeNode"] = field(default=None, repr=False)

    @property
    def fertile(self) -> bool:
        return self.value % 3 != 0

    @property
    def vtuple(self) -> VTuple:
        return VTuple(self.depth, _gaps(self))


def _gaps(node: TreeNode) -> tuple[int, ...]:
    """Gaps (v1..vb) of the run from node down to the root."""
    gaps = []
    while node.parent is not None:
        gaps.append(node.gap)
        node = node.parent
    return tuple(reversed(gaps))


@dataclass(frozen=True)
class EnumTree:
    """Finished enumeration: nodes in (depth, tuple-lexicographic) order."""

    config: EnumConfig
    nodes: tuple[TreeNode, ...]
    has_root_loop: bool

    @property
    def root(self) -> TreeNode:
        return self.nodes[0]

    def values(self) -> list[int]:
        return [node.value for node in self.nodes]


def _expand(node: TreeNode, cfg: EnumConfig) -> Iterator[TreeNode]:
    if not node.fertile:
        return
    bits = node.value.bit_length()
    for k in cfg.gap_window(node.value, node.depth):
        check_bits(bits + k + 2, "tree expansion")
        yield TreeNode((node.value * 2**k - 1) // 3, k, node.depth + 1, node)


def iter_nodes(cfg: EnumConfig) -> Iterator[TreeNode]:
    """Stream nodes in breadth-first order, each depth in tuple order.

    No sort is needed: the frontier is in tuple order and each parent
    yields its children in increasing gap order.
    """
    root = TreeNode(cfg.source, 0, 0)
    yield root
    frontier = [root]
    for _ in range(cfg.t):
        frontier = [child for node in frontier for child in _expand(node, cfg)]
        yield from frontier


def enumerate_tree(cfg: EnumConfig) -> EnumTree:
    """Materialize the bounded tree; the root loop at source 1 is a flag."""
    return EnumTree(cfg, tuple(iter_nodes(cfg)), cfg.source == 1)


def count_formula(t: int, s: int) -> int:
    """Node count of the bounded tree: 1 + 3s * sum_{i<t} (2s)^i.

    Evaluating the geometric sum termwise keeps s = 1 (ratio 1) exact
    without a special case.
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    return 1 + 3 * s * sum((2 * s) ** i for i in range(t))


def verify_tree(tree: EnumTree) -> bool:
    """Structural soundness of an enumeration result.

    Checks the root is the source with no parent, every other node
    forward-maps onto a parent listed before it, no value appears twice
    (the loop at a source of 1 is an annotation, never an edge), and the
    order is the enumeration's: parents in stream order, each one's
    children by increasing gap. Reads only value, depth and parent.
    """
    nodes = tree.nodes
    if not nodes:
        return False
    root = nodes[0]
    if root.value != tree.config.source or root.parent is not None or root.depth != 0:
        return False
    at = 0  # position of the current parent; it only moves forward
    last_gap = 0
    for i in range(1, len(nodes)):
        node = nodes[i]
        parent = node.parent
        if parent is not nodes[at]:
            at += 1
            while at < i and nodes[at] is not parent:
                at += 1
            if at == i:
                return False
            last_gap = 0
        # one forward step by hand; a gap of at least 1 means the value is odd
        m = 3 * node.value + 1
        gap = (m & -m).bit_length() - 1
        if gap <= last_gap or m >> gap != parent.value or node.depth != parent.depth + 1:
            return False
        last_gap = gap
    values = [node.value for node in nodes]
    return len(set(values)) == len(values)


def preimage_bfs(source: int, depth: int, k_max: int) -> set[int]:
    """All odd m with f^(d)(m) = source for some d <= depth, gaps <= k_max.

    Independent oracle for enumerate_tree: walks the raw inverse
    branches of the forward map and never touches the tuple codec. The
    loop branch of 1 folds into the set, so the values of an
    enumeration with the matching uniform gap bound agree exactly.
    """
    _require_odd(source, "source")
    if depth < 0:
        raise ValueError(f"depth must be >= 0, got {depth}")
    out = {source}
    frontier = [source]
    for _ in range(depth):
        nxt = []
        for value in frontier:
            check_bits(value.bit_length() + k_max + 2, "preimage expansion")
            for _k, child in h_children(value, k_max):
                if child not in out:
                    out.add(child)
                    nxt.append(child)
        frontier = nxt
    return out


def node_record(node: TreeNode) -> dict:
    """JSON-ready record for one node; shared with the CLI stream format."""
    return {
        "value": str(node.value),
        "depth": node.depth,
        "tuple": f"{node.depth}:" + ",".join(map(str, _gaps(node))),
        "fertile": node.fertile,
    }
