"""Bounded predecessor-tree enumeration and its breadth-first oracle."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syracuse import (
    CapExceeded,
    EnumConfig,
    EnumTree,
    TreeNode,
    VTuple,
    count_formula,
    decode,
    encode,
    enumerate_tree,
    preimage_bfs,
    verify_tree,
)
from syracuse.caps import capped
from syracuse.tree import node_record


class TestEnumConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            EnumConfig(source=1, t=0)
        with pytest.raises(ValueError):
            EnumConfig(source=1, s=0)
        with pytest.raises(ValueError):
            EnumConfig(source=2)
        with pytest.raises(ValueError):
            EnumConfig(source=9)  # sterile root
        with pytest.raises(ValueError):
            EnumConfig(source=1, k_cap=0)

    def test_root_window_source_one(self):
        cfg = EnumConfig(source=1, t=1, s=1)
        assert list(cfg.gap_window(1, 0)) == [4, 6, 8]

    def test_root_window_other_source(self):
        assert list(EnumConfig(source=5, t=1, s=1).gap_window(5, 0)) == [1, 3, 5]
        assert list(EnumConfig(source=7, t=1, s=1).gap_window(7, 0)) == [2, 4, 6]

    def test_k_cap_overrides(self):
        cfg = EnumConfig(source=1, t=1, s=1, k_cap=12)
        assert list(cfg.gap_window(1, 0)) == [4, 6, 8, 10, 12]
        assert list(cfg.gap_window(5, 1)) == [1, 3, 5, 7, 9, 11]


class TestEnumerate:
    def test_depth_one_from_root(self):
        tree = enumerate_tree(EnumConfig(source=1, t=1, s=1))
        assert sorted(tree.values()) == [1, 5, 21, 85]
        assert tree.has_root_loop

    def test_depth_two_from_root(self):
        tree = enumerate_tree(EnumConfig(source=1, t=2, s=1))
        values = set(tree.values())
        assert len(tree.nodes) == 10
        assert values == {1, 5, 21, 85, 3, 13, 53, 113, 453, 1813}
        by_parent = {}
        for node in tree.nodes[1:]:
            by_parent.setdefault(node.parent.value, set()).add(node.value)
        assert by_parent[5] == {3, 13, 53}
        assert by_parent[85] == {113, 453, 1813}
        assert 21 not in by_parent  # sterile, never expanded

    def test_other_source(self):
        tree = enumerate_tree(EnumConfig(source=5, t=1, s=1))
        assert sorted(tree.values()) == [3, 5, 13, 53]
        assert not tree.has_root_loop

    def test_sorted_by_depth_then_tuple(self):
        # no sort runs: the order comes from expanding an ordered frontier
        for source in (1, 5, 7):
            for k_cap in (None, 9):
                tree = enumerate_tree(EnumConfig(source=source, t=3, s=2, k_cap=k_cap))
                keys = [(node.depth, node.vtuple.v) for node in tree.nodes]
                assert keys == sorted(keys)

    def test_fertility_counts(self):
        # every expanded node yields 3s children, 2s of them fertile
        for s in (1, 2):
            tree = enumerate_tree(EnumConfig(source=1, t=3, s=s))
            children = {}
            for node in tree.nodes[1:]:
                children.setdefault(node.parent, []).append(node)
            for node in tree.nodes:
                if node.depth < 3 and node.fertile:
                    kids = children[node]
                    assert len(kids) == 3 * s
                    assert sum(k.fertile for k in kids) == 2 * s
                else:
                    assert node not in children

    def test_membership_round_trip(self):
        for source in (1, 5):
            cfg = EnumConfig(source=source, t=3, s=1)
            for node in enumerate_tree(cfg).nodes:
                assert decode(node.vtuple, source) == node.value
                assert encode(node.value, source) == node.vtuple

    def test_cap(self):
        with capped(70):
            with pytest.raises(CapExceeded):
                enumerate_tree(EnumConfig(source=1, t=30, s=2))


class TestCountFormula:
    @pytest.mark.parametrize("t,s,expected", [(1, 1, 4), (2, 1, 10), (2, 2, 31)])
    def test_examples(self, t, s, expected):
        assert count_formula(t, s) == expected

    @pytest.mark.parametrize("t,s", list(itertools.product(range(1, 5), (1, 2))))
    def test_matches_enumeration(self, t, s):
        tree = enumerate_tree(EnumConfig(source=1, t=t, s=s))
        assert len(tree.nodes) == count_formula(t, s)

    def test_validation(self):
        with pytest.raises(ValueError):
            count_formula(0, 1)


class TestVerifyTree:
    def test_enumerations_pass(self):
        for cfg in (EnumConfig(1, 2, 1), EnumConfig(5, 2, 2), EnumConfig(7, 1, 1)):
            assert verify_tree(enumerate_tree(cfg))

    def test_single_node_tree(self):
        cfg = EnumConfig(source=5, t=1, s=1)
        root = TreeNode(5, 0, 0, None)
        assert verify_tree(EnumTree(cfg, (root,), False))

    def test_duplicate_value_fails(self):
        cfg = EnumConfig(source=1, t=1, s=1)
        root = TreeNode(1, 0, 0, None)
        a = TreeNode(5, 4, 1, root)
        dup = TreeNode(5, 6, 1, root)
        assert not verify_tree(EnumTree(cfg, (root, a, dup), True))

    def test_wrong_edge_fails(self):
        cfg = EnumConfig(source=1, t=1, s=1)
        root = TreeNode(1, 0, 0, None)
        bad = TreeNode(7, 4, 1, root)  # f(7) = 11, not 1
        assert not verify_tree(EnumTree(cfg, (root, bad), True))

    def test_orphan_fails(self):
        cfg = EnumConfig(source=1, t=1, s=1)
        root = TreeNode(1, 0, 0, None)
        orphan = TreeNode(5, 4, 1, None)
        assert not verify_tree(EnumTree(cfg, (root, orphan), True))

    def test_swapped_siblings_fail(self):
        tree = enumerate_tree(EnumConfig(source=1, t=1, s=1))
        root, a, b, c = tree.nodes  # 5, 21 and 85 are all children of the root
        assert not verify_tree(EnumTree(tree.config, (root, b, a, c), True))

    def test_swapped_parents_fail(self):
        tree = enumerate_tree(EnumConfig(source=1, t=2, s=1))
        nodes = tree.nodes
        assert [nd.parent.value for nd in nodes[4:]] == [5, 5, 5, 85, 85, 85]
        swapped = nodes[:4] + nodes[7:] + nodes[4:7]  # the children of 85 first
        assert not verify_tree(EnumTree(tree.config, swapped, True))

    def test_node_form(self):
        tree = enumerate_tree(EnumConfig(source=1, t=2, s=1))
        node = next(nd for nd in tree.nodes if nd.value == 113)  # (85 * 2^2 - 1) / 3
        assert (node.gap, node.depth, node.parent.value) == (2, 2, 85)
        assert node.vtuple == VTuple(2, (8, 2))
        assert node_record(node) == {"value": "113", "depth": 2, "tuple": "2:8,2", "fertile": True}
        assert tree.root.vtuple == VTuple(0, ()) and node_record(tree.root)["tuple"] == "0:"


SOURCES = [n for n in range(1, 60, 2) if n % 3]


class TestStreamDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        source=st.sampled_from(SOURCES),
        t=st.integers(1, 3),
        s=st.integers(1, 2),
        k_cap=st.none() | st.integers(1, 12),
    )
    def test_stream_against_sort_codec_and_bfs(self, source, t, s, k_cap):
        cfg = EnumConfig(source=source, t=t, s=s, k_cap=k_cap)
        nodes = enumerate_tree(cfg).nodes
        keys = [(node.depth, node.vtuple.v) for node in nodes]
        assert keys == sorted(keys)
        for node in nodes:
            assert decode(node.vtuple, source) == node.value
        if k_cap is not None:
            assert {node.value for node in nodes} == preimage_bfs(source, t, k_cap)


class TestPreimageBfs:
    def test_root(self):
        assert preimage_bfs(1, 1, 8) == {1, 5, 21, 85}

    def test_other_source(self):
        assert preimage_bfs(5, 1, 5) == {5, 3, 13, 53}

    def test_sterile_source(self):
        assert preimage_bfs(3, 2, 10) == {3}

    def test_depth_zero(self):
        assert preimage_bfs(7, 0, 6) == {7}

    def test_forward_property(self):
        # every member reaches the source within the depth bound
        from syracuse import syracuse as f

        for m in preimage_bfs(7, 3, 6):
            cur, hit = m, m == 7
            for _ in range(3):
                cur = f(cur)
                hit = hit or cur == 7
            assert hit

    @pytest.mark.parametrize("source", (1, 5, 7))
    @pytest.mark.parametrize("t", (1, 2, 3))
    @pytest.mark.parametrize("k", (6, 12))
    def test_agrees_with_enumerate_under_uniform_bound(self, source, t, k):
        cfg = EnumConfig(source=source, t=t, s=1, k_cap=k)
        assert set(enumerate_tree(cfg).values()) == preimage_bfs(source, t, k)

    def test_cap(self):
        with capped(64):
            with pytest.raises(CapExceeded):
                preimage_bfs(1, 40, 12)
