import itertools
import random
import sys

import pytest

from msetgray import (
    MultisetSpec,
    OracleLimitError,
    ParityMode,
    build_lexico_tree,
    export_dot,
    generate,
    gray_generate_recursive,
    is_adjacent,
    leaf_sequence,
    lex_generate,
    twist,
)
from msetgray.treemodel import EVEN, ODD, LexTreeNode, iter_nodes
from msetgray.verify import random_spec

from example_data import EXAMPLE_SPEC


def copy_then_reverse(tree, mode):
    """Reference twist: copy the whole tree, then, level by level from the
    top, assign parities across the level (in post-reversal order) and
    reverse the children of its odd nodes."""
    root = LexTreeNode(tree.label, tree.level, tree.parity)
    stack = [(tree, root)]
    while stack:
        node, twin = stack.pop()
        for child in node.children:
            twin.children.append(LexTreeNode(child.label, child.level, child.parity))
            stack.append((child, twin.children[-1]))
    level = [root]
    while level:
        parity = 0
        for idx, node in enumerate(level):
            if mode is ParityMode.GLOBAL or len(node.children) > 1:
                node.parity = (EVEN, ODD)[parity]
                parity ^= 1
            else:
                node.parity = None
                if idx == 0:  # the leftmost node counts as even
                    parity ^= 1
        for node in level:
            if node.parity == ODD:
                node.children.reverse()
        level = [c for node in level for c in node.children]
    return root


def shape(tree):
    """Every node's label, level, parity and child order, in preorder."""
    return [
        (node.label, node.level, node.parity, [c.label for c in node.children])
        for node in iter_nodes(tree)
    ]


def small_specs(max_n=4):
    for n in range(1, max_n + 1):
        for m in itertools.product((1, 2, 3), repeat=n):
            for k in range(sum(m) + 1):
                yield MultisetSpec(m=m, k=k)


def level_sizes(spec):
    """Nodes per tree level, root first: the feasible prefixes of each
    length, counted by prefix sum."""
    sizes, ways = [1], {0: 1}
    for i, mult in enumerate(spec.m):
        room = sum(spec.m[i + 1 :])
        grown = {}
        for s, c in ways.items():
            for v in range(mult + 1):
                if 0 <= spec.k - s - v <= room:
                    grown[s + v] = grown.get(s + v, 0) + c
        sizes.append(sum(grown.values()))
        ways = grown
    return sizes


class TestBuild:
    def test_worked_example_leaf_count(self):
        tree = build_lexico_tree(EXAMPLE_SPEC)
        assert len(leaf_sequence(tree)) == 18

    def test_single_path(self):
        tree = build_lexico_tree(MultisetSpec(m=(1, 1), k=2))
        assert leaf_sequence(tree) == [(1, 1)]

    def test_two_boxes_structure(self):
        tree = build_lexico_tree(MultisetSpec(m=(2, 2), k=2))
        assert [c.label for c in tree.children] == [0, 1, 2]
        assert all(len(c.children) == 1 for c in tree.children)

    def test_leaves_in_lex_order(self):
        rng = random.Random(41)
        for _ in range(100):
            spec = random_spec(rng, 6, 4)
            assert leaf_sequence(build_lexico_tree(spec)) == lex_generate(spec), spec

    def test_path_deeper_than_recursion_limit(self):
        # One object, a path of 1,101 nodes.
        assert sys.getrecursionlimit() < 1101
        tree = build_lexico_tree(MultisetSpec(m=(1,) * 1100, k=0))
        assert leaf_sequence(tree) == [(0,) * 1100]

    def test_node_limit(self):
        with pytest.raises(OracleLimitError, match="nodes"):
            build_lexico_tree(MultisetSpec(m=(4,) * 10, k=20), node_limit=500)

    @pytest.mark.parametrize(
        "m, k", [((3,), 2), ((2, 2, 2), 0), ((4,) * 5, 10), ((1, 3, 2, 3), 4)]
    )
    def test_node_limit_boundary(self, m, k):
        spec = MultisetSpec(m=m, k=k)
        total = sum(level_sizes(spec))
        tree = build_lexico_tree(spec, node_limit=total)
        assert sum(1 for _ in iter_nodes(tree)) == total
        with pytest.raises(OracleLimitError, match=f"^tree exceeds {total - 1} nodes$"):
            build_lexico_tree(spec, node_limit=total - 1)

    @pytest.mark.parametrize("level", [0, 1, 5, 6])
    def test_node_limit_counts_whole_levels(self, level, monkeypatch):
        # (4,)^10 k=20 has 2,092,023 nodes.  With room for levels
        # 0..level and less than the next level, exactly those are made.
        spec = MultisetSpec(m=(4,) * 10, k=20)
        sizes = level_sizes(spec)
        made = 0

        class Counted(LexTreeNode):
            __slots__ = ()

            def __init__(self, *args):
                nonlocal made
                made += 1
                super().__init__(*args)

        monkeypatch.setattr("msetgray.treemodel.LexTreeNode", Counted)
        fits = sum(sizes[: level + 1])
        for limit in (fits, fits + sizes[level + 1] - 1):
            made = 0
            with pytest.raises(OracleLimitError, match=f"^tree exceeds {limit} nodes$"):
                build_lexico_tree(spec, node_limit=limit)
            assert made == fits

    def test_path_sums_equal_k(self):
        tree = build_lexico_tree(MultisetSpec(m=(3, 1, 2), k=3))
        for leaf_path in leaf_sequence(tree):
            assert sum(leaf_path) == 3


class TestTwist:
    def test_all_single_child_unchanged(self):
        spec = MultisetSpec(m=(2, 3), k=5)  # saturated: one forced path
        tree = build_lexico_tree(spec)
        for mode in ParityMode:
            assert leaf_sequence(twist(tree, mode)) == leaf_sequence(tree)

    def test_two_boxes_same_under_either_mode(self):
        tree = build_lexico_tree(MultisetSpec(m=(2, 2), k=2))
        expected = [(0, 2), (1, 1), (2, 0)]
        assert leaf_sequence(twist(tree, ParityMode.GLOBAL)) == expected
        assert leaf_sequence(twist(tree, ParityMode.SKIP_SINGLE_CHILD)) == expected

    def test_skip_mode_matches_engine_on_worked_example(self):
        tree = build_lexico_tree(EXAMPLE_SPEC)
        twisted = twist(tree, ParityMode.SKIP_SINGLE_CHILD)
        assert leaf_sequence(twisted) == generate(EXAMPLE_SPEC)

    def test_skip_mode_matches_engine_randomized(self):
        rng = random.Random(43)
        for _ in range(120):
            spec = random_spec(rng, 6, 4)
            twisted = twist(build_lexico_tree(spec), ParityMode.SKIP_SINGLE_CHILD)
            assert leaf_sequence(twisted) == generate(spec), spec

    def test_global_mode_matches_recursive_randomized(self):
        rng = random.Random(47)
        for _ in range(120):
            spec = random_spec(rng, 6, 4)
            twisted = twist(build_lexico_tree(spec), ParityMode.GLOBAL)
            assert leaf_sequence(twisted) == gray_generate_recursive(spec), spec

    def test_twisted_leaves_adjacent(self):
        rng = random.Random(53)
        for _ in range(80):
            spec = random_spec(rng, 6, 4)
            for mode in ParityMode:
                leaves = leaf_sequence(twist(build_lexico_tree(spec), mode))
                assert sorted(leaves) == lex_generate(spec), (spec, mode)
                assert all(is_adjacent(x, y) for x, y in zip(leaves, leaves[1:])), (
                    spec,
                    mode,
                )

    def test_reversing_odd_nodes_again_restores_lex_order(self):
        # With the parity assignment held fixed, the reversal pass is an
        # involution on child orderings.
        spec = EXAMPLE_SPEC
        twisted = twist(build_lexico_tree(spec), ParityMode.SKIP_SINGLE_CHILD)
        for node in iter_nodes(twisted):
            if node.parity == ODD:
                node.children.reverse()
        assert leaf_sequence(twisted) == lex_generate(spec)

    def test_original_tree_not_mutated(self):
        tree = build_lexico_tree(EXAMPLE_SPEC)
        before = leaf_sequence(tree)
        twist(tree, ParityMode.SKIP_SINGLE_CHILD)
        assert leaf_sequence(tree) == before

    def test_single_child_nodes_have_no_parity_in_skip_mode(self):
        twisted = twist(build_lexico_tree(EXAMPLE_SPEC), ParityMode.SKIP_SINGLE_CHILD)
        for node in iter_nodes(twisted):
            if len(node.children) == 1:
                assert node.parity is None

    def test_every_node_has_parity_in_global_mode(self):
        twisted = twist(build_lexico_tree(EXAMPLE_SPEC), ParityMode.GLOBAL)
        for node in iter_nodes(twisted):
            assert node.parity in ("even", "odd")


class TestTwistExhaustive:
    """twist against the copy-then-reverse definition on every
    m in {1,2,3}^n, n <= 4, every k, for both modes."""

    @staticmethod
    def check(tree, mode):
        before = shape(tree)
        out = twist(tree, mode)
        assert shape(out) == shape(copy_then_reverse(tree, mode))
        assert shape(tree) == before  # parities included
        inputs = {id(node.children) for node in iter_nodes(tree)}
        outputs = [id(node.children) for node in iter_nodes(out)]
        assert len(set(outputs)) == len(outputs)  # each node its own list
        assert not inputs.intersection(outputs)
        return out

    @pytest.mark.parametrize("mode", list(ParityMode))
    def test_lexico_tree(self, mode):
        for spec in small_specs():
            self.check(build_lexico_tree(spec), mode)

    @pytest.mark.parametrize("mode", list(ParityMode))
    def test_already_twisted_tree(self, mode):
        # The input carries parities of its own, from either mode.
        for spec in small_specs():
            for first in ParityMode:
                self.check(twist(build_lexico_tree(spec), first), mode)

    @pytest.mark.parametrize("mode", list(ParityMode))
    def test_subtrees(self, mode):
        for spec in small_specs():
            tree = build_lexico_tree(spec)
            twisted = twist(tree, ParityMode.SKIP_SINGLE_CHILD)
            for sub in tree.children + twisted.children:
                self.check(sub, mode)
                for grandchild in sub.children:
                    self.check(grandchild, mode)

    def test_childless_root(self):
        for mode in ParityMode:
            out = self.check(LexTreeNode(None, 0), mode)
            assert out.parity == (EVEN if mode is ParityMode.GLOBAL else None)


class TestExportDot:
    def test_single_path_chain(self):
        dot = export_dot(build_lexico_tree(MultisetSpec(m=(1, 1), k=2)))
        assert dot.startswith("digraph")
        assert dot.count("->") == 2

    def test_two_boxes(self):
        dot = export_dot(build_lexico_tree(MultisetSpec(m=(2, 2), k=2)))
        assert dot.count("->") == 6  # 3 level-1 nodes + 3 leaves

    def test_worked_example_leaves(self):
        dot = export_dot(build_lexico_tree(EXAMPLE_SPEC))
        assert dot.count("L5") == 18

    def test_parity_annotations_present(self):
        twisted = twist(build_lexico_tree(EXAMPLE_SPEC), ParityMode.SKIP_SINGLE_CHILD)
        dot = export_dot(twisted)
        assert "even" in dot and "odd" in dot

    def test_render_limit(self):
        with pytest.raises(OracleLimitError, match="DOT"):
            export_dot(build_lexico_tree(EXAMPLE_SPEC), node_limit=5)

    def test_deterministic(self):
        tree = build_lexico_tree(EXAMPLE_SPEC)
        assert export_dot(tree) == export_dot(tree)
