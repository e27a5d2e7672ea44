"""Explicit enumeration trees: structural oracle and diagram source.

The lexicographic tree of an object set is the trie of its count vectors:
a node at level i carries one feasible value of a[i], children are ordered
ascending, and the leaves read left to right spell the lexicographic
order.  Twisting the tree reverses the children of odd-parity nodes so
that the leaves spell an adjacent order instead.

Parities are assigned level by level, top-down, after the reversals of
the level above have been applied, alternating even/odd across the nodes
of each level from the left.  Two policies are supported:

* GLOBAL: every node takes a parity and advances the alternation.  The
  leaf order then equals the direction-flipping recursive generator,
  whose per-level flag flips on every visit.

* SKIP_SINGLE_CHILD: nodes with one child get no parity (reversing one
  child is vacuous) and do not advance the alternation -- except the
  leftmost node of a level, which counts as even whether or not it bears
  a parity.  That seeding mirrors the loopless engine, whose direction
  flags only flip when a level with a genuine sibling choice exhausts,
  and whose levels right of the start level begin on their way back.
  The leaf order then equals the engine's emission order.

Trees here are oracle-scale only (node counts are capped); the engine
never materializes them.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from itertools import accumulate

from .core import MultisetSpec, OracleLimitError, suffix_capacities

TREE_NODE_LIMIT = 1_000_000
DOT_NODE_LIMIT = 50_000

EVEN = "even"
ODD = "odd"


class ParityMode(Enum):
    GLOBAL = "global"
    SKIP_SINGLE_CHILD = "skip-single-child"


class LexTreeNode:
    """One trie node: branch value, depth, ordered children, parity tag."""

    __slots__ = ("label", "level", "children", "parity")

    def __init__(self, label: int | None, level: int, parity: str | None = None) -> None:
        self.label = label  # None at the root
        self.level = level
        self.children: list[LexTreeNode] = []
        self.parity = parity  # EVEN | ODD | None

    def is_leaf(self) -> bool:
        return not self.children


def build_lexico_tree(spec: MultisetSpec) -> LexTreeNode:
    """Trie of all count vectors, children ascending by label.

    Built level by level, top-down, so the depth is not bounded by the
    interpreter's recursion limit.  A node's window of values depends only
    on its level and the units it leaves, so each level computes it once
    per distinct remainder (``max`` and ``min`` are slow calls).  The
    level's nodes are counted against ``TREE_NODE_LIMIT`` before they
    are made, all in one list, and sliced out to their parents.
    """
    root = LexTreeNode(None, 0)
    b = suffix_capacities(spec)
    nodes, rems, total = [root], [spec.k], 1
    for i, mult in enumerate(spec.m, 1):
        floor = b[i + 1]
        window = {r: range(max(r - floor, 0), min(mult, r) + 1) for r in set(rems)}
        windows = [window[r] for r in rems]
        ends = list(accumulate(map(len, windows)))
        total += ends[-1]
        if total > TREE_NODE_LIMIT:
            raise OracleLimitError(f"tree exceeds {TREE_NODE_LIMIT} nodes")
        kids = [LexTreeNode(v, i) for w in windows for v in w]
        for node, start, end in zip(nodes, [0, *ends], ends):
            node.children = kids[start:end]
        rems = [r - v for r, w in zip(rems, windows) for v in w]
        nodes = kids
    return root


def twist(tree: LexTreeNode, mode: ParityMode) -> LexTreeNode:
    """New tree with odd-parity child lists reversed, parities recorded.

    One top-down pass, level by level.  A level is held as its originals
    and their copies, in post-reversal order; parities alternate across
    it, judged from the original's child count, and an odd node's
    children join the next level in reverse order.  Each level's copies
    are made in one list and sliced out to their parents.
    """
    skip = mode is ParityMode.SKIP_SINGLE_CHILD
    root = LexTreeNode(tree.label, tree.level)
    nodes, twins = [tree], [root]
    while nodes:
        lead = twins[0]
        below: list[LexTreeNode] = []  # the next level's originals
        parents: list[tuple[LexTreeNode, int, int]] = []  # (copy, its slice of below)
        odd = False
        for node, twin in zip(nodes, twins):
            kids = node.children
            if skip and len(kids) < 2:
                # No parity; the leftmost node still counts as even.
                if twin is lead:
                    odd = True
            else:
                twin.parity = ODD if odd else EVEN
                if odd:
                    kids = kids[::-1]
                odd = not odd
            if kids:
                parents.append((twin, len(below), len(below) + len(kids)))
                below += kids
        copies = [LexTreeNode(c.label, c.level) for c in below]
        for twin, start, end in parents:
            twin.children = copies[start:end]
        nodes, twins = below, copies
    return root


def leaf_sequence(tree: LexTreeNode) -> list[tuple[int, ...]]:
    """Root-to-leaf label paths, leaves visited in child order.

    Walked with an explicit stack of child iterators, one per node on the
    current path, so the depth is not bounded by the recursion limit.
    """
    path = [] if tree.label is None else [tree.label]
    if tree.is_leaf():
        return [tuple(path)]
    out: list[tuple[int, ...]] = []
    stack = [iter(tree.children)]
    while stack:
        for child in stack[-1]:
            if child.children:
                path.append(child.label)
                stack.append(iter(child.children))
                break
            out.append((*path, child.label))
        else:
            stack.pop()
            if path:
                path.pop()
    return out


def iter_nodes(tree: LexTreeNode) -> Iterator[LexTreeNode]:
    """Depth-first preorder over all nodes."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def export_dot(tree: LexTreeNode) -> str:
    """DOT digraph of a (possibly twisted) tree.

    Node names concatenate the level path ("r", "r_0", "r_0_2", ...), so
    output is deterministic; ordering=out preserves twisted child order.
    Labels carry branch value, level, and parity.
    """
    total = sum(1 for _ in iter_nodes(tree))
    if total > DOT_NODE_LIMIT:
        raise OracleLimitError(f"{total} nodes exceed DOT limit {DOT_NODE_LIMIT}")

    lines = [
        "digraph enumeration_tree {",
        "  graph [ordering=out];",
        '  node [shape=circle, fontsize=10];',
    ]

    # Preorder from an explicit stack of (node, name, parent's name): each
    # node's edge from its parent, then its own line, then its subtrees.
    stack: list[tuple[LexTreeNode, str, str | None]] = [(tree, "r", None)]
    while stack:
        node, name, parent = stack.pop()
        if parent is not None:
            lines.append(f"  {parent} -> {name};")
        tag = node.parity if node.parity else "-"
        text = "*" if node.label is None else str(node.label)
        lines.append(f'  {name} [label="{text}\\nL{node.level} {tag}"];')
        stack.extend((c, f"{name}_{c.label}", name) for c in reversed(node.children))
    lines.append("}")
    return "\n".join(lines) + "\n"
