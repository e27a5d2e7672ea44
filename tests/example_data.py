"""Frozen expected values shared across the test modules.

LEX_TABLE is the canonical 18-row example (vector and in-place columns)
for m=(1,2,2,1,1), k=4, hand-checked against a by-hand enumeration.  The
two adjacent-order goldens were produced by the corresponding generator
and frozen only after passing the independent oracles (permutation of
the brute-force set, pairwise adjacency, count agreement); they differ
from each other at rows 13/14.  OPCODE_CEILING freezes the per-step
bytecode count that stands as the evidence of looplessness.
"""

from msetgray import MultisetSpec

EXAMPLE_SPEC = MultisetSpec(m=(1, 2, 2, 1, 1), k=4)

# (vector form, in-place form) in lexicographic order.
LEX_TABLE = [
    ((0, 0, 2, 1, 1), (3, 3, 4, 5)),
    ((0, 1, 1, 1, 1), (2, 3, 4, 5)),
    ((0, 1, 2, 0, 1), (2, 3, 3, 5)),
    ((0, 1, 2, 1, 0), (2, 3, 3, 4)),
    ((0, 2, 0, 1, 1), (2, 2, 4, 5)),
    ((0, 2, 1, 0, 1), (2, 2, 3, 5)),
    ((0, 2, 1, 1, 0), (2, 2, 3, 4)),
    ((0, 2, 2, 0, 0), (2, 2, 3, 3)),
    ((1, 0, 1, 1, 1), (1, 3, 4, 5)),
    ((1, 0, 2, 0, 1), (1, 3, 3, 5)),
    ((1, 0, 2, 1, 0), (1, 3, 3, 4)),
    ((1, 1, 0, 1, 1), (1, 2, 4, 5)),
    ((1, 1, 1, 0, 1), (1, 2, 3, 5)),
    ((1, 1, 1, 1, 0), (1, 2, 3, 4)),
    ((1, 1, 2, 0, 0), (1, 2, 3, 3)),
    ((1, 2, 0, 0, 1), (1, 2, 2, 5)),
    ((1, 2, 0, 1, 0), (1, 2, 2, 4)),
    ((1, 2, 1, 0, 0), (1, 2, 2, 3)),
]

# Loopless engine emission order for EXAMPLE_SPEC.
ENGINE_SEQUENCE = [
    (0, 0, 2, 1, 1),
    (0, 1, 2, 1, 0),
    (0, 1, 2, 0, 1),
    (0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1),
    (0, 2, 1, 0, 1),
    (0, 2, 1, 1, 0),
    (0, 2, 2, 0, 0),
    (1, 2, 1, 0, 0),
    (1, 2, 0, 1, 0),
    (1, 2, 0, 0, 1),
    (1, 1, 0, 1, 1),
    (1, 1, 1, 0, 1),
    (1, 1, 1, 1, 0),
    (1, 1, 2, 0, 0),
    (1, 0, 2, 1, 0),
    (1, 0, 2, 0, 1),
    (1, 0, 1, 1, 1),
]

# Direction-flipping recursive order for EXAMPLE_SPEC.
RECURSIVE_SEQUENCE = [
    (0, 0, 2, 1, 1),
    (0, 1, 2, 1, 0),
    (0, 1, 2, 0, 1),
    (0, 1, 1, 1, 1),
    (0, 2, 0, 1, 1),
    (0, 2, 1, 0, 1),
    (0, 2, 1, 1, 0),
    (0, 2, 2, 0, 0),
    (1, 2, 1, 0, 0),
    (1, 2, 0, 1, 0),
    (1, 2, 0, 0, 1),
    (1, 1, 0, 1, 1),
    (1, 1, 1, 1, 0),
    (1, 1, 1, 0, 1),
    (1, 1, 2, 0, 0),
    (1, 0, 2, 1, 0),
    (1, 0, 2, 0, 1),
    (1, 0, 1, 1, 1),
]

# Most bytecodes one GrayEngine.advance() executes (counted_advance;
# the delta's constructor runs none) over 10,000 steps from the start of
# m=(3,)*n, k=3n//2, for n = 10, 100 and 1000: the maxima are 241, 231
# and 231.  Bytecode differs between interpreter versions; this value is
# frozen for CPython 3.11.  The longest path through advance()'s bytecode
# (straight_line_bound in tests/test_engine.py) is 252 there; that bound
# is computed afresh on any version.
OPCODE_CEILING = 241
