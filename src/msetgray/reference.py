"""Slow, obviously-correct reference generators.

These are the oracles the fast iterative engine is validated against:

* brute_force     -- scan the Cartesian product of the first n-1 ranges;
                     the last count is forced to k - sum(head) and kept
                     when it fits in 0..m[n].
* lex_generate    -- recursive descent with prefix-aware bounds; visits no
                     dead branch, emits in lexicographic order.
* gray_generate_recursive -- same recursion, but each level sweeps its
                     range alternately upward and downward (a per-level
                     direction flag flips after every call), which turns
                     the output into an adjacent sequence.

The recursive generators pay one Python call per tree node above the
last level, so O(n) calls per object in the worst case; they exist for
clarity, not speed.  Each level's sweep is one range, with no builtin
call per node, and the last level's single value rem is written in place.
"""

from __future__ import annotations

import itertools

from .core import MultisetSpec, OracleLimitError, suffix_capacities

# Cap on product(m[i]+1) for the brute-force oracle.
BRUTE_FORCE_LIMIT = 2_000_000

Vector = tuple[int, ...]


def brute_force(spec: MultisetSpec) -> list[Vector]:
    """All valid vectors in lexicographic order, by exhaustive filtering.

    The scan runs over the product of the first n-1 ranges: each head
    leaves one candidate for the last count, k - sum(head), kept when it
    lies in 0..m[n].  BRUTE_FORCE_LIMIT still counts the full product
    (m[1]+1)...(m[n]+1), so the cap refuses the same specs as a filter
    over every vector would.
    """
    size = 1
    for mult in spec.m:
        size *= mult + 1
        if size > BRUTE_FORCE_LIMIT:
            raise OracleLimitError(
                f"brute force would scan > {BRUTE_FORCE_LIMIT} candidate vectors"
            )
    *head, last = spec.m
    k = spec.k
    return [
        h + (r,)
        for h in itertools.product(*(range(mult + 1) for mult in head))
        for r in (k - sum(h),)  # one value: the last count is forced
        if 0 <= r <= last
    ]


def lex_generate(spec: MultisetSpec) -> list[Vector]:
    """All valid vectors in lexicographic order, by bounded recursion.

    At level i with rem units left to place, a[i] ranges over
    max(rem - b[i+1], 0) .. min(m[i], rem): anything lower strands units
    the suffix cannot absorb, anything higher overdraws.  At level n the
    range is the single value rem (b[n+1] = 0), so a[n] = rem is written
    and the object emitted there.
    """
    return _recursive_order(spec, flip=False)


def gray_generate_recursive(spec: MultisetSpec) -> list[Vector]:
    """All valid vectors as an adjacent sequence, by direction-flipping recursion.

    d[i] = +1 sweeps level i upward, -1 downward; the flag flips after
    every call at level i, so consecutive visits traverse the level in
    opposite orders.  The first object is the lexicographically smallest
    (all directions start at +1).
    """
    return _recursive_order(spec, flip=True)


def _recursive_order(spec: MultisetSpec, flip: bool) -> list[Vector]:
    """The bounded recursion behind both orders: every level sweeps its
    range in direction d[i], which flips after each call when ``flip``."""
    n = spec.n
    m = (0,) + spec.m  # 1-based view
    b = suffix_capacities(spec)
    d = [1] * (n + 1)
    a = [0] * (n + 1)
    out: list[Vector] = []

    def descend(i: int, rem: int) -> None:
        if i == n:  # the window is rem alone: b[n+1] = 0, rem <= m[n]
            a[n] = rem
            out.append(tuple(a[1:]))
            return
        lower = rem - b[i + 1]
        upper = m[i] if m[i] < rem else rem
        for v in range(lower if lower > 0 else 0, upper + 1)[::d[i]]:
            a[i] = v
            descend(i + 1, rem - v)
        if flip:
            d[i] = -d[i]

    descend(1, spec.k)
    del descend  # it holds itself through its closure: free it by refcount
    return out
