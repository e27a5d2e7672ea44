"""Exact counting of bounded multiset combinations.

Two independent routes to |S|, the number of count vectors for a spec:
inclusion-exclusion over the unconstrained closure, and a direct dynamic
program.  Both use exact integer arithmetic throughout (Python ints are
arbitrary precision), so they double as overflow-free oracles for the
generators.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from operator import sub

from .core import MultisetSpec, OracleLimitError

# Inclusion-exclusion sums over 2^n subsets; past this n use count_dp.
IE_SUBSET_LIMIT = 24
# count_dp fills n*(k+1) cells; past this many use inclusion-exclusion.  A
# spec under reference.BRUTE_FORCE_LIMIT needs at most 2,000,002 of them
# (m=(1, 999999), k=1000000), so verify never meets this cap.
DP_CELL_LIMIT = 4_000_000


def count_closure(n: int, k: int) -> int:
    """Combinations of size k when every component is unbounded: C(n+k-1, k)."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    return comb(n + k - 1, k)


def count_inclusion_exclusion(spec: MultisetSpec) -> int:
    """Count combinations by subtracting over-capacity selections.

    Each subset T of components contributes (-1)^|T| * C(n+k'-1, k') with
    k' = k - sum over T of (m[i]+1) >= 0.  One pass per component keeps the
    signed number of subsets leaving each k', so the cost follows the number
    of distinct k': at most n+1 when every m[i] is equal, 2^n when every
    subset sum differs.
    """
    n = spec.n
    if n > IE_SUBSET_LIMIT:
        raise OracleLimitError(
            f"inclusion-exclusion over 2^{n} subsets exceeds limit "
            f"(n <= {IE_SUBSET_LIMIT}); use count_dp instead"
        )
    left = {spec.k: 1}  # k' -> signed number of subsets leaving k'
    for mult in spec.m:
        grown = dict(left)
        for kp, signed in left.items():
            if kp > mult:
                grown[kp - mult - 1] = grown.get(kp - mult - 1, 0) - signed
        left = grown
    return sum(signed * comb(n + kp - 1, kp) for kp, signed in left.items())


def inclusion_exclusion_terms(spec: MultisetSpec) -> list[tuple[tuple[int, ...], int]]:
    """Nonzero inclusion-exclusion terms as (subset of 1-based positions, signed value).

    Exposed for reporting: the empty-subset term is the closure count and
    the remaining terms are the alternating corrections.  The subsets with
    k' >= 0 grow one component at a time: one list entry per term.
    """
    n, m = spec.n, spec.m
    if n > IE_SUBSET_LIMIT:
        raise OracleLimitError(f"term expansion limited to n <= {IE_SUBSET_LIMIT}")
    live: list[tuple[tuple[int, ...], int]] = [((), spec.k)]
    for pos, mult in enumerate(m, 1):
        live += [(chosen + (pos,), kp - mult - 1) for chosen, kp in live if kp > mult]
    terms = [(chosen, (-1) ** len(chosen) * comb(n + kp - 1, kp)) for chosen, kp in live]
    terms.sort(key=lambda t: (len(t[0]), t[0]))
    return terms


def count_dp(spec: MultisetSpec) -> int:
    """Count combinations by a table over positions and partial sums.

    ways[s] after processing i components is the number of bounded vectors
    of length i summing to s; each step sums a window of width m[i]+1,
    read off prefix sums, so the table costs O(n*k) whatever m is.
    """
    k = spec.k
    if spec.n * (k + 1) > DP_CELL_LIMIT:
        raise OracleLimitError(
            f"dp over n*(k+1) cells exceeds limit (n*(k+1) <= {DP_CELL_LIMIT}); "
            "use count_inclusion_exclusion instead"
        )
    ways = [1] + [0] * k
    for mult in spec.m:
        prefix = list(accumulate(ways, initial=0))
        ways = prefix[1 : mult + 2] + list(map(sub, prefix[mult + 2 :], prefix[1:]))
    return ways[k]
