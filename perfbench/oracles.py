"""Computations the benchmark checks msetgray against, made apart from it.

Nothing here imports msetgray.  Counts come from a closed form (uniform
multiplicities) or a prefix-sum dynamic program (mixed ones); the first
object comes from filling boxes from the right; adjacency is checked by
replaying every step on a shadow vector of the benchmark's own.
"""

from __future__ import annotations

import random
from itertools import accumulate, chain, repeat
from math import comb
from operator import mul, ne
from typing import Sequence


class CheckFailed(Exception):
    """The program's output disagrees with the benchmark's own computation."""


def count_uniform(n: int, mult: int, k: int) -> int:
    """Vectors of length n, entries in 0..mult, summing to k (closed form).

    sum over j of (-1)^j C(n, j) C(k - j(mult+1) + n - 1, n - 1).
    """
    total = 0
    for j in range(n + 1):
        rest = k - j * (mult + 1)
        if rest < 0:
            break
        total += (-1) ** j * comb(n, j) * comb(rest + n - 1, n - 1)
    return total


def count_prefix_sum(m: Sequence[int], k: int) -> int:
    """Vectors with 0 <= a[i] <= m[i] summing to k, by a prefix-sum DP.

    ways[s] counts prefixes summing to s; one component turns it into a
    window sum of width m[i] + 1, read off the running prefix sums.
    """
    ways = [1] + [0] * k
    for mult in m:
        prefix = [0, *accumulate(ways)]
        ways = [prefix[s + 1] - prefix[max(s - mult, 0)] for s in range(k + 1)]
    return ways[k]


def count(m: Sequence[int], k: int) -> int:
    """Number of objects of the spec (m, k)."""
    if not 0 <= k <= sum(m):
        return 0
    if len(set(m)) == 1:
        return count_uniform(len(m), m[0], k)
    return count_prefix_sum(m, k)


def first_vector(m: Sequence[int], k: int) -> tuple[int, ...]:
    """Lexicographically smallest object: boxes filled from the right."""
    a = [0] * len(m)
    rem = k
    for pos in range(len(m) - 1, -1, -1):
        a[pos] = min(m[pos], rem)
        rem -= a[pos]
    return tuple(a)


def expand(vector: Sequence[int]) -> tuple[int, ...]:
    """Sorted in-place form: vector[i] copies of component i + 1."""
    return tuple(chain.from_iterable(map(repeat, range(1, len(vector) + 1), vector)))


def vector_of_cells(n: int, cells: Sequence[int]) -> tuple[int, ...]:
    """Count vector of a container (component ids 1..n, any order)."""
    a = [0] * n
    for c in cells:
        if not 1 <= c <= n:
            raise CheckFailed(f"cell value {c} outside 1..{n}")
        a[c - 1] += 1
    return tuple(a)


def check_object(m: Sequence[int], k: int, vector: Sequence[int]) -> None:
    """Raise unless vector is an object of the spec (m, k)."""
    if len(vector) != len(m):
        raise CheckFailed(f"length {len(vector)} != n={len(m)}: {vector}")
    if any(not 0 <= x <= cap for x, cap in zip(vector, m)):
        raise CheckFailed(f"entry outside 0..m[i]: {vector}")
    if sum(vector) != k:
        raise CheckFailed(f"sum {sum(vector)} != k={k}: {vector}")


class Walk:
    """Replays an adjacent sequence on the benchmark's own shadow vector.

    Each step must be one +1 and one -1 that keep every entry inside
    0..m[i], and every object reached must be new.  Objects
    are remembered by a random linear key, so the check costs O(1) per
    step even at n = 10^5 (two different objects share a key with
    probability about 2^-61).
    """

    def __init__(self, m: Sequence[int], start: Sequence[int]):
        k = sum(start)
        check_object(m, k, start)
        self.m = tuple(m)
        self.a = list(start)
        self.objects = 1
        rng = random.Random(len(m))
        self._weights = [rng.getrandbits(61) for _ in m]
        self._key = sum(map(mul, self.a, self._weights))
        self._seen = {self._key}

    def delta(self, inc: int, dec: int) -> None:
        """Apply one step given as 1-based positions (+1 at inc, -1 at dec)."""
        n = len(self.a)
        if not (1 <= inc <= n and 1 <= dec <= n) or inc == dec:
            raise CheckFailed(f"step {self.objects}: bad positions +{inc} -{dec}")
        a = self.a
        if a[inc - 1] >= self.m[inc - 1]:
            raise CheckFailed(
                f"step {self.objects}: a[{inc}] would exceed m={self.m[inc - 1]}"
            )
        if a[dec - 1] <= 0:
            raise CheckFailed(f"step {self.objects}: a[{dec}] would go below 0")
        a[inc - 1] += 1
        a[dec - 1] -= 1
        self.objects += 1
        self._key += self._weights[inc - 1] - self._weights[dec - 1]
        if self._key in self._seen:
            raise CheckFailed(f"step {self.objects - 1}: object repeated")
        self._seen.add(self._key)

    def vector(self, vector: Sequence[int]) -> tuple[int, int]:
        """Step to ``vector``, which must be adjacent to the shadow; returns (inc, dec)."""
        a = self.a
        if len(vector) != len(a):
            raise CheckFailed(f"step {self.objects}: length {len(vector)} != {len(a)}")
        differs = list(map(ne, a, vector))
        if differs.count(True) != 2:
            raise CheckFailed(
                f"step {self.objects}: {differs.count(True)} positions changed, not 2"
            )
        i = differs.index(True)
        j = differs.index(True, i + 1)
        if vector[i] - a[i] == 1 and vector[j] - a[j] == -1:
            inc, dec = i + 1, j + 1
        elif vector[i] - a[i] == -1 and vector[j] - a[j] == 1:
            inc, dec = j + 1, i + 1
        else:
            raise CheckFailed(f"step {self.objects}: change is not one +1 and one -1")
        self.delta(inc, dec)
        return inc, dec

    def finish(self, expected: int) -> None:
        """Raise unless the walk visited exactly ``expected`` objects."""
        if self.objects != expected:
            raise CheckFailed(f"{self.objects} objects, expected {expected}")


def check_adjacent_sequence(
    m: Sequence[int], k: int, vectors: Sequence[Sequence[int]]
) -> None:
    """A complete adjacent order: starts at the smallest object, every step
    adjacent, no repeat, and as many objects as the spec has."""
    if not vectors or tuple(vectors[0]) != first_vector(m, k):
        raise CheckFailed("sequence does not start at the lexicographically smallest object")
    walk = Walk(m, vectors[0])
    for vec in vectors[1:]:
        walk.vector(vec)
    walk.finish(count(m, k))


def check_delta_sequence(
    m: Sequence[int], k: int, deltas: Sequence[tuple[int, int]]
) -> None:
    """A complete adjacent order given as (inc, dec) steps from the smallest object."""
    walk = Walk(m, first_vector(m, k))
    for inc, dec in deltas:
        walk.delta(inc, dec)
    walk.finish(count(m, k))


def check_lex_sequence(m: Sequence[int], k: int, vectors: Sequence[Sequence[int]]) -> None:
    """The complete object set in strictly increasing lexicographic order."""
    prev = None
    for vec in vectors:
        vec = tuple(vec)
        check_object(m, k, vec)
        if prev is not None and not prev < vec:
            raise CheckFailed(f"{vec} does not follow {prev} in lexicographic order")
        prev = vec
    if len(vectors) != count(m, k):
        raise CheckFailed(f"{len(vectors)} objects, expected {count(m, k)}")


class ContainerWalk(Walk):
    """A Walk that also follows an in-place container (cells in any order):
    each step must rewrite exactly one cell, and the sorted cells must
    spell the vector."""

    def __init__(self, m: Sequence[int], start: Sequence[int], cells: Sequence[int]):
        super().__init__(m, start)
        if tuple(sorted(cells)) != expand(start):
            raise CheckFailed(f"first container {tuple(cells)} does not spell {tuple(start)}")
        self.cells = tuple(cells)

    def step(self, cells: Sequence[int], vector: Sequence[int] | None = None) -> tuple[int, int]:
        """Step to the container ``cells`` (and its ``vector``, when given);
        returns (inc, dec)."""
        if vector is None:
            vector = vector_of_cells(len(self.m), cells)
        changed = list(map(ne, self.cells, cells)).count(True)
        if len(cells) != len(self.cells) or changed != 1:
            raise CheckFailed(f"step {self.objects}: container rewrote {changed} cells, not 1")
        if tuple(sorted(cells)) != expand(vector):
            raise CheckFailed(f"step {self.objects}: sorted cells do not spell {tuple(vector)}")
        self.cells = tuple(cells)
        return self.vector(vector)
