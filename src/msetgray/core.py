"""Domain types and elementary operations for bounded multiset combinations.

An instance fixes multiplicities m[1..n] (component i is available m[i]
times) and a selection size k.  A combination is stored as a count vector
(a[1], ..., a[n]): a[i] copies of component i, with sum(a) == k and
0 <= a[i] <= m[i].  Equivalently, the vectors are the compositions of k
into n parts with part i bounded by m[i].  The expanded, non-decreasing
list of selected component identifiers is the "in-place" form.

Two vectors are adjacent when they differ at exactly two positions, one
by +1 and one by -1; the generators in this package walk the whole object
set along such steps.

Positions and component identifiers are 1-based in public interfaces and
error messages; vectors themselves are plain tuples (0-based as usual).
All types here are immutable values and safe to share between threads.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence
from itertools import accumulate, islice
from operator import neg, sub


class InvalidSpecError(ValueError):
    """An instance violates its constraints (bad n, m, or k)."""


class OracleLimitError(RuntimeError):
    """A reference computation would exceed its configured size cap."""


class MultisetSpec:
    """Problem instance: multiplicities ``m`` and selection size ``k``.

    An immutable value: equal and hashed on (m, k), and rebuilt from
    (m, k) by copy and pickle.  Validated at construction: building an
    invalid spec raises InvalidSpecError, so every spec is well formed.
    """

    __slots__ = ("m", "k")
    m: tuple[int, ...]
    k: int

    def __init__(self, m: Iterable[int], k: int) -> None:
        try:
            m = tuple(m)
        except TypeError:
            raise InvalidSpecError(f"m must be a sequence of ints, got {m!r}") from None
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        validate(self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), (self.m, self.k)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.m, self.k) == (other.m, other.k)

    def __hash__(self) -> int:
        return hash((self.m, self.k))

    def __repr__(self) -> str:
        return f"MultisetSpec(m={self.m!r}, k={self.k!r})"

    @property
    def n(self) -> int:
        """Number of components."""
        return len(self.m)

    @property
    def total(self) -> int:
        """Total capacity sum(m), the largest feasible k."""
        return sum(self.m)


TransitionDelta = namedtuple("TransitionDelta", "inc dec")
TransitionDelta.__doc__ = "One adjacent step: position ``inc`` gains one unit, ``dec`` loses one."


def validate(spec: MultisetSpec) -> None:
    """Raise InvalidSpecError unless the instance is well formed; MultisetSpec calls it.

    Every multiplicity and k must be an int (bool is refused, though it
    is one).  Zero multiplicities are rejected rather than skipped;
    callers must drop empty components before building a spec.  The
    checks run over m in bulk, so they cost little even at large n.
    """
    m, k = spec.m, spec.k
    if not m:
        raise InvalidSpecError("need at least one component (n >= 1)")
    types = {type(k), *map(type, m)}
    if types != {int} and not all(map(_is_int_type, types)):
        if not _is_int_type(type(k)):
            raise InvalidSpecError(f"k must be an int, got {k!r}")
        pos, mult = next((pos, x) for pos, x in enumerate(m, 1) if not _is_int_type(type(x)))
        raise InvalidSpecError(f"multiplicity m[{pos}] must be an int, got {mult!r}")
    if min(m) < 1:
        pos, mult = next((pos, x) for pos, x in enumerate(m, 1) if x < 1)
        raise InvalidSpecError(f"multiplicity m[{pos}] must be >= 1, got {mult}")
    if not 0 <= k <= spec.total:
        raise InvalidSpecError(f"k={k} out of range 0..{spec.total} for m={m}")


def _is_int_type(t: type) -> bool:
    return issubclass(t, int) and t is not bool


def validate_vector(spec: MultisetSpec, a: Sequence[int]) -> None:
    """Raise ValueError unless ``a`` is a valid count vector for ``spec``."""
    if len(a) != spec.n:
        raise ValueError(f"vector length {len(a)} != n={spec.n}")
    for pos, (count, mult) in enumerate(zip(a, spec.m), start=1):
        if not _is_int_type(type(count)):  # validate's rule: bool is refused too
            raise ValueError(f"a[{pos}] must be an int, got {count!r}")
        if not 0 <= count <= mult:
            raise ValueError(f"a[{pos}]={count} outside 0..{mult}")
    if sum(a) != spec.k:
        raise ValueError(f"sum(a)={sum(a)} != k={spec.k}")


def first_combination(spec: MultisetSpec) -> tuple[tuple[int, ...], int]:
    """Lexicographically smallest combination, plus the fill stop level.

    Boxes are filled to capacity from right to left; the returned level
    i0 is the right-most box left unfilled.  When k == sum(m) every box
    fills and i0 is reported as 0 ("no free level").  Positions left of
    i0 are explicitly zero.
    """
    a, i0 = fill_from_right(spec, suffix_capacities(spec))
    return tuple(islice(a, 1, None)), i0


def fill_from_right(spec: MultisetSpec, b: list[int]) -> tuple[list[int], int]:
    """The first combination as a 1-based list [0, a[1], ..., a[n]], and i0.

    ``b`` is ``suffix_capacities(spec)``.  Levels i0+1..n are exactly the
    ones whose suffix fits in k; b falls as i grows, so a bisection finds
    i0 and slices fill the vector.
    """
    n, k = spec.n, spec.k
    # First level whose suffix capacity is at most k (n+1 if none is).
    i0 = bisect_left(b, -k, 1, n + 1, key=neg) - 1
    a = [0] * (n + 1)
    a[i0 + 1 :] = spec.m[i0:]
    a[i0] = k - b[i0 + 1]  # the remainder; a[0] = 0 when i0 = 0
    return a, i0


def suffix_capacities(spec: MultisetSpec) -> list[int]:
    """b[i] = m[i] + ... + m[n], 1-based, with b[0] = 0 and sentinel b[n+1] = 0.

    A prefix holding s units leaves level i room for
    max(k - s - b[i+1], 0) .. min(m[i], k - s).
    """
    b = list(accumulate(reversed(spec.m), initial=0))  # b[n+1], b[n], ..., b[1]
    b.append(0)
    b.reverse()
    return b


def last_combination(spec: MultisetSpec) -> tuple[int, ...]:
    """Lexicographically largest combination: boxes filled left to right,
    the first combination of the mirrored spec, mirrored back."""
    return first_combination(MultisetSpec(spec.m[::-1], spec.k))[0][::-1]


def is_adjacent(x: Sequence[int], y: Sequence[int]) -> bool:
    """True iff the vectors differ at exactly two positions, by +1 and -1."""
    if len(x) != len(y):
        raise ValueError(f"vector lengths differ: {len(x)} vs {len(y)}")
    diffs = list(filter(None, map(sub, y, x)))  # the nonzero y[i] - x[i], in order
    return len(diffs) == 2 and diffs[0] + diffs[1] == 0 and diffs[0] in (1, -1)


def to_inplace(spec: MultisetSpec, a: Sequence[int]) -> tuple[int, ...]:
    """Expand a count vector to its sorted in-place form.

    Returns a[i] copies of identifier i, ascending; length is k.
    """
    if len(a) != spec.n:
        raise ValueError(f"vector length {len(a)} != n={spec.n}")
    out: list[int] = []
    for ident, count in enumerate(a, start=1):
        out.extend([ident] * count)
    return tuple(out)


def apply_delta(
    a: Sequence[int],
    delta: TransitionDelta,
    spec: MultisetSpec | None = None,
) -> tuple[int, ...]:
    """Apply one adjacent step, returning a new vector.

    Underflow of the source position always raises; capacity overflow is
    checked when ``spec`` is given.  Either failure signals a bug in the
    producer of the delta, not bad user input.
    """
    inc, dec = delta
    if inc == dec:
        raise ValueError(f"delta positions must differ, got inc=dec={inc}")
    n = len(a)
    if not (1 <= inc <= n and 1 <= dec <= n):
        raise ValueError(f"delta positions ({inc},{dec}) outside 1..{n}")
    if a[dec - 1] <= 0:
        raise ValueError(f"underflow: a[{dec}] is already 0")
    if spec is not None and a[inc - 1] >= spec.m[inc - 1]:
        raise ValueError(f"overflow: a[{inc}] is already at capacity {spec.m[inc - 1]}")
    out = list(a)
    out[inc - 1] += 1
    out[dec - 1] -= 1
    return tuple(out)
