"""Loopless generator of adjacent bounded multiset combinations.

Each call to :meth:`GrayEngine.advance` produces the next combination with
a bounded number of arithmetic/compare/assign operations -- no loop, no
recursion -- and reports the step as a (inc, dec) position pair.  The
enumeration is conceptually a traversal of the twisted lexicographic tree
of the object set: children of a tree node are the feasible values of the
next vector position, and each level is swept alternately upward and
downward so that consecutive leaves differ in exactly two positions.

The constant-time step relies on a small set of per-level links that are
maintained incrementally:

``d[i]``      sweep direction of level i: +1 increasing, -1 decreasing.
``b[i]``      static suffix capacity m[i] + ... + m[n] (b[n+1] = 0).
``sum[i]``    prefix sum a[1] + ... + a[i-1], valid whenever level i is
              evaluated; it is pre-adjusted when a pending change at a
              shallower level is already known.
``solve[i]``  the balancing level: a unit moved at level i is compensated
              at solve[i], which keeps the total at k.
``up[i]``     return level: nearest ancestor level that still has an
              unvisited sibling.  While the traversal walks through last
              children the value propagates downward, so a single jump
              lands on the right ancestor.
``down[i]``   landing level: the deepest level with a sibling choice on
              the path entered after crossing at level i; the next change
              happens there.
``up1[i]``    auxiliary propagation link used to patch ``down`` across
              runs of forced (single-child) levels.
``mark[i]``   whether solve[i] is already prepared for level i; unset
              entries are repaired from the crossing level on descent.

Bounds at level i are evaluated on demand: a[i] may range over
lower = max(k - b[i+1] - sum[i], 0) .. upper = min(k - sum[i], m[i]).
A level sitting at the extreme of its direction is a "last child"; the
step bookkeeping then prepares solve/down for the opposite path, flips
d[i], and the traversal either returns to up[i] or descends to down[i].
Reaching level 0 terminates the run with the final object in ``a``.

Instances whose object set is a single vector (k = 0, k = sum(m), and
any fully forced chain) never enter the traversal; the engine reports
the one object and finishes.

Nothing in advance() watches the step.  :func:`counted_advance` counts
the bytecodes one step executes from outside, through the interpreter's
trace hook; the tests hold that count under a frozen ceiling for n from
10 to 1000, and ``msetgray verify --trace`` reports it per step.

One engine serves one sequential consumer; independent engines may run
in parallel freely.
"""

from __future__ import annotations

import sys
from itertools import islice
from typing import Iterator, Optional

from .core import (
    MultisetSpec,
    TransitionDelta,
    first_combination,
    last_combination,
    suffix_capacities,
    validate,
)


class EngineError(RuntimeError):
    """Internal invariant violation; indicates a bug, not bad input."""


class EngineExhausted(EngineError):
    """advance() was called again after the run already finished."""


class GrayEngine:
    """Stateful loopless iterator over one spec's combinations.

    Protocol: the first object is available via :meth:`current`
    immediately after construction; each :meth:`advance` applies one
    adjacent step and returns its delta, then returns None exactly once
    when the sequence is exhausted (the final object stays readable).
    A spec with N objects yields N - 1 deltas.
    """

    def __init__(self, spec: MultisetSpec):
        validate(spec)
        self.spec = spec
        n = spec.n
        k = spec.k
        self._n = n
        self._k = k
        self._m = [0] + list(spec.m)  # 1-based

        a, i0 = first_combination(spec)
        self._a = [0] + list(a)
        self._b = suffix_capacities(spec)
        self._finished = False
        self._up = list(range(n + 1))
        self._up1 = list(range(n + 1))
        self._solve = [n] * (n + 1)
        self._mark = [False] * (n + 1)

        if a == last_combination(spec):
            # Single-object instance: nothing to traverse.
            self._i = 0
            self._start = 0
            self._d = [0] * (n + 1)
            self._sum = [0] * (n + 1)
            self._down = [0] * (n + 1)
            return

        # The first change happens at the deepest level with a sibling
        # choice.  That is the fill stop level i0, except when the fill
        # stops in the last box (k < m[n]): level n is always forced, so
        # the first free level is n-1.
        start = i0 if i0 < n else n - 1
        self._start = start
        self._i = start

        # d[0] stays 0: it is read through d[up[i]] when the return level
        # is the root, where no direction bias must apply.
        self._d = [0] + [1] * start + [-1] * (n - start)

        sums = [0] * (n + 1)
        for i in range(2, n + 1):
            sums[i] = sums[i - 1] + self._a[i - 1]
        # Levels right of the start already sit on their way back; their
        # next evaluation happens after the start level gains one unit.
        for i in range(start + 1, n + 1):
            sums[i] += 1
        self._sum = sums

        self._down = [0] + [n - 1] * (n - 1) + [0]

    # -- read-only views ------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def k(self) -> int:
        return self._k

    @property
    def i(self) -> int:
        """Current level (0 once the traversal has terminated)."""
        return self._i

    @property
    def i0(self) -> int:
        """Initial level (0 for single-object instances)."""
        return self._start

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def a(self) -> tuple[int, ...]:
        return tuple(self._a[1:])

    @property
    def d(self) -> tuple[int, ...]:
        return tuple(self._d[1:])

    @property
    def b(self) -> tuple[int, ...]:
        return tuple(self._b[1:])

    @property
    def sum(self) -> tuple[int, ...]:
        return tuple(self._sum[1:])

    @property
    def up(self) -> tuple[int, ...]:
        return tuple(self._up)

    @property
    def up1(self) -> tuple[int, ...]:
        return tuple(self._up1)

    @property
    def down(self) -> tuple[int, ...]:
        return tuple(self._down[1:])

    @property
    def solve(self) -> tuple[int, ...]:
        return tuple(self._solve[1:])

    @property
    def mark(self) -> tuple[bool, ...]:
        return tuple(self._mark[1:])

    def current(self) -> tuple[int, ...]:
        """The combination the engine currently stands on."""
        return tuple(self._a[1:])

    # -- the step --------------------------------------------------------

    def advance(self) -> Optional[TransitionDelta]:
        """Move to the next combination; None exactly once at the end.

        Straight-line code: no loop, no recursion, no call but the delta's
        constructor, so the work per step does not depend on n, k or m.
        """
        if self._finished:
            raise EngineExhausted("advance() called after the run finished")
        i = self._i
        if i == 0:
            self._finished = True
            return None

        a = self._a
        b = self._b
        d = self._d
        sums = self._sum
        up = self._up
        up1 = self._up1
        down = self._down
        solve = self._solve
        mark = self._mark
        k = self._k

        s = sums[i]
        lower = k - b[i + 1] - s
        if lower < 0:
            lower = 0
        upper = k - s
        if self._m[i] < upper:
            upper = self._m[i]

        di = d[i]
        if (di > 0 and a[i] == upper) or (di < 0 and a[i] == lower):
            # Arrival nodes always have a sibling in their direction; a
            # hit here means the link bookkeeping went wrong.
            raise EngineError(
                f"arrived at an exhausted level: i={i}, a[i]={a[i]}, "
                f"d[i]={di}, window [{lower},{upper}]"
            )

        j = solve[i]
        a[i] += di
        a[j] -= di
        if di > 0:
            delta = TransitionDelta(inc=i, dec=j)
        else:
            delta = TransitionDelta(inc=j, dec=i)

        up[i] = i

        if (di > 0 and a[i] == upper) or (di < 0 and a[i] == lower):
            # Landed on the last child: prepare the opposite path.
            up[i] = up[i - 1]
            up[i - 1] = i - 1
            dup = d[up[i]]
            lower1 = k - b[i + 1] - s - dup
            if lower1 < 0:
                lower1 = 0
            upper1 = k - s - dup
            if self._m[i] < upper1:
                upper1 = self._m[i]
            nxt = upper1 if di > 0 else lower1
            if nxt != a[i]:
                solve[up[i]] = i
            else:
                solve[up[i]] = solve[i]
            mark[up[i]] = True
            mark[i] = True
            up_point = (s + a[i] == k) or (s + a[i] + b[i + 1] == k) or (i == self._n - 1)
            if lower1 != upper1:
                # Prepare sum[i] for the opposite path: the pending change
                # at the return level will have shifted the prefix by d.
                sums[i] = s + dup
            next_landing = (
                (sums[i] + nxt == k)
                or (sums[i] + nxt + b[i + 1] == k)
                or (i == self._n - 1)
            )
            up1[i] = up1[i - 1]
            up1[i - 1] = i - 1
            if lower1 == upper1:
                # Forced next node: route the landing link through up1 so
                # deeper levels can keep patching it.
                down[up1[i]] = i
            elif next_landing:
                down[up[i]] = i
            else:
                down[up[i]] = down[i]
            if next_landing:
                up1[i] = i
            d[i] = -di

            if up_point:
                # Straight line below: jump back to the return level.
                ii = i
                i = up[i]
                up[ii] = ii
            else:
                if not mark[down[i]]:
                    solve[down[i]] = solve[i]
                mark[i] = False
                i = down[i]
        else:
            # Not a last child: the next change is deeper on the path
            # just entered.
            if not mark[down[i]]:
                solve[down[i]] = solve[i]
            mark[i] = False
            i = down[i]

        self._i = i
        return delta

    # -- convenience iteration -------------------------------------------

    def iter_vectors(self) -> Iterator[tuple[int, ...]]:
        """Yield every combination, starting with the current one."""
        yield self.current()
        while True:
            delta = self.advance()
            if delta is None:
                return
            yield self.current()


def generate(spec: MultisetSpec, limit: Optional[int] = None) -> list[tuple[int, ...]]:
    """Full adjacent sequence for a spec (optionally truncated to limit)."""
    return list(islice(GrayEngine(spec).iter_vectors(), limit))


def counted_advance(eng: GrayEngine) -> tuple[Optional[TransitionDelta], int]:
    """Call ``eng.advance()`` once; return its result and the bytecodes run.

    The count covers advance() and every Python function it calls (the
    delta's constructor).  It comes from ``sys.settrace`` with per-opcode
    events, which makes the step some twenty times slower, so this is for
    tests and traces, not for timing.  A tracer installed before the
    call is restored after it.
    """
    opcodes = 0

    def tracer(frame, event, arg):
        nonlocal opcodes
        if event == "call":
            frame.f_trace_lines = False
            frame.f_trace_opcodes = True
        elif event == "opcode":
            opcodes += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        delta = eng.advance()
    finally:
        sys.settrace(previous)
    return delta, opcodes
