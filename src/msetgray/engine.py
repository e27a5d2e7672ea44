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

``up[i]`` and ``up1[i]`` are written only when a step lands on level i's
last child and descends from there; level i+1 resets them to i when it
lands on its own last child, before the walk returns above level i.  So a
level's return links differ from the level only while the subtree under
its last child is walked (the focus-pointer rule).

Bounds at level i are evaluated on demand: a[i] may range over
lower = max(k - b[i+1] - sum[i], 0) .. upper = min(k - sum[i], m[i]).
A level sitting at the extreme of its direction is a "last child"; the
step then takes over the return links of the level above, prepares
solve/down for the opposite path, flips d[i], and either returns to the
return level or descends to down[i].
Reaching level 0 terminates the run with the final object in ``a``.

Instances whose object set is a single vector (n == 1, k == 0 or
k == sum(m); any other instance can move a unit between two positions)
never enter the traversal; the engine reports the one object and
finishes.

Nothing in advance() watches the step.  :func:`counted_advance` counts
the bytecodes one step executes from outside, through the interpreter's
trace hook; the tests hold that count under a frozen ceiling for n from
10 to 1000, and ``msetgray verify --trace`` reports it per step.

One engine serves one sequential consumer; independent engines may run
in parallel freely.
"""

from __future__ import annotations

import sys
from itertools import accumulate, islice, repeat
from typing import Iterator, Optional

from .core import (
    MultisetSpec,
    TransitionDelta,
    fill_from_right,
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
        m = [0, *spec.m]  # 1-based

        # Every n-sized list is built by one bulk operation.
        self._b = b = suffix_capacities(spec)
        a, i0 = fill_from_right(spec, b)
        self._a = a
        self._finished = False
        self._up = up = list(range(n + 1))
        self._up1 = up1 = up.copy()
        self._solve = solve = [n] * (n + 1)
        self._mark = mark = [False] * (n + 1)

        if n == 1 or k == 0 or k == b[1]:
            # Single-object instance: nothing to traverse.
            self._i = 0
            self._start = 0
            self._d = [0] * (n + 1)
            self._sum = [0] * (n + 1)
            self._down = [0] * (n + 1)
        else:
            # The first change happens at the deepest level with a sibling
            # choice.  That is the fill stop level i0, except when the fill
            # stops in the last box (k < m[n]): level n is always forced, so
            # the first free level is n-1.
            start = i0 if i0 < n else n - 1
            self._start = start
            self._i = start

            # d[0] stays 0: it is read through d[up[i]] when the return level
            # is the root, where no direction bias must apply.
            self._d = [0, *repeat(1, start), *repeat(-1, n - start)]

            # sum[i] = a[1] + ... + a[i-1], except that levels right of the
            # start already sit on their way back: their next evaluation
            # happens after the start level gains one unit, so their sums
            # count that unit.
            a[start] += 1
            self._sum = list(accumulate(islice(a, n), initial=0))
            a[start] -= 1

            self._down = [0, *repeat(n - 1, n - 1), 0]

        # What advance() reads on every step, fetched with one attribute load.
        self._step_state = (
            a, b, self._d, self._sum, up, up1, self._down, solve, mark, m, k, n - 1
        )

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

        a, b, d, sums, up, up1, down, solve, mark, m, k, last = self._step_state

        s = sums[i]
        lower = k - b[i + 1] - s
        if lower < 0:
            lower = 0
        upper = k - s
        if m[i] < upper:
            upper = m[i]

        di = d[i]
        end = upper if di > 0 else lower
        if a[i] == end:
            # Arrival nodes always have a sibling in their direction; a
            # hit here means the link bookkeeping went wrong.
            raise EngineError(
                f"arrived at an exhausted level: i={i}, a[i]={a[i]}, "
                f"d[i]={di}, window [{lower},{upper}]"
            )

        j = solve[i]
        a[j] -= di
        ai = a[i] + di
        a[i] = ai
        # tuple.__new__ skips the Python-level __new__ of the named tuple.
        delta = tuple.__new__(TransitionDelta, (i, j) if di > 0 else (j, i))

        if ai == end:
            # Landed on the last child: prepare the opposite path.
            p = i - 1
            ret = up[p]
            ret1 = up1[p]
            up[p] = p
            up1[p] = p
            d[i] = -di
            # Level i is evaluated again after the pending change at the
            # return level, which shifts its prefix by d[ret].
            s1 = s + d[ret]
            bn = b[i + 1]
            lower1 = k - bn - s1
            if lower1 < 0:
                lower1 = 0
            upper1 = k - s1
            if m[i] < upper1:
                upper1 = m[i]
            nxt = upper1 if di > 0 else lower1
            solve[ret] = i if nxt != ai else solve[i]
            if lower1 == upper1:
                # Forced next node, so no landing: route the landing link
                # through up1, which the forced levels below keep patching.
                next_landing = False
                down[ret1] = i
            else:
                sums[i] = s1
                next_landing = (s1 + nxt == k) or (s1 + nxt + bn == k) or (i == last)
                down[ret] = i if next_landing else down[i]

            if (s + ai == k) or (s + ai + bn == k) or (i == last):
                # Straight line below: jump back to the return level.
                mark[i] = True
                self._i = ret
                return delta
            up[i] = ret
            up1[i] = i if next_landing else ret1

        # The next change is deeper on the path just entered.
        nd = down[i]
        if not mark[nd]:
            solve[nd] = solve[i]
        mark[i] = False
        self._i = nd
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

    The count covers advance()'s own frame, which is the whole step (it
    calls no Python function: the delta is built by ``tuple.__new__``),
    and no other frame run meanwhile, such as a ``gc.callbacks`` entry
    fired by an allocation.  It comes from ``sys.settrace`` with
    per-opcode events, which makes the step some twenty times slower, so
    this is for tests and traces, not for timing.  A tracer installed
    before the call is restored after it.
    """
    opcodes = 0
    advance_code = type(eng).advance.__code__

    def on_call(frame, event, arg):
        if frame.f_code is not advance_code:
            return None
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return count

    def count(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return count

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        delta = eng.advance()
    finally:
        sys.settrace(previous)
    return delta, opcodes
