"""Loopless generator of adjacent bounded multiset combinations.

Each call to :meth:`GrayEngine.advance` produces the next combination with
a bounded number of arithmetic/compare/assign operations -- no loop, no
recursion -- and reports the step as a (inc, dec) position pair.  The
enumeration is conceptually a traversal of the twisted lexicographic tree
of the object set: children of a tree node are the feasible values of the
next vector position, and each level is swept alternately upward and
downward so that consecutive leaves differ in exactly two positions.

A level whose remainder k - sum[i] is 0 or b[i] has a single child, and
so has every level below it; level n always has one.  So the levels with a
choice on the current path are a prefix 1..L, and the forced levels
L+1..n are "the tail".  The step keeps these per-level values:

``d[i]``    sweep direction of level i: +1 increasing, -1 decreasing.
``b[i]``    static suffix capacity m[i] + ... + m[n] (b[n+1] = 0).
``sum[i]``  prefix sum a[1] + ... + a[i-1], exact whenever level i is the
            focus; for a level between the focus and L it already counts
            the unit the focus will move next (it is pre-adjusted).  A
            tail level's sum is written before it is read.

and three links:

``up[i]``   focus pointer: where the walk returns when level i+1 lands on
            its last child.  That is i itself, unless level i has landed
            too and descended; then up[i] carries the nearest level above
            with a sibling left, so one jump reaches it.  A level's
            pointer differs from the level only while the subtree under
            its last child is walked.
``alt[i]``  written when level i lands: the deepest level above i, within
            its run of landed levels, that leans the other way from i's
            new direction; the active level above the run if none does.
``bot[t]``  the tail as a stack of blocks: the block whose top is level t
            ends at level bot[t].

plus the scalar ``L``.  The focus i is the deepest level that has not
landed.  Its window is max(k - b[i+1] - sum[i], 0) .. min(m[i],
k - sum[i]), and it moves one unit in direction d[i].  The partner j, the
one other level that changes, is the first level below i whose value
differs when the levels below re-enter their sweeps at the new prefix:
L, if L lies below i and its first value there differs from a[L];
otherwise the bottom bot[L+1] of the tail's top block.  Then L moves:
- down to the partner (at most n-1) when the partner came from the tail
  and the tail has more than level n;
- up when L is forced now: to L-1, or to alt[L-1] if L-1 lies below i
  and leans the way of the step; the partner closes the new tail's top
  block;
- nowhere otherwise.
When a[i] reaches the end of its sweep (its last child), d[i] flips and
the focus either jumps to the return level (if i is now L) or moves down
to L, leaving its return level in up[i].  Reaching level 0 terminates
the run with the final object in ``a``.

Instances whose object set is a single vector (n == 1, k == 0 or
k == sum(m); any other instance can move a unit between two positions)
never enter the traversal; the engine reports the one object and
finishes.

Nothing in advance() watches the step.  :func:`counted_advance` counts
the bytecodes one step executes from outside, through the interpreter's
trace hook; ``msetgray verify --trace`` reports it per step.  On CPython
3.11 the longest path through advance()'s bytecode is 220 opcodes and
steps reach 219: only that path joins the window's di < 0 to the descent's
di > 0.  The tests check both, and a frozen ceiling for n = 10 to 1000.

One engine serves one sequential consumer; independent engines may run
in parallel freely.
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from itertools import accumulate, islice, repeat

from .core import (
    MultisetSpec,
    TransitionDelta,
    fill_from_right,
    suffix_capacities,
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
        # alt is written when a level lands, before it is read.
        alt = [0] * (n + 1)
        bot = [n] * (n + 1)

        if n == 1 or k == 0 or k == b[1]:
            # Single-object instance: nothing to traverse.
            self._i = 0
            self._start = 0
            self._d = [0] * (n + 1)
            self._sum = [0] * (n + 1)
        else:
            # The first change happens at the deepest level with a sibling
            # choice.  That is the fill stop level i0, except when the fill
            # stops in the last box (k < m[n]): level n is always forced, so
            # the first free level is n-1.
            start = i0 if i0 < n else n - 1
            self._start = start
            self._i = start

            # d[0] stays 0: it is read as d[ret] and d[p] when the return
            # level is the root, where no direction bias must apply.
            self._d = [0, *repeat(1, start), *repeat(-1, n - start)]

            # sum[i] = a[1] + ... + a[i-1]; advance() writes the sums of
            # levels right of the start before it reads them.
            self._sum = list(accumulate(islice(a, n), initial=0))
        # Levels 1..start have a choice; start+1..n fill the right end.
        self._L = self._start

        # What advance() reads on every step, fetched with one attribute load.
        self._step_state = (a, b, self._d, self._sum, up, alt, bot, m, k, n - 1)

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

    def current(self) -> tuple[int, ...]:
        """The combination the engine stands on, copied: O(n) per call, while
        the constant bound per object covers advance()'s delta alone."""
        return tuple(self._a[1:])

    # -- the step --------------------------------------------------------

    def advance(self) -> TransitionDelta | None:
        """Move to the next combination; None exactly once at the end.

        Straight-line code: no loop, no recursion, no call but the delta's
        constructor, so the work per step does not depend on n, k or m.
        """
        i = self._i
        if not i:  # only the end of the run sets level 0
            if self._finished:
                raise EngineExhausted("advance() called after the run finished")
            self._finished = True
            return None

        a, b, d, sums, up, alt, bot, m, k, last = self._step_state
        L = self._L

        s = sums[i]
        di = d[i]
        # The partner j and L's move, as the module docstring states them.
        # rem is L's remainder at the new prefix; at L == i it is the focus's
        # own, never 0 or b[i], as the focus has a choice.
        rem = k - sums[L]
        j = bot[L + 1]
        new_L = L
        if rem == 0 or rem == b[L]:
            if a[L] != (m[L] if rem else 0):  # a forced level's one value
                j = L
            new_L = L - 1
            if new_L > i and d[new_L] == di:
                new_L = alt[new_L]
            bot[new_L + 1] = j
            self._L = new_L
        elif L > i and (
            # a[L] is the end L's sweep now starts from, min(m[L], rem) or
            # max(rem - b[L+1], 0); it moved unless it is m[L] or 0 at both prefixes.
            (a[L] < m[L] or rem < m[L]) if d[L] < 0 else (a[L] > 0 or rem > b[L + 1])
        ):
            j = L
        elif L < last:
            new_L = j if j < last else last
            sums[new_L] = k - 1 if di < 0 else k - b[new_L] + 1
            self._L = new_L

        if di > 0:
            end = k - s
            if m[i] < end:
                end = m[i]
            pair = (i, j)
        else:
            end = k - b[i + 1] - s
            if end < 0:
                end = 0
            pair = (j, i)
        if a[i] == end:
            # Arrival levels always have a sibling left: the links went wrong.
            lower = k - b[i + 1] - s
            upper = k - s
            raise EngineError(
                f"arrived at an exhausted level: i={i}, a[i]={a[i]}, d[i]={di}, window "
                f"[{lower if lower > 0 else 0},{upper if upper < m[i] else m[i]}]"
            )

        a[j] -= di
        ai = a[i] + di
        a[i] = ai
        # tuple.__new__ skips the Python-level __new__ of the named tuple.
        delta = tuple.__new__(TransitionDelta, pair)

        if ai == end:
            # Landed on the last child: sum[i] counts the return level's unit.
            p = i - 1
            ret = up[p]
            d[i] = -di
            if ret == p:
                alt[i] = ret  # == p; sharing up[p]'s int object saves one per level
                sums[p] = s - a[p]
            else:
                up[p] = p
                alt[i] = p if d[p] == di else alt[p]
            sums[i] = s + d[ret]
            if new_L == i:
                self._i = ret
                return delta
            up[i] = ret
        self._i = new_L
        return delta

    # -- convenience iteration -------------------------------------------

    def iter_vectors(self) -> Iterator[tuple[int, ...]]:
        """Yield every combination, starting with the current one; each is a
        :meth:`current` copy, O(n), where advance()'s delta alone is O(1)."""
        yield self.current()
        while self.advance() is not None:
            yield self.current()


def generate(spec: MultisetSpec) -> list[tuple[int, ...]]:
    """Full adjacent sequence for a spec."""
    return list(GrayEngine(spec).iter_vectors())


def counted_advance(eng: GrayEngine) -> tuple[TransitionDelta | None, int]:
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
