"""Layered in-place representation: one element moves per adjacent step.

On top of the count-vector engine, a ``container`` array of length k holds
the selected component identifiers explicitly.  A step (inc, dec) then
moves exactly one element: some container position storing component
``dec`` is rewritten to ``inc``.  To find that position in constant time,
one stack per component tracks the container positions currently holding
it; the moved position is popped from the source stack and pushed on the
destination stack (most recently gained position moves first).

The container is deliberately NOT kept sorted -- a step rewrites a single
cell wherever it happens to sit.  Equality checks against the sorted
in-place form must sort first.  Beyond the k container cells the stacks
hold k position entries distributed over n stacks: O(n) extra space,
O(1) work per step.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

from .core import MultisetSpec, to_inplace, validate_vector
from .engine import EngineError, GrayEngine


class ContainerState:
    """Container cells (1-based positions) plus per-component position stacks."""

    def __init__(self, container: list[int], stacks: list[list[int]]) -> None:
        self.container = container  # index 0 unused; positions 1..k
        self.stacks = stacks  # index 0 unused; stacks[c] for component c

    def cells(self) -> tuple[int, ...]:
        """Current container content at positions 1..k."""
        return tuple(self.container[1:])

    def stack(self, component: int) -> tuple[int, ...]:
        """Positions currently holding ``component``, oldest first."""
        return tuple(self.stacks[component])


def init_container(spec: MultisetSpec, a: Sequence[int]) -> ContainerState:
    """Build the container for a starting vector (sorted expansion) and
    populate the stacks left to right; ValueError unless ``a`` is valid."""
    validate_vector(spec, a)
    cells = to_inplace(spec, a)
    container = [0] + list(cells)
    stacks: list[list[int]] = [[] for _ in range(spec.n + 1)]
    for pos in range(1, spec.k + 1):
        stacks[container[pos]].append(pos)
    return ContainerState(container=container, stacks=stacks)


def apply_move(state: ContainerState, delta: tuple[int, int]) -> tuple[int, int, int]:
    """Move one element per an (inc, dec) step, returning (dest, source, position).

    The position is popped from the source component's stack, pushed on
    the destination's, and its container cell rewritten.  An empty source
    stack means the container lost sync with its engine.
    """
    dest, source = delta
    if not state.stacks[source]:
        raise EngineError(
            f"container desync: component {source} has no stacked position"
        )
    pos = state.stacks[source].pop()
    state.stacks[dest].append(pos)
    state.container[pos] = dest
    return dest, source, pos


def iter_with_container(
    spec: MultisetSpec,
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], tuple[int, int] | None]]:
    """Drive an engine and its container together.

    Yields (vector, container cells, step) per object, the step as a plain
    (inc, dec) pair; the first object carries step None.
    """
    eng = GrayEngine(spec)
    state = init_container(spec, eng.current())
    yield eng.current(), state.cells(), None
    for pair in eng._pairs:
        apply_move(state, pair)
        yield eng.current(), state.cells(), pair
