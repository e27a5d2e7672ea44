import random

import pytest

from msetgray import (
    EngineError,
    GrayEngine,
    MultisetSpec,
    TransitionDelta,
    apply_move,
    init_container,
    iter_with_container,
    to_inplace,
)

from example_data import EXAMPLE_SPEC


class TestInitContainer:
    def test_worked_example(self):
        state = init_container(EXAMPLE_SPEC, (0, 0, 2, 1, 1))
        assert state.cells() == (3, 3, 4, 5)
        assert state.stack(3) == (1, 2)
        assert state.stack(4) == (3,)
        assert state.stack(5) == (4,)
        assert state.stack(1) == () and state.stack(2) == ()

    def test_empty_selection(self):
        state = init_container(MultisetSpec(m=(2, 2), k=0), (0, 0))
        assert state.cells() == ()
        assert all(state.stack(c) == () for c in (1, 2))

    def test_two_boxes(self):
        state = init_container(MultisetSpec(m=(2, 2), k=2), (0, 2))
        assert state.cells() == (2, 2)
        assert state.stack(2) == (1, 2)

    @pytest.mark.parametrize(
        "a, message",
        [((1, 0), r"^sum\(a\)=1 != k=2$"), ((3, 0), r"^a\[1\]=3 outside 0\.\.2$")],
    )
    def test_invalid_vector_raises(self, a, message):
        with pytest.raises(ValueError, match=message):
            init_container(MultisetSpec(m=(2, 2), k=2), a)


class TestApplyMove:
    def test_worked_first_step(self):
        state = init_container(EXAMPLE_SPEC, (0, 0, 2, 1, 1))
        dest, source, pos = apply_move(state, TransitionDelta(inc=2, dec=5))
        assert (dest, source, pos) == (2, 5, 4)
        assert state.cells() == (3, 3, 4, 2)
        assert state.stack(2) == (4,)
        assert state.stack(5) == ()
        assert state.stack(3) == (1, 2)
        assert state.stack(4) == (3,)

    def test_inverse_step_restores_sorted_form(self):
        state = init_container(EXAMPLE_SPEC, (0, 0, 2, 1, 1))
        apply_move(state, TransitionDelta(inc=2, dec=5))
        apply_move(state, TransitionDelta(inc=5, dec=2))
        assert tuple(sorted(state.cells())) == (3, 3, 4, 5)

    def test_empty_source_stack_raises(self):
        state = init_container(EXAMPLE_SPEC, (0, 0, 2, 1, 1))
        with pytest.raises(EngineError, match="desync"):
            apply_move(state, TransitionDelta(inc=1, dec=2))


class TestSweep:
    def test_worked_example_full_run(self):
        spec = EXAMPLE_SPEC
        for vec, cells, delta in iter_with_container(spec):
            assert tuple(sorted(cells)) == to_inplace(spec, vec)

    def test_exactly_one_cell_changes_per_step(self):
        spec = EXAMPLE_SPEC
        rows = list(iter_with_container(spec))
        for (_, before, _), (_, after, _) in zip(rows, rows[1:]):
            assert sum(1 for x, y in zip(before, after) if x != y) == 1

    def test_randomized_sweep(self):
        rng = random.Random(31)
        for _ in range(120):
            n = rng.randint(1, 6)
            m = tuple(rng.randint(1, 4) for _ in range(n))
            spec = MultisetSpec(m=m, k=rng.randint(0, sum(m)))
            engine = GrayEngine(spec)
            state = init_container(spec, engine.current())
            while True:
                delta = engine.advance()
                if delta is None:
                    break
                apply_move(state, delta)
                assert tuple(sorted(state.cells())) == to_inplace(spec, engine.current())

    def test_stack_sizes_track_vector(self):
        spec = MultisetSpec(m=(3, 1, 2, 2), k=4)
        engine = GrayEngine(spec)
        state = init_container(spec, engine.current())
        while True:
            delta = engine.advance()
            if delta is None:
                break
            apply_move(state, delta)
            vec = engine.current()
            for component in range(1, spec.n + 1):
                assert len(state.stack(component)) == vec[component - 1]
