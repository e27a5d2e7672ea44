import gc
from itertools import accumulate

import pytest

from msetgray import (
    EngineError,
    GrayEngine,
    MultisetSpec,
    ParityMode,
    count_inclusion_exclusion,
    generate,
    gray_generate_recursive,
    inclusion_exclusion_terms,
    lex_generate,
    run_spec_checks,
    twist,
)
from msetgray.verify import CheckResult, iter_random_specs, random_spec

from example_data import EXAMPLE_SPEC


def test_worked_example_all_pass():
    report = run_spec_checks(EXAMPLE_SPEC)
    assert report.passed
    assert report.first_failure() is None
    names = {c.name for c in report.checks}
    assert "engine_adjacent" in names
    assert "container_matches_vector" in names


def test_check_result_is_a_record():
    check = CheckResult("counts_agree", True)
    assert CheckResult._fields == ("name", "passed", "detail")
    assert check.detail == ""
    assert check == ("counts_agree", True, "")
    assert CheckResult("engine_runs", False, "boom")._asdict() == {
        "name": "engine_runs",
        "passed": False,
        "detail": "boom",
    }


def test_info_flags_on_worked_example():
    report = run_spec_checks(EXAMPLE_SPEC)
    # The two adjacent orders differ on this instance, but both tree
    # identities hold.
    assert report.info["engine_equals_recursive"] is False
    assert report.info["twisted_tree_equals_engine"] is True
    assert report.info["global_tree_equals_recursive"] is True


def test_degenerate_specs_pass():
    for m, k in [((2, 2), 4), ((3,), 0), ((5,), 3), ((1, 1), 2)]:
        report = run_spec_checks(MultisetSpec(m=m, k=k))
        assert report.passed, (m, k, report.first_failure())


def test_random_spec_generator_bounds():
    specs = list(iter_random_specs(50, max_n=4, max_m=3, seed=2))
    assert len(specs) == 50
    for spec in specs:
        assert 1 <= spec.n <= 4
        assert all(1 <= mult <= 3 for mult in spec.m)
        assert 0 <= spec.k <= spec.total


def test_random_spec_generator_deterministic():
    a = list(iter_random_specs(20, max_n=5, max_m=4, seed=9))
    b = list(iter_random_specs(20, max_n=5, max_m=4, seed=9))
    assert a == b


def test_random_batch_passes():
    for spec in iter_random_specs(40, max_n=5, max_m=3, seed=13):
        report = run_spec_checks(spec)
        assert report.passed, (spec, report.first_failure())


def test_prefix_sum_check_raises_engine_error(monkeypatch):
    # An engine whose kept prefix sum is off at its start level must be
    # caught before the first step, by a check that survives python -O.
    def corrupted(spec):
        eng = GrayEngine(spec)
        eng._sum[eng.i] += 1
        return eng

    monkeypatch.setattr("msetgray.verify.GrayEngine", corrupted)
    with pytest.raises(EngineError) as info:
        run_spec_checks(EXAMPLE_SPEC)
    assert str(info.value) == (
        "m=(1, 2, 2, 1, 1) k=4 step 0: level 2 keeps sum[2]=1, but a[1]+...+a[1]=0"
    )


@pytest.mark.parametrize("swaps, first_bad", [((7,), 8), ((2, 7), 3)])
def test_engine_order_fault_names_first_bad_pair(monkeypatch, swaps, first_bad):
    # An engine that emits objects j and j+1 in swapped order, for each j
    # in swaps.  Swapping 7 and 8 of the worked example leaves pair 7
    # adjacent and breaks pair 8; swapping 2 and 3 as well breaks pair 3.
    class Swapped:
        def __init__(self, spec):
            self.objects = generate(spec)
            for j in swaps:
                self.objects[j], self.objects[j + 1] = self.objects[j + 1], self.objects[j]
            self.step = 0
            self._pairs = self.steps(GrayEngine(spec)._pairs)

        def steps(self, pairs):
            for pair in pairs:
                self.step += 1
                yield pair

        def current(self):
            return self.objects[self.step]

        @property
        def sum(self):
            # The prefix sums of the object it stands on: the prefix-sum
            # check has nothing to find.
            return tuple(accumulate(self.current(), initial=0))

    monkeypatch.setattr("msetgray.verify.GrayEngine", Swapped)
    report = run_spec_checks(EXAMPLE_SPEC)
    checks = {c.name: c for c in report.checks}
    assert checks["engine_is_permutation"].passed
    adjacent = checks["engine_adjacent"]
    assert (adjacent.passed, adjacent.detail) == (False, f"pair at index {first_bad}")
    # The twisted leaves no longer equal the engine's order, so they are
    # checked on their own and still pass.
    assert report.info["twisted_tree_equals_engine"] is False
    for name in ("twisted_leaves_permutation", "twisted_leaves_adjacent"):
        assert (checks[name].passed, checks[name].detail) == (True, "")


def test_twisted_leaves_fault_named_while_the_engine_is_right(monkeypatch):
    # A SKIP twist that reverses nothing: its leaves are the lexicographic
    # order, whose first pair that is not adjacent is pair 3 on the worked
    # example.  The engine is untouched and passes.
    def untwisted(tree, mode):
        return tree if mode is ParityMode.SKIP_SINGLE_CHILD else twist(tree, mode)

    monkeypatch.setattr("msetgray.verify.twist", untwisted)
    report = run_spec_checks(EXAMPLE_SPEC)
    checks = {c.name: c for c in report.checks}
    assert report.info["twisted_tree_equals_engine"] is False
    assert checks["engine_adjacent"].passed
    assert checks["twisted_leaves_permutation"].passed
    adjacent = checks["twisted_leaves_adjacent"]
    assert (adjacent.passed, adjacent.detail) == (False, "pair at index 3")
    assert report.first_failure() is adjacent


@pytest.mark.parametrize(
    "spec", [EXAMPLE_SPEC, MultisetSpec(m=(3,) * 6, k=9)], ids=["worked-example", "m3^6-k9"]
)
@pytest.mark.parametrize(
    "oracle",
    [
        run_spec_checks,
        lex_generate,
        gray_generate_recursive,
        count_inclusion_exclusion,
        inclusion_exclusion_terms,
    ],
)
def test_oracle_leaves_no_cyclic_garbage(oracle, spec):
    # Every object the oracle makes is freed by refcount alone; none waits
    # for the cyclic collector.
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        oracle(spec)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def damaging_apply_move(monkeypatch, damage):
    """Patch verify's apply_move to run the real move, then damage[step]
    (state, dest, source, pos) at the chosen 1-based steps.  Returns the
    log of each step's container cells, (before, after)."""
    from msetgray.inplace import apply_move

    log = []

    def move(state, delta):
        before = state.cells()
        moved = apply_move(state, delta)
        if len(log) + 1 in damage:
            damage[len(log) + 1](state, *moved)
        log.append((before, state.cells()))
        return moved

    monkeypatch.setattr("msetgray.verify.apply_move", move)
    return log


def rewrite_second_cell(state, dest, source, pos):
    # dest lands in another cell q and q's value in pos: two cells change,
    # the multiset is the true one, and the stacks follow both cells.
    cells, stacks = state.container, state.stacks
    q = next(q for q in range(1, len(cells)) if cells[q] not in (source, dest))
    other = cells[q]
    cells[pos], cells[q] = other, dest
    stacks[dest][stacks[dest].index(pos)] = q
    stacks[other][stacks[other].index(q)] = pos


def write_wrong_component(state, dest, source, pos):
    # One cell changes, but to a component the step did not name.
    state.container[pos] = next(c for c in range(1, len(state.stacks)) if c not in (source, dest))


def overwrite_second_cell(state, dest, source, pos):
    # The move, plus another cell rewritten to another value: both checks fail.
    q = 1 if pos != 1 else 2
    state.container[q] = 1 + state.container[q] % (len(state.stacks) - 1)


LAST_STEP = 17  # the worked example has 18 objects


def container_checks(report):
    checks = {c.name: c for c in report.checks}
    return checks["container_matches_vector"], checks["container_single_cell_steps"]


@pytest.mark.parametrize("steps, first", [((9,), 9), ((3, 9), 3)])
def test_container_check_names_first_rewritten_second_cell(monkeypatch, steps, first):
    log = damaging_apply_move(monkeypatch, dict.fromkeys(steps, rewrite_second_cell))
    matches, single = container_checks(run_spec_checks(EXAMPLE_SPEC))
    before, after = log[first - 1]
    assert (single.passed, single.detail) == (False, f"step {first}: {before} -> {after}")
    assert (matches.passed, matches.detail) == (True, "")


def test_container_check_names_wrong_component(monkeypatch):
    log = damaging_apply_move(monkeypatch, {LAST_STEP: write_wrong_component})
    matches, single = container_checks(run_spec_checks(EXAMPLE_SPEC))
    after = log[LAST_STEP - 1][1]
    assert (single.passed, single.detail) == (True, "")
    assert (matches.passed, matches.detail) == (
        False, f"step {LAST_STEP}: sorted({after}) != in-place form"
    )


def test_container_checks_name_their_own_steps_on_a_double_failure(monkeypatch):
    # Step 3 fails only the single-cell check; the last step fails both,
    # and each check names the first step it failed at.
    log = damaging_apply_move(
        monkeypatch, {3: rewrite_second_cell, LAST_STEP: overwrite_second_cell}
    )
    report = run_spec_checks(EXAMPLE_SPEC)
    matches, single = container_checks(report)
    before, after = log[3 - 1]
    assert (single.passed, single.detail) == (False, f"step 3: {before} -> {after}")
    after = log[LAST_STEP - 1][1]
    assert (matches.passed, matches.detail) == (
        False, f"step {LAST_STEP}: sorted({after}) != in-place form"
    )
    assert report.first_failure() is matches
