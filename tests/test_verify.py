import pytest

from msetgray import EngineError, GrayEngine, MultisetSpec, generate, run_spec_checks
from msetgray.verify import iter_random_specs, random_spec

from example_data import EXAMPLE_SPEC


def test_worked_example_all_pass():
    report = run_spec_checks(EXAMPLE_SPEC)
    assert report.passed
    assert report.first_failure() is None
    names = {c.name for c in report.checks}
    assert "engine_adjacent" in names
    assert "container_matches_vector" in names


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
        i = 0  # level 0: the prefix-sum check has nothing to compare

        def __init__(self, spec):
            self.objects = generate(spec)
            for j in swaps:
                self.objects[j], self.objects[j + 1] = self.objects[j + 1], self.objects[j]
            self.deltas = iter(GrayEngine(spec).advance, None)
            self.step = 0

        def current(self):
            return self.objects[self.step]

        def advance(self):
            delta = next(self.deltas, None)
            if delta is not None:
                self.step += 1
            return delta

    monkeypatch.setattr("msetgray.verify.GrayEngine", Swapped)
    report = run_spec_checks(EXAMPLE_SPEC)
    checks = {c.name: c for c in report.checks}
    assert checks["engine_is_permutation"].passed
    adjacent = checks["engine_adjacent"]
    assert (adjacent.passed, adjacent.detail) == (False, f"pair at index {first_bad}")
