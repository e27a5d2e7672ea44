import random

import pytest

from msetgray import (
    MultisetSpec,
    OracleLimitError,
    brute_force,
    count_closure,
    count_dp,
    count_inclusion_exclusion,
    inclusion_exclusion_terms,
)
from msetgray.counting import DP_CELL_LIMIT
from msetgray.reference import BRUTE_FORCE_LIMIT


class TestCountClosure:
    def test_worked_example(self):
        assert count_closure(5, 4) == 70  # C(8, 4)

    def test_empty(self):
        assert count_closure(1, 0) == 1

    def test_three_components_size_four(self):
        # C(6, 4); cross-checked against unbounded brute force below.
        assert count_closure(3, 4) == 15

    def test_matches_unbounded_brute_force(self):
        for n in range(1, 5):
            for k in range(0, 6):
                spec = MultisetSpec(m=(k if k else 1,) * n, k=k)
                assert count_closure(n, k) == len(brute_force(spec))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            count_closure(0, 3)


class TestInclusionExclusion:
    def test_worked_example(self):
        assert count_inclusion_exclusion(MultisetSpec(m=(1, 2, 2, 1, 1), k=4)) == 18

    def test_ordinary_combinations(self):
        assert count_inclusion_exclusion(MultisetSpec(m=(1, 1, 1), k=2)) == 3

    def test_small_mixed_instance(self):
        # Brute force over all vectors <= (3,1,2) summing to 3 gives 6.
        spec = MultisetSpec(m=(3, 1, 2), k=3)
        assert len(brute_force(spec)) == 6
        assert count_inclusion_exclusion(spec) == 6

    def test_worked_example_term_structure(self):
        # 70 - (15+15+15+5+5) + (1+1+1) = 18
        terms = inclusion_exclusion_terms(MultisetSpec(m=(1, 2, 2, 1, 1), k=4))
        by_size: dict[int, list[tuple[tuple[int, ...], int]]] = {}
        for subset, value in terms:
            by_size.setdefault(len(subset), []).append((subset, value))
        assert by_size[0] == [((), 70)]
        singles = {subset[0]: value for subset, value in by_size[1]}
        assert singles == {1: -15, 2: -5, 3: -5, 4: -15, 5: -15}
        pairs = {subset: value for subset, value in by_size[2]}
        assert pairs == {(1, 4): 1, (1, 5): 1, (4, 5): 1}
        assert 3 not in by_size
        assert sum(value for _, value in terms) == 18

    def test_subset_limit(self):
        with pytest.raises(OracleLimitError, match="count_dp"):
            count_inclusion_exclusion(MultisetSpec(m=(1,) * 30, k=2))


class TestCountDp:
    def test_worked_example(self):
        assert count_dp(MultisetSpec(m=(1, 2, 2, 1, 1), k=4)) == 18

    def test_k_zero_always_one(self):
        for m in [(1,), (3, 1), (2, 2, 2)]:
            assert count_dp(MultisetSpec(m=m, k=0)) == 1

    def test_two_boxes(self):
        assert count_dp(MultisetSpec(m=(2, 2), k=2)) == 3

    def test_cell_limit(self, monkeypatch):
        # The table has n*(k+1) cells: 3*4 = 12 fits a limit of 12, 3*5 does not.
        monkeypatch.setattr("msetgray.counting.DP_CELL_LIMIT", 12)
        assert count_dp(MultisetSpec(m=(2, 2, 2), k=3)) == 7
        with pytest.raises(OracleLimitError, match="count_inclusion_exclusion"):
            count_dp(MultisetSpec(m=(2, 2, 2), k=4))

    def test_cell_limit_refuses_before_allocating(self):
        # A k past any list's size is refused, not an OverflowError.
        with pytest.raises(OracleLimitError, match=r"n\*\(k\+1\) <= 4000000"):
            count_dp(MultisetSpec(m=(10**300,) * 24, k=10**200))

    def test_cell_limit_spares_every_brute_force_spec(self):
        # Under BRUTE_FORCE_LIMIT, sum(m) is largest when all but one
        # multiplicity is 1, so verify never reaches the dp limit.
        worst = max(
            n * ((BRUTE_FORCE_LIMIT >> (n - 1)) + n - 1)
            for n in range(1, BRUTE_FORCE_LIMIT.bit_length())
        )
        assert worst == 2_000_002 <= DP_CELL_LIMIT


def test_counters_agree_with_enumeration():
    rng = random.Random(5)
    for _ in range(150):
        n = rng.randint(1, 6)
        m = tuple(rng.randint(1, 4) for _ in range(n))
        k = rng.randint(0, sum(m))
        spec = MultisetSpec(m=m, k=k)
        expected = len(brute_force(spec))
        assert count_inclusion_exclusion(spec) == expected, spec
        assert count_dp(spec) == expected, spec


def test_all_multiplicities_one_gives_binomial():
    from math import comb

    for n in range(1, 25):
        for k in range(0, n + 1):
            spec = MultisetSpec(m=(1,) * n, k=k)
            assert count_dp(spec) == comb(n, k)
            assert count_inclusion_exclusion(spec) == comb(n, k)


def test_all_multiplicities_k_gives_closure():
    for n in range(1, 25):
        for k in range(1, 6):
            spec = MultisetSpec(m=(k,) * n, k=k)
            assert count_dp(spec) == count_closure(n, k)
            assert count_inclusion_exclusion(spec) == count_closure(n, k)


def test_dp_large_instances_match_closed_forms():
    # Large n and k, with windows up to k wide: plain subsets give C(n, k),
    # boxes as deep as k the closure count, and boxes one short of k lose
    # the n vectors that put all k units in a single box.
    from math import comb

    for k in (0, 1, 137, 200, 399, 400):
        assert count_dp(MultisetSpec(m=(1,) * 400, k=k)) == comb(400, k)
    assert count_dp(MultisetSpec(m=(300,) * 200, k=300)) == count_closure(200, 300)
    assert count_dp(MultisetSpec(m=(299,) * 200, k=300)) == count_closure(200, 300) - 200


def test_exact_arithmetic_beyond_word_size():
    big = MultisetSpec(m=(3,) * 60, k=90)
    assert count_dp(big) > 2**64
    mid = MultisetSpec(m=(9,) * 16, k=72)
    assert count_dp(mid) == count_inclusion_exclusion(mid)
    # At the subset limit, n = 24: equal boxes, and boxes 1..24 whose
    # subset sums mostly differ.
    for m, k in (((3,) * 24, 36), (tuple(range(1, 25)), 150)):
        spec = MultisetSpec(m=m, k=k)
        assert count_dp(spec) == count_inclusion_exclusion(spec), spec


def test_inclusion_exclusion_past_dp_limit():
    # 24 equal boxes of 20,000 with k = 240,000: dp's table would pass its
    # cap, and j boxes over capacity leave k' = k - 20001*j.
    from math import comb

    spec = MultisetSpec(m=(20_000,) * 24, k=240_000)
    with pytest.raises(OracleLimitError):
        count_dp(spec)
    expected = sum(
        (-1) ** j * comb(24, j) * comb(23 + 240_000 - 20_001 * j, 23)
        for j in range(240_000 // 20_001 + 1)
    )
    assert count_inclusion_exclusion(spec) == expected
