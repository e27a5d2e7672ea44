"""Tests of the benchmark's own checkers (they must reject bad output).

    python3 -m pytest perfbench/test_oracles.py
"""

import itertools

import pytest

from oracles import (
    CheckFailed,
    ContainerWalk,
    check_adjacent_sequence,
    check_delta_sequence,
    check_lex_sequence,
    count,
    count_prefix_sum,
    count_uniform,
    first_vector,
)

TINY = [
    (m, k)
    for n in range(1, 5)
    for m in itertools.product((1, 2, 3), repeat=n)
    for k in range(sum(m) + 1)
]


def brute_force(m, k):
    return [v for v in itertools.product(*(range(x + 1) for x in m)) if sum(v) == k]


# m = (1, 2, 1), k = 2: four objects, listed in an adjacent order.
M, K = (1, 2, 1), 2
ADJACENT = [(0, 1, 1), (0, 2, 0), (1, 1, 0), (1, 0, 1)]
DELTAS = [(2, 3), (1, 2), (3, 2)]
LEX = sorted(ADJACENT)


def test_counts_match_brute_force():
    for m, k in TINY:
        expected = len(brute_force(m, k))
        assert count_prefix_sum(m, k) == expected, (m, k)
        assert count(m, k) == expected, (m, k)


@pytest.mark.parametrize("n, mult", [(1, 1), (3, 1), (4, 2), (5, 3), (3, 6)])
def test_closed_form_matches_brute_force(n, mult):
    for k in range(n * mult + 1):
        assert count_uniform(n, mult, k) == len(brute_force((mult,) * n, k)), k


def test_first_vector_is_lexicographically_smallest():
    for m, k in TINY:
        assert first_vector(m, k) == brute_force(m, k)[0], (m, k)


def test_accepts_complete_orders():
    check_adjacent_sequence(M, K, ADJACENT)
    check_delta_sequence(M, K, DELTAS)
    check_lex_sequence(M, K, LEX)


def test_rejects_two_rows_swapped():
    swapped = [ADJACENT[0], ADJACENT[2], ADJACENT[1], ADJACENT[3]]
    with pytest.raises(CheckFailed, match="positions changed|not one"):
        check_adjacent_sequence(M, K, swapped)
    with pytest.raises(CheckFailed, match="lexicographic order"):
        check_lex_sequence(M, K, [LEX[0], LEX[2], LEX[1], LEX[3]])


def test_rejects_row_repeated_or_changed_in_one_place():
    with pytest.raises(CheckFailed, match="0 positions changed"):
        check_adjacent_sequence(M, K, [ADJACENT[0], ADJACENT[0]] + ADJACENT[1:])
    with pytest.raises(CheckFailed, match="1 positions changed"):
        check_adjacent_sequence(M, K, [ADJACENT[0], (0, 1, 0)])


@pytest.mark.parametrize("dropped", range(4))
def test_rejects_one_row_dropped(dropped):
    with pytest.raises(CheckFailed):
        check_adjacent_sequence(M, K, ADJACENT[:dropped] + ADJACENT[dropped + 1 :])
    with pytest.raises(CheckFailed, match="expected 4"):
        check_lex_sequence(M, K, LEX[:dropped] + LEX[dropped + 1 :])


def test_rejects_one_delta_dropped():
    with pytest.raises(CheckFailed, match="expected 4"):
        check_delta_sequence(M, K, DELTAS[:-1])


def test_rejects_delta_outside_bounds():
    # From (0, 2, 0): position 2 is at m = 2, position 1 holds nothing.
    with pytest.raises(CheckFailed, match="exceed"):
        check_delta_sequence(M, K, [(2, 3), (2, 1)])
    with pytest.raises(CheckFailed, match="below 0"):
        check_delta_sequence(M, K, [(2, 3), (3, 1)])
    with pytest.raises(CheckFailed, match="bad positions"):
        check_delta_sequence(M, K, [(4, 3)])


def test_rejects_repeated_object():
    with pytest.raises(CheckFailed, match="repeated"):
        check_delta_sequence(M, K, [(2, 3), (3, 2), (1, 2)])


def test_container_walk_rejects_two_cell_rewrite():
    walk = ContainerWalk(M, (0, 1, 1), (2, 3))
    walk.step((2, 2))  # (0, 2, 0): one cell rewritten
    with pytest.raises(CheckFailed, match="rewrote 2 cells"):
        walk.step((1, 1))  # (2, 0, 0) is not even an object; two cells moved


def test_times_are_scaled_by_round_slowness():
    """A round run at half speed reads as one run at the reference speed;
    an interrupted reference pass (the slowest tenth) is left out."""
    from hostspeed import NOMINAL_S, slowness
    from workloads import Round, end_to_end

    assert slowness([NOMINAL_S] * 9 + [10 * NOMINAL_S]) == pytest.approx(1.0)
    half = Round(setup_s=0.2, busy_s=2.0, ops=100, rows=100, rows_s=2.0,
                 samples=[0.02] * 100, ref_s=[2 * NOMINAL_S] * 10)
    full = Round(setup_s=0.1, busy_s=1.0, ops=100, rows=100, rows_s=1.0,
                 samples=[0.01] * 100, ref_s=[NOMINAL_S] * 10)
    scaled = end_to_end([half, full], 1.0)
    assert scaled["setup_s"][0] == pytest.approx(0.1)
    assert scaled["ops_per_s"][0] == pytest.approx(100)
    assert scaled["rows_per_s"][0] == pytest.approx(100)
    assert scaled["op_us_p50"][0] == pytest.approx(1e4)
    raw = end_to_end([half, full], 1.0, scaled=False)
    assert raw["ops_per_s"][0] == pytest.approx(200 / 3)
    assert raw["setup_s"][0] == pytest.approx(0.15)
