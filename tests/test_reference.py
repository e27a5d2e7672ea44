import itertools
import random

import pytest

from msetgray import (
    MultisetSpec,
    OracleLimitError,
    ParityMode,
    brute_force,
    build_lexico_tree,
    count_inclusion_exclusion,
    gray_generate_recursive,
    is_adjacent,
    leaf_sequence,
    lex_generate,
    twist,
)

from example_data import EXAMPLE_SPEC, LEX_TABLE, RECURSIVE_SEQUENCE


class TestBruteForce:
    def test_worked_example_bounds(self):
        out = brute_force(EXAMPLE_SPEC)
        assert len(out) == 18
        assert out[0] == (0, 0, 2, 1, 1)
        assert out[-1] == (1, 2, 1, 0, 0)

    def test_forced_instance(self):
        assert brute_force(MultisetSpec(m=(1, 1, 1), k=3)) == [(1, 1, 1)]

    def test_two_boxes(self):
        assert brute_force(MultisetSpec(m=(2, 2), k=2)) == [(0, 2), (1, 1), (2, 0)]

    def test_limit_enforced(self, monkeypatch):
        monkeypatch.setattr("msetgray.reference.BRUTE_FORCE_LIMIT", 1000)
        with pytest.raises(OracleLimitError):
            brute_force(MultisetSpec(m=(9,) * 12, k=5))


class TestLexGenerate:
    def test_worked_example_table(self):
        assert lex_generate(EXAMPLE_SPEC) == [vec for vec, _ in LEX_TABLE]

    def test_single_box(self):
        assert lex_generate(MultisetSpec(m=(4,), k=4)) == [(4,)]

    def test_two_boxes(self):
        assert lex_generate(MultisetSpec(m=(2, 2), k=2)) == [(0, 2), (1, 1), (2, 0)]

    def test_equals_brute_force_randomized(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = tuple(rng.randint(1, 4) for _ in range(n))
            spec = MultisetSpec(m=m, k=rng.randint(0, sum(m)))
            assert lex_generate(spec) == brute_force(spec), spec


class TestGrayRecursive:
    def test_two_boxes(self):
        assert gray_generate_recursive(MultisetSpec(m=(2, 2), k=2)) == [
            (0, 2),
            (1, 1),
            (2, 0),
        ]

    def test_single_object(self):
        assert gray_generate_recursive(MultisetSpec(m=(1, 1), k=2)) == [(1, 1)]

    def test_worked_example_golden(self):
        assert gray_generate_recursive(EXAMPLE_SPEC) == RECURSIVE_SEQUENCE

    def test_starts_at_smallest(self):
        out = gray_generate_recursive(EXAMPLE_SPEC)
        assert out[0] == (0, 0, 2, 1, 1)

    def test_permutation_and_adjacency_randomized(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 6)
            m = tuple(rng.randint(1, 4) for _ in range(n))
            spec = MultisetSpec(m=m, k=rng.randint(0, sum(m)))
            seq = gray_generate_recursive(spec)
            assert sorted(seq) == lex_generate(spec), spec
            assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:])), spec


def test_generator_lengths_match_count():
    for n in range(1, 4):
        for m in itertools.product(range(1, 4), repeat=n):
            for k in range(0, sum(m) + 1):
                spec = MultisetSpec(m=m, k=k)
                expected = count_inclusion_exclusion(spec)
                assert len(lex_generate(spec)) == expected
                assert len(gray_generate_recursive(spec)) == expected


def test_every_emitted_vector_is_valid():
    from msetgray import validate_vector

    spec = MultisetSpec(m=(3, 1, 2, 2), k=4)
    for vec in gray_generate_recursive(spec):
        validate_vector(spec, vec)


def small_specs(max_n=4):
    for n in range(1, max_n + 1):
        for m in itertools.product((1, 2, 3), repeat=n):
            for k in range(sum(m) + 1):
                yield MultisetSpec(m=m, k=k)


def test_both_orders_exhaustive():
    # Every m in {1,2,3}^n, n <= 4, every k: n = 1, k = 0 and k = sum(m)
    # reach the last level straight from the first call.
    for spec in small_specs():
        assert lex_generate(spec) == brute_force(spec), spec
        tree = twist(build_lexico_tree(spec), ParityMode.GLOBAL)
        assert gray_generate_recursive(spec) == leaf_sequence(tree), spec
