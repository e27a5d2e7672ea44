"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they pass; on failure the line is printed before the assertion detail.
"""

import functools
import time

from msetgray import (
    GrayEngine,
    MultisetSpec,
    ParityMode,
    TransitionDelta,
    apply_move,
    brute_force,
    build_lexico_tree,
    count_closure,
    count_dp,
    counted_advance,
    count_inclusion_exclusion,
    generate,
    gray_generate_recursive,
    inclusion_exclusion_terms,
    init_container,
    is_adjacent,
    leaf_sequence,
    lex_generate,
    to_inplace,
    twist,
)
from msetgray.cli import main as cli_main
from msetgray.verify import iter_random_specs

from example_data import EXAMPLE_SPEC, LEX_TABLE, OPCODE_CEILING


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"ACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return decorate


def _suite_specs():
    """Randomized suite shared by criteria 4, 6 and 7, plus the two
    structured families (plain combinations and compositions)."""
    specs = list(iter_random_specs(200, max_n=6, max_m=4, seed=20260811))
    for n in range(1, 8):
        for k in range(0, n + 1):
            specs.append(MultisetSpec(m=(1,) * n, k=k))
    for k in range(1, 5):
        for n in range(1, 6):
            specs.append(MultisetSpec(m=(k,) * n, k=k))
    return specs


SUITE = _suite_specs()


@criterion(1, "worked 18-row table, library and CLI, both forms")
def test_criterion_1_table_reproduction(capsys):
    start = time.perf_counter()
    expected_vectors = [vec for vec, _ in LEX_TABLE]
    expected_inplace = [ip for _, ip in LEX_TABLE]

    assert lex_generate(EXAMPLE_SPEC) == expected_vectors
    assert [to_inplace(EXAMPLE_SPEC, v) for v in expected_vectors] == expected_inplace

    code = cli_main(["enumerate", "--m", "1,2,2,1,1", "--k", "4", "--order", "lex"])
    out_vec = capsys.readouterr().out
    assert code == 0
    assert out_vec.splitlines() == [" ".join(map(str, v)) for v in expected_vectors]

    code = cli_main(
        ["enumerate", "--m", "1,2,2,1,1", "--k", "4", "--order", "lex", "--form", "inplace"]
    )
    out_ip = capsys.readouterr().out
    assert code == 0
    assert out_ip.splitlines() == [" ".join(map(str, v)) for v in expected_inplace]
    assert time.perf_counter() - start < 1.0


@criterion(2, "count 18 by inclusion-exclusion with 70 - 55 + 3 structure")
def test_criterion_2_counting_reproduction():
    start = time.perf_counter()
    assert count_inclusion_exclusion(EXAMPLE_SPEC) == 18
    assert count_closure(5, 4) == 70

    terms = inclusion_exclusion_terms(EXAMPLE_SPEC)
    by_size: dict[int, list[int]] = {}
    for subset, value in terms:
        by_size.setdefault(len(subset), []).append(value)
    assert by_size[0] == [70]
    assert sorted(by_size[1]) == [-15, -15, -15, -5, -5]
    assert by_size[2] == [1, 1, 1]
    assert 3 not in by_size
    assert sum(sum(v) for v in by_size.values()) == 18
    assert time.perf_counter() - start < 1.0


@criterion(3, "first transition: vector, container, dest/source")
def test_criterion_3_first_transition():
    eng = GrayEngine(EXAMPLE_SPEC)
    assert eng.current() == (0, 0, 2, 1, 1)
    state = init_container(EXAMPLE_SPEC, eng.current())
    assert state.cells() == (3, 3, 4, 5)

    delta = eng.advance()
    assert delta == TransitionDelta(inc=2, dec=5)
    assert eng.current() == (0, 1, 2, 1, 0)

    dest, source, pos = apply_move(state, delta)
    assert (dest, source, pos) == (2, 5, 4)
    assert state.cells() == (3, 3, 4, 2)


@criterion(4, "adjacency/permutation/count over randomized suite and families")
def test_criterion_4_gray_property_suite():
    start = time.perf_counter()
    assert len(SUITE) >= 200
    for spec in SUITE:
        reference = brute_force(spec)
        expected = count_dp(spec)
        assert len(reference) == expected, spec
        for seq in (gray_generate_recursive(spec), generate(spec)):
            assert sorted(seq) == reference, spec
            assert len(seq) == expected, spec
            assert all(is_adjacent(x, y) for x, y in zip(seq, seq[1:])), spec
    assert time.perf_counter() - start < 60.0


@criterion(5, "per-step bytecode count under one frozen ceiling for n = 10, 100, 1000")
def test_criterion_5_looplessness():
    maxima = {}
    for n in (10, 100, 1000):
        # The same step budget at every n: the count a step executes must
        # not grow with n, k or m (their full runs are far longer).
        eng = GrayEngine(MultisetSpec(m=(3,) * n, k=(3 * n) // 2))
        maxima[n] = max(counted_advance(eng)[1] for _ in range(10_000))
    measured = (
        f"measured maxima {maxima}, OPCODE_CEILING {OPCODE_CEILING} "
        "(frozen for CPython 3.11; bytecode differs between versions)"
    )
    assert all(mx <= OPCODE_CEILING for mx in maxima.values()), measured
    assert max(maxima.values()) == OPCODE_CEILING, measured


@criterion(6, "tree leaves: untwisted = lex order, twisted = engine order")
def test_criterion_6_tree_agreement():
    for spec in SUITE:
        tree = build_lexico_tree(spec)
        lex = lex_generate(spec)
        assert leaf_sequence(tree) == lex, spec  # 6a

        twisted_leaves = leaf_sequence(twist(tree, ParityMode.SKIP_SINGLE_CHILD))
        assert sorted(twisted_leaves) == lex, spec
        assert all(
            is_adjacent(x, y) for x, y in zip(twisted_leaves, twisted_leaves[1:])
        ), spec
        assert twisted_leaves == generate(spec), spec  # 6b holds as equality


@criterion(7, "container sweep: sorted cells track the vector, one cell per step")
def test_criterion_7_inplace_sweep():
    for spec in SUITE:
        eng = GrayEngine(spec)
        state = init_container(spec, eng.current())
        while True:
            before = state.cells()
            delta = eng.advance()
            if delta is None:
                break
            apply_move(state, delta)
            after = state.cells()
            assert sum(1 for x, y in zip(before, after) if x != y) == 1, spec
            assert tuple(sorted(after)) == to_inplace(spec, eng.current()), spec


@criterion(8, "degenerate specs emit exactly one object, zero deltas")
def test_criterion_8_degenerate_coverage():
    degenerate = [
        MultisetSpec(m=(2, 3, 1), k=0),  # k = 0
        MultisetSpec(m=(2, 3, 1), k=6),  # k = sum(m)
        MultisetSpec(m=(4,), k=2),  # n = 1
        MultisetSpec(m=(1, 1), k=2),  # forced chain
        MultisetSpec(m=(1,), k=0),
        MultisetSpec(m=(1,), k=1),
    ]
    for spec in degenerate:
        only = brute_force(spec)
        assert len(only) == 1, spec
        assert lex_generate(spec) == only, spec
        assert gray_generate_recursive(spec) == only, spec
        assert generate(spec) == only, spec
        assert len(leaf_sequence(build_lexico_tree(spec))) == 1, spec

        eng = GrayEngine(spec)
        assert eng.current() == only[0], spec
        assert eng.advance() is None, spec
        assert eng.finished, spec
