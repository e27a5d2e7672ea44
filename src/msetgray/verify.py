"""Cross-oracle verification: every generator checked against every other.

For one spec the suite runs the brute-force, lexicographic, recursive
adjacent, and loopless generators plus both counters, the tree models and
the in-place container, then checks the full consistency web.  Mandatory
checks decide pass/fail; informational comparisons (whether the two
adjacent orders coincide, tree/generator sequence identities) are
reported but do not gate.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from itertools import islice
from operator import ne

from .core import (
    MultisetSpec,
    first_combination,
    is_adjacent,
    to_inplace,
)
from .counting import count_dp, count_inclusion_exclusion
from .engine import EngineError, GrayEngine
from .inplace import apply_move, init_container
from .reference import brute_force, gray_generate_recursive, lex_generate
from .treemodel import ParityMode, build_lexico_tree, leaf_sequence, twist


CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class SpecReport:
    def __init__(self, spec: MultisetSpec) -> None:
        self.spec = spec
        self.checks: list[CheckResult] = []
        self.info: dict[str, bool] = {}

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def first_failure(self) -> CheckResult | None:
        return next((c for c in self.checks if not c.passed), None)


def _order_checks(
    seq: list[tuple[int, ...]], lex: list[tuple[int, ...]], permutation: str, adjacent: str,
    same: tuple[CheckResult, CheckResult] | None = None,
) -> tuple[CheckResult, CheckResult]:
    """Whether ``seq`` reorders ``lex``, and whether each of its steps is
    adjacent (the detail names the first pair that is not).  ``same`` are
    the two checks of a sequence equal to ``seq``: their results and
    details hold for ``seq`` too, so they are taken under these names."""
    if same is not None:
        return same[0]._replace(name=permutation), same[1]._replace(name=adjacent)
    steps = list(map(is_adjacent, seq, islice(seq, 1, None)))
    bad = steps.index(False) if False in steps else None
    return (
        CheckResult(permutation, sorted(seq) == lex),
        CheckResult(adjacent, bad is None, "" if bad is None else f"pair at index {bad}"),
    )


def run_spec_checks(spec: MultisetSpec) -> SpecReport:
    """Run the full cross-oracle suite on one spec.

    An engine fault is raised, not reported: EngineError from the engine
    itself, or from the prefix-sum check below, which names the spec, the
    step index, the level and both sums.
    """
    report = SpecReport(spec=spec)
    add, extend = report.checks.append, report.checks.extend

    reference = brute_force(spec)
    lex = lex_generate(spec)
    add(CheckResult("lex_equals_brute_force", lex == reference))

    n_objects = len(reference)
    ie = count_inclusion_exclusion(spec)
    dp = count_dp(spec)
    add(
        CheckResult(
            "counts_agree",
            ie == dp == n_objects,
            f"ie={ie} dp={dp} enumerated={n_objects}",
        )
    )

    recursive = gray_generate_recursive(spec)
    recursive_checks = _order_checks(
        recursive, lex, "recursive_is_permutation", "recursive_adjacent"
    )
    extend(recursive_checks)

    # Engine run with a synchronized container sweep.  Before each step,
    # the sum kept at its focus, the lower of its two positions (the partner
    # lies below), must equal a[1] + ... + a[i-1] of the object it leaves.
    eng = GrayEngine(spec)
    current = eng.current
    state = init_container(spec, current())
    cells = state.cells
    engine_seq = [current()]
    before = cells()
    sums = eng.sum
    in_place_failure = one_cell_failure = ""  # each container check's first failure
    for delta in eng._pairs:
        level = min(delta)
        kept, actual = sums[level - 1], sum(engine_seq[-1][: level - 1])
        if kept != actual:
            raise EngineError(
                f"m={spec.m} k={spec.k} step {len(engine_seq) - 1}: level {level} "
                f"keeps sum[{level}]={kept}, but a[1]+...+a[{level - 1}]={actual}"
            )
        sums = eng.sum
        apply_move(state, delta)
        after = cells()
        engine_seq.append(current())
        if sum(map(ne, before, after)) != 1 and not one_cell_failure:
            one_cell_failure = f"step {len(engine_seq) - 1}: {before} -> {after}"
        if tuple(sorted(after)) != to_inplace(spec, engine_seq[-1]) and not in_place_failure:
            in_place_failure = f"step {len(engine_seq) - 1}: sorted({after}) != in-place form"
        before = after

    deltas = len(engine_seq) - 1
    add(CheckResult("engine_first_is_smallest", engine_seq[0] == first_combination(spec)[0]))
    # An order equal to one checked before takes its checks: each is checked once.
    engine_equals_recursive = engine_seq == recursive
    engine_checks = _order_checks(
        engine_seq, lex, "engine_is_permutation", "engine_adjacent",
        recursive_checks if engine_equals_recursive else None,
    )
    extend(engine_checks)
    add(CheckResult("engine_delta_count", deltas == n_objects - 1, f"{deltas} deltas"))
    add(CheckResult("container_matches_vector", not in_place_failure, in_place_failure))
    add(CheckResult("container_single_cell_steps", not one_cell_failure, one_cell_failure))

    tree = build_lexico_tree(spec)
    add(CheckResult("tree_leaves_lexicographic", leaf_sequence(tree) == lex))
    skip_leaves = leaf_sequence(twist(tree, ParityMode.SKIP_SINGLE_CHILD))
    twisted_equals_engine = skip_leaves == engine_seq
    extend(
        _order_checks(
            skip_leaves, lex, "twisted_leaves_permutation", "twisted_leaves_adjacent",
            engine_checks if twisted_equals_engine else None,
        )
    )

    global_leaves = leaf_sequence(tree, ParityMode.GLOBAL)  # read without a twisted copy
    report.info["engine_equals_recursive"] = engine_equals_recursive
    report.info["twisted_tree_equals_engine"] = twisted_equals_engine
    report.info["global_tree_equals_recursive"] = global_leaves == recursive
    return report


def random_spec(rng, max_n: int, max_m: int) -> MultisetSpec:
    """Uniform small instance: n in 1..max_n, m[i] in 1..max_m, any feasible k."""
    n = rng.randint(1, max_n)
    m = tuple(rng.randint(1, max_m) for _ in range(n))
    return MultisetSpec(m=m, k=rng.randint(0, sum(m)))


def iter_random_specs(
    count: int, max_n: int, max_m: int, seed: int
) -> Iterator[MultisetSpec]:
    import random  # on the first draw, not with the package

    rng = random.Random(seed)
    for _ in range(count):
        yield random_spec(rng, max_n, max_m)
