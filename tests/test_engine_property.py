"""Shrinking property test: the engine against the twisted tree's leaves.

Specs are drawn by hypothesis (derandomized, so every run draws the same
ones); a failure shrinks to a smallest spec that still fails.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from msetgray import (
    EngineError,
    GrayEngine,
    MultisetSpec,
    ParityMode,
    build_lexico_tree,
    leaf_sequence,
    twist,
)


@st.composite
def specs(draw, max_n=9, max_m=3):
    m = tuple(draw(st.lists(st.integers(1, max_m), min_size=1, max_size=max_n)))
    return MultisetSpec(m=m, k=draw(st.integers(0, sum(m))))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(specs())
def test_engine_emits_a_prefix_of_the_twisted_leaves(spec):
    # The run completes with every leaf, or stops early with EngineError;
    # either way no object it emits is wrong.
    leaves = leaf_sequence(twist(build_lexico_tree(spec), ParityMode.SKIP_SINGLE_CHILD))
    emitted = []
    try:
        for vec in GrayEngine(spec).iter_vectors():
            emitted.append(vec)
    except EngineError:
        assert emitted == leaves[: len(emitted)]
    else:
        assert emitted == leaves
