"""Adjacent (Gray) enumeration of bounded multiset combinations.

Objects are count vectors (a[1], ..., a[n]) with sum k and a[i] <= m[i];
consecutive outputs differ at exactly two positions, by +1 and -1.  The
loopless engine produces each successive object in worst-case constant
time; recursive generators, exact counters, explicit tree models and an
in-place container representation cross-verify it and each other.
"""

from .core import (
    InvalidSpecError,
    MultisetSpec,
    OracleLimitError,
    TransitionDelta,
    apply_delta,
    first_combination,
    is_adjacent,
    last_combination,
    to_inplace,
    validate,
    validate_vector,
)
from .counting import (
    count_closure,
    count_dp,
    count_inclusion_exclusion,
    inclusion_exclusion_terms,
)
from .engine import (
    EngineError,
    EngineExhausted,
    GrayEngine,
    counted_advance,
    generate,
)
from .inplace import ContainerState, apply_move, init_container, iter_with_container
from .reference import brute_force, gray_generate_recursive, lex_generate
from .treemodel import (
    LexTreeNode,
    ParityMode,
    build_lexico_tree,
    export_dot,
    leaf_sequence,
    twist,
)
from .verify import run_spec_checks

__version__ = "0.1.0"

__all__ = [
    "ContainerState",
    "EngineError",
    "EngineExhausted",
    "GrayEngine",
    "InvalidSpecError",
    "LexTreeNode",
    "MultisetSpec",
    "OracleLimitError",
    "ParityMode",
    "TransitionDelta",
    "apply_delta",
    "apply_move",
    "brute_force",
    "build_lexico_tree",
    "count_closure",
    "counted_advance",
    "count_dp",
    "count_inclusion_exclusion",
    "export_dot",
    "first_combination",
    "generate",
    "gray_generate_recursive",
    "init_container",
    "inclusion_exclusion_terms",
    "is_adjacent",
    "iter_with_container",
    "last_combination",
    "leaf_sequence",
    "lex_generate",
    "run_spec_checks",
    "to_inplace",
    "twist",
    "validate",
    "validate_vector",
]
