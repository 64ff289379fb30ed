"""Exact verification of the five equivalent characterizations of Hultman
elements (chamber counts, Bruhat-graph distances, pseudo-inclusions,
relaxed right hulls, BP pattern avoidance) in types A and B."""

from .groups import (
    Element,
    GroupContext,
    absolute_length,
    compose,
    context,
    coxeter_length,
    element_from_signed,
    format_window,
    inverse,
    is_type_b_window,
    parse_element,
    signed_window,
)
from .bruhat import (
    BruhatGraph,
    bruhat_graph,
    bruhat_leq,
    coessential_boxes,
    interval_size,
)
from .diagrams import (
    defined_by_inclusions_mask,
    hull_bounds,
    hull_relaxed_counterexample,
    is_defined_by_inclusions,
    is_defined_by_pseudo_inclusions,
    reduced_coessential,
    right_hull_counterexample,
)
from .patterns import (
    ParabolicEmbedding,
    avoids_condition5_list,
    bp_contains,
    classical_contains,
    condition5_matches,
    condition5_patterns,
    flatten,
)
from .arrangements import (
    Hyperplane,
    chamber_count,
    inversion_reflections,
)
from .classify import (
    ClassificationReport,
    classify,
    find_minimal_non_hultman,
    verify_equivalence,
    witness_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
