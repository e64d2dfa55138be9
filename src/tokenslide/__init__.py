"""Shortest token-sliding reconfiguration of dominating and hitting sets
on trees and interval graphs, with matching-based optimality certificates."""

from .errors import (
    FeasibilityError,
    InputError,
    InvariantError,
    MatchingError,
    ParseError,
    SizeMismatchError,
    StateCapExceeded,
)
from .graphs import (
    UNREACHABLE,
    Graph,
    RootedTree,
    SetSystem,
    closed_neighborhood_system,
    distances_from,
    is_dominating,
    is_hitting,
    succ_set,
)
from .instances import Instance, emit_instance, parse_instance
from .interval_reconfig import find_greedy_move, fix_matching, reconf_interval
from .intervals import (
    IntervalRepresentation,
    Relation,
    check_shortest_path_structure,
    classify_relation,
    intersection_graph,
    normalize_representation,
)
from .matching import (
    Matching,
    brute_force_matching,
    fast_match_intervals,
    matching_cost,
    min_cost_matching,
    normalize_matching,
    rematch_after_slide,
)
from .moves import MoveSequence
from .multiset import TokenMultiset
from .oracle import (
    DEFAULT_STATE_CAP,
    VerifyResult,
    dominating_predicate,
    hitting_predicate,
    independent_set_predicate,
    reconfig_distance_bfs,
    verify_sequence,
)
from .tree_reconfig import reconf_tree, reconf_tree_dominating

__all__ = [
    "DEFAULT_STATE_CAP",
    "FeasibilityError",
    "Graph",
    "InputError",
    "Instance",
    "IntervalRepresentation",
    "InvariantError",
    "Matching",
    "MatchingError",
    "MoveSequence",
    "ParseError",
    "Relation",
    "RootedTree",
    "SetSystem",
    "SizeMismatchError",
    "StateCapExceeded",
    "TokenMultiset",
    "UNREACHABLE",
    "VerifyResult",
    "brute_force_matching",
    "check_shortest_path_structure",
    "classify_relation",
    "closed_neighborhood_system",
    "distances_from",
    "dominating_predicate",
    "emit_instance",
    "fast_match_intervals",
    "find_greedy_move",
    "fix_matching",
    "hitting_predicate",
    "independent_set_predicate",
    "intersection_graph",
    "is_dominating",
    "is_hitting",
    "matching_cost",
    "min_cost_matching",
    "normalize_matching",
    "normalize_representation",
    "parse_instance",
    "reconf_interval",
    "reconf_tree",
    "reconf_tree_dominating",
    "reconfig_distance_bfs",
    "rematch_after_slide",
    "succ_set",
    "verify_sequence",
]
