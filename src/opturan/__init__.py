"""Exact enumeration toolkit for subgraph maximization in outerplanar
graphs: cycle densities from an exact recursion, triangulation sweeps with
brute-force oracles, bounded-degree tree machinery, digit-rule path
families, and a verification CLI tying them together.
"""

from .exactmath import (
    catalan,
    cycle_density,
    density_lower_exact,
    fixed_vertex_subtree_count,
    path_count_bounds,
    rational_from_json,
    rational_to_json,
    subtree_density,
    subtree_profile_table,
)
from .graph_core import (
    CrossingChords,
    DuplicateChord,
    Graph,
    InvalidChord,
    Mop,
    MopError,
    WrongChordCount,
    canonical_chords,
    count_cycles,
    count_paths,
    count_paths_between,
    enumerate_mop_orbits,
    enumerate_mops,
    fan,
    fan_path_count,
    star_blowup,
    subgraph_count,
    triple_fan,
)
from .guards import ScaleLimitError
from .numeral_paths import (
    StepSchedule,
    admissible_pairs,
    count_schedules,
    count_schedules_with_multiplicities,
    enumerate_schedules,
    numeral_graph,
    schedule_count_lower_bound_exact,
    schedule_to_path,
)
from .extremal_search import (
    NOT_COVERED,
    ExtremalResult,
    Pattern,
    VerificationReport,
    brute_force_maximum,
    closed_form_maximum,
    max_fixed_endpoint_paths,
    suite_names,
    triple_fan_comparison,
    verify_suite,
)
from .tree_engine import (
    Tree,
    count_subtrees,
    count_subtrees_all,
    count_subtrees_total,
    cycle_subtree_counts,
    enumerate_bounded_trees,
    greedy_tree,
    tree_canonical_form,
    weak_dual,
)

__version__ = "0.1.0"
