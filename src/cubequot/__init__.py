"""Normal quotients of hypercubes and their verification toolkit."""

from .cube_symmetry import (
    INFINITY,
    BitVector,
    CubeAutomorphism,
    CubeGroup,
    Permutation,
    act,
    conjugate_group,
    element_min_distance,
    format_group_text,
    generate_group,
    intersect_even,
    is_even,
    is_semiregular,
    min_distance,
    normalizer,
    parse_group_file,
    parse_group_text,
)
from .covering import CoveringMap, deck_group, lift_covering, verify_covering
from .graph_core import (
    UNDEFINED,
    VACUOUS,
    LocalParams,
    SimpleGraph,
    bipartite_double,
    bipartite_parts,
    distance2_graph,
    halved_graphs,
    is_locally,
    is_locally_triangular,
    is_rectagraph,
    local_params,
    triangular_graph,
    triangular_labels,
)
from .iso_aut import (
    PermGroupOnGraph,
    are_isomorphic,
    automorphism_group,
    is_vertex_transitive,
    verify_isomorphism,
)
from .quotient import QuotientGraph, build_quotient, natural_covering, natural_map, sphere
from .verify import (
    ClaimReport,
    check_even_lemma,
    check_halved_iso,
    check_main_even,
    check_theorem_class_dist,
    run_all,
    run_claim,
    run_example,
)

__all__ = [name for name in dir() if not name.startswith("_")]
