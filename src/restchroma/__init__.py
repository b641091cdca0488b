"""restchroma: exact restrained chromatic polynomials and extremal restraints."""

from .engine import (
    CoefficientBreakdown,
    MemoCache,
    coeff_n1,
    coeff_n2,
    coeff_n3,
    common_neighbor_overlap,
    count_colourings,
    dominance_key,
    restrained_poly,
    shared_pair_overlap,
)
from .extremal import (
    ExtremalReport,
    VerifyReport,
    check_conjecture,
    conjectured_odd_cycle_restraint,
    find_extremal,
    load_or_compute_extremal,
    verify_a7_condition,
    verify_bipartite_max,
    verify_min_theorem,
    verify_properness,
)
from .graphs import (
    CapError,
    Graph,
    ParseError,
    SubgraphCensus,
    all_connected_graphs,
    complete_bipartite_graph,
    complete_graph,
    connected_bipartite_catalog,
    connected_catalog,
    cycle_graph,
    empty_graph,
    from_name,
    is_isomorphic,
    load_graph,
    parse_edgelist,
    parse_graph6,
    path_graph,
    star_graph,
    to_graph6,
)
from .polynomials import IntPolynomial, elementary_symmetric
from .restraints import (
    Restraint,
    RestraintClass,
    alternating_restraint,
    canonicalize,
    constant_restraint,
    empty_restraint,
    enumerate_k_restraints,
    is_proper,
    parse_restraint,
    render_restraint,
)

__version__ = "0.1.0"
