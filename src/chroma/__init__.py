"""Edge-coloring toolkit: exact chromatic index, Kempe-chain mechanics,
structure validators for critical graphs, and an overfull census driver."""

from .graph import (
    Graph,
    degree_stats,
    parse_graph6,
    to_graph6,
    parse_edge_list,
    iter_graph6_lines,
)
from .coloring import (
    PartialEdgeColoring,
    KempeChain,
    empty_partial,
)
from .oracle import (
    ChiResult,
    OracleTimeout,
    UncolorableError,
    chromatic_index,
    decide_colorable,
    complete_coloring,
    is_critical_edge,
    is_delta_critical,
    sample_colorings,
)
from .fans import (
    OK,
    VIOLATION,
    INAPPLICABLE,
    Verdict,
    StructuralError,
    Multifan,
    grow_multifan,
    validate_multifan,
    AlphaSequenceDecomposition,
    alpha_decompose,
    validate_fan_linkage,
    KiersteadPath,
    kierstead_paths,
    grow_kierstead,
    validate_kierstead4,
    check_val,
    check_degree_dichotomy,
    ForkLike,
    find_forklike,
    check_fork_exclusion,
    validate_shortkite,
    validate_kite,
)
from .kpath5 import (
    CANONICAL,
    DEAD_END,
    CanonicalizeResult,
    canonicalize_k5_path,
    is_canonical,
)
from .overfull import (
    COUNTEREXAMPLE,
    HOLDS,
    UNDECIDED,
    OverfullVerdict,
    ImplicationVerdict,
    SubgraphWitness,
    is_overfull,
    degree_condition,
    eps_degree_condition,
    verify_overfull_implication,
    parity_check,
    find_overfull_subgraph,
)
from .census import (
    CensusConfig,
    CensusReport,
    examine_graph,
    run_census,
)
from . import families

__version__ = "0.1.0"
