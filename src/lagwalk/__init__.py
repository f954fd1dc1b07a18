"""Lagged random-walk sampling of simple undirected graphs.

A lagged walk chooses its next state from the current and previous states:
random jumps keep it irreducible, a backtracking weight tunes how often it
returns to where it came from.  The package provides the exact transition
law and pair-chain stationary analysis, walk simulation with an
access-audited sample view, design-based estimators of graph size and
finite-order motif totals, and a CLI of reproducible simulation campaigns.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    Es3CoverageError,
    EstimationError,
    LagwalkError,
    NoCollisionsError,
    NoObservationsError,
    NonErgodicError,
    ObservationFailureError,
    SequenceUnreachableError,
    StateSpaceError,
    UnobservedEntryError,
)
from .estimators import (
    CollisionStat,
    ReplicateSummary,
    SizeEstimate,
    TotalEstimate,
    count_collisions,
    estimate_ratio,
    estimate_size_cr,
    estimate_size_gr,
    estimate_size_grcr,
    estimate_total,
    estimate_total_window,
    replicate_summary,
    weighted_mean_degree,
)
from .experiments import CampaignConfig, load_graph, run_campaign
from .graph import (
    Graph,
    MotifKind,
    MotifOccurrence,
    enumerate_motifs,
    generate_case_graph,
    graph_total,
    read_edge_list,
    write_edge_list,
)
from .kernel import (
    PairStateChain,
    WalkConfig,
    build_pair_chain,
    marginal_at_t,
    sequence_prob,
    stationary_node,
    stationary_pair,
    transition_prob,
    transition_row,
)
from .sampling import (
    MotifObservation,
    SampleGraph,
    WalkTrace,
    build_sample_graph,
    detect_observations,
    equivalent_sequences,
    run_walk,
)

__version__ = "0.1.0"

__all__ = [
    "CampaignConfig",
    "CollisionStat",
    "ConfigError",
    "ConvergenceError",
    "Es3CoverageError",
    "EstimationError",
    "Graph",
    "LagwalkError",
    "MotifKind",
    "MotifObservation",
    "MotifOccurrence",
    "NoCollisionsError",
    "NoObservationsError",
    "NonErgodicError",
    "ObservationFailureError",
    "PairStateChain",
    "ReplicateSummary",
    "SampleGraph",
    "SequenceUnreachableError",
    "SizeEstimate",
    "StateSpaceError",
    "TotalEstimate",
    "UnobservedEntryError",
    "WalkConfig",
    "WalkTrace",
    "build_pair_chain",
    "build_sample_graph",
    "count_collisions",
    "detect_observations",
    "enumerate_motifs",
    "equivalent_sequences",
    "estimate_ratio",
    "estimate_size_cr",
    "estimate_size_gr",
    "estimate_size_grcr",
    "estimate_total",
    "estimate_total_window",
    "generate_case_graph",
    "graph_total",
    "load_graph",
    "marginal_at_t",
    "read_edge_list",
    "replicate_summary",
    "run_campaign",
    "run_walk",
    "sequence_prob",
    "stationary_node",
    "stationary_pair",
    "transition_prob",
    "transition_row",
    "weighted_mean_degree",
    "write_edge_list",
]
