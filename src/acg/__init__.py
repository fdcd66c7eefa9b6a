"""Assortative configuration multigraphs.

Directed random multigraphs whose edge types (source out-degree, target
in-degree) follow a prescribed joint distribution: approximate sequential
simulation, exact small-instance combinatorics, saddlepoint asymptotics,
local configuration probabilities, and statistical validation suites.
"""

from .asymptotics import (
    CriticalPointResult,
    asymptotic_edge_mean,
    double_vector,
    h_derivatives,
    h_value,
    solve_critical_point,
    split_parts,
)
from .config_probability import (
    Attachment,
    ConfigurationTree,
    config_from_dict,
    config_to_dict,
    count_config_occurrences,
    count_in_graphs,
    count_in_samples,
    tree_config_prob,
)
from .degree_model import (
    ConsistencyReport,
    EdgeTypeDist,
    NodeTypeDist,
    conditional_dists,
    derive_marginals,
    independent_edge_dist,
    load_params,
    self_loop_rate,
    validate_pair,
)
from .errors import AcgError
from .exact_kernel import (
    enumerate_wirings_oracle,
    exact_edge_mean,
    exact_edge_variance,
    joint_first_M_prob,
    log_partition,
    margins_of_sequence,
    table_probability,
)
from .sampler import (
    MultiGraph,
    NodeTypeSequence,
    accept_sequence,
    classify_graph,
    clip_sequence,
    draw_node_sequence,
    generate_graph,
    sequential_wiring,
    stub_census,
)
from .stats_validation import (
    assortativity_coefficient,
    assortativity_replicates,
    edge_lln,
    first_edges_distribution,
    node_lln,
    self_loop_poisson,
)

__version__ = "0.1.0"

__all__ = [
    "AcgError",
    "Attachment",
    "ConfigurationTree",
    "ConsistencyReport",
    "CriticalPointResult",
    "EdgeTypeDist",
    "MultiGraph",
    "NodeTypeDist",
    "NodeTypeSequence",
    "accept_sequence",
    "assortativity_coefficient",
    "assortativity_replicates",
    "asymptotic_edge_mean",
    "classify_graph",
    "clip_sequence",
    "conditional_dists",
    "config_from_dict",
    "config_to_dict",
    "count_config_occurrences",
    "count_in_graphs",
    "count_in_samples",
    "derive_marginals",
    "double_vector",
    "draw_node_sequence",
    "edge_lln",
    "enumerate_wirings_oracle",
    "exact_edge_mean",
    "exact_edge_variance",
    "first_edges_distribution",
    "generate_graph",
    "h_derivatives",
    "h_value",
    "independent_edge_dist",
    "joint_first_M_prob",
    "load_params",
    "log_partition",
    "margins_of_sequence",
    "node_lln",
    "self_loop_poisson",
    "self_loop_rate",
    "sequential_wiring",
    "solve_critical_point",
    "split_parts",
    "stub_census",
    "table_probability",
    "tree_config_prob",
    "__version__",
]
