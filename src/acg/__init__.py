"""Assortative configuration multigraphs.

Directed random multigraphs whose edge types (source out-degree, target
in-degree) follow a prescribed joint distribution: approximate sequential
simulation, exact small-instance combinatorics, saddlepoint asymptotics,
local configuration probabilities, and statistical validation suites.

Names resolve on first use.  `import acg` imports no submodule; reading
acg.<name> imports the module that _EXPORTS names for it, then keeps the
value in the package namespace, so later reads cost nothing.  A command
of the `acg` CLI thus loads only the layers it runs, and `--help` loads
no numpy.
"""

import importlib

__version__ = "0.1.0"

# each public name -> the module that defines it
_EXPORTS = {
    "CriticalPointResult": "asymptotics",
    "asymptotic_edge_mean": "asymptotics",
    "h_derivatives": "asymptotics",
    "h_value": "asymptotics",
    "solve_critical_point": "asymptotics",
    "Attachment": "config_probability",
    "ConfigurationTree": "config_probability",
    "config_from_dict": "config_probability",
    "config_to_dict": "config_probability",
    "count_config_occurrences": "config_probability",
    "count_in_graphs": "config_probability",
    "count_in_samples": "config_probability",
    "tree_config_prob": "config_probability",
    "ConsistencyReport": "degree_model",
    "EdgeTypeDist": "degree_model",
    "NodeTypeDist": "degree_model",
    "independent_edge_dist": "degree_model",
    "load_params": "degree_model",
    "self_loop_rate": "degree_model",
    "validate_pair": "degree_model",
    "AcgError": "errors",
    "enumerate_wirings_oracle": "exact_kernel",
    "exact_edge_mean": "exact_kernel",
    "exact_edge_variance": "exact_kernel",
    "joint_first_M_prob": "exact_kernel",
    "log_partition": "exact_kernel",
    "margins_of_sequence": "exact_kernel",
    "table_probability": "exact_kernel",
    "MultiGraph": "sampler",
    "NodeTypeSequence": "sampler",
    "accept_sequence": "sampler",
    "classify_graph": "sampler",
    "clip_sequence": "sampler",
    "draw_node_sequence": "sampler",
    "generate_graph": "sampler",
    "sequential_wiring": "sampler",
    "stub_census": "sampler",
    "assortativity_coefficient": "stats_validation",
    "assortativity_replicates": "stats_validation",
    "edge_lln": "stats_validation",
    "first_edges_distribution": "stats_validation",
    "node_lln": "stats_validation",
    "self_loop_poisson": "stats_validation",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
