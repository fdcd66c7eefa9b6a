"""Malformed input to a public routine raises an AcgError subclass.

Each case once raised a bare ValueError, TypeError or IndexError, or
read a non-integer as a different integer and answered for it.  A
routine that raised ValueError still does: the subclass it raises now is
both an AcgError and a ValueError, so callers catching either keep working.
"""

import numpy as np
import pytest

import acg
from acg import config_probability as cfg
from acg.errors import AcgError

from conftest import BAL2_PARAMS


def _q():
    return acg.load_params(BAL2_PARAMS)[1]


def _count_five_edges():
    path = cfg.ConfigurationTree(None, [cfg.Attachment(i + 1, i, "out") for i in range(5)])
    graph = acg.generate_graph(*acg.load_params(BAL2_PARAMS), 20, seed=1)
    return cfg.count_config_occurrences(graph, path)


def _suite(fn, **kwargs):
    return fn(*acg.load_params(BAL2_PARAMS), n=20, seed=1, **kwargs)


# (call, whether it raised a ValueError before)
CASES = {
    "double_vector-ragged": (lambda: acg.double_vector([1.0, 2.0], [1.0]), True),
    "split_parts-odd": (lambda: acg.split_parts([1.0, 2.0, 3.0]), True),
    "h_value-shape": (lambda: acg.h_value(np.zeros(3), np.zeros(3), _q()), True),
    "h_derivatives-shape": (lambda: acg.h_derivatives(np.zeros(3), np.zeros(3), _q()), True),
    "solve_critical_point-shape": (lambda: acg.solve_critical_point(np.full(3, 0.5), _q()), True),
    "asymptotic_edge_mean-type": (lambda: acg.asymptotic_edge_mean(np.full(4, 0.5), _q(), 3, 1), True),
    "load_params-K": (lambda: acg.load_params({**BAL2_PARAMS, "K": "x"}), True),
    "load_params-P": (lambda: acg.load_params({**BAL2_PARAMS, "P": "abc"}), True),
    "joint_first_M_prob-type": (lambda: acg.joint_first_M_prob([0, 1, 2], [0, 1, 2], _q(), ["ab"]), False),
    "Attachment-short-type": (lambda: cfg.Attachment(1, 0, "in", (1,)), False),
    "ConfigurationTree-short-root": (lambda: cfg.ConfigurationTree((1,), []), False),
    "Attachment-string-type": (lambda: cfg.Attachment(1, 0, "in", "ab"), True),
    "ConfigurationTree-not-an-attachment": (lambda: cfg.ConfigurationTree((1, 2), [1]), False),
    "count_config_occurrences-five-edges": (_count_five_edges, True),
    # configuration fields that are not integers, which int() once truncated or accepted
    "Attachment-fractional-degree": (lambda: cfg.Attachment(1, 0, "in", (1.7, 2)), False),
    "Attachment-true-degree": (lambda: cfg.Attachment(1, 0, "in", (True, 2)), False),
    "Attachment-string-degree": (lambda: cfg.Attachment(1, 0, "in", ("2", 1)), False),
    "Attachment-fractional-node": (lambda: cfg.Attachment(1.5, 0, "in"), False),
    "Attachment-false-parent": (lambda: cfg.Attachment(1, False, "in"), False),
    "ConfigurationTree-fractional-root": (lambda: cfg.ConfigurationTree((1.7, 2), []), False),
    "ConfigurationTree-no-list": (lambda: cfg.ConfigurationTree(None, None), False),
    # integer inputs that int() or an int64 cast once truncated, and shapes that raised raw errors
    "load_params-fractional-K": (lambda: acg.load_params({**BAL2_PARAMS, "K": 2.7}), False),
    "load_params-true-K": (lambda: acg.load_params({**BAL2_PARAMS, "K": True, "P": [[0, 0], [0, 1]]}), False),
    "table_probability-fractional-cells": (
        lambda: acg.table_probability([[0, 0, 0], [0, 1.5, 0], [0, 0, 0.5]], _q()),
        False,
    ),
    "table_probability-one-dimensional": (lambda: acg.table_probability([1, 2], _q()), False),
    "table_probability-ragged": (lambda: acg.table_probability([[1], [1, 2]], _q()), True),
    "NodeTypeSequence-fractional-degrees": (lambda: acg.NodeTypeSequence([1.5, 0.5], [1, 1]), False),
    # routines that raised a raw IndexError, TypeError or a bare ValueError
    "asymptotic_edge_mean-fractional-type": (lambda: acg.asymptotic_edge_mean(np.full(4, 0.5), _q(), 1.5, 1), False),
    "asymptotic_edge_mean-string-type": (lambda: acg.asymptotic_edge_mean(np.full(4, 0.5), _q(), "1", 1), False),
    "solve_critical_point-string": (lambda: acg.solve_critical_point("abc", _q()), True),
    "clip_sequence-no-rng": (lambda: acg.clip_sequence(acg.NodeTypeSequence([0, 0], [1, 0]), 2), True),
    "first_edges_distribution-no-edges": (lambda: _suite(acg.first_edges_distribution, length=0, reps=50), True),
    "first_edges_distribution-few-reps": (lambda: _suite(acg.first_edges_distribution, length=1, reps=1), True),
    "self_loop_poisson-one-rep": (lambda: _suite(acg.self_loop_poisson, reps=1), True),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_malformed_input_raises_an_acg_error(name):
    call, was_value_error = CASES[name]
    with pytest.raises(AcgError) as info:
        call()
    if was_value_error:
        assert isinstance(info.value, ValueError)


def test_integral_numbers_read_as_integers():
    att = cfg.Attachment(np.int64(1), 0.0, "in", (2.0, np.int32(1)))
    assert (att.node, att.parent, att.node_type) == (1, 0, (2, 1))
    assert all(type(v) is int for v in (att.node, att.parent, *att.node_type))
    assert cfg.ConfigurationTree([1, 2], [att]).root_type == (1, 2)


def test_integer_inputs_pass_the_integer_rule():
    assert acg.load_params({**BAL2_PARAMS, "K": 2.0})[0].K == 2
    degrees = np.array([1, 0], dtype=np.int64)  # an int64 array passes on its dtype, uncopied
    assert acg.NodeTypeSequence(degrees, [0.0, 1.0]).in_degrees is degrees
