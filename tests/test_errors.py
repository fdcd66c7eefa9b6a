"""Malformed input to a public routine raises an AcgError subclass.

Each case once raised a bare ValueError, TypeError or IndexError, or
read a non-integer as a different integer and answered for it.  A
routine that raised ValueError still does: the subclass it raises now is
both an AcgError and a ValueError, so callers catching either keep working.
"""

import io
import math
import os
import tempfile

import numpy as np
import pytest

import acg
from acg import asymptotics, sampler
from acg import config_probability as cfg
from acg.errors import AcgError, finite

from conftest import BAL2_PARAMS


def _q():
    return acg.load_params(BAL2_PARAMS)[1]


def _count_five_edges():
    path = cfg.ConfigurationTree(None, [cfg.Attachment(i + 1, i, "out") for i in range(5)])
    graph = acg.generate_graph(*acg.load_params(BAL2_PARAMS), 20, seed=1)
    return cfg.count_config_occurrences(graph, path)


def _suite(fn, **kwargs):
    return fn(*acg.load_params(BAL2_PARAMS), **{"n": 20, "seed": 1, **kwargs})


def _lln(fn, sizes, reps=2):
    p, q = acg.load_params(BAL2_PARAMS)
    args = (p,) if fn is acg.node_lln else (p, q)
    return fn(*args, sizes, reps=reps, seed=1)


def _graph(n, seed=1):
    return acg.generate_graph(*acg.load_params(BAL2_PARAMS), n, seed=seed)


def _count_in_samples(samples):
    edge = cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1))])
    return acg.count_in_samples(edge, *acg.load_params(BAL2_PARAMS), 20, samples, 1)


def _balanced_20():
    """A clipped bal2 sequence of 20 nodes, its Q and an rng."""
    p, q = acg.load_params(BAL2_PARAMS)
    return acg.accept_sequence(p, 20, 0.25, np.random.default_rng(1))[0], q, np.random.default_rng(2)


def _accept_20(max_redraws):
    return acg.accept_sequence(acg.load_params(BAL2_PARAMS)[0], 20, 0.25, np.random.default_rng(1), max_redraws)


def _clip_100(delta):
    """clip_sequence of D = 100 at N = 100, which delta 0.25 rejects (100 > 100^0.75)."""
    x = acg.NodeTypeSequence(np.zeros(100, dtype=np.int64), np.ones(100, dtype=np.int64))
    return acg.clip_sequence(x, 2, delta=delta, rng=np.random.default_rng(0))


def _read_spoiled_sample(name, data, mode="ab"):
    """read_sample of a written bal2 sample after writing data to its file name, appended unless mode is "wb"."""
    with tempfile.TemporaryDirectory() as d:
        sampler.write_sample(_graph(20), d)
        with open(os.path.join(d, name), mode) as fh:
            fh.write(data)
        return sampler.read_sample(d)


_Q_NEGATIVE = [[0, 0, 0], [0, -0.1, 0.6], [0, 0.6, -0.1]]
_Q_RAGGED = [[0, 0, 0], [0, 0.5], [0, 0.25, 0.25]]
_Q_NAN = [[0, 0, 0], [0, 0.25, 0.25], [0, 0.25, float("nan")]]


# (call, whether it raised a ValueError before)
CASES = {
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
    # inputs that were truncated or ignored: LLN sizes read by int(), a NaN delta, an unknown params key
    "node_lln-fractional-sizes": (lambda: _lln(acg.node_lln, [100.7, 200.2]), False),
    "node_lln-true-size": (lambda: _lln(acg.node_lln, [True, 200]), False),
    "edge_lln-fractional-sizes": (lambda: _lln(acg.edge_lln, [100.7, 200.2]), False),
    "edge_lln-negative-size": (lambda: _lln(acg.edge_lln, [-3, 200]), True),
    "clip_sequence-nan-delta": (lambda: _clip_100(float("nan")), False),
    "accept_sequence-nan-delta": (
        lambda: acg.accept_sequence(acg.load_params(BAL2_PARAMS)[0], 100, float("nan"), np.random.default_rng(1)),
        False,
    ),
    "load_params-unknown-key": (lambda: acg.load_params({**BAL2_PARAMS, "extra": 1}), False),
    # a params stream that is not JSON, which raised a raw json.JSONDecodeError
    "load_params-truncated-json": (lambda: acg.load_params(io.StringIO('{"K": 2, "P": [[0,')), True),
    # suite inputs that gave an empty report, NaN deviations or a raw numpy error
    "node_lln-no-sizes": (lambda: _lln(acg.node_lln, []), False),
    "edge_lln-no-reps": (lambda: _lln(acg.edge_lln, [100, 200], reps=0), False),
    "generate_graph-fractional-n": (lambda: _graph(2.5), False),
    "generate_graph-true-n": (lambda: _graph(True), False),
    "generate_graph-negative-seed": (lambda: _graph(20, seed=-1), True),
    "assortativity_replicates-negative-seed": (lambda: _suite(acg.assortativity_replicates, reps=2, seed=-1), True),
    "assortativity_replicates-no-reps": (lambda: _suite(acg.assortativity_replicates, reps=0), False),
    "count_in_samples-no-samples": (lambda: _count_in_samples(0), False),
    "self_loop_poisson-fractional-reps": (lambda: _suite(acg.self_loop_poisson, reps=2.5), False),
    "first_edges_distribution-true-length": (lambda: _suite(acg.first_edges_distribution, length=True, reps=50), False),
    "h_value-strings": (lambda: acg.h_value(np.array(["a", "b", "c", "d"]), np.zeros(4), _q()), False),
    "table_probability-string-Q": (lambda: acg.table_probability([[0, 0, 0], [0, 1, 0], [0, 0, 1]], "abc"), True),
    # solver and sampler settings that raised a raw TypeError, or were read as another budget
    "solve_critical_point-fractional-max_iter": (lambda: acg.solve_critical_point(np.full(4, 0.5), _q(), max_iter=1.5), False),
    "solve_critical_point-string-max_iter": (lambda: acg.solve_critical_point(np.full(4, 0.5), _q(), max_iter="3"), False),
    "solve_critical_point-string-tol": (lambda: acg.solve_critical_point(np.full(4, 0.5), _q(), tol="a"), False),
    "asymptotic_edge_mean-no-tol": (lambda: acg.asymptotic_edge_mean(np.full(4, 0.5), _q(), 1, 1, tol=None), False),
    "log_laplace_I_approx-no-tol": (lambda: asymptotics.log_laplace_I_approx(np.array([4.0, 8, 4, 8]), _q(), tol=None), False),
    "log_partition-string-cap": (lambda: acg.log_partition([0, 1, 2], [0, 1, 2], _q(), cap="60"), False),
    "log_partition-no-cap": (lambda: acg.log_partition([0, 1, 2], [0, 1, 2], _q(), cap=None), False),
    "log_partition-fractional-cap": (lambda: acg.log_partition([0, 1, 2], [0, 1, 2], _q(), cap=60.5), False),
    "log_partition-true-cap": (lambda: acg.log_partition([0, 1, 0], [0, 1, 0], _q(), cap=True), False),
    "generate_graph-string-delta": (lambda: acg.generate_graph(*acg.load_params(BAL2_PARAMS), 20, delta="a"), False),
    "generate_graph-no-delta": (lambda: acg.generate_graph(*acg.load_params(BAL2_PARAMS), 20, delta=None), False),
    "first_edge_types-fractional-count": (lambda: sampler.first_edge_types(*_balanced_20(), 1.5), False),
    "first_edge_types-negative-count": (lambda: sampler.first_edge_types(*_balanced_20(), -1), True),
    "sequential_wiring-fractional-max_restarts": (lambda: acg.sequential_wiring(*_balanced_20(), 1.5), False),
    "sequential_wiring-negative-max_restarts": (lambda: acg.sequential_wiring(*_balanced_20(), -1), False),
    "accept_sequence-fractional-max_redraws": (lambda: _accept_20(1.5), False),
    "accept_sequence-negative-max_redraws": (lambda: _accept_20(-1), False),
    # a malformed Q, which the exact and saddlepoint layers once read without a check
    "log_partition-negative-Q": (lambda: acg.log_partition([0, 1, 2], [0, 1, 2], _Q_NEGATIVE), True),
    "log_partition-ragged-Q": (lambda: acg.log_partition([0, 1, 2], [0, 1, 2], _Q_RAGGED), False),
    "exact_edge_mean-nan-Q": (lambda: acg.exact_edge_mean([0, 1, 1], [0, 1, 1], _Q_NAN, 1, 1), False),
    # an edge type on degree 0, which no edge has: exact_edge_mean once answered 0.0 for it
    "exact_edge_mean-degree-0-type": (lambda: acg.exact_edge_mean([0, 1, 2], [0, 1, 2], _q(), 0, 1), False),
    "solve_critical_point-one-dimensional-Q": (lambda: acg.solve_critical_point(np.full(4, 0.5), np.full(4, 0.25)), False),
    "solve_critical_point-string-Q": (lambda: acg.solve_critical_point(np.full(4, 0.5), "abc"), True),
    # x = 0, where H has no minimum: a "critical point" once came back after 24 iterations
    "solve_critical_point-zero-margins": (lambda: acg.solve_critical_point(np.zeros(4), _q()), False),
    "asymptotic_edge_mean-zero-margins": (lambda: acg.asymptotic_edge_mean(np.zeros(4), _q(), 2, 2), False),
    # finite entries whose in-total overflows: the solver once stopped at alpha = 0, as tol times the total was inf
    "solve_critical_point-overflowing-total": (lambda: acg.solve_critical_point(np.full(4, 1e308), _q()), False),
    "asymptotic_edge_mean-overflowing-total": (lambda: acg.asymptotic_edge_mean(np.full(4, 1e308), _q(), 2, 2), False),
    # no stubs of in-degree 1: the solver chased alpha toward -inf and gave exact/Laplace = 4.9e-5
    "log_laplace_I_approx-empty-class": (lambda: asymptotics.log_laplace_I_approx(np.array([0.0, 12, 4, 8]), _q()), False),
    "log_laplace_I_approx-shape": (lambda: asymptotics.log_laplace_I_approx(np.array([0.0, 1, 1, 0, 1, 1]), _q()), True),
    "log_laplace_I_approx-unequal-totals": (lambda: asymptotics.log_laplace_I_approx(np.array([4.0, 8, 4, 9]), _q()), True),
    # no stubs on a class that Q joins, where H has no minimum: a "critical point" once came back
    # after 23 iterations with alpha_1 = -22.75 and a projected determinant of 7.7e-21
    "solve_critical_point-zero-on-a-joined-class": (lambda: acg.solve_critical_point(np.array([0.0, 1, 0, 1]), _q()), False),
    "asymptotic_edge_mean-zero-on-a-joined-class": (
        lambda: acg.asymptotic_edge_mean(np.array([0.0, 1, 0, 1]), _q(), 2, 2),
        False,
    ),
    # a repeated size drew the same stream twice, and the slope was fitted to the copy
    "node_lln-repeated-size": (lambda: _lln(acg.node_lln, [100, 100]), False),
    "edge_lln-repeated-size": (lambda: _lln(acg.edge_lln, [100, 100]), False),
    # json.JSONDecodeError and UnicodeDecodeError came out raw
    "read_sample-meta-not-json": (lambda: _read_spoiled_sample("meta.json", b"}"), True),
    "read_sample-nodes-not-utf8": (lambda: _read_spoiled_sample("nodes.csv", b"\xff"), True),
    "read_sample-edges-not-utf8": (lambda: _read_spoiled_sample("edges.tsv", b"\xff"), True),
    # a meta.json that is not an object, or whose counts contradict the files, once read back as the graph's meta
    "read_sample-meta-list": (lambda: _read_spoiled_sample("meta.json", b"[1, 2]", "wb"), False),
    "read_sample-meta-string": (lambda: _read_spoiled_sample("meta.json", b'"x"', "wb"), False),
    "read_sample-meta-wrong-counts": (
        lambda: _read_spoiled_sample("meta.json", b'{"n_edges": 5, "n_nodes": 7}', "wb"),
        False,
    ),
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


@pytest.mark.parametrize(
    "value, above",
    [(True, None), ("1", None), (None, None), (1 + 0j, None), (np.bool_(True), None)]
    + [(v, None) for v in (float("nan"), float("inf"), -float("inf"), np.float64("nan"), 10**400)]
    + [(0, 0), (-0.5, 0), (0.0, 0.0)],
)
def test_finite_rejects(value, above):
    with pytest.raises(AcgError):
        finite(value, AcgError, above)


@pytest.mark.parametrize("value, want", [(np.float32(0.5), 0.5), (2, 2.0), (np.int64(3), 3.0), (-1e300, -1e300)])
def test_finite_reads_a_python_float(value, want):
    number = finite(value, AcgError, above=-math.inf)
    assert type(number) is float and number == want
