"""The numpy-free parameter reader, checked against the numpy rule it replaced.

numpy divided each matrix by m.sum(), a pairwise sum; the reader divides
by math.fsum, the correctly rounded sum.  The two may differ in the last
bit on other matrices, but on every parameter fixture they agree bit for
bit, which keeps every output made from a fixture unchanged.

The quantities derived from (P, Q) follow the same fsum rule: P's
marginals and mean degree, Q's margins and the rate R that both the
wiring and the self-loop prediction read.
"""

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from acg._params import read_params
from acg.degree_model import load_params, self_loop_rate
from acg.errors import InvalidDistribution, ZeroMeanDegree

from conftest import ASSORT_PARAMS, BAL2_PARAMS, DISAS_PARAMS
from helpers import self_loop_rate_exact

FIXTURES = Path(__file__).resolve().parents[1] / "clibench" / "fixtures"
PARAMS = {
    "BAL2_PARAMS": BAL2_PARAMS,
    "DISAS_PARAMS": DISAS_PARAMS,
    "ASSORT_PARAMS": ASSORT_PARAMS,
    **{
        path.name: body
        for path in sorted(FIXTURES.glob("*.json"))
        if isinstance(body := json.loads(path.read_text(encoding="utf-8")), dict) and "P" in body
    },
}


def _normalized(weights) -> np.ndarray:
    m = np.array(weights, dtype=float)
    return m / m.sum()


def _numpy_rule(params):
    """(P, Q) as numpy arrays divided by m.sum(), with an independent Q built from P's numpy marginals."""
    p = _normalized(params["P"])
    if params["Q"] != "independent":
        return p, _normalized(params["Q"])
    degrees = np.arange(p.shape[0], dtype=float)
    p_in, p_out = p.sum(axis=1), p.sum(axis=0)
    z = float(degrees @ p_out)
    return p, _normalized(np.outer(degrees * p_out / z, degrees * p_in / z))


def test_every_params_fixture_is_covered():
    assert set(PARAMS) >= {"assort_k2.json", "assort_k10.json", "exact_k3.json", "exact_k4.json"}
    # assort_k10's P sums to 1.0000000000000002, so its division is exercised
    assert np.array(PARAMS["assort_k10.json"]["P"]).sum() != 1.0


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_reader_rows_equal_the_numpy_rule_bit_for_bit(name):
    k_cut, p_rows, q_rows = read_params(PARAMS[name])
    p, q = _numpy_rule(PARAMS[name])
    assert k_cut == PARAMS[name]["K"] == p.shape[0] - 1
    assert np.array(p_rows).tobytes() == p.tobytes()
    assert np.array(q_rows).tobytes() == q.tobytes()


def test_reader_rejects_a_bool_entry():
    # every node of type (1, 1); numpy read True as 1.0
    with pytest.raises(InvalidDistribution, match="expected a number, got True"):
        read_params({"K": 2, "P": [[0, 0, 0], [0, True, 0], [0, 0, 0]], "Q": "independent"})


def test_a_node_law_without_stubs_is_rejected():
    # every node has in- and out-degree 0, so there is no edge to wire
    with pytest.raises(ZeroMeanDegree, match="mean degree zero"):
        load_params({"K": 1, "P": [[1, 0], [0, 0]], "Q": [[0, 0], [0, 1]]})


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_derived_sums_are_the_fsum_rule_bit_for_bit(name):
    p, q = load_params(PARAMS[name])
    p_rows, q_rows = p.matrix.tolist(), q.matrix.tolist()
    p_in = [math.fsum(row) for row in p_rows]
    p_out = [math.fsum(col) for col in zip(*p_rows)]
    q_out = [math.fsum(row) for row in q_rows]
    q_in = [math.fsum(col) for col in zip(*q_rows)]
    assert p.in_marginal.tobytes() == _bits(p_in)
    assert p.out_marginal.tobytes() == _bits(p_out)
    assert p.mean_degree == math.fsum(k * x for k, x in enumerate(p_out))
    assert q.out_marginal.tobytes() == _bits(q_out)
    assert q.in_marginal.tobytes() == _bits(q_in)
    rate = [[x / (q_out[k] * q_in[j]) if x else 0.0 for j, x in enumerate(row)] for k, row in enumerate(q_rows)]
    assert q.rate.tobytes() == _bits(rate)


@pytest.mark.parametrize("name", sorted(PARAMS))
def test_self_loop_rate_agrees_with_rational_arithmetic(name):
    p, q = load_params(PARAMS[name])
    exact = self_loop_rate_exact(p.matrix.tolist(), q.matrix.tolist())
    assert abs(Fraction(self_loop_rate(p, q)) - exact) <= Fraction(1e-15) * exact

