import json
from fractions import Fraction

import numpy as np
import pytest

from acg.degree_model import (
    EdgeTypeDist,
    NodeTypeDist,
    derived_summary,
    independent_edge_dist,
    load_params,
    params_dict,
    require_consistent,
    self_loop_rate,
    validate_pair,
)
from acg.errors import InconsistentPair, InvalidDistribution

from conftest import ASSORT_PARAMS, BAL2_PARAMS, DISAS_PARAMS
from helpers import self_loop_rate_exact


def test_balanced_pair_marginals(bal2):
    p, q = bal2
    assert p.mean_degree == pytest.approx(1.5)
    assert p.in_marginal == pytest.approx([0, 0.5, 0.5])
    assert p.out_marginal == pytest.approx([0, 0.5, 0.5])
    assert q.in_marginal == pytest.approx([0, 1 / 3, 2 / 3])
    assert q.out_marginal == pytest.approx([0, 1 / 3, 2 / 3])


def test_independent_edge_dist_is_outer_product(bal2):
    p, _ = bal2
    q = independent_edge_dist(p)
    expect = np.outer([0, 1 / 3, 2 / 3], [0, 1 / 3, 2 / 3])
    assert np.allclose(q.matrix, expect, atol=1e-15)


@pytest.mark.parametrize("params", [BAL2_PARAMS, DISAS_PARAMS, ASSORT_PARAMS])
def test_fixture_pairs_are_consistent(params):
    p, q = load_params(params)
    report = validate_pair(p, q)
    assert report.is_consistent
    assert report.max_violation < 1e-12
    require_consistent(p, q)


def test_inconsistent_pair_rejected(bal2):
    p, _ = bal2
    q = EdgeTypeDist.from_weights([[0, 0, 0], [0, 0.5, 0.25], [0, 0.125, 0.125]])
    report = validate_pair(p, q)
    assert not report.is_consistent
    with pytest.raises(InconsistentPair):
        require_consistent(p, q)


def test_zero_degree_class_forces_zero_edge_mass():
    # only degree-1 nodes, so no edge may touch a degree-2 stub
    p = NodeTypeDist.from_weights([[0, 0, 0], [0, 1.0, 0], [0, 0, 0]])
    q = independent_edge_dist(p)
    assert q.matrix[:, 2] == pytest.approx([0, 0, 0])
    assert q.matrix[2, :] == pytest.approx([0, 0, 0])
    require_consistent(p, q)


def test_self_loop_rate_fixture_values(bal2, disas, assort):
    # (1/z) sum jk P[j,k] Q[k,j] / (Q+_k Q-_j) with z = 3/2 and sums 2, 3, 3/2
    assert self_loop_rate(*bal2) == pytest.approx(4 / 3, abs=1e-15)
    assert self_loop_rate(*disas) == pytest.approx(2, abs=1e-15)
    assert self_loop_rate(*assort) == pytest.approx(1, abs=1e-15)


def test_self_loop_rate_exact_matches_float():
    half = Fraction(1, 2)
    p_rows = [[0, 0, 0], [0, 0, half], [0, half, 0]]
    third = Fraction(1, 3)
    q_rows = [[0, 0, 0], [0, 0, third], [0, third, third]]
    exact = self_loop_rate_exact(p_rows, q_rows)
    # z = 3/2; the (1,2) and (2,1) cells each give 1 * (1/3) / (2/9) = 3/2
    assert exact == Fraction(2)
    p = NodeTypeDist.from_weights([[float(x) for x in row] for row in p_rows])
    q = EdgeTypeDist.from_weights([[float(x) for x in row] for row in q_rows])
    assert self_loop_rate(p, q) == pytest.approx(float(exact), abs=1e-15)


def test_load_params_roundtrip(bal2):
    p, q = bal2
    again_p, again_q = load_params(params_dict(p, q))
    assert np.array_equal(p.matrix, again_p.matrix)
    assert np.allclose(q.matrix, again_q.matrix, atol=1e-15)


def test_load_params_reads_back_a_written_params_file(assort, tmp_path):
    p, q = assort
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params_dict(p, q)))
    again_p, again_q = load_params(path)
    assert np.array_equal(p.matrix, again_p.matrix)
    assert np.array_equal(q.matrix, again_q.matrix)
    assert params_dict(again_p, again_q) == json.loads(path.read_text())


def test_load_params_rejects_unknown_keys():
    with pytest.raises(InvalidDistribution, match=r"unknown keys \['extra'\]"):
        load_params({**BAL2_PARAMS, "extra": 1})
    with pytest.raises(InvalidDistribution, match="unknown keys"):
        load_params({**BAL2_PARAMS, "derived": {}, "Derived": {}})


def test_load_params_from_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(BAL2_PARAMS))
    p, q = load_params(path)
    assert p.K == 2
    assert q.matrix[2, 2] == pytest.approx(4 / 9)


@pytest.mark.parametrize(
    "bad",
    [
        {"K": 2, "P": [[0, 0], [0, 1]], "Q": "independent"},
        {"K": 2, "P": [[0, 0, 0], [0, 0, -0.5], [0, 1.5, 0]], "Q": "independent"},
        {"K": 2, "P": [[0, 0, 0], [0, 0, 0.5], [0, 0.5, 0]]},
    ],
)
def test_load_params_rejects_malformed(bad):
    with pytest.raises(InvalidDistribution):
        load_params(bad)


BAL2_P = BAL2_PARAMS["P"]


@pytest.mark.parametrize(
    "params, reason",
    [
        ({"K": 2, "P": [[0, 0.5, 0], [0.5, 0, 0]], "Q": "independent"}, "square matrix"),
        ({"K": 2, "P": BAL2_P, "Q": [[0, 0.5, 0], [0, 0, 0], [0, 0.5, 0]]}, "vanish on the degree-0 row"),
        ({"K": 2, "P": BAL2_P, "Q": "assortative"}, "unknown edge-type spec 'assortative'"),
        ({"K": 2, "P": BAL2_P, "Q": [[0, 0], [0, 1]]}, "Q has shape for K=1"),
        # every node has in-degree 0 and out-degree 1: mean in-degree 0, mean out-degree 1
        ({"K": 1, "P": [[0, 1], [0, 0]], "Q": "independent"}, "marginal mean degrees disagree"),
    ],
    ids=["non-square-P", "Q-on-degree-0", "unknown-Q-spec", "Q-for-another-K", "unequal-mean-degrees"],
)
def test_load_params_names_why_it_rejects(params, reason):
    with pytest.raises(InvalidDistribution, match=reason):
        load_params(params)


def test_validate_pair_rejects_laws_of_different_cutoffs(bal2):
    p1, _ = load_params({"K": 1, "P": [[0, 0], [0, 1]], "Q": "independent"})
    with pytest.raises(InvalidDistribution, match="degree cutoffs differ: node K=1, edge K=2"):
        validate_pair(p1, bal2[1])


def test_derived_summary_fields(bal2):
    p, q = bal2
    info = derived_summary(p, q)
    assert info["K"] == 2
    assert info["mean_degree"] == pytest.approx(1.5)
    assert info["self_loop_rate"] == pytest.approx(4 / 3)
    assert info["is_consistent"]


def test_distributions_reject_unnormalized_weights():
    with pytest.raises(InvalidDistribution):
        NodeTypeDist.from_weights([[0, 0], [0, 0.7]])
    with pytest.raises(InvalidDistribution):
        EdgeTypeDist.from_weights([[0, 0], [0, 2.0]])
