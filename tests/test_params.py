"""The numpy-free parameter reader, checked against the numpy rule it replaced.

numpy divided each matrix by m.sum(), a pairwise sum; the reader divides
by math.fsum, the correctly rounded sum.  The two may differ in the last
bit on other matrices, but on every parameter fixture they agree bit for
bit, which keeps every output made from a fixture unchanged.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from acg._params import read_params
from acg.errors import InvalidDistribution

from conftest import ASSORT_PARAMS, BAL2_PARAMS, DISAS_PARAMS

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
