import math

import numpy as np
import pytest

from acg import cli
from acg import stats_validation as sv
from acg.degree_model import load_params, self_loop_rate
from acg.errors import DegenerateVariance
from acg.sampler import generate_graph

SINGLE_TYPE = {
    "K": 1,
    "P": [[0, 0], [0, 1.0]],
    "Q": [[0, 0], [0, 1.0]],
}


def test_node_lln_fields_and_determinism(bal2):
    p, q = bal2
    rep = sv.node_lln(p, sizes=[100, 400], reps=3, seed=7)
    assert rep.kind == "node"
    assert rep.sizes == (100, 400)
    assert len(rep.max_deviations) == 2
    assert len(rep.acceptance_rates) == 2
    assert all(0 < r <= 1 for r in rep.acceptance_rates)
    assert rep.max_deviations[1] < rep.max_deviations[0]
    assert all(0 <= tv <= 1 for tv in rep.tv_distances)
    again = sv.node_lln(p, sizes=[100, 400], reps=3, seed=7)
    assert again == rep


def test_node_lln_degenerate_law_has_zero_deviation():
    p, q = load_params(SINGLE_TYPE)
    rep = sv.node_lln(p, sizes=[50], reps=2, seed=1)
    assert rep.max_deviations[0] == pytest.approx(0.0, abs=1e-12)
    assert rep.acceptance_rates[0] == 1.0
    # one size gives no slope: an undefined statistic, which is never within its window
    assert math.isnan(rep.slope) and not rep.slope_ok


def test_edge_lln_fields_and_determinism(bal2):
    p, q = bal2
    rep = sv.edge_lln(p, q, sizes=[100, 1600], reps=3, seed=11)
    assert rep.kind == "edge"
    assert rep.acceptance_rates is None
    assert rep.max_deviations[1] < rep.max_deviations[0]
    assert sv.edge_lln(p, q, sizes=[100, 1600], reps=3, seed=11) == rep


def test_edge_lln_fans_out_once_over_the_reps(bal2, monkeypatch):
    # each rep draws its graph at every size, from the stream [seed, size, rep]
    p, q = bal2
    calls = []
    fan_out = sv.fan_out

    def counted(fn, keys):
        calls.append(list(keys))
        return fan_out(fn, calls[-1])

    monkeypatch.setattr(sv, "fan_out", counted)
    rep = sv.edge_lln(p, q, sizes=[100, 200, 400], reps=3, seed=11)
    assert calls == [[0, 1, 2]]
    width = q.K + 1
    for i, size in enumerate(rep.sizes):
        devs = []
        for r in range(3):
            g = generate_graph(p, q, size, seed=[11, size, r])
            table = np.bincount(g.edge_out_type * width + g.edge_in_type, minlength=width * width)
            devs.append(np.abs(table.reshape(width, width) / g.n_edges - q.matrix).max())
        assert rep.max_deviations[i] == float(np.mean(devs))


def test_lln_slope_over_three_decades(bal2):
    p, q = bal2
    rep = sv.node_lln(p, sizes=[100, 1000, 10000], reps=3, seed=3)
    # sqrt(n) concentration: log-log slope near -1/2
    assert -0.7 < rep.slope < -0.3
    assert rep.slope_window == (-0.65, -0.35)


def test_first_edges_matches_product_measure(bal2):
    p, q = bal2
    rep = sv.first_edges_distribution(p, q, n=500, length=2, reps=400, seed=19)
    assert rep.off_support == 0
    assert sum(rep.counts.values()) == 400
    assert rep.dof == 15
    assert rep.p_value > 0.001
    assert abs(rep.mutual_information) < 0.05


def test_first_edges_single_cell():
    p, q = load_params(SINGLE_TYPE)
    rep = sv.first_edges_distribution(p, q, n=60, length=1, reps=50, seed=2)
    assert rep.chi_square == 0.0
    assert rep.p_value == 1.0
    assert rep.mutual_information is None
    assert rep.counts == {(((1, 1)),): 50}


def test_chi2_sf_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for dof in [*range(1, 60), 99, 100, 399, 400, 1000, 9999]:
            for frac in (0.05, 0.5, 1.0, 1.5, 3.0):
                x = frac * dof
                ref = mpmath.gammainc(mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2, regularized=True)
                if ref < 1e-250:
                    continue
                assert float(abs(sv._chi2_sf(x, dof) - ref) / ref) <= 1e-10, (x, dof)


@pytest.mark.parametrize(
    "x, dof, expected",
    [  # values of scipy.stats.chi2.sf(x, dof)
        (0.5, 1, 0.47950012218695337),
        (3.0, 2, 0.22313016014842982),
        (7.5, 3, 0.0575584519726364),
        (2.0, 9, 0.9914676066288135),
        (15.0, 15, 0.4514172112257256),
        (30.0, 15, 0.011921495938159686),
        (120.0, 100, 0.08440668109369177),
    ],
)
def test_chi2_sf_pinned_values(x, dof, expected):
    assert sv._chi2_sf(x, dof) == pytest.approx(expected, rel=1e-12)


def test_chi2_sf_at_zero_is_one():
    for dof in (1, 2, 15, 400):
        assert sv._chi2_sf(0.0, dof) == 1.0


def test_first_edges_length_bounds(bal2):
    p, q = bal2
    with pytest.raises(ValueError):
        sv.first_edges_distribution(p, q, n=100, length=0, reps=5, seed=1)
    with pytest.raises(ValueError):
        sv.first_edges_distribution(p, q, n=100, length=6, reps=5, seed=1)


def test_first_edges_needs_a_rep_per_cell(bal2):
    p, q = bal2
    # 4 supported types give 4^3 = 64 cells, more than 50 reps
    with pytest.raises(ValueError, match="64"):
        sv.first_edges_distribution(p, q, n=100, length=3, reps=50, seed=1)


def test_self_loop_report(bal2):
    p, q = bal2
    rep = sv.self_loop_poisson(p, q, n=400, reps=200, seed=23)
    assert len(rep.counts) == 200
    assert rep.mean == pytest.approx(np.mean(rep.counts))
    assert rep.predicted == pytest.approx(self_loop_rate(p, q))
    assert 0.6 < rep.var_mean_ratio < 1.4
    assert math.isfinite(rep.z_score)
    assert sv.self_loop_poisson(p, q, n=400, reps=200, seed=23) == rep


@pytest.mark.parametrize("reps", [0, 1])
def test_self_loop_report_needs_two_reps(bal2, reps):
    # one count has no sample variance: no standard error, no z-score
    p, q = bal2
    with pytest.raises(ValueError, match="at least 2 reps"):
        sv.self_loop_poisson(p, q, n=100, reps=reps, seed=1)


def test_assortativity_sign(bal2, disas):
    p, q = bal2
    rs = [
        sv.assortativity_coefficient(generate_graph(p, q, 4000, seed=[29, i]))
        for i in range(5)
    ]
    assert abs(np.mean(rs)) < 0.1
    pd, qd = disas
    rs = [
        sv.assortativity_coefficient(generate_graph(pd, qd, 4000, seed=[31, i]))
        for i in range(5)
    ]
    assert np.mean(rs) < -0.2


def test_assortativity_degenerate():
    p, q = load_params(SINGLE_TYPE)
    g = generate_graph(p, q, 50, seed=5)
    with pytest.raises(DegenerateVariance):
        sv.assortativity_coefficient(g)


ONE_SELF_LOOP = {"K": 1, "P": [[0, 0], [0, 1.0]], "Q": "independent"}  # n = 1 wires one self-loop


def test_self_loop_counts_without_spread():
    # every count is the predicted 1: no standard error, yet the mean sits on the prediction
    p, q = load_params(ONE_SELF_LOOP)
    rep = sv.self_loop_poisson(p, q, n=1, reps=3, seed=1)
    assert rep.counts == (1, 1, 1)
    assert (rep.z_score, rep.var_mean_ratio, rep.mean_within_4se) == (0.0, 0.0, True)


def test_one_edge_has_no_assortativity():
    p, q = load_params(ONE_SELF_LOOP)
    g = generate_graph(p, q, 1, seed=1)
    assert g.n_edges == 1
    with pytest.raises(DegenerateVariance, match="at least two edges"):
        sv.assortativity_coefficient(g)
    report = sv.assortativity_replicates(p, q, n=1, reps=2, seed=1)
    assert (report.coefficients, report.mean_coefficient) == ((None, None), None)


def _degenerate_assortativity(monkeypatch):
    # one node type: every edge joins the same degrees, so no coefficient exists
    p, q = load_params(SINGLE_TYPE)
    report = sv.assortativity_replicates(p, q, n=50, reps=2, seed=1)
    return report, {"coefficients": (None, None), "mean_coefficient": None}


@pytest.mark.parametrize("case", [_degenerate_assortativity], ids=lambda f: f.__name__[1:])
def test_undefined_statistics_are_reported_not_raised(case, monkeypatch):
    report, want = case(monkeypatch)
    assert {name: getattr(report, name) for name in want} == want


def test_to_jsonable_round():
    rep = sv.SelfLoopReport(
        n=1,
        reps=1,
        seed=0,
        counts=(np.int64(2),),
        mean=np.float64(2.0),
        variance=0.0,
        predicted=1.0,
        z_score=float("inf"),
        var_mean_ratio=float("nan"),
        mean_within_4se=False,
    )
    out = cli.to_jsonable(rep)
    assert out["counts"] == [2]
    assert isinstance(out["counts"][0], int)
    assert out["mean"] == 2.0
    assert out["z_score"] == "inf"
    assert out["var_mean_ratio"] == "nan"
    assert cli.to_jsonable({1: np.arange(2), (1, 2): "x"}) == {"1": [0, 1], "(1, 2)": "x"}
