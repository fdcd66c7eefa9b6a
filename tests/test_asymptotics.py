import math

import numpy as np
import pytest

from acg import asymptotics as asym
from acg import exact_kernel as kernel
from acg.errors import MarginMismatch, NoConvergence, UnsupportedMargin

from conftest import SKEW_Q
from helpers import coordinate_descent_alpha, fourier_integrand, from_margins

Q1 = np.array([[0.0, 0.0], [0.0, 1.0]])  # K = 1, all mass on (1, 1)


def test_double_vector_roundtrip():
    v = asym.double_vector([1.0, 2.0], [3.0, 4.0])
    assert v.tolist() == [1, 2, 3, 4]
    minus, plus = asym.split_parts(v)
    assert minus.tolist() == [1, 2]
    assert plus.tolist() == [3, 4]
    with pytest.raises(ValueError):
        asym.split_parts(np.zeros(3))


def test_from_margins_strips_degree_zero_slot():
    e = from_margins(np.array([0, 1, 2]), np.array([0, 1, 2]))
    assert e.tolist() == [1, 2, 1, 2]
    em, ep = asym.to_margins(e)
    assert em.tolist() == [0, 1, 2]
    assert ep.tolist() == [0, 1, 2]
    with pytest.raises(MarginMismatch):
        from_margins(np.array([1, 1, 2]), np.array([0, 2, 2]))


def test_h_value_is_one_at_origin(bal2):
    _, q = bal2
    e = asym.double_vector([1 / 3, 2 / 3], [1 / 3, 2 / 3])
    assert asym.h_value(np.zeros(4), e, q) == pytest.approx(1 - 0.0, abs=1e-15)


def test_h_value_closed_form_k1():
    # H(a, b) = e^(a+b) - a - b for unit margins
    e = np.array([1.0, 1.0])
    assert asym.h_value(np.array([1.0, 1.0]), e, Q1) == pytest.approx(math.e**2 - 2, rel=1e-14)
    assert asym.h_value(np.zeros(2), e, Q1) == pytest.approx(1.0)


def test_h_invariant_along_gauge_direction(bal2):
    _, q = bal2
    rng = np.random.default_rng(0)
    e = asym.double_vector([1 / 3, 2 / 3], [1 / 3, 2 / 3])
    for _ in range(5):
        alpha = rng.normal(size=4)
        c = rng.normal()
        shifted = alpha + c * asym.gauge_direction(2)
        assert asym.h_value(shifted, e, q) == pytest.approx(asym.h_value(alpha, e, q), rel=1e-13)


def test_gradient_matches_finite_differences(bal2):
    _, q = bal2
    rng = np.random.default_rng(1)
    e = asym.double_vector([0.4, 0.6], [0.3, 0.7])
    h = 1e-6
    for _ in range(5):
        alpha = rng.normal(scale=0.5, size=4)
        grad = asym.h_derivatives(alpha, e, q, order=1)
        for i in range(4):
            step = np.zeros(4)
            step[i] = h
            fd = (asym.h_value(alpha + step, e, q) - asym.h_value(alpha - step, e, q)) / (2 * h)
            assert grad[i] == pytest.approx(fd, abs=1e-8)


def test_hessian_matches_finite_differences_and_kills_gauge(bal2):
    _, q = bal2
    e = asym.double_vector([0.4, 0.6], [0.3, 0.7])
    alpha = np.array([0.2, -0.1, 0.05, 0.3])
    hess = asym.h_derivatives(alpha, e, q, order=2)
    assert np.abs(hess @ asym.gauge_direction(2)).max() < 1e-14
    h = 1e-5
    for i in range(4):
        step = np.zeros(4)
        step[i] = h
        fd = (
            asym.h_derivatives(alpha + step, e, q, order=1)
            - asym.h_derivatives(alpha - step, e, q, order=1)
        ) / (2 * h)
        assert np.abs(hess[:, i] - fd).max() < 1e-7


def test_critical_point_at_margins_is_zero(bal2, disas):
    for _, q in (bal2, disas):
        x = asym.double_vector(q.in_marginal[1:], q.out_marginal[1:])
        res = asym.solve_critical_point(x, q)
        assert np.abs(res.alpha).max() < 1e-12
        assert res.h_at_min == pytest.approx(1.0, abs=1e-12)
        assert res.iterations == 0


def test_critical_point_independent_closed_form(bal2):
    # product Q: alpha splits into log ratios of the margins
    _, q = bal2
    x = asym.double_vector([2 / 3, 1 / 3], [2 / 3, 1 / 3])
    res = asym.solve_critical_point(x, q)
    expect = np.array([math.log(2), -math.log(2), math.log(2), -math.log(2)])
    assert np.abs(res.alpha - expect).max() < 1e-9
    assert res.gradient_norm < 1e-10


def test_critical_point_matches_coordinate_descent():
    rng = np.random.default_rng(7)
    for _ in range(5):
        xm = rng.uniform(0.2, 1.0, 2)
        xp = rng.uniform(0.2, 1.0, 2)
        xm /= xm.sum()
        xp /= xp.sum()
        x = asym.double_vector(xm, xp)
        res = asym.solve_critical_point(x, SKEW_Q)
        cd = coordinate_descent_alpha(x, np.asarray(SKEW_Q))
        assert np.abs(res.alpha - cd).max() < 1e-8
        assert res.iterations <= 50


def test_critical_value_identity(bal2):
    # at the minimum the weight matrix resums to the stub total
    _, q = bal2
    x = asym.double_vector([0.5, 0.5], [0.25, 0.75])
    res = asym.solve_critical_point(x, q)
    assert res.h_at_min == pytest.approx(1.0 - float(res.alpha @ x), abs=1e-12)


def test_critical_point_scaling_shift():
    x = asym.double_vector([0.3, 0.7], [0.6, 0.4])
    base = asym.solve_critical_point(x, SKEW_Q)
    scaled = asym.solve_critical_point(3.0 * x, SKEW_Q)
    shift = scaled.alpha - base.alpha
    assert np.abs(shift - math.log(3) / 2).max() < 1e-8


def test_solver_rejects_unbalanced_margins(bal2):
    _, q = bal2
    with pytest.raises(MarginMismatch):
        asym.solve_critical_point(asym.double_vector([0.5, 0.5], [0.3, 0.3]), q)


def test_solver_rejects_mass_off_support():
    # no edges into in-degree-1 targets, yet x asks for them
    q = np.array([[0, 0, 0], [0, 0, 0.5], [0, 0, 0.5]])
    x = asym.double_vector([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(UnsupportedMargin):
        asym.solve_critical_point(x, q)


def test_solver_reports_infeasible_margins(disas):
    # the margin polytope of the off-diagonal support excludes this x
    _, qd = disas
    x = asym.double_vector([2 / 3, 1 / 3], [2 / 3, 1 / 3])
    with pytest.raises(NoConvergence):
        asym.solve_critical_point(x, qd)


@pytest.mark.parametrize("size", [1, 2, 3, 6])
def test_complement_basis_is_orthonormal_and_gauge_free(size):
    gauge = asym.gauge_direction(size)
    for v in (gauge, gauge[1:]):
        basis = asym._complement_basis(v)
        assert basis.shape == (len(v), len(v) - 1)
        assert np.allclose(basis.T @ basis, np.eye(len(v) - 1), rtol=0, atol=1e-14)
        assert np.allclose(v @ basis, 0.0, rtol=0, atol=1e-14)


def test_det0_hessian_k1_value():
    res = asym.solve_critical_point(np.array([1.0, 1.0]), Q1)
    assert asym.det0_hessian(res.alpha, Q1) == pytest.approx(2.0, rel=1e-12)


def test_fourier_integrand_periodicity(bal2):
    _, q = bal2
    e = from_margins(np.array([0, 1, 2]), np.array([0, 1, 2]))
    rng = np.random.default_rng(3)
    u = rng.uniform(0, asym.TWO_PI, 4)
    for i in range(4):
        shifted = u.copy()
        shifted[i] += asym.TWO_PI
        a = fourier_integrand(u, e, q)
        b = fourier_integrand(shifted, e, q)
        assert abs(a - b) < 1e-12 * max(1.0, abs(a))


def test_exact_I_matches_torus_quadrature():
    # trapezoid rule on the periodic integrand reproduces the lattice sum
    e = np.array([2.0, 2.0])
    n = 32
    grid = np.arange(n) * asym.TWO_PI / n
    total = 0.0 + 0.0j
    for u1 in grid:
        for u2 in grid:
            total += fourier_integrand(np.array([u1, u2]), e, Q1)
    quad = (asym.TWO_PI / n) ** 2 * total
    assert quad.imag == pytest.approx(0.0, abs=1e-9)
    assert quad.real == pytest.approx(math.exp(asym.log_exact_I(e, Q1)), rel=1e-10)


def test_exact_I_frozen_values(bal2):
    assert math.exp(asym.log_exact_I(np.array([1.0, 1.0]), Q1)) == pytest.approx((2 * math.pi) ** 2, rel=1e-12)
    _, q = bal2
    e = from_margins(np.array([0, 1, 2]), np.array([0, 1, 2]))
    want = (2 * math.pi) ** 4 * (24 / 729)
    assert math.exp(asym.log_exact_I(e, q)) == pytest.approx(want, rel=1e-12)


def test_laplace_ratio_trend_k1():
    # ratio exact/laplace settles toward a constant as E grows
    ratios = []
    for e_count in (5, 10, 20, 40):
        e = np.array([float(e_count), float(e_count)])
        ratios.append(math.exp(asym.log_exact_I(e, Q1) - asym.log_laplace_I_approx(e, Q1)))
    diffs = np.abs(np.diff(ratios))
    assert diffs[1] < diffs[0]
    assert diffs[2] < diffs[1]
    assert ratios[-1] == pytest.approx(math.sqrt(2), rel=0.02)


def test_laplace_ratio_trend_k3():
    # criterion 6 at K = 3: the ratio exact/laplace flattens as E grows
    # through 60, 120, 180 on margins far enough from Q's own to move the
    # critical point; the exact side needs an explicit cap above 60 edges
    q = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [0.0, 0.125, 0.0625, 0.0625],
            [0.0, 0.0625, 0.25, 0.0625],
            [0.0, 0.0625, 0.0625, 0.25],
        ]
    )
    ratios = []
    for m in (1, 2, 3):
        e = asym.double_vector(m * np.array([12.0, 18.0, 30.0]), m * np.array([18.0, 18.0, 24.0]))
        log_exact = asym.log_exact_I(e, q, cap=60 * m)
        ratios.append(math.exp(log_exact - asym.log_laplace_I_approx(e, q)))
    diffs = np.abs(np.diff(ratios))
    assert diffs[1] < diffs[0]


def test_log_laplace_finite_at_large_margins(bal2):
    _, q = bal2
    e = from_margins(np.array([0, 2500, 5000]), np.array([0, 2500, 5000]))
    value = asym.log_laplace_I_approx(e, q)
    assert math.isfinite(value)


def test_asymptotic_edge_mean_at_margins_is_q(bal2, disas):
    for _, q in (bal2, disas):
        x = asym.double_vector(q.in_marginal[1:], q.out_marginal[1:])
        for k in (1, 2):
            for j in (1, 2):
                got = asym.asymptotic_edge_mean(x, q, k, j)
                assert got == pytest.approx(q.matrix[k, j], abs=1e-12)


def test_asymptotic_edge_means_sum_to_one():
    x = asym.double_vector([0.45, 0.55], [0.3, 0.7])
    total = sum(asym.asymptotic_edge_mean(x, SKEW_Q, k, j) for k in (1, 2) for j in (1, 2))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_asymptotic_edge_mean_validates_type(bal2):
    _, q = bal2
    x = asym.double_vector([0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        asym.asymptotic_edge_mean(x, q, 0, 1)
    with pytest.raises(ValueError):
        asym.asymptotic_edge_mean(x, q, 1, 3)


def test_exact_mean_fraction_approaches_asymptotic():
    # full-support non-product law: the finite-size fraction drifts
    # toward the saddlepoint value at rate 1/m
    q = np.asarray(SKEW_Q)
    x = asym.double_vector([1 / 3, 2 / 3], [1 / 3, 2 / 3])
    limit = asym.asymptotic_edge_mean(x, q, 2, 2)
    errors = []
    for m in (2, 5, 10, 20):
        em = np.array([0, m, 2 * m])
        ep = np.array([0, m, 2 * m])
        fraction = kernel.exact_edge_mean(em, ep, q, 2, 2) / (3 * m)
        errors.append(abs(fraction - limit))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    assert errors[-1] < 0.02
    # halving rate consistent with a 1/m error term
    assert errors[1] / errors[3] == pytest.approx(4.0, rel=0.5)
