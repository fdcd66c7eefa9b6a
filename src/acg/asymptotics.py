"""Saddlepoint analysis of the margin-constrained wiring sum.

The number of edges of each type in a wiring with stub margins e is
controlled by the convex function

    H(alpha; e) = sum_kj exp(alpha_j^- + alpha_k^+) Q[k, j] - alpha . e

over "double vectors" alpha = (alpha^-, alpha^+) of length 2K.  H is
constant along each gauge direction, 1 on the in- and -1 on the
out-classes of a part that Q's edge types join, and the critical point
is pinned orthogonal to them.  The Laplace approximation built there,
log_laplace_I_approx, estimates the Fourier integral whose exact value,
log_exact_I, is (2 pi)^(2K) times the table partition sum; both stay in
the log domain, as the integral leaves the float range quickly in E.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import exact_kernel
from ._common import DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import InvalidDistribution, MarginMismatch, NoConvergence, SingularHessian, UnsupportedMargin, finite, integral

ARMIJO_C = 1e-4
TWO_PI = 2.0 * math.pi


def _floats(v):
    """v as a float array; MarginMismatch when it does not convert."""
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError):
        raise MarginMismatch(f"expected an array of numbers, got {v!r}") from None


def double_vector(minus, plus):
    """Stack a minus part (indexed by j=1..K) and a plus part (k=1..K)."""
    minus = np.atleast_1d(np.asarray(minus))
    plus = np.atleast_1d(np.asarray(plus))
    if minus.shape != plus.shape or minus.ndim != 1:
        raise MarginMismatch("minus and plus parts must be 1-d and equal length")
    return np.concatenate([minus, plus])


def split_parts(v):
    """Inverse of double_vector: return (minus, plus) views."""
    v = np.asarray(v)
    if v.ndim != 1 or v.shape[0] % 2:
        raise MarginMismatch(f"double vectors have even length, got shape {v.shape}")
    half = v.shape[0] // 2
    return v[:half], v[half:]


def to_margins(v):
    """Double vector -> margin arrays with the degree-0 slot prepended."""
    minus, plus = split_parts(v)
    return np.concatenate([[0], minus]), np.concatenate([[0], plus])


def gauge_direction(size):
    """The direction 1~ = 1^- - 1^+ along which H is constant."""
    return double_vector(np.ones(size), -np.ones(size))


def _core(q):
    """Q, read by exact_kernel._weights, as a K x K float array over positive degrees, rows k and columns j."""
    return np.array(exact_kernel._weights(q), dtype=float)[1:, 1:]


def _weight_matrix(alpha, qcore):
    """W[k, j] = exp(alpha_j^- + alpha_k^+) Q[k, j], complex-safe.

    Entries off Q's support stay exactly 0 even when the exponential
    overflows there.
    """
    minus, plus = split_parts(alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        w = qcore * np.exp(np.add.outer(plus, minus))
    return np.where(qcore != 0, w, 0)


def h_value(alpha, e, q):
    """H(alpha; e) = sum_kj exp(alpha . delta_jk) Q[k, j] - alpha . e.

    alpha may be complex, as the Fourier integrand needs; MarginMismatch
    unless alpha and e are numeric double vectors matching Q.
    """
    alpha = np.asarray(alpha)
    e = np.asarray(e)
    qcore = _core(q)
    if alpha.shape != (2 * qcore.shape[0],) or e.shape != alpha.shape:
        raise MarginMismatch("alpha and e must be double vectors matching Q")
    if alpha.dtype.kind not in "biufc" or e.dtype.kind not in "biufc":
        raise MarginMismatch(f"alpha and e must be arrays of numbers, got {alpha.dtype} and {e.dtype}")
    return _h(alpha, e, qcore)


def _h(alpha, e, qcore):
    """h_value on checked double vectors and the core that _core has read."""
    return _weight_matrix(alpha, qcore).sum() - np.dot(alpha, e)


def h_derivatives(alpha, e, q):
    """(gradient, Hessian) of H in alpha.

    The gradient is sum_kj delta_jk exp(alpha . delta_jk) Q[k, j] - e.
    The Hessian does not involve e; its blocks are the diagonal stub
    intensities and the weight matrix W, and it annihilates the gauge
    direction.
    """
    alpha = _floats(alpha)
    e = _floats(e)
    qcore = _core(q)
    if alpha.shape != (2 * qcore.shape[0],) or e.shape != alpha.shape:
        raise MarginMismatch("alpha and e must be double vectors matching Q")
    return _derivatives(alpha, e, qcore)


def _derivatives(alpha, e, qcore):
    """h_derivatives on checked float double vectors and the core that _core has read."""
    size = qcore.shape[0]
    w = _weight_matrix(alpha, qcore)
    col = w.sum(axis=0)
    row = w.sum(axis=1)
    hess = np.zeros((2 * size, 2 * size))
    hess[:size, :size] = np.diag(col)
    hess[size:, size:] = np.diag(row)
    hess[:size, size:] = w.T
    hess[size:, :size] = w
    return double_vector(col, row) - e, hess


@dataclass(frozen=True)
class CriticalPointResult:
    """Gauge-fixed minimizer of H(.; x) and its local data."""

    alpha: np.ndarray
    gradient_norm: float
    iterations: int
    h_at_min: float
    hessian_projected_det: float


def _point(x, q, tol):
    """(x as floats, Q's core, H's unit gauge vectors, tol), each read and checked once.

    A gauge vector is 1 on the in- and -1 on the out-classes of a part that
    Q's types join (in-class j and out-class k where Q[k, j] > 0; a class
    that Q leaves empty is a part of its own).  InvalidDistribution unless
    tol is a finite number > 0; MarginMismatch unless x is a double vector
    matching Q (shape read first), finite, nonnegative, with equal positive
    totals.  H has a minimum only inside the polytope of tables on Q's
    support: UnsupportedMargin when x's totals differ on a part or x is 0 on
    a class of a part of several classes.  Other boundary points pass.
    """
    tol = finite(tol, InvalidDistribution, above=0)
    x = _floats(x)
    qcore = _core(q)
    size = qcore.shape[0]
    if x.shape != (2 * size,):
        raise MarginMismatch("x must be a double vector matching Q")
    totals = [side.sum() for side in split_parts(x)]
    if not (np.isfinite(x) & (x >= 0)).all() or min(totals) <= 0 or not math.isclose(*totals, rel_tol=0, abs_tol=1e-9):
        raise MarginMismatch("margins must be finite and nonnegative with equal positive stub totals")
    reach = np.block([[np.eye(size, dtype=bool), qcore.T > 0], [qcore > 0, np.eye(size, dtype=bool)]])
    for _ in range((2 * size).bit_length()):  # each squaring doubles the joins a row of reach spans
        reach = reach @ reach
    units = []
    for part in np.unique(reach, axis=0):
        minus, plus = (side.sum() for side in split_parts(np.where(part, x, 0.0)))
        unequal = not math.isclose(minus, plus, rel_tol=0, abs_tol=1e-9 if part.sum() > 1 else 0)
        if unequal or (part.sum() > 1 and (x[part] == 0).any()):
            js, ks = ((np.flatnonzero(side) + 1).tolist() for side in split_parts(part))
            why = "totals differ on" if unequal else "is 0 on a class of"
            raise UnsupportedMargin(f"margin {why} the part of in-degrees {js} and out-degrees {ks}")
        units.append(np.where(part, gauge_direction(size), 0.0) / math.sqrt(part.sum()))
    return x, qcore, units, tol


def solve_critical_point(x, q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Newton's method for the critical point of H(.; x), gauge-fixed on each part of Q's support.

    x is a double vector of stub margins with equal positive totals on each
    part of the degree classes that Q's edge types join, and no zero on a
    class of a part of several; at total 1 the critical point's tilted
    weights are per-edge fractions.  Iterates move alpha orthogonally to
    every part's gauge vector, with Armijo backtracking, from alpha=0;
    hessian_projected_det is the product of the Hessian's eigenvalues off
    those vectors.  MarginMismatch or UnsupportedMargin unless x is such a
    double vector; InvalidDistribution unless tol is a finite number > 0
    and max_iter an integer of at least 1.
    """
    max_iter = integral(max_iter, InvalidDistribution, 1)
    return _solve(*_point(x, q, tol), max_iter)


def _solve(x, qcore, units, tol, max_iter):
    """solve_critical_point on the point, core, gauge vectors and tol that _point has read, and a checked max_iter."""
    def off(v):
        return v - sum((v @ u) * u for u in units)

    # F, the projector onto H's null space (which the units span), makes H + F invertible without
    # changing H on the gauge slice: Newton steps stay in it, and det(H + F) is the projected determinant
    fix = sum(np.outer(u, u) for u in units)
    alpha = np.zeros(x.shape[0])
    for iteration in range(max_iter):
        grad, hess = _derivatives(alpha, x, qcore)
        grad_norm = float(np.linalg.norm(off(grad)))
        hess += fix
        if grad_norm <= tol:
            sign, logdet = np.linalg.slogdet(hess)
            det = float(sign * math.exp(logdet)) if np.isfinite(logdet) else 0.0
            return CriticalPointResult(
                alpha=alpha,
                gradient_norm=grad_norm,
                iterations=iteration,
                h_at_min=float(_h(alpha, x, qcore)),
                hessian_projected_det=det,
            )
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            raise NoConvergence("projected Hessian is singular at an iterate") from None
        if grad @ step >= 0:
            step = -grad
        # x's totals agree only to 1e-9, so grad may leave the gauge slice; the step may not
        step = off(step)
        slope = float(grad @ step)
        value = float(_h(alpha, x, qcore))
        # once the predicted decrease is below float resolution the
        # sufficient-decrease test is meaningless; take the plain Newton
        # step and let the gradient test decide
        if ARMIJO_C * abs(slope) < 8 * np.finfo(float).eps * max(1.0, abs(value)):
            alpha = alpha + step
            continue
        t = 1.0
        while t > 2.0**-60:
            if _h(alpha + t * step, x, qcore) <= value + ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            raise NoConvergence("backtracking line search stalled")
        alpha = alpha + t * step
    raise NoConvergence(f"no critical point after {max_iter} Newton iterations")


def log_exact_I(e, q, cap=exact_kernel.DEFAULT_TABLE_CAP):
    """log of the margin-constraint integral, (2K) log(2 pi) + log Z.

    The integral of exp(H(-iu; e)) over a period box picks out the tables
    with margins e, so it equals (2 pi)^(2K) times the partition sum Z(e)
    of exact_kernel.log_partition.
    """
    em, ep = to_margins(e)
    size = em.shape[0] - 1
    lp = exact_kernel.log_partition(em, ep, q, cap=cap)
    return 2 * size * math.log(TWO_PI) + lp


def log_laplace_I_approx(e, q, tol=DEFAULT_TOL):
    """log of the saddlepoint estimate of the margin-constraint integral.

    With E edges, x = e/E, alpha* the gauge-fixed critical point and det0
    its projected Hessian determinant (solve_critical_point):

        (K + 1/2) log(2 pi) + (1/2) log(2K) + (1/2 - K) log E - E log E
            + E H(alpha*; x) - (1/2) log det0

    The integrand is constant along the gauge orbit u + t 1~, which on
    the torus closes at t = 2 pi into a curve of length 2 pi |1~| =
    2 pi sqrt(2K).  So the integral is that length times the integral
    over the 2K - 1 directions orthogonal to 1~, where Laplace's method
    gives (2 pi / E)^(K - 1/2) det0^(-1/2) exp(E H(alpha*; x) - E log E);
    the length gives one factor 2 pi and the term (1/2) log(2K).
    Errors as solve_critical_point, whose UnsupportedMargin covers e with no
    stubs on a class that Q's types join; SingularHessian when Q's support
    splits into more than one part (each adds a gauge orbit; a class that Q
    leaves empty is a part of its own) or when det0 <= 0.  Kept in the log
    domain: E log E leaves the float range quickly.
    """
    e, qcore, units, tol = _point(e, q, tol)
    if len(units) > 1:
        raise SingularHessian(f"Q's support splits into {len(units)} parts that no edge type joins")
    size = qcore.shape[0]
    total = float(e[:size].sum())
    result = _solve(e / total, qcore, units, tol, DEFAULT_MAX_ITER)
    det0 = result.hessian_projected_det
    if det0 <= 0:
        raise SingularHessian("projected Hessian is not positive definite")
    return (
        (size + 0.5) * math.log(TWO_PI)
        + 0.5 * math.log(2 * size)
        + (0.5 - size) * math.log(total)
        - total * math.log(total)
        + total * result.h_at_min
        - 0.5 * math.log(det0)
    )


def asymptotic_edge_mean(x, q, k, j, tol=DEFAULT_TOL):
    """Limiting per-edge fraction of type (k, j) edges at margin profile x.

    Equals the tilted weight Q[k, j] exp(alpha* . delta_jk) at the
    critical point of H(.; x), whose weights by the critical-point
    equation have margins x; so they are per-edge fractions when each part
    of x sums to 1.  When x matches Q's own margins the critical point is
    0 and this is Q[k, j] itself.  Errors as solve_critical_point, and
    MarginMismatch unless (k, j) is an edge type on degrees 1..K.
    """
    x, qcore, units, tol = _point(x, q, tol)
    k, j = exact_kernel._edge_type((k, j), qcore.shape[0] + 1)
    minus, plus = split_parts(_solve(x, qcore, units, tol, DEFAULT_MAX_ITER).alpha)
    return float(qcore[k - 1, j - 1] * math.exp(minus[j - 1] + plus[k - 1]))
