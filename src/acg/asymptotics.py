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

The module imports no numpy.  A double vector is any sequence of 2K
numbers, in-classes first; it is read into a list of floats, and the
solver works on lists, with Gaussian elimination for its Newton steps
and determinants, and returns lists.  Every sum runs left to right, so
no Python version's sum() changes a result, and an exponential that
overflows reads as inf.
"""

import cmath
import math
import numbers
import sys
from collections import namedtuple

from . import exact_kernel
from ._common import DEFAULT_MAX_ITER, DEFAULT_TOL
from .errors import InvalidDistribution, MarginMismatch, NoConvergence, SingularHessian, UnsupportedMargin, finite, integral

ARMIJO_C = 1e-4
TWO_PI = 2.0 * math.pi


def _core(q):
    """Q, read by exact_kernel._weights, as K rows of K floats over positive degrees, rows k and columns j."""
    return [[float(x) for x in row[1:]] for row in exact_kernel._weights(q)[1:]]


def _vector(v, size, name, kind=numbers.Real):
    """v as a list of 2 size floats, or complex numbers where kind is numbers.Complex.

    MarginMismatch unless v is a sequence of 2 size numbers of that kind;
    the length is read before any entry.  A number beyond the float range
    reads as an infinity.
    """
    entries = exact_kernel._entries(v, name)
    if len(entries) != 2 * size:
        raise MarginMismatch(f"{name} must be a double vector of {2 * size} entries matching Q, got {len(entries)}")
    if not all(isinstance(a, kind) for a in entries):
        raise MarginMismatch(f"{name} must be a double vector of numbers, got {v!r}")
    return [_number(a) for a in entries]


def _number(a):
    """A real number a as a float, any other number as a complex."""
    if not isinstance(a, numbers.Real):
        return complex(a)
    try:
        return float(a)
    except OverflowError:  # an int or a Fraction beyond the float range
        return math.inf if a > 0 else -math.inf


def _total(values):
    """The sum of values, taken left to right: no Python version's sum() changes it."""
    total = 0.0
    for v in values:
        total += v
    return total


def _dot(u, v):
    """u . v, summed left to right."""
    return _total(a * b for a, b in zip(u, v))


def _weight(q, exponent):
    """q exp(exponent), exponent real or complex: exactly 0 where q is 0, inf where the exponential overflows."""
    if not q:
        return 0.0
    try:
        return q * (cmath.exp(exponent) if isinstance(exponent, complex) else math.exp(exponent))
    except OverflowError:
        return math.inf


def _weight_rows(alpha, qcore):
    """The rows k of W[k][j] = exp(alpha_j^- + alpha_k^+) Q[k][j]."""
    size = len(qcore)
    return [[_weight(q, alpha[j] + alpha[size + k]) for j, q in enumerate(row)] for k, row in enumerate(qcore)]


def h_value(alpha, e, q):
    """H(alpha; e) = sum_kj exp(alpha . delta_jk) Q[k, j] - alpha . e.

    alpha may be complex, as the Fourier integrand needs; MarginMismatch
    unless alpha and e are numeric double vectors matching Q.
    """
    qcore = _core(q)
    size = len(qcore)
    return _h(_vector(alpha, size, "alpha", numbers.Complex), _vector(e, size, "e", numbers.Complex), qcore)


def _h(alpha, e, qcore):
    """h_value on checked double vectors and the core that _core has read."""
    return _total(w for row in _weight_rows(alpha, qcore) for w in row) - _dot(alpha, e)


def h_derivatives(alpha, e, q):
    """(gradient, Hessian) of H in alpha, as a list and a list of rows.

    The gradient is sum_kj delta_jk exp(alpha . delta_jk) Q[k, j] - e.
    The Hessian does not involve e; its blocks are the diagonal stub
    intensities and the weight matrix W, and it annihilates the gauge
    direction.
    """
    qcore = _core(q)
    size = len(qcore)
    return _derivatives(_vector(alpha, size, "alpha"), _vector(e, size, "e"), qcore)


def _derivatives(alpha, e, qcore):
    """h_derivatives on checked float double vectors and the core that _core has read."""
    size = len(qcore)
    w = _weight_rows(alpha, qcore)
    col, row = [0.0] * size, [0.0] * size
    for k in range(size):
        for j in range(size):
            col[j] += w[k][j]
            row[k] += w[k][j]
    hess = [[0.0] * (2 * size) for _ in range(2 * size)]
    for k in range(size):
        hess[k][k] = col[k]
        hess[size + k][size + k] = row[k]
        for j in range(size):
            hess[j][size + k] = hess[size + k][j] = w[k][j]
    return [g - x for g, x in zip(col + row, e)], hess


def _eliminate(a, b):
    """(det a, the solution s of a s = b) by Gaussian elimination with partial pivoting; s is None when a pivot is 0."""
    n = len(b)
    rows = [[*row, v] for row, v in zip(a, b)]
    det = 1.0
    for c in range(n):
        top = max(range(c, n), key=lambda r: abs(rows[r][c]))
        if top != c:
            rows[c], rows[top] = rows[top], rows[c]
            det = -det
        pivot = rows[c]
        if pivot[c] == 0:
            return 0.0, None
        det *= pivot[c]
        for row in rows[c + 1 :]:
            f = row[c] / pivot[c]
            for i in range(c + 1, n + 1):
                row[i] -= f * pivot[i]
    s = [0.0] * n
    for c in reversed(range(n)):
        v = rows[c][n]
        for i in range(c + 1, n):
            v -= rows[c][i] * s[i]
        s[c] = v / rows[c][c]
    return det, s


class CriticalPointResult(
    namedtuple("CriticalPointResult", ["alpha", "gradient_norm", "iterations", "h_at_min", "hessian_projected_det"])
):
    """Gauge-fixed minimizer of H(.; x) and its local data."""

    __slots__ = ()


def _parts(qcore):
    """The parts of the 2K degree classes that Q's types join, each as a sorted list of indices.

    In-class j has index j - 1 and out-class k index K + k - 1; Q[k, j] > 0
    joins them, and a class that Q leaves empty is a part of its own.
    Smaller parts come first, so that a check on each part names a class
    that Q leaves empty before a part whose totals it unbalances.
    """
    size = len(qcore)
    links = [[size + k for k in range(size) if qcore[k][j] > 0] for j in range(size)]
    links += [[j for j in range(size) if qcore[k][j] > 0] for k in range(size)]
    seen = [False] * (2 * size)
    parts = []
    for start in range(2 * size):
        if seen[start]:
            continue
        seen[start] = True
        part = [start]
        for i in part:  # breadth first: part grows while it is read
            for n in links[i]:
                if not seen[n]:
                    seen[n] = True
                    part.append(n)
        parts.append(sorted(part))
    return sorted(parts, key=len)


def _point(x, q, tol):
    """(x's in-total c, x / c as floats, Q's core, H's unit gauge vectors, tol), each read and checked once.

    A gauge vector is 1 on the in- and -1 on the out-classes of a part that
    Q's types join (in-class j and out-class k where Q[k, j] > 0; a class
    that Q leaves empty is a part of its own).  InvalidDistribution unless
    tol is a finite number > 0; MarginMismatch unless x is a double vector
    matching Q (length read first), finite, nonnegative, with positive
    totals that the float range holds, equal to within 1e-9 of their size,
    so the check reads the same at every scale.  H has a minimum only inside the polytope of tables on
    Q's support: UnsupportedMargin when x's totals differ on a part by more
    than that or x is 0 on a class of a part of several classes.  Other
    boundary points pass.
    """
    tol = finite(tol, InvalidDistribution, above=0)
    qcore = _core(q)
    size = len(qcore)
    x = _vector(x, size, "x")
    totals = _total(x[:size]), _total(x[size:])
    slack = 1e-9 * max(totals)
    if not all(math.isfinite(v) and v >= 0 for v in x) or not all(0 < t < math.inf for t in totals) or not math.isclose(*totals, rel_tol=0, abs_tol=slack):
        raise MarginMismatch("margins must be finite and nonnegative with equal positive stub totals")
    units = []
    for part in _parts(qcore):
        minus = _total(x[i] for i in part if i < size)
        plus = _total(x[i] for i in part if i >= size)
        unequal = not math.isclose(minus, plus, rel_tol=0, abs_tol=slack if len(part) > 1 else 0)
        if unequal or (len(part) > 1 and any(x[i] == 0 for i in part)):
            js = [i + 1 for i in part if i < size]
            ks = [i - size + 1 for i in part if i >= size]
            why = "totals differ on" if unequal else "is 0 on a class of"
            raise UnsupportedMargin(f"margin {why} the part of in-degrees {js} and out-degrees {ks}")
        unit = [0.0] * (2 * size)
        for i in part:
            unit[i] = (1.0 if i < size else -1.0) / math.sqrt(len(part))
        units.append(unit)
    return totals[0], [v / totals[0] for v in x], qcore, units, tol


def solve_critical_point(x, q, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """Newton's method for the critical point of H(.; x), gauge-fixed on each part of Q's support.

    x is a double vector of stub margins with equal positive totals on each
    part of the degree classes that Q's edge types join, and no zero on a
    class of a part of several; at total 1 the critical point's tilted
    weights are per-edge fractions.  Newton runs at x / c, c being x's
    in-total (_solve), and the result is mapped back by H's scale law,
    H(alpha + log(c)/2; c x) = c H(alpha; x) - c log c: alpha gains
    log(c)/2 in every coordinate, projected off the gauge vectors, and
    gradient_norm and each of the Hessian's eigenvalues off those vectors
    are c times theirs.  So tol bounds the gradient relative to x's
    in-total, and a point at either end of the float range has its answer;
    its hessian_projected_det, the product of those eigenvalues, may
    overflow to inf or underflow to 0.  alpha is a list.
    MarginMismatch or UnsupportedMargin unless x is such a double vector;
    InvalidDistribution unless tol is a finite number > 0 and max_iter an
    integer of at least 1.
    """
    max_iter = integral(max_iter, InvalidDistribution, 1)
    c, x, qcore, units, tol = _point(x, q, tol)
    res = _solve(x, qcore, units, tol, max_iter)
    det = res.hessian_projected_det
    for _ in range(len(x) - len(units)):  # a float product overflows to inf and underflows to 0
        det *= c
    shift = _off([0.5 * math.log(c)] * len(x), units)
    alpha = [a + s for a, s in zip(res.alpha, shift)]
    return CriticalPointResult(alpha, c * res.gradient_norm, res.iterations, c * (res.h_at_min - math.log(c)), det)


def _off(v, units):
    """v less its components along the units, which are orthonormal, so taking them out one at a time takes out their span."""
    for u in units:
        c = _dot(v, u)
        v = [a - c * b for a, b in zip(v, u)]
    return v


def _solve(x, qcore, units, tol, max_iter):
    """Newton's method for the critical point of H(.; x), on what _point has read and a checked max_iter.

    Iterates move alpha from 0 orthogonally to every gauge vector, with
    Armijo backtracking, and stop once the gradient's norm off those
    vectors is at most tol, an absolute test as x has unit in-total.
    """
    # F, the projector onto H's null space (which the units span), makes H + F invertible without
    # changing H on the gauge slice: Newton steps stay in it, and det(H + F) is the projected determinant
    fix = [(i, j, a * b) for u in units for i, a in enumerate(u) if a for j, b in enumerate(u) if b]
    alpha = [0.0] * len(x)
    for iteration in range(max_iter):
        grad, hess = _derivatives(alpha, x, qcore)
        slice_grad = _off(grad, units)
        grad_norm = math.sqrt(_dot(slice_grad, slice_grad))
        for i, j, f in fix:
            hess[i][j] += f
        det, step = _eliminate(hess, [-g for g in grad])
        if grad_norm <= tol:
            return CriticalPointResult(alpha, grad_norm, iteration, _h(alpha, x, qcore), det)
        if step is None:
            raise NoConvergence("projected Hessian is singular at an iterate")
        if _dot(grad, step) >= 0:
            step = [-g for g in grad]
        # x's totals agree only to 1e-9 of their size, so grad may leave the gauge slice; the step may not
        step = _off(step, units)
        slope = _dot(grad, step)
        value = _h(alpha, x, qcore)
        # once the predicted decrease is below float resolution the
        # sufficient-decrease test is meaningless; take the plain Newton
        # step and let the gradient test decide
        if ARMIJO_C * abs(slope) < 8 * sys.float_info.epsilon * max(1.0, abs(value)):
            alpha = [a + s for a, s in zip(alpha, step)]
            continue
        t = 1.0
        while t > 2.0**-60:
            if _h([a + t * s for a, s in zip(alpha, step)], x, qcore) <= value + ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            raise NoConvergence("backtracking line search stalled")
        alpha = [a + t * s for a, s in zip(alpha, step)]
    raise NoConvergence(f"no critical point after {max_iter} Newton iterations")


def log_exact_I(e, q, cap=exact_kernel.DEFAULT_TABLE_CAP):
    """log of the margin-constraint integral, (2K) log(2 pi) + log Z.

    The integral of exp(H(-iu; e)) over a period box picks out the tables
    with margins e, so it equals (2 pi)^(2K) times the partition sum Z(e)
    of exact_kernel.log_partition.
    """
    e = exact_kernel._entries(e, "e")
    if len(e) % 2:
        raise MarginMismatch(f"double vectors have even length, got {len(e)} entries")
    size = len(e) // 2
    lp = exact_kernel.log_partition([0, *e[:size]], [0, *e[size:]], q, cap=cap)
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
    total, x, qcore, units, tol = _point(e, q, tol)
    if len(units) > 1:
        raise SingularHessian(f"Q's support splits into {len(units)} parts that no edge type joins")
    size = len(qcore)
    result = _solve(x, qcore, units, tol, DEFAULT_MAX_ITER)
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
    0 and this is Q[k, j] itself.  The weight is found at x / c, c being
    x's in-total, and scaled by c, as in solve_critical_point.  Errors as
    solve_critical_point, and MarginMismatch unless (k, j) is an edge type
    on degrees 1..K.
    """
    c, x, qcore, units, tol = _point(x, q, tol)
    size = len(qcore)
    k, j = exact_kernel._edge_type((k, j), size + 1)
    alpha = _solve(x, qcore, units, tol, DEFAULT_MAX_ITER).alpha
    return c * _weight(qcore[k - 1][j - 1], alpha[j - 1] + alpha[size + k - 1])
