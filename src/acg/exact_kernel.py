"""Exact finite-size combinatorics of the weighted wiring measure.

Everything here conditions on the stub-count margins e- (in-stubs per
degree) and e+ (out-stubs per degree), both indexed 0..K with entry 0
identically zero, and takes them as the pair (e_minus, e_plus);
margins_of_sequence turns a node-type sequence of (j, k) pairs into
that pair.  A wiring is an ordered pairing of in- and out-stubs; its
probability depends only on the edge-type contingency table e[k, j],
through the table weight prod_kj Q[k, j]^e[k, j] / e[k, j]!, and
table_probability gives the law of that table.

The partition sum of those weights factorizes by columns,

    Z(e) = [y^{e+}] prod_j (sum_k Q[k, j] y_k)^{e-_j} / e-_j!,

and one dynamic program computes it: in-stubs are taken one at a time,
column by column, and the state is the vector s of out-stubs used per
class (s <= e+), so a stub of column j moves s to s + d_k with factor
Q[k, j].  The same code runs in exact rational arithmetic when any
entry of Q is a Fraction, and on floats otherwise.  Edge-count moments
ride along on the program, and the margin-reduction ratio
Q[k, j] Z(e - d_jk) / Z(e) checks them by an independent route.  Sizes
are capped explicitly: DEFAULT_TABLE_CAP total edges for the program,
ORACLE_CAP for the brute-force stub-permutation oracle.

The module imports no numpy.  Margins, edge types, tables and node-type
sequences are read as lists of ints, each entry by errors.integral, and
Q by the parameter reader's rule, _params.matrix_rows; numpy arrays are
accepted wherever a list is.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from fractions import Fraction

from ._common import DEFAULT_TABLE_CAP, ORACLE_CAP
from ._params import matrix_rows
from .errors import AcgError, CapExceeded, InvalidDistribution, MarginMismatch, ZeroPartition, integral

_LN2 = math.log(2.0)
_BALANCE_SWEEPS = 20
_MIN_EXP = sys.float_info.min_exp + 53  # balanced weights stay normal with room to spare
_RESCALE_BITS = 64
_ROUTE_TOL = 1e-12  # relative agreement required of the two moment routes for float Q


def _weights(q) -> list[list]:
    """Q as nested lists: of Fractions when any entry is a Fraction, else of floats.

    The one reader of Q for the exact and saddlepoint layers:
    InvalidDistribution unless Q (or q.matrix) is a square matrix of size
    K+1 >= 2 whose entries are finite nonnegative numbers, each read by
    the rule of the parameter reader, _params.matrix_rows.
    """
    rows = matrix_rows(getattr(q, "matrix", q), "Q")
    cast = Fraction if any(isinstance(x, Fraction) for x in itertools.chain(*rows)) else float
    return [[cast(x) for x in row] for row in rows]


def _zero(w):
    return Fraction(0) if isinstance(w[0][0], Fraction) else 0.0


def _entries(values, what: str) -> list:
    """values as a list; MarginMismatch, naming what values should be, when it is not a sequence."""
    try:
        return list(values)
    except TypeError:
        raise MarginMismatch(f"{what} must be a sequence, got {values!r}") from None


def _ints(values, what: str) -> list[int]:
    """values as a list of ints, each read by errors.integral with MarginMismatch."""
    return [integral(v, MarginMismatch) for v in _entries(values, what)]


def _check_margins(e_minus, e_plus, size: int, cap: int) -> tuple[list[int], list[int], int]:
    cap = integral(cap, InvalidDistribution, 0)
    em = _ints(e_minus, "a margin")
    ep = _ints(e_plus, "a margin")
    if len(em) != size or len(ep) != size:
        raise MarginMismatch(f"margins must have length {size}, got {len(em)} and {len(ep)}")
    if min(em) < 0 or min(ep) < 0:
        raise MarginMismatch("margins must be nonnegative integers")
    if em[0] != 0 or ep[0] != 0:
        raise MarginMismatch("degree-0 stubs cannot exist; margin entry 0 must be zero")
    total_minus = sum(em)
    total_plus = sum(ep)
    if total_minus != total_plus:
        raise MarginMismatch(f"stub totals differ: {total_minus} in-stubs vs {total_plus} out-stubs")
    if total_minus > cap:
        raise CapExceeded(f"exact sum over {total_minus} edges exceeds cap {cap}")
    return em, ep, total_minus


def margins_of_sequence(pairs, size: int) -> tuple[list[int], list[int]]:
    """Stub-count margins (e-, e+), as lists, of a node-type sequence of (j, k) pairs with degrees 0..size-1."""
    seq = [_ints(pair, "a node type") for pair in _entries(pairs, "a node-type sequence")]
    if not seq or any(len(pair) != 2 for pair in seq):
        raise MarginMismatch(f"expected a sequence of (j, k) pairs, got {pairs!r}")
    if not all(0 <= d < size for d in itertools.chain(*seq)):
        raise MarginMismatch(f"sequence degrees must be integers in 0..{size - 1}")
    em, ep = [0] * size, [0] * size
    for j, k in seq:
        em[j] += j
        ep[k] += k
    if sum(em) != sum(ep):
        raise MarginMismatch(f"stub totals differ: {sum(em)} vs {sum(ep)}")
    return em, ep


class _Sum(namedtuple("_Sum", ["acc", "shift", "den"])):
    """Z(e) = acc[0] * 2**shift / den.

    With a marked cell (k, j), acc[1] and acc[2] hold sum e_kj w and
    sum e_kj^2 w over the tables, on the same scale as acc[0].
    """

    __slots__ = ()

    def log(self) -> float:
        return math.log(self.acc[0]) + self.shift * _LN2 - math.log(self.den)

    def value(self):
        """Z itself, for Fraction sums (whose shift is 0)."""
        return self.acc[0] / self.den

    def over(self, other):
        """Z(self) / Z(other), exact for Fractions."""
        r = self.acc[0] / other.acc[0] * Fraction(other.den, self.den)
        return r if isinstance(r, Fraction) else math.ldexp(r, self.shift - other.shift)


def _balanced(em, ep, w, rows, cols):
    """Weights scaled by powers of two towards the margins, and the binary shift undoing it.

    Scaling row k by 2**m_k and column j by 2**n_j multiplies every table
    with these margins by 2**(sum m_k e+_k + sum n_j e-_j), which the
    shift divides back out exactly.  The factors are Sinkhorn scalings
    towards e, so the largest states of each float layer are the ones
    that lead to e+; unbalanced, the program follows Q's own margins,
    and when e lies far from them the states that matter can underflow
    next to the layer's maximum.  Only binary exponents are kept, so a
    few sweeps suffice; factors that would push a weight out of the
    normal float range are not used.
    """
    a, b = [1.0] * len(w), [1.0] * len(w)
    for _ in range(_BALANCE_SWEEPS):
        for j in cols:
            s = sum(w[k][j] * a[k] for k in rows)
            if s > 0:
                b[j] = em[j] / s
        for k in rows:
            s = sum(w[k][j] * b[j] for j in cols)
            if s > 0:
                a[k] = ep[k] / s
    m = [math.frexp(x)[1] for x in a]
    n = [math.frexp(x)[1] for x in b]
    tw = [list(row) for row in w]
    for k in rows:
        for j in cols:
            if w[k][j]:
                if not _MIN_EXP < math.frexp(w[k][j])[1] + m[k] + n[j] < sys.float_info.max_exp:
                    return w, 0
                tw[k][j] = math.ldexp(w[k][j], m[k] + n[j])
    return tw, -sum(m[k] * ep[k] for k in rows) - sum(n[j] * em[j] for j in cols)


def _partition_sum(em, ep, w, mark=None) -> _Sum | None:
    """Z(e) by the column program over s, or None when no table has the margins.

    Float weights are balanced by _balanced, and a layer is rescaled by
    a power of two whenever its maximum drifts more than _RESCALE_BITS
    binary orders from 1; every state of a layer has used the same number
    of stubs, so one factor serves the whole layer.  If the target entry
    still underflows, the sum is redone exactly on the floats' rational
    values.  With mark = (k, j), a stub of that type maps the state's
    (w, d1, d2) to q (w, d1 + w, d2 + 2 d1 + w); the marked column is
    processed last, so before it d1 = d2 = 0.
    """
    size = len(w)
    rows = [k for k in range(size) if ep[k]]
    cols = [j for j in range(size) if em[j]]
    if mark is not None:
        cols.sort(key=lambda j: j == mark[1])
    den = math.prod(math.factorial(n) for n in em)
    exact = isinstance(w[0][0], Fraction)
    tw, shift = (w, 0) if exact else _balanced(em, ep, w, rows, cols)
    cap = tuple(ep[k] for k in rows)
    layer = {(0,) * len(rows): Fraction(1) if exact else 1.0}
    d1, d2 = {}, {}
    for j in cols:
        step = [(i, tw[k][j], (k, j) == mark) for i, k in enumerate(rows) if tw[k][j]]
        moments = mark is not None and j == mark[1]
        for _ in range(em[j]):
            if not layer:
                return None
            if not exact:
                top = math.frexp(max(layer.values()))[1]
                if abs(top) > _RESCALE_BITS:
                    shift += top
                    for part in (layer, d1, d2):
                        for s in part:
                            part[s] = math.ldexp(part[s], -top)
            new, n1, n2 = {}, {}, {}
            for s, v in layer.items():
                if moments:
                    a, b = d1.get(s, 0), d2.get(s, 0)
                for i, q, marked in step:
                    if s[i] == cap[i]:
                        continue
                    t = s[:i] + (s[i] + 1,) + s[i + 1 :]
                    new[t] = new.get(t, 0) + q * v
                    if moments:
                        ma, mb = (a + v, b + 2 * a + v) if marked else (a, b)
                        n1[t] = n1.get(t, 0) + q * ma
                        n2[t] = n2.get(t, 0) + q * mb
            layer, d1, d2 = new, n1, n2
    v = layer.get(cap)
    if v is None:
        return None
    if not exact and v < sys.float_info.min:
        z = _partition_sum(em, ep, [[Fraction(x) for x in row] for row in w], mark)
        top = z.acc[0].numerator.bit_length() - z.acc[0].denominator.bit_length()
        return _Sum(tuple(float(x * Fraction(2) ** -top) for x in z.acc), top, den)
    acc = (v, d1.get(cap, 0), d2.get(cap, 0)) if mark is not None else (v,)
    return _Sum(acc, shift, den)


def _margin_sum(e_minus, e_plus, w, cap, mark=None):
    """Checked margins (em, ep) and their partition sum; ZeroPartition if no table."""
    em, ep, _ = _check_margins(e_minus, e_plus, len(w), cap)
    z = _partition_sum(em, ep, w, mark)
    if z is None:
        raise ZeroPartition("no admissible wiring for these margins")
    return em, ep, z


def log_partition(e_minus, e_plus, q, cap: int = DEFAULT_TABLE_CAP) -> float:
    """log of the partition sum over tables, in float arithmetic; -inf when no table has weight."""
    return _partition(e_minus, e_plus, [[float(x) for x in row] for row in _weights(q)], cap)[1]


def partition_C(e_minus, e_plus, q, cap: int = DEFAULT_TABLE_CAP):
    """Normalizing constant of the wiring measure: E! (prod e-!)(prod e+!) Z.

    Exact for Fraction Q.  For float Q the integer factor is joined to Z
    through its binary exponent, so C is finite wherever it fits a float
    and math.inf beyond that range.
    """
    return _partition(e_minus, e_plus, _weights(q), cap)[0]


def _partition(e_minus, e_plus, w, cap) -> tuple:
    """(C, log Z) of checked margins under the weights w, both from one partition sum.

    C is partition_C's constant.  log Z is log_partition's, -inf when no
    table has weight; for Fraction w it is None, as an exact Z may lie
    below the float range.
    """
    em, ep, _ = _check_margins(e_minus, e_plus, len(w), cap)
    z = _partition_sum(em, ep, w)
    if z is None:
        return _zero(w), -math.inf
    scale = math.factorial(sum(em))
    for v in itertools.chain(em, ep):
        scale *= math.factorial(v)
    if isinstance(w[0][0], Fraction):
        return scale * z.value(), None
    num = scale // z.den  # den = prod e-! divides scale
    drop = max(num.bit_length() - 64, 0)
    try:
        c = math.ldexp(z.acc[0] * float(num >> drop), z.shift + drop)
    except OverflowError:
        c = math.inf
    return c, z.log()


def _pad_table(table, size: int) -> list[list[int]]:
    """table as size rows of size ints, padded with zeros; MarginMismatch unless it is a rectangular table of nonnegative integers that fits."""
    rows = [_ints(row, "a table row") for row in _entries(table, "a table")]
    width = len(rows[0]) if rows else 0
    if not rows or any(len(row) != width or min(row, default=0) < 0 for row in rows):
        raise MarginMismatch(f"a table is a 2-d array of nonnegative integers, got {table!r}")
    if len(rows) > size or width > size:
        raise MarginMismatch(f"table shape ({len(rows)}, {width}) exceeds distribution size {size}")
    return [row + [0] * (size - width) for row in rows] + [[0] * size for _ in range(size - len(rows))]


def table_probability(table, q, cap: int = DEFAULT_TABLE_CAP):
    """Probability that the wiring realizes a given edge-type table."""
    w = _weights(q)
    t = _pad_table(table, len(w))
    _, _, z = _margin_sum([sum(col) for col in zip(*t)], [sum(row) for row in t], w, cap)
    cells = [(w[k][j], v) for k, row in enumerate(t) for j, v in enumerate(row) if v]
    if any(x == 0 for x, _ in cells):
        return _zero(w)
    if isinstance(w[0][0], Fraction):
        return math.prod(x**v / math.factorial(v) for x, v in cells) / z.value()
    return math.exp(sum(v * math.log(x) - math.lgamma(v + 1) for x, v in cells) - z.log())


def _cross_check(what, direct, ratio) -> None:
    tol = 0 if isinstance(ratio, Fraction) else _ROUTE_TOL
    if abs(direct - ratio) > tol * max(1.0, abs(direct), abs(ratio)):
        raise AcgError(f"{what} routes disagree: {direct!r} vs {ratio!r}")


def _edge_type(t, size: int) -> tuple[int, int]:
    """t as a (k, j) pair of ints; MarginMismatch unless it is a pair of integers in 1..size-1, the degrees an edge joins."""
    pair = _ints(t, "an edge type")
    if len(pair) != 2:
        raise MarginMismatch(f"an edge type is a (k, j) pair of integers, got {t!r}")
    k, j = pair
    if not (1 <= k < size and 1 <= j < size):
        raise MarginMismatch(f"edge type ({k}, {j}) outside degrees 1..{size - 1}")
    return k, j


def _reduced(em, ep, w, types, z=None):
    """prod Q[k, j] Z(e - sum d_jk) / Z(e) over the (k, j) in types; z is Z(e) if already summed.

    Zero, with no partition sum, when a listed type has Q = 0 or a margin
    is driven below 0, and zero when no table has the reduced margins.
    """
    weight = math.prod((w[k][j] for k, j in types), start=_zero(w) + 1)
    rest_m, rest_p = list(em), list(ep)
    for k, j in types:
        rest_m[j] -= 1
        rest_p[k] -= 1
    possible = weight != 0 and min(*rest_m, *rest_p) >= 0
    z_rest = _partition_sum(rest_m, rest_p, w) if possible else None
    if z_rest is None:
        return _zero(w)
    return weight * z_rest.over(_partition_sum(em, ep, w) if z is None else z)


def exact_edge_mean(e_minus, e_plus, q, k: int, j: int, cap: int = DEFAULT_TABLE_CAP):
    """Expected count of type-(k, j) edges given the margins.

    Computed two ways, the program's weighted count sum and the
    margin-reduction ratio Q[k,j] Z(e - d_jk) / Z(e); the routes must
    agree to a relative 1e-12 (exactly for Fraction Q).
    """
    w = _weights(q)
    k, j = _edge_type((k, j), len(w))
    em, ep, z = _margin_sum(e_minus, e_plus, w, cap, mark=(k, j))
    ratio = _reduced(em, ep, w, [(k, j)], z)
    _cross_check("edge-mean", z.acc[1] / z.acc[0], ratio)
    return ratio


def exact_edge_variance(e_minus, e_plus, q, k: int, j: int, cap: int = DEFAULT_TABLE_CAP):
    """Variance of the type-(k, j) edge count given the margins, E[e] + E[e (e - 1)] - E[e]^2.

    Both moments are computed by the two routes of exact_edge_mean, the
    ratio one for E[e (e - 1)] being Q[k,j]^2 Z(e - 2 d_jk) / Z(e), and
    checked before the subtraction, whose cancellation would leave the
    tolerance nothing to scale with.  A float result is clamped at 0,
    where rounding can push a fixed count's variance below it.
    """
    w = _weights(q)
    k, j = _edge_type((k, j), len(w))
    em, ep, z = _margin_sum(e_minus, e_plus, w, cap, mark=(k, j))
    mean = _reduced(em, ep, w, [(k, j)], z)
    pairs = _reduced(em, ep, w, [(k, j)] * 2, z)
    _cross_check("edge-variance mean", z.acc[1] / z.acc[0], mean)
    _cross_check("edge-variance pair", (z.acc[2] - z.acc[1]) / z.acc[0], pairs)
    variance = mean + pairs - mean * mean
    return variance if isinstance(variance, Fraction) else max(variance, 0.0)


def joint_first_M_prob(e_minus, e_plus, q, types, cap: int = DEFAULT_TABLE_CAP):
    """Probability that the first M wired edges have the given (k, j) types, in order.

    With e_i the margins left after the first i edges, edge i has its type
    with probability Q[k_i, j_i] Z(e_i) / (Z(e_{i-1}) (E - i + 1)), and the
    product telescopes to prod_i Q[k_i, j_i] Z(e_M) / (Z(e_0) (E)_M).  Two
    partition sums suffice: if Z(e_M) > 0, so is every Z(e_i), as adding the
    removed edges back to a table with margins e_M gives one with margins
    e_i.  The prefix is impossible when a type has Q = 0, a margin is driven
    below 0, or Z(e_M) = 0.
    """
    w = _weights(q)
    types = [_edge_type(t, len(w)) for t in types]
    em, ep, total = _check_margins(e_minus, e_plus, len(w), cap)
    if len(types) > total:
        raise MarginMismatch(f"asked for {len(types)} leading edges but only {total} exist")
    prob = _reduced(em, ep, w, types)
    for i in range(len(types)):
        prob /= total - i
    return prob


class OracleDistribution(namedtuple("OracleDistribution", ["tables", "wiring_counts", "total_weight", "n_edges"])):
    """Brute-force wiring distribution from stub-pairing enumeration.

    tables maps each table tuple to its probability and wiring_counts to
    its number of ordered wirings; total_weight is the partition constant C.
    """

    __slots__ = ()


def enumerate_wirings_oracle(e_minus, e_plus, q, cap: int = ORACLE_CAP) -> OracleDistribution:
    """Enumerate every stub bijection for the margins (e-, e+), weighted by Q.

    Ordered wirings are bijections plus an edge ordering; the ordering
    multiplies counts by E! and leaves probabilities untouched, so the
    total weight reported is E! times the bijection-weight sum.
    """
    rows = _weights(q)
    size = len(rows)
    em, ep, total = _check_margins(e_minus, e_plus, size, cap)
    in_stub_deg = [d for d in range(1, size) for _ in range(em[d])]
    out_stub_deg = [d for d in range(1, size) for _ in range(ep[d])]
    zero = _zero(rows)
    table_weights: dict = {}
    bijection_counts: dict = {}
    for perm in itertools.permutations(out_stub_deg):
        weight = zero + 1
        table = [[0] * size for _ in range(size)]
        for k, j in zip(perm, in_stub_deg):
            weight = weight * rows[k][j]
            table[k][j] += 1
        key = tuple(map(tuple, table))
        table_weights[key] = table_weights.get(key, zero) + weight
        bijection_counts[key] = bijection_counts.get(key, 0) + 1
    weight_sum = sum(table_weights.values(), zero)
    fact = math.factorial(total)
    if weight_sum == 0:
        probs = {k: zero for k in table_weights}
    else:
        probs = {k: v / weight_sum for k, v in table_weights.items()}
    return OracleDistribution(
        tables=probs,
        wiring_counts={k: v * fact for k, v in bijection_counts.items()},
        total_weight=weight_sum * fact,
        n_edges=total,
    )
