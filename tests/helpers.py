"""Independent reference implementations used as test oracles."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from acg import exact_kernel as kernel
from acg.asymptotics import double_vector, h_value
from acg.config_probability import Attachment, ConfigurationTree, tree_config_prob
from acg.degree_model import EdgeTypeDist, NodeTypeDist
from acg.errors import AcgError, MarginMismatch, ZeroPartition

# feasible node-type sequences with E <= 5 and degrees <= 2
ORACLE_SEQUENCES = [
    [(1, 1)],
    [(0, 1), (1, 0)],
    [(1, 1), (1, 1)],
    [(1, 2), (2, 1)],
    [(1, 1), (2, 2)],
    [(2, 2), (2, 2)],
    [(1, 1), (1, 2), (2, 1)],
    [(2, 2), (1, 1), (1, 1)],
    [(1, 1), (1, 1), (1, 1), (1, 1)],
    [(2, 2), (2, 2), (1, 1)],
    [(1, 2), (2, 1), (1, 1), (1, 1)],
    [(2, 1), (1, 2), (2, 2)],
]


def coordinate_descent_alpha(x, q, sweeps: int = 200000, tol: float = 5e-15) -> np.ndarray:
    """Minimize sum_kj exp(a-_j + a+_k) Q_kj - a.x by exact one-variable updates.

    Each coordinate update solves its scalar subproblem in closed form
    (A e^t - x t has its minimum at t = log(x / A)), then the iterate is
    projected back onto the plane orthogonal to (1, -1), along which the
    objective is flat.  Margins must be strictly positive.
    """
    qcore = np.asarray(q.matrix if isinstance(q, EdgeTypeDist) else q, dtype=float)[1:, 1:]
    size = qcore.shape[0]
    x = np.asarray(x, dtype=float)
    xm, xp = x[:size], x[size:]
    if xm.min() <= 0 or xp.min() <= 0:
        raise ValueError("coordinate descent expects strictly positive margins")
    am = np.zeros(size)
    ap = np.zeros(size)
    for _ in range(sweeps):
        move = 0.0
        for j in range(size):
            a = float(np.exp(ap) @ qcore[:, j])
            new = np.log(xm[j] / a)
            move = max(move, abs(new - am[j]))
            am[j] = new
        for k in range(size):
            b = float(qcore[k, :] @ np.exp(am))
            new = np.log(xp[k] / b)
            move = max(move, abs(new - ap[k]))
            ap[k] = new
        shift = (am.sum() - ap.sum()) / (2 * size)
        am -= shift
        ap += shift
        if move < tol:
            break
    return np.concatenate([am, ap])


def random_consistent_pair(rng, K: int = 2):
    """Random strictly positive node law with a matching random edge law.

    The node law is a mixture of two random tables chosen so mean in- and
    out-degree agree; the edge law is fitted to the implied stub marginals
    by iterative proportional scaling from a random positive start.  At
    K = 1 every table is balanced, and both laws put all mass on (1, 1).
    """
    degs = np.arange(1, K + 1, dtype=float)
    while K > 1:
        w1 = rng.uniform(0.05, 1.0, (K, K))
        w2 = rng.uniform(0.05, 1.0, (K, K))
        w1 /= w1.sum()
        w2 /= w2.sum()

        def imbalance(w):
            return float(degs @ w.sum(axis=1) - w.sum(axis=0) @ degs)

        f1, f2 = imbalance(w1), imbalance(w2)
        if f1 == f2:
            continue
        t = f2 / (f2 - f1)
        if not 0.0 <= t <= 1.0:
            continue
        core = t * w1 + (1.0 - t) * w2
        if core.min() > 1e-4:
            break
    else:
        core = np.ones((1, 1))
    p = np.zeros((K + 1, K + 1))
    p[1:, 1:] = core
    z = float(degs @ core.sum(axis=1))
    q_minus = degs * core.sum(axis=1) / z
    q_plus = degs * core.sum(axis=0) / z

    m = rng.uniform(0.1, 1.0, (K, K))
    for _ in range(20000):
        m *= (q_plus / m.sum(axis=1))[:, None]
        m *= q_minus / m.sum(axis=0)
        if np.abs(m.sum(axis=1) - q_plus).max() < 1e-14:
            break
    q = np.zeros((K + 1, K + 1))
    q[1:, 1:] = m
    return NodeTypeDist.from_weights(p), EdgeTypeDist.from_weights(q)


def edge_type_prob(p: NodeTypeDist, q: EdgeTypeDist, target, source) -> float:
    """Limiting chance that an edge runs from a type-`source` node into a type-`target` node.

    An edge's target has type (j, k) with probability j P[j,k]/z, and
    tree_config_prob of the one-edge tree rooted there with an "in"
    attachment of type `source` is the source's law given the target.  The
    product is j1 k2 P[j1,k1] P[j2,k2] Q[k2,j1] / (z^2 Q+_k2 Q-_j1), and 0
    where Q+_k2 or Q-_j1 vanishes.
    """
    h = ConfigurationTree(target, [Attachment(1, 0, "in", source)])
    return target[0] * p.matrix[target] / p.mean_degree * tree_config_prob(h, p, q)


def iter_tables(row_sums, col_sums, support=None):
    """Yield all nonnegative integer matrices with the given margins.

    Row index is the out-degree k, column index the in-degree j, matching
    Q's orientation.  Rows are filled recursively with margin pruning; if
    support (a boolean matrix) is given, entries outside it are forced to
    zero.
    """
    rows = [int(r) for r in row_sums]
    cols = [int(c) for c in col_sums]
    if sum(rows) != sum(cols):
        return
    n_rows, n_cols = len(rows), len(cols)
    table = [[0] * n_cols for _ in range(n_rows)]
    col_rem = list(cols)

    def fill_row(r, c, remaining_row):
        if c == n_cols - 1:
            blocked = support is not None and not support[r][c] and remaining_row > 0
            if remaining_row <= col_rem[c] and not blocked:
                table[r][c] = remaining_row
                col_rem[c] -= remaining_row
                yield from next_row(r)
                col_rem[c] += remaining_row
                table[r][c] = 0
            return
        hi = min(remaining_row, col_rem[c])
        if support is not None and not support[r][c]:
            hi = 0
        for v in range(hi + 1):
            table[r][c] = v
            col_rem[c] -= v
            yield from fill_row(r, c + 1, remaining_row - v)
            col_rem[c] += v
        table[r][c] = 0

    def next_row(r):
        if r == n_rows - 1:
            if all(v == 0 for v in col_rem):
                yield np.array(table, dtype=int)
            return
        yield from fill_row(r + 1, 0, rows[r + 1])

    yield from fill_row(0, 0, rows[0])


def weighted_tables(e_minus, e_plus, rows):
    """Every table with margins (e-, e+) and its weight prod Q[k, j]^e[k, j] / e[k, j]!.

    rows holds Q as nested floats or Fractions; weights keep that type.
    Tables through a cell where Q vanishes are skipped.
    """
    support = [[x > 0 for x in row] for row in rows]
    out = []
    for table in iter_tables(e_plus, e_minus, support=support):
        weight = 1
        for (k, j), v in np.ndenumerate(table):
            if v:
                weight = weight * rows[k][j] ** int(v) / math.factorial(int(v))
        out.append((table, weight))
    return out


def rate_matrix_oracle(q: EdgeTypeDist) -> list:
    """R[k][j] = Q[k,j] / (Q+_k Q-_j) by a scalar loop; zero wherever a margin vanishes."""
    size = q.K + 1
    rate = [[0.0] * size for _ in range(size)]
    for k in range(1, size):
        qp = q.out_marginal[k]
        if qp <= 0:
            continue
        for j in range(1, size):
            qm = q.in_marginal[j]
            if qm > 0:
                rate[k][j] = float(q.matrix[k, j]) / (qp * float(qm))
    return rate


def draw_cells_oracle(p: NodeTypeDist, n: int, rng) -> tuple:
    """(in-degrees, out-degrees) of n node types drawn by Generator.choice over P's flattened cells."""
    size = p.K + 1
    flat = rng.choice(size * size, size=n, p=p.matrix.reshape(-1))
    return flat // size, flat % size


def count_embeddings_oracle(g, h) -> int:
    """Embeddings of configuration h in multigraph g by depth-first recursion.

    Walks h's attachments one edge at a time from every root of matching
    type, keeping the node map and the set of used edge ids.  A type is
    read only from the root and from the attachment that makes a node
    fresh.
    """
    out_edges = [[] for _ in range(g.n_nodes)]
    in_edges = [[] for _ in range(g.n_nodes)]
    for eid in range(g.n_edges):
        out_edges[g.edge_src[eid]].append(eid)
        in_edges[g.edge_dst[eid]].append(eid)

    def type_matches(node, wanted) -> bool:
        return wanted is None or (
            g.in_degrees[node] == wanted[0] and g.out_degrees[node] == wanted[1]
        )

    atts = h.attachments
    total = 0

    def extend(pos, mapping, used):
        nonlocal total
        if pos == len(atts):
            total += 1
            return
        att = atts[pos]
        parent = mapping[att.parent]
        fresh = att.node not in mapping
        if att.orientation == "in":
            candidates = in_edges[parent]
            far_end = g.edge_src
        else:
            candidates = out_edges[parent]
            far_end = g.edge_dst
        for eid in candidates:
            if eid in used:
                continue
            other = far_end[eid]
            if fresh:
                if other in mapping.values():
                    continue
                if not type_matches(other, att.node_type):
                    continue
                mapping[att.node] = other
                used.add(eid)
                extend(pos + 1, mapping, used)
                used.discard(eid)
                del mapping[att.node]
            else:
                if other != mapping[att.node]:
                    continue
                used.add(eid)
                extend(pos + 1, mapping, used)
                used.discard(eid)

    for root in range(g.n_nodes):
        if type_matches(root, h.root_type):
            extend(0, {0: root}, set())
    return total


def columns_oracle(sep: str, header, cols) -> bytes:
    """A sample file's bytes by one "%d" format per row: the header line, then row index and columns."""
    row = sep.join(["%d"] * len(header)) + "\n"
    rows = zip(range(len(cols[0])), *(np.asarray(c).tolist() for c in cols))
    return (sep.join(header) + "\n" + "".join(map(row.__mod__, rows))).encode("ascii")


class InconsistentWiring(AcgError, ValueError):
    """A wiring does not use exactly the stubs implied by the node sequence."""


def wiring_count(table) -> int:
    """Number of ordered wirings realizing a given edge-type table (exact integer)."""
    t = np.asarray(table, dtype=int)
    if (t < 0).any():
        raise MarginMismatch("table entries must be nonnegative")
    e_plus = t.sum(axis=1)
    e_minus = t.sum(axis=0)
    count = math.factorial(int(t.sum()))
    for v in itertools.chain(e_minus, e_plus):
        count *= math.factorial(int(v))
    for v in t.flat:
        count //= math.factorial(int(v))
    return count


def table_of_wiring(wiring, x) -> np.ndarray:
    """Edge-type table of an ordered (source, target) pair list under sequence x.

    Raises InconsistentWiring unless every node's stubs are used exactly.
    """
    pairs = np.asarray(x, dtype=int)
    j_seq, k_seq = pairs[:, 0], pairs[:, 1]
    n = len(j_seq)
    size = int(max(j_seq.max(initial=0), k_seq.max(initial=0))) + 1
    out_used = np.zeros(n, dtype=int)
    in_used = np.zeros(n, dtype=int)
    table = np.zeros((size, size), dtype=int)
    for src, dst in wiring:
        if not (0 <= src < n and 0 <= dst < n):
            raise InconsistentWiring(f"edge ({src}, {dst}) references a missing node")
        out_used[src] += 1
        in_used[dst] += 1
        table[k_seq[src], j_seq[dst]] += 1
    if not (np.array_equal(out_used, k_seq) and np.array_equal(in_used, j_seq)):
        raise InconsistentWiring("wiring does not use each node's stubs exactly")
    return table


def wiring_probability(wiring, x, q, cap: int = kernel.DEFAULT_TABLE_CAP):
    """Probability of one ordered wiring: all wirings sharing a table are equally likely."""
    table = table_of_wiring(wiring, x)
    return kernel.table_probability(table, q, cap=cap) / wiring_count(table)


def first_m_prob(e_minus, e_plus, q, types):
    """Probability of a leading edge-type sequence, by brute force over stub bijections.

    Each bijection of in-stubs to out-stubs weighs prod Q[k, j] and is
    equally likely to appear in any of its E! edge orders, so the
    leading types follow sequential sampling without replacement from
    the bijection's type multiset.
    """
    rows = q.matrix.tolist() if isinstance(q, EdgeTypeDist) else q
    in_deg = [j for j, n in enumerate(e_minus) for _ in range(int(n))]
    out_deg = [k for k, n in enumerate(e_plus) for _ in range(int(n))]
    norm = total = 0
    for perm in itertools.permutations(out_deg):
        tlist = list(zip(perm, in_deg))
        weight = math.prod(rows[k][j] for k, j in tlist)
        if weight == 0:
            continue
        norm += weight
        counts = Counter(tlist)
        piece = weight
        remaining = len(tlist)
        for t in types:
            if counts[t] == 0:
                break
            piece = piece * counts[t] / remaining
            counts[t] -= 1
            remaining -= 1
        else:
            total += piece
    if norm == 0:
        raise ZeroPartition("no stub bijection has positive weight")
    return total / norm


def partition_Z(e_minus, e_plus, q, cap: int = kernel.DEFAULT_TABLE_CAP):
    """Partition sum Z(e) over tables, as the public C(e) over E! (prod e-!)(prod e+!).

    Exact for Fraction Q, where C is.
    """
    scale = math.factorial(int(sum(e_minus)))
    for v in itertools.chain(e_minus, e_plus):
        scale *= math.factorial(int(v))
    return kernel.partition_C(e_minus, e_plus, q, cap=cap) / scale


def from_margins(e_minus, e_plus):
    """Build a double vector from margin arrays carrying the degree-0 slot."""
    em = np.asarray(e_minus)
    ep = np.asarray(e_plus)
    if em[0] != 0 or ep[0] != 0:
        raise MarginMismatch("degree-0 stubs cannot exist; margin entry 0 must be zero")
    return double_vector(em[1:], ep[1:])


def fourier_integrand(u, e, q):
    """Integrand exp(H(-iu; e)) of the margin-constraint integral."""
    u = np.asarray(u, dtype=float)
    return np.exp(h_value(-1j * u, np.asarray(e, dtype=float), q))


def self_loop_rate_exact(p_weights, q_weights) -> Fraction:
    """Rational-arithmetic twin of self_loop_rate for golden tests.

    Returns the expected number of self-loops per graph, the Poisson mean,
    by the same stub-pairing derivation as self_loop_rate.
    """
    p = [[Fraction(x) for x in row] for row in p_weights]
    q = [[Fraction(x) for x in row] for row in q_weights]
    n = len(p)
    z = sum(k * p[j][k] for j in range(n) for k in range(n))
    q_out = [sum(q[k][j] for j in range(n)) for k in range(n)]
    q_in = [sum(q[k][j] for k in range(n)) for j in range(n)]
    total = Fraction(0)
    for j in range(n):
        for k in range(n):
            if q_in[j] > 0 and q_out[k] > 0:
                total += Fraction(j * k) * p[j][k] * q[k][j] / (q_out[k] * q_in[j])
    return total / z
