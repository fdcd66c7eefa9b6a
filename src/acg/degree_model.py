"""Node- and edge-type distributions for directed configuration multigraphs.

A node type is a pair (j, k) of in- and out-degree, both in {0, ..., K}.
Node types are drawn from a matrix P with entry P[j, k]; an edge type is
the pair (k, j) of its source out-degree and target in-degree, drawn from
a matrix Q with entry Q[k, j].  A pair (P, Q) is consistent when Q's
margins equal the degree-size-biased margins of P.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._params import edge_rows, independent_rows, marginals, node_rows, read_params, size_biased, sums
from .errors import InconsistentPair, InvalidDistribution

CONSISTENCY_TOL = 1e-9
# buckets of the node-type guide table; a power of two, so u * GUIDE_BUCKETS
# only shifts u's exponent and its floor is the exact bucket of u
GUIDE_BUCKETS = 1 << 14


def _frozen(rows) -> np.ndarray:
    m = np.array(rows, dtype=float)
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class NodeTypeDist:
    """Distribution over node types (j, k), stored as matrix[j, k]."""

    matrix: np.ndarray
    in_marginal: np.ndarray
    out_marginal: np.ndarray
    mean_degree: float

    @classmethod
    def from_weights(cls, weights) -> "NodeTypeDist":
        return cls._of_rows(node_rows(weights))

    @classmethod
    def _of_rows(cls, rows) -> "NodeTypeDist":
        """The distribution of rows that _params.node_rows has read."""
        p_in, p_out, z = marginals(rows)
        return cls(matrix=_frozen(rows), in_marginal=_frozen(p_in), out_marginal=_frozen(p_out), mean_degree=z)

    @property
    def K(self) -> int:
        return self.matrix.shape[0] - 1

    @functools.cached_property
    def cells(self) -> "CellTable":
        """Tables for drawing node types by inverse cdf over the flattened cells j * (K+1) + k."""
        size = self.K + 1
        cdf = self.matrix.reshape(-1).cumsum()
        cdf /= cdf[-1]  # as Generator.choice normalises it
        guide = cdf.searchsorted(np.arange(GUIDE_BUCKETS) / GUIDE_BUCKETS, side="right")
        degrees = np.arange(size, dtype=np.int64)
        arrays = (cdf, guide, np.repeat(degrees, size), np.tile(degrees, size))
        for arr in arrays:
            arr.setflags(write=False)
        return CellTable(*arrays)


@dataclass(frozen=True)
class CellTable:
    """Inverse-cdf tables over the flattened cells of a node-type matrix.

    cdf is the cumulative sum of the cells divided by its last entry.
    guide[b] is the first cell whose cdf exceeds b / GUIDE_BUCKETS: a
    lower bound on the cell of every uniform in bucket b.  in_degree and
    out_degree map a cell to its (j, k).
    """

    cdf: np.ndarray
    guide: np.ndarray
    in_degree: np.ndarray
    out_degree: np.ndarray


@dataclass(frozen=True)
class EdgeTypeDist:
    """Distribution over edge types (k, j), stored as matrix[k, j].

    k is the source node's out-degree and j the target node's in-degree,
    so row 0 and column 0 carry no mass: a degree-0 stub does not exist.
    """

    matrix: np.ndarray
    out_marginal: np.ndarray  # row sums, indexed by k
    in_marginal: np.ndarray  # column sums, indexed by j

    @classmethod
    def from_weights(cls, weights) -> "EdgeTypeDist":
        return cls._of_rows(edge_rows(weights))

    @classmethod
    def _of_rows(cls, rows) -> "EdgeTypeDist":
        """The distribution of rows that _params.edge_rows has read."""
        q_out, q_in = sums(rows)
        return cls(matrix=_frozen(rows), out_marginal=_frozen(q_out), in_marginal=_frozen(q_in))

    @property
    def K(self) -> int:
        return self.matrix.shape[0] - 1

    @functools.cached_property
    def rate(self) -> np.ndarray:
        """Read-only float64 R[k, j] = Q[k, j] / (Q+_k Q-_j); zero wherever a margin vanishes.

        Each entry is the product of the margins, then one division, as a
        scalar loop would compute it.  The wiring draws by this matrix, and
        self_loop_rate reads it.
        """
        live = (self.out_marginal > 0)[:, None] & (self.in_marginal > 0)[None, :]
        rate = np.zeros(self.matrix.shape)
        np.divide(self.matrix, np.outer(self.out_marginal, self.in_marginal), out=rate, where=live)
        rate.setflags(write=False)
        return rate


@dataclass(frozen=True)
class ConsistencyReport:
    """max_violation, the largest |Q+_k - k P+_k / z| or |Q-_j - j P-_j / z|, and whether it is at most CONSISTENCY_TOL."""

    is_consistent: bool
    max_violation: float


def validate_pair(p: NodeTypeDist, q: EdgeTypeDist) -> ConsistencyReport:
    """Check Q's margins against the size-biased margins of P (_params.size_biased)."""
    if p.K != q.K:
        raise InvalidDistribution(f"degree cutoffs differ: node K={p.K}, edge K={q.K}")
    implied_out, implied_in = size_biased(p.in_marginal.tolist(), p.out_marginal.tolist(), p.mean_degree)
    margins = q.out_marginal.tolist() + q.in_marginal.tolist()
    worst = max(abs(a - b) for a, b in zip(margins, implied_out + implied_in))
    return ConsistencyReport(is_consistent=worst <= CONSISTENCY_TOL, max_violation=worst)


def require_consistent(p: NodeTypeDist, q: EdgeTypeDist) -> None:
    report = validate_pair(p, q)
    if not report.is_consistent:
        raise InconsistentPair(
            f"edge-type margins violate stub balance by {report.max_violation:.3e} (tol {CONSISTENCY_TOL:.1e})"
        )


def independent_edge_dist(p: NodeTypeDist) -> EdgeTypeDist:
    """The product edge-type distribution Q[k, j] = (k P+_k / z)(j P-_j / z), by _params.independent_rows."""
    return EdgeTypeDist._of_rows(independent_rows(p.matrix.tolist()))


def self_loop_rate(p: NodeTypeDist, q: EdgeTypeDist) -> float:
    """Expected number of self-loops per graph in the large-N limit.

    This is the mean of the limiting Poisson law of the self-loop count:
    (1/z) sum_{j,k} j k P[j,k] Q[k,j] / (Q+_k Q-_j). With E = zN edges,
    about E Q[k,j] of type (k, j) each join a uniform class-k out-stub to a
    uniform class-j in-stub, so a given such stub pair is joined with
    probability Q[k,j] / (E Q+_k Q-_j); summing over the N P[j,k] nodes of
    type (j, k), each with j k such pairs, gives the value above.

    The ratio is EdgeTypeDist.rate, the one the wiring draws by, so terms
    with a vanishing edge-type margin contribute zero.  The sum is the
    correctly rounded one (math.fsum), as every sum over P and Q is.
    """
    if p.K != q.K:
        raise InvalidDistribution(f"degree cutoffs differ: node K={p.K}, edge K={q.K}")
    rate = q.rate.tolist()
    terms = (j * k * x * rate[k][j] for j, row in enumerate(p.matrix.tolist()) for k, x in enumerate(row))
    return math.fsum(terms) / p.mean_degree


def load_params(source) -> tuple[NodeTypeDist, EdgeTypeDist]:
    """Load a (P, Q) pair from a JSON file path, file object, or dict.

    _params.read_params reads and checks it: the schema is {"K": int,
    "P": [[...]], "Q": [[...]] | "independent"}, plus the "derived" block
    that params_dict adds, which is ignored.
    """
    _, p_rows, q_rows = read_params(source)
    return pair_of_rows(p_rows, q_rows)


def pair_of_rows(p_rows, q_rows) -> tuple[NodeTypeDist, EdgeTypeDist]:
    """The (P, Q) pair of the rows that _params.read_params returns, built without reading them again."""
    return NodeTypeDist._of_rows(p_rows), EdgeTypeDist._of_rows(q_rows)


def derived_summary(p: NodeTypeDist, q: EdgeTypeDist) -> dict:
    """JSON-ready summary of derived quantities for a (P, Q) pair."""
    report = validate_pair(p, q)
    return {
        "K": p.K,
        "mean_degree": p.mean_degree,
        "node_in_marginal": p.in_marginal.tolist(),
        "node_out_marginal": p.out_marginal.tolist(),
        "edge_out_marginal": q.out_marginal.tolist(),
        "edge_in_marginal": q.in_marginal.tolist(),
        "self_loop_rate": self_loop_rate(p, q),
        "is_consistent": bool(report.is_consistent),
        "max_violation": report.max_violation,
    }


def params_dict(p: NodeTypeDist, q: EdgeTypeDist) -> dict:
    """Serializable parameter object that load_params accepts back unchanged."""
    return {"K": p.K, "P": p.matrix.tolist(), "Q": q.matrix.tolist(), "derived": derived_summary(p, q)}
