"""Node- and edge-type distributions for directed configuration multigraphs.

A node type is a pair (j, k) of in- and out-degree, both in {0, ..., K}.
Node types are drawn from a matrix P with entry P[j, k]; an edge type is
the pair (k, j) of its source out-degree and target in-degree, drawn from
a matrix Q with entry Q[k, j].  A pair (P, Q) is consistent when Q's
margins equal the degree-size-biased margins of P.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentPair, InvalidDistribution, ZeroMeanDegree, integral

RENORM_TOL = 1e-9
CONSISTENCY_TOL = 1e-9
# buckets of the node-type guide table; a power of two, so u * GUIDE_BUCKETS
# only shifts u's exponent and its floor is the exact bucket of u
GUIDE_BUCKETS = 1 << 14


def _as_prob_matrix(weights, name: str) -> np.ndarray:
    try:
        m = np.array(weights, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InvalidDistribution(f"{name} must be a square matrix of numbers: {exc}") from None
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 2:
        raise InvalidDistribution(f"{name} must be a square matrix of size K+1 >= 2, got shape {m.shape}")
    if not np.isfinite(m).all() or (m < 0).any():
        raise InvalidDistribution(f"{name} must have finite nonnegative entries")
    total = m.sum()
    if abs(total - 1.0) > RENORM_TOL:
        raise InvalidDistribution(
            f"{name} sums to {total!r}; deviation from 1 exceeds the renormalization tolerance {RENORM_TOL}"
        )
    m /= total
    m.setflags(write=False)
    return m


def derive_marginals(weights) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (in-degree marginal, out-degree marginal, mean degree z) of a node-type matrix.

    The two computations of z (from either marginal) must agree; z = 0 raises.
    """
    m = np.asarray(weights, dtype=float)
    p_in = m.sum(axis=1)
    p_out = m.sum(axis=0)
    degrees = np.arange(m.shape[0], dtype=float)
    z_in = float(degrees @ p_in)
    z_out = float(degrees @ p_out)
    z = z_out
    if abs(z_in - z_out) > 1e-12 * max(1.0, z):
        raise InvalidDistribution(f"marginal mean degrees disagree: {z_in} vs {z_out}")
    if z <= 0.0:
        raise ZeroMeanDegree("node-type distribution has mean degree zero")
    p_in.setflags(write=False)
    p_out.setflags(write=False)
    return p_in, p_out, z


@dataclass(frozen=True)
class NodeTypeDist:
    """Distribution over node types (j, k), stored as matrix[j, k]."""

    matrix: np.ndarray
    in_marginal: np.ndarray
    out_marginal: np.ndarray
    mean_degree: float

    @classmethod
    def from_weights(cls, weights) -> "NodeTypeDist":
        m = _as_prob_matrix(weights, "node-type weights")
        p_in, p_out, z = derive_marginals(m)
        return cls(matrix=m, in_marginal=p_in, out_marginal=p_out, mean_degree=z)

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
        m = _as_prob_matrix(weights, "edge-type weights")
        if m[0, :].any() or m[:, 0].any():
            raise InvalidDistribution("edge-type weights must vanish on the degree-0 row and column")
        q_out = m.sum(axis=1)
        q_in = m.sum(axis=0)
        q_out.setflags(write=False)
        q_in.setflags(write=False)
        return cls(matrix=m, out_marginal=q_out, in_marginal=q_in)

    @property
    def K(self) -> int:
        return self.matrix.shape[0] - 1

    @functools.cached_property
    def rate(self) -> np.ndarray:
        """Read-only float64 R[k, j] = Q[k, j] / (Q+_k Q-_j); zero wherever a margin vanishes.

        Each entry is the product of the margins, then one division, as a
        scalar loop would compute it.
        """
        live = (self.out_marginal > 0)[:, None] & (self.in_marginal > 0)[None, :]
        rate = np.zeros(self.matrix.shape)
        np.divide(self.matrix, np.outer(self.out_marginal, self.in_marginal), out=rate, where=live)
        rate.setflags(write=False)
        return rate


@dataclass(frozen=True)
class ConsistencyReport:
    """Residuals of the stub-balance conditions linking P and Q."""

    is_consistent: bool
    max_violation: float
    out_residuals: np.ndarray  # Q+_k - k P+_k / z
    in_residuals: np.ndarray  # Q-_j - j P-_j / z


def size_biased_marginals(p: NodeTypeDist) -> tuple[np.ndarray, np.ndarray]:
    """Return (k P+_k / z, j P-_j / z): the edge-type margins implied by P."""
    degrees = np.arange(p.K + 1, dtype=float)
    out = degrees * p.out_marginal / p.mean_degree
    inn = degrees * p.in_marginal / p.mean_degree
    return out, inn


def validate_pair(p: NodeTypeDist, q: EdgeTypeDist) -> ConsistencyReport:
    """Check the consistency conditions between a node- and edge-type distribution."""
    if p.K != q.K:
        raise InvalidDistribution(f"degree cutoffs differ: node K={p.K}, edge K={q.K}")
    implied_out, implied_in = size_biased_marginals(p)
    out_res = q.out_marginal - implied_out
    in_res = q.in_marginal - implied_in
    worst = float(max(np.abs(out_res).max(), np.abs(in_res).max()))
    return ConsistencyReport(
        is_consistent=worst <= CONSISTENCY_TOL,
        max_violation=worst,
        out_residuals=out_res,
        in_residuals=in_res,
    )


def require_consistent(p: NodeTypeDist, q: EdgeTypeDist) -> None:
    report = validate_pair(p, q)
    if not report.is_consistent:
        raise InconsistentPair(
            f"edge-type margins violate stub balance by {report.max_violation:.3e} (tol {CONSISTENCY_TOL:.1e})"
        )


def independent_edge_dist(p: NodeTypeDist) -> EdgeTypeDist:
    """The product edge-type distribution Q[k, j] = (k P+_k / z)(j P-_j / z)."""
    out, inn = size_biased_marginals(p)
    return EdgeTypeDist.from_weights(np.outer(out, inn))


@dataclass(frozen=True)
class Conditionals:
    """Row-stochastic conditionals; the first index is always the conditioning degree.

    Rows whose conditioning marginal has zero mass are all-zero.
    """

    out_given_in: np.ndarray  # [j, k] = P[j, k] / P-_j
    in_given_out: np.ndarray  # [k, j] = P[j, k] / P+_k
    edge_in_given_out: np.ndarray  # [k, j] = Q[k, j] / Q+_k
    edge_out_given_in: np.ndarray  # [j, k] = Q[k, j] / Q-_j


def _safe_rows(num: np.ndarray, denom: np.ndarray) -> np.ndarray:
    out = np.zeros_like(num)
    mask = denom > 0
    out[mask] = num[mask] / denom[mask, None]
    out.setflags(write=False)
    return out


def conditional_dists(p: NodeTypeDist, q: EdgeTypeDist) -> Conditionals:
    return Conditionals(
        out_given_in=_safe_rows(p.matrix, p.in_marginal),
        in_given_out=_safe_rows(p.matrix.T, p.out_marginal),
        edge_in_given_out=_safe_rows(q.matrix, q.out_marginal),
        edge_out_given_in=_safe_rows(q.matrix.T, q.in_marginal),
    )


def self_loop_rate(p: NodeTypeDist, q: EdgeTypeDist) -> float:
    """Expected number of self-loops per graph in the large-N limit.

    This is the mean of the limiting Poisson law of the self-loop count:
    (1/z) sum_{j,k} j k P[j,k] Q[k,j] / (Q+_k Q-_j). With E = zN edges,
    about E Q[k,j] of type (k, j) each join a uniform class-k out-stub to a
    uniform class-j in-stub, so a given such stub pair is joined with
    probability Q[k,j] / (E Q+_k Q-_j); summing over the N P[j,k] nodes of
    type (j, k), each with j k such pairs, gives the value above.

    Terms with a vanishing edge-type margin contribute zero.
    """
    if p.K != q.K:
        raise InvalidDistribution(f"degree cutoffs differ: node K={p.K}, edge K={q.K}")
    z = p.mean_degree
    degrees = np.arange(p.K + 1, dtype=float)
    jk = np.outer(degrees, degrees)  # [j, k]
    denom = np.outer(q.in_marginal, q.out_marginal)  # [j, k] -> Q-_j Q+_k
    num = jk * p.matrix * q.matrix.T  # Q[k, j] transposed onto (j, k)
    mask = denom > 0
    return float((num[mask] / denom[mask]).sum() / z)


def load_params(source) -> tuple[NodeTypeDist, EdgeTypeDist]:
    """Load a (P, Q) pair from a JSON file path, file object, or dict.

    Schema: {"K": int, "P": [[...]], "Q": [[...]] | "independent"}; K is an
    integral number (2.0 reads as 2), so 2.7, true or "2" raise InvalidDistribution.
    """
    if isinstance(source, dict):
        raw = source
    elif hasattr(source, "read"):
        raw = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    try:
        k_cut = integral(raw["K"], InvalidDistribution)
        p_weights = raw["P"]
        q_spec = raw["Q"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDistribution(f"parameter object must define an integer K, P and Q: {exc}") from exc
    p = NodeTypeDist.from_weights(p_weights)
    if p.K != k_cut:
        raise InvalidDistribution(f"P has shape for K={p.K} but K={k_cut} was declared")
    if isinstance(q_spec, str):
        if q_spec != "independent":
            raise InvalidDistribution(f"unknown edge-type spec {q_spec!r}")
        q = independent_edge_dist(p)
    else:
        q = EdgeTypeDist.from_weights(q_spec)
        if q.K != k_cut:
            raise InvalidDistribution(f"Q has shape for K={q.K} but K={k_cut} was declared")
    return p, q


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
