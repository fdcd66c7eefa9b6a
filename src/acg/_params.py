"""The parameter file's reader, and the rules its matrices are read by, without numpy.

read_params turns a {"K", "P", "Q"} object into K and the rows of P and
Q, as lists of floats, with every check done: the keys and K, each
matrix's shape and entries, its sum, Q's degree-0 row and column, and
P's mean in- and out-degree.  degree_model builds its arrays from these
rows, and `acg exact` hands Q's rows to the exact kernel, so that
command loads no numpy.  matrix_rows is also the exact kernel's reader
of Q, so every matrix entry in the package is read by one rule.

Every sum over P or Q is taken here, as its correctly rounded value
(math.fsum), which no summation order and no Python version changes: a
matrix's normalisation, P's marginals and mean degree (marginals), Q's
margins (sums) and the size-biased margins P implies (size_biased).
degree_model stores these lists as arrays and sums nothing itself.
"""

from __future__ import annotations

import itertools
import json
import math

from .errors import InvalidDistribution, ZeroMeanDegree, finite, integral

RENORM_TOL = 1e-9


def matrix_rows(matrix, name: str) -> list[list]:
    """matrix as a list of rows of its entries as given.

    InvalidDistribution unless it is a square matrix of size K+1 >= 2
    whose entries are finite nonnegative numbers, each read by
    errors.finite.
    """
    try:
        rows = [list(row) for row in matrix]
    except TypeError:
        rows = []
    if len(rows) < 2 or any(len(row) != len(rows) for row in rows):
        raise InvalidDistribution(f"{name} must be a square matrix of size K+1 >= 2, got {matrix!r}")
    for x in itertools.chain(*rows):
        if finite(x, lambda message: InvalidDistribution(f"{name}: {message}")) < 0:
            raise InvalidDistribution(f"{name} must have nonnegative entries, got {x!r}")
    return rows


def _prob_rows(weights, name: str) -> list[list[float]]:
    """weights read by matrix_rows, as floats divided by their sum; InvalidDistribution unless it lies within RENORM_TOL of 1."""
    rows = [[float(x) for x in row] for row in matrix_rows(weights, name)]
    total = math.fsum(itertools.chain(*rows))
    if abs(total - 1.0) > RENORM_TOL:
        raise InvalidDistribution(
            f"{name} sums to {total!r}; deviation from 1 exceeds the renormalization tolerance {RENORM_TOL}"
        )
    return [[x / total for x in row] for row in rows]


def sums(rows) -> tuple[list[float], list[float]]:
    """(row sums, column sums) of a matrix's rows, each the correctly rounded sum (math.fsum)."""
    return [math.fsum(row) for row in rows], [math.fsum(col) for col in zip(*rows)]


def marginals(p_rows) -> tuple[list[float], list[float], float]:
    """(in-degree marginal, out-degree marginal, mean degree z) of node-type rows P[j][k].

    z is the mean out-degree, once it agrees with the mean in-degree;
    ZeroMeanDegree when it is 0.
    """
    p_in, p_out = sums(p_rows)
    z_in, z_out = (math.fsum(d * x for d, x in enumerate(m)) for m in (p_in, p_out))
    if abs(z_in - z_out) > 1e-12 * max(1.0, z_out):
        raise InvalidDistribution(f"marginal mean degrees disagree: {z_in} vs {z_out}")
    if z_out <= 0.0:
        raise ZeroMeanDegree("node-type distribution has mean degree zero")
    return p_in, p_out, z_out


def size_biased(p_in, p_out, z) -> tuple[list[float], list[float]]:
    """(k P+_k / z, j P-_j / z): the edge-type margins (out, in) that P's marginals and mean degree imply."""
    return [k * x / z for k, x in enumerate(p_out)], [j * x / z for j, x in enumerate(p_in)]


def node_rows(weights) -> list[list[float]]:
    """A node-type matrix P[j][k], normalized, with mean in- and out-degree equal and nonzero."""
    rows = _prob_rows(weights, "node-type weights")
    marginals(rows)
    return rows


def edge_rows(weights) -> list[list[float]]:
    """An edge-type matrix Q[k][j], normalized, with no mass on the degree-0 row and column."""
    rows = _prob_rows(weights, "edge-type weights")
    if any(rows[0]) or any(row[0] for row in rows):
        raise InvalidDistribution("edge-type weights must vanish on the degree-0 row and column")
    return rows


def independent_rows(p_rows) -> list[list[float]]:
    """The product edge-type matrix Q[k][j] = (k P+_k / z)(j P-_j / z) of node-type rows, read by edge_rows."""
    out, inn = size_biased(*marginals(p_rows))
    return edge_rows([[a * b for b in inn] for a in out])


def load_json(source, error):
    """The JSON value in a file path or file object; error, naming the file, when it holds no JSON."""
    try:
        if hasattr(source, "read"):
            return json.load(source)
        with open(source, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # json.JSONDecodeError, or bytes that are not UTF-8
        name = getattr(source, "name", "<stream>") if hasattr(source, "read") else source
        raise error(f"{name} is not a JSON file: {exc}") from exc


def read_params(source) -> tuple[int, list[list[float]], list[list[float]]]:
    """(K, rows of P, rows of Q) of a parameter object: a JSON file path, file object, or dict.

    Schema: {"K": int, "P": [[...]], "Q": [[...]] | "independent"}, plus the
    "derived" block that degree_model.params_dict adds, which is ignored;
    any other key raises InvalidDistribution.  K is an integral number (2.0
    reads as 2), so 2.7, true or "2" raise InvalidDistribution.
    """
    raw = source if isinstance(source, dict) else load_json(source, InvalidDistribution)
    try:
        k_cut = integral(raw["K"], InvalidDistribution)
        p_weights = raw["P"]
        q_spec = raw["Q"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidDistribution(f"parameter object must define an integer K, P and Q: {exc}") from exc
    unknown = sorted(map(str, raw.keys() - {"K", "P", "Q", "derived"}))
    if unknown:
        raise InvalidDistribution(f"parameter object has unknown keys {unknown}; allowed: K, P, Q, derived")
    p_rows = node_rows(p_weights)
    if len(p_rows) - 1 != k_cut:
        raise InvalidDistribution(f"P has shape for K={len(p_rows) - 1} but K={k_cut} was declared")
    if isinstance(q_spec, str):
        if q_spec != "independent":
            raise InvalidDistribution(f"unknown edge-type spec {q_spec!r}")
        q_rows = independent_rows(p_rows)
    else:
        q_rows = edge_rows(q_spec)
        if len(q_rows) - 1 != k_cut:
            raise InvalidDistribution(f"Q has shape for K={len(q_rows) - 1} but K={k_cut} was declared")
    return k_cut, p_rows, q_rows
