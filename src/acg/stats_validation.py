"""Monte Carlo checks of the model's limit behavior.

Each suite draws graphs (or just node sequences) at one or more sizes
with seeded, replayable random streams and summarizes how close the
empirical type frequencies come to their targets: node types against P,
edge types against Q, the first wired edges against the product measure,
self-loop counts against the predicted rate, and the degree correlation
across edges.  Deviations shrink like N^(-1/2), so log-log slope fits
sit near -1/2.

Every suite but node-LLN seeds each replicate's stream from its index
and runs its replicates in one _fanout.fan_out call, which spreads them
over the usable CPUs with the serial loop's results; node-LLN draws all
reps of a size from one stream, so it runs them in order.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._fanout import fan_out
from .degree_model import EdgeTypeDist, NodeTypeDist, self_loop_rate
from .errors import DegenerateVariance, InvalidDistribution, integral
from .sampler import DEFAULT_DELTA, accept_sequence, first_edge_types, generate_graph

SLOPE_WINDOW = (-0.65, -0.35)


@dataclass(frozen=True)
class LLNReport:
    """Per-size deviation summary of empirical type frequencies.

    slope is the least-squares slope of log max_deviation on log size, and
    slope_ok whether it lies in slope_window.  A slope needs two sizes and a
    positive deviation at each, as a deviation of 0 has no log: otherwise
    slope is NaN, an undefined statistic rather than a failed fit, and
    slope_ok is False.
    """

    kind: str
    sizes: tuple
    max_deviations: tuple
    tv_distances: tuple
    slope: float
    slope_window: tuple
    slope_ok: bool
    acceptance_rates: tuple | None
    reps: int
    seed: int

    def table(self):
        """The TSV header, TSV rows and summary line of this report in acg validate; every report has one."""
        rows = list(zip(self.sizes, self.max_deviations, self.tv_distances))
        return ("size", "max_deviation", "tv_distance"), rows, f"slope={self.slope:.3f}"


@dataclass(frozen=True)
class FirstEdgesReport:
    """First-L wired edge types compared with the product measure."""

    n: int
    length: int
    reps: int
    seed: int
    counts: dict
    chi_square: float
    p_value: float
    dof: int
    off_support: int
    mutual_information: float | None

    def table(self):
        rows = [(self.n, self.chi_square, self.p_value, self.mutual_information)]
        return ("n", "chi_square", "p_value", "mutual_information"), rows, f"p={self.p_value:.4f}"


@dataclass(frozen=True)
class AssortativityReport:
    """Degree correlation across edges, one coefficient per graph."""

    n: int
    reps: int
    seed: int
    coefficients: tuple
    mean_coefficient: float | None

    def table(self):
        rows = list(enumerate(self.coefficients))  # an undefined coefficient, None, is written nan
        mean = "nan" if self.mean_coefficient is None else f"{self.mean_coefficient:.4f}"
        return ("rep", "coefficient"), rows, f"mean={mean}"


@dataclass(frozen=True)
class SelfLoopReport:
    """Self-loop counts over repeated graphs vs the predicted rate."""

    n: int
    reps: int
    seed: int
    counts: tuple
    mean: float
    variance: float
    predicted: float
    z_score: float
    var_mean_ratio: float
    mean_within_4se: bool

    def table(self):
        rows = [(self.n, self.mean, self.predicted, self.var_mean_ratio, self.z_score)]
        return ("n", "mean", "predicted", "var_mean_ratio", "z_score"), rows, f"mean={self.mean:.4f}"


def _fit_slope(sizes, deviations) -> float:
    """Least-squares slope of log deviation on log size; NaN for one size or a zero deviation, which has no log."""
    if len(sizes) < 2 or min(deviations) <= 0:
        return float("nan")
    return float(np.polyfit(np.log(sizes), np.log(deviations), 1)[0])


def _sizes(sizes) -> list:
    """The sizes of an LLN suite as ints.

    InvalidDistribution unless there is one and each is a distinct integral
    number of at least 1: a repeated size draws the same stream again, and
    the slope would be fitted to a copy of one point.
    """
    sizes = [integral(v, InvalidDistribution, 1) for v in sizes]
    if not sizes:
        raise InvalidDistribution("an LLN suite needs at least one size")
    repeated = [v for v in sizes if sizes.count(v) > 1]
    if repeated:
        raise InvalidDistribution(f"an LLN suite takes each size once, got {repeated[0]} more than once")
    return sizes


def _lln_report(kind, sizes, diffs, reps, seed, acceptance_rates=None) -> LLNReport:
    """Summarize |empirical - target| tables; diffs[i] holds one per rep at sizes[i]."""
    devs = [float(np.mean([d.max() for d in at_size])) for at_size in diffs]
    tvs = [float(np.mean([0.5 * d.sum() for d in at_size])) for at_size in diffs]
    slope = _fit_slope(sizes, devs)
    return LLNReport(
        kind=kind,
        sizes=tuple(sizes),
        max_deviations=tuple(devs),
        tv_distances=tuple(tvs),
        slope=slope,
        slope_window=SLOPE_WINDOW,
        slope_ok=bool(SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1]),
        acceptance_rates=acceptance_rates,
        reps=reps,
        seed=seed,
    )


def node_lln(
    p: NodeTypeDist,
    sizes,
    reps: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> LLNReport:
    """Deviation of clipped node-type frequencies from P at each size.

    Also reports the fraction of raw draws whose stub discrepancy passed
    the clip threshold.  sizes holds at least one size, each a distinct
    integral number of nodes, at least 1; reps is an integer of at least 1
    and seed one of at least 0.  Anything else raises InvalidDistribution.
    """
    sizes = _sizes(sizes)
    reps, seed = integral(reps, InvalidDistribution, 1), integral(seed, InvalidDistribution, 0)
    diffs, rates = [], []
    for size in sizes:
        rng = np.random.default_rng([seed, size])
        at_size = []
        attempts = 0
        for _ in range(reps):
            x, _, redraws = accept_sequence(p, size, delta, rng)
            attempts += redraws + 1
            freq = np.zeros_like(p.matrix)
            np.add.at(freq, (x.in_degrees, x.out_degrees), 1.0 / size)
            at_size.append(np.abs(freq - p.matrix))
        diffs.append(at_size)
        rates.append(reps / attempts)
    return _lln_report("node", sizes, diffs, reps, seed, acceptance_rates=tuple(rates))


def edge_lln(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    sizes,
    reps: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> LLNReport:
    """Deviation of sampled edge-type frequencies from Q at each size.

    Rep r draws one graph at every size, the one of n nodes from the
    stream [seed, n, r].  Sizes, reps and seed are read as node_lln reads them.
    """
    sizes = _sizes(sizes)
    reps, seed = integral(reps, InvalidDistribution, 1), integral(seed, InvalidDistribution, 0)
    width = q.K + 1

    def deviations(rep):
        at_sizes = []
        for size in sizes:
            g = generate_graph(p, q, size, delta=delta, seed=[seed, size, rep])
            table = np.bincount(g.edge_out_type * width + g.edge_in_type, minlength=width * width)
            at_sizes.append(np.abs(table.reshape(width, width) / g.n_edges - q.matrix))
        return at_sizes

    by_rep = fan_out(deviations, range(reps))
    diffs = [[at_sizes[i] for at_sizes in by_rep] for i in range(len(sizes))]
    return _lln_report("edge", sizes, diffs, reps, seed)


def _mutual_information(drawn, reps: int) -> float:
    """Mutual information in nats between the first two types of the drawn tuples."""
    firsts = Counter(types[0] for types in drawn)
    seconds = Counter(types[1] for types in drawn)
    mi = 0.0
    for (a, b), c in Counter(types[:2] for types in drawn).items():
        p_ab = c / reps
        mi += p_ab * math.log(p_ab * reps * reps / (firsts[a] * seconds[b]))
    return mi


def first_edges_distribution(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    length: int,
    reps: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> FirstEdgesReport:
    """Joint law of the first `length` wired edge types vs product of Q.

    Chi-square compares the empirical counts with reps * prod Q over the
    supported type tuples; for length >= 2 the mutual information
    between the first two edge types is reported in nats.  Rep r draws
    from the stream [seed, r].  InvalidDistribution unless length and reps
    are integers and seed one of at least 0; DegenerateVariance, before any
    draw, unless 1 <= length <= 5 and reps >= the number of those tuples.
    """
    length, reps = integral(length, InvalidDistribution), integral(reps, InvalidDistribution)
    seed = integral(seed, InvalidDistribution, 0)
    if length < 1 or length > 5:
        raise DegenerateVariance("length must be between 1 and 5")
    support = [(k, j) for k in range(q.K + 1) for j in range(q.K + 1) if q.matrix[k, j] > 0]
    if len(support) ** length > reps:
        raise DegenerateVariance(
            f"{len(support) ** length} tuples of {length} edge types exceed {reps} reps: "
            "under one expected count per cell, the chi-square means nothing"
        )

    def first_types(rep):
        rng = np.random.default_rng([seed, rep])
        x, _, _ = accept_sequence(p, n, delta, rng)
        return tuple(first_edge_types(x, q, rng, length))

    drawn = fan_out(first_types, range(reps))
    counts = dict(Counter(drawn))
    cells = list(itertools.product(support, repeat=length))
    observed = np.array([counts.get(c, 0) for c in cells], dtype=float)
    expected = np.array(
        [reps * math.prod(q.matrix[k, j] for k, j in c) for c in cells]
    )
    chi2 = ((observed - expected) ** 2 / expected).sum()
    p_value = _chi2_sf(chi2, len(cells) - 1)
    mi = _mutual_information(drawn, reps) if length >= 2 else None
    return FirstEdgesReport(
        n=n,
        length=length,
        reps=reps,
        seed=seed,
        counts=counts,
        chi_square=float(chi2),
        p_value=float(p_value),
        dof=len(cells) - 1,
        off_support=reps - int(observed.sum()),  # 0: first_edge_types picks only types where Q > 0
        mutual_information=mi,
    )


def _chi2_sf(x, dof):
    """Upper tail P(X >= x) of a chi-square law with integer dof >= 1; 1.0 at any x <= 0, also at dof 0.

    With y = x/2 this is the regularized Q(dof/2, y), which for integer or
    half-integer order has the closed form Q(a0, y) + sum_a y^a e^-y / Gamma(a + 1) over
    a = a0, a0 + 1, ..., dof/2 - 1, where a0 = 1/2 (Q(1/2, y) = erfc(sqrt y))
    for odd dof and a0 = 0 (Q(0, y) = 0) for even dof.  Every term is
    positive, so the sum loses nothing to cancellation.
    """
    if x <= 0:
        return 1.0
    y = 0.5 * x
    a = 0.5 * (dof % 2)
    total = math.erfc(math.sqrt(y)) if dof % 2 else 0.0
    log_y = math.log(y)
    while a < 0.5 * dof:
        total += math.exp(a * log_y - y - math.lgamma(a + 1))
        a += 1
    return total


def self_loop_poisson(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    reps: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> SelfLoopReport:
    """Self-loop count statistics over repeated graphs.

    The mean is flagged against the predicted rate at 4 standard errors
    and the variance/mean ratio is reported; a Poisson count keeps that
    ratio near 1.  Rep r draws from the stream [seed, r].  InvalidDistribution
    unless reps is an integer and seed one of at least 0; DegenerateVariance,
    before any draw, unless reps >= 2: one count has no sample variance.
    """
    reps, seed = integral(reps, InvalidDistribution), integral(seed, InvalidDistribution, 0)
    if reps < 2:
        raise DegenerateVariance(f"the self-loop suite needs at least 2 reps, got {reps}")

    def self_loops(rep):
        return int(generate_graph(p, q, n, delta=delta, seed=[seed, rep]).self_loop_mask.sum())

    counts = fan_out(self_loops, range(reps))
    arr = np.array(counts, dtype=float)
    mean = float(arr.mean())
    variance = float(arr.var(ddof=1))
    predicted = self_loop_rate(p, q)
    se = math.sqrt(variance / reps)
    if se > 0:
        z = (mean - predicted) / se
    elif mean == predicted:
        z = 0.0
    else:
        z = math.copysign(float("inf"), mean - predicted)
    return SelfLoopReport(
        n=n,
        reps=reps,
        seed=seed,
        counts=tuple(counts),
        mean=mean,
        variance=variance,
        predicted=predicted,
        z_score=float(z),
        var_mean_ratio=variance / mean if mean > 0 else float("nan"),
        mean_within_4se=bool(abs(z) <= 4),
    )


def assortativity_coefficient(g) -> float:
    """Pearson correlation of source out-degree and target in-degree over edges."""
    if g.n_edges < 2:
        raise DegenerateVariance("need at least two edges to correlate degrees")
    ks = g.edge_out_type.astype(float)
    js = g.edge_in_type.astype(float)
    if ks.std() == 0 or js.std() == 0:
        raise DegenerateVariance("edge endpoint degrees are constant")
    return float(np.corrcoef(ks, js)[0, 1])


def assortativity_replicates(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    reps: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> AssortativityReport:
    """assortativity_coefficient of `reps` graphs, the r-th drawn from the stream [seed, r].

    A graph whose coefficient is undefined gives None, and the mean is
    taken over the others; it is None when no graph has a coefficient.
    InvalidDistribution unless reps is an integer of at least 1 and seed
    one of at least 0.
    """
    reps, seed = integral(reps, InvalidDistribution, 1), integral(seed, InvalidDistribution, 0)

    def coefficient(rep):
        g = generate_graph(p, q, n, delta=delta, seed=[seed, rep])
        try:
            return assortativity_coefficient(g)
        except DegenerateVariance:
            return None

    coeffs = fan_out(coefficient, range(reps))
    usable = [c for c in coeffs if c is not None]
    return AssortativityReport(
        n=n,
        reps=reps,
        seed=seed,
        coefficients=tuple(coeffs),
        mean_coefficient=float(np.mean(usable)) if usable else None,
    )
