"""Approximate simulation of assortative configuration multigraphs.

The pipeline: draw N node types i.i.d., reject or clip the stub-count
discrepancy, then wire in- to out-stubs sequentially with type-dependent
weights.  Randomness comes from numpy Generators; batch callers split
streams with the rule rng_for(seed, index) = default_rng([seed, index]).
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .degree_model import EdgeTypeDist, NodeTypeDist
from .errors import (
    ClipOverflow,
    DeadEnd,
    InfeasibleSequence,
    InvalidDistribution,
    RetriesExhausted,
)

DEFAULT_DELTA = 0.25
DEFAULT_MAX_RESTARTS = 10
DEFAULT_MAX_REDRAWS = 1000
_REFRESH_EVERY = 4096  # steps between exact refreshes of drifting weight sums


def rng_for(seed, index: int) -> np.random.Generator:
    """Independent stream for one sample index under a shared base seed."""
    return np.random.default_rng([int(seed), int(index)])


@dataclass(frozen=True)
class NodeTypeSequence:
    """Per-node degree pairs; entry i is node i's (in-degree, out-degree)."""

    in_degrees: np.ndarray
    out_degrees: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "in_degrees", np.asarray(self.in_degrees, dtype=np.int64))
        object.__setattr__(self, "out_degrees", np.asarray(self.out_degrees, dtype=np.int64))
        if self.in_degrees.shape != self.out_degrees.shape or self.in_degrees.ndim != 1:
            raise InvalidDistribution("degree arrays must be 1-d and equally long")
        if (self.in_degrees < 0).any() or (self.out_degrees < 0).any():
            raise InvalidDistribution("degrees must be nonnegative")
        self.in_degrees.setflags(write=False)
        self.out_degrees.setflags(write=False)

    @classmethod
    def from_pairs(cls, pairs) -> "NodeTypeSequence":
        arr = np.asarray(list(pairs), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise InvalidDistribution("expected (j, k) pairs")
        return cls(in_degrees=arr[:, 0].copy(), out_degrees=arr[:, 1].copy())

    def __len__(self) -> int:
        return len(self.in_degrees)

    @property
    def discrepancy(self) -> int:
        """Out-stub excess D = sum(k_i - j_i)."""
        return int(self.out_degrees.sum() - self.in_degrees.sum())

    def pairs(self) -> list[tuple[int, int]]:
        return list(zip(self.in_degrees.tolist(), self.out_degrees.tolist()))


@dataclass(frozen=True)
class StubCensus:
    """Counts of node types and stubs by degree class, indexed 0..K."""

    type_counts: np.ndarray  # u[j, k]
    e_minus: np.ndarray  # in-stubs of degree j: j * u-_j
    e_plus: np.ndarray  # out-stubs of degree k: k * u+_k
    n_edges: int

    @property
    def K(self) -> int:
        return self.type_counts.shape[0] - 1


def draw_node_sequence(p: NodeTypeDist, n: int, rng: np.random.Generator) -> NodeTypeSequence:
    """Draw n node types i.i.d. from P."""
    if n < 1:
        raise InvalidDistribution(f"need at least one node, got n={n}")
    size = p.K + 1
    flat = rng.choice(size * size, size=n, p=p.matrix.reshape(-1))
    return NodeTypeSequence(in_degrees=flat // size, out_degrees=flat % size)


def clip_threshold(n: int, delta: float) -> float:
    return float(n) ** (0.5 + delta)


def clip_sequence(
    x: NodeTypeSequence,
    k_cut: int,
    delta: float = DEFAULT_DELTA,
    rng: np.random.Generator | None = None,
) -> NodeTypeSequence | None:
    """Balance stub totals by bumping |D| degrees up by one.

    Returns None when |D| exceeds the threshold N^(1/2+delta) (caller
    redraws).  D = 0 is accepted unchanged.  The adjusted indices form a
    uniform random subset of the nodes that can absorb an increment;
    ClipOverflow is raised when fewer than |D| nodes can.
    """
    d = x.discrepancy
    if d == 0:
        return x
    n = len(x)
    if abs(d) > clip_threshold(n, delta):
        return None
    if rng is None:
        raise ValueError("clipping a nonzero discrepancy needs an rng")
    if d > 0:
        degrees = x.in_degrees
    else:
        degrees = x.out_degrees
    eligible = np.flatnonzero(degrees < k_cut)
    if len(eligible) < abs(d):
        raise ClipOverflow(
            f"cannot raise {abs(d)} degrees without exceeding the cutoff {k_cut}"
        )
    chosen = rng.choice(eligible, size=abs(d), replace=False)
    bumped = degrees.copy()
    bumped[chosen] += 1
    if d > 0:
        return NodeTypeSequence(in_degrees=bumped, out_degrees=x.out_degrees.copy())
    return NodeTypeSequence(in_degrees=x.in_degrees.copy(), out_degrees=bumped)


def stub_census(x: NodeTypeSequence, k_cut: int | None = None) -> StubCensus:
    """Tabulate node types and stub counts; the sequence must be balanced."""
    d = x.discrepancy
    if d != 0:
        raise InfeasibleSequence(f"stub totals differ by {d}; clip or redraw first")
    size = (k_cut if k_cut is not None else int(max(x.in_degrees.max(), x.out_degrees.max()))) + 1
    u = np.zeros((size, size), dtype=int)
    np.add.at(u, (x.in_degrees, x.out_degrees), 1)
    degrees = np.arange(size)
    e_minus = degrees * u.sum(axis=1)
    e_plus = degrees * u.sum(axis=0)
    u.setflags(write=False)
    e_minus.setflags(write=False)
    e_plus.setflags(write=False)
    return StubCensus(type_counts=u, e_minus=e_minus, e_plus=e_plus, n_edges=int(e_plus.sum()))


@dataclass
class MultiGraph:
    """A directed multigraph with typed nodes and ordered, typed edges."""

    in_degrees: np.ndarray  # node i's in-degree j_i
    out_degrees: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    edge_out_type: np.ndarray  # k of the source
    edge_in_type: np.ndarray  # j of the target
    meta: dict = field(default_factory=dict)

    @property
    def n_nodes(self) -> int:
        return len(self.in_degrees)

    @property
    def n_edges(self) -> int:
        return len(self.edge_src)

    @property
    def self_loop_mask(self) -> np.ndarray:
        return self.edge_src == self.edge_dst


@dataclass(frozen=True)
class WiringEvent:
    """One recorded wiring step (only kept when requested)."""

    step: int
    out_type: int
    in_type: int
    src: int
    dst: int
    normalizer: float
    stubs_left: int


def _type_rate_matrix(q: EdgeTypeDist) -> list[list[float]]:
    """R[k][j] = Q[k,j] / (Q+_k Q-_j); zero wherever a margin vanishes."""
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


def wiring_step_distribution(census: StubCensus, q: EdgeTypeDist, uniform: bool = False) -> np.ndarray:
    """Matrix of type probabilities for the next wiring step.

    Entry [k, j] is proportional to e-_j e+_k Q[k,j] / (Q+_k Q-_j); the
    uniform flag replaces the Q factor by 1 (the fallback measure).
    """
    size = census.K + 1
    em = census.e_minus.astype(float)
    ep = census.e_plus.astype(float)
    weights = np.outer(ep, em)
    if not uniform:
        if q.K != census.K:
            raise InvalidDistribution(f"census K={census.K} does not match Q K={q.K}")
        weights = weights * np.array(_type_rate_matrix(q))
    total = weights.sum()
    if total <= 0:
        raise DeadEnd("no admissible stub pairing remains")
    return weights / total


class _WiringDeadEnd(Exception):
    pass


def _build_pools(x: NodeTypeSequence, size: int):
    pool_in = [[] for _ in range(size)]
    pool_out = [[] for _ in range(size)]
    for d in range(1, size):
        owners = np.flatnonzero(x.in_degrees == d)
        if len(owners):
            pool_in[d] = np.repeat(owners, d).tolist()
        owners = np.flatnonzero(x.out_degrees == d)
        if len(owners):
            pool_out[d] = np.repeat(owners, d).tolist()
    return pool_in, pool_out


def _wire_attempt(
    x: NodeTypeSequence,
    rate,
    size: int,
    n_edges: int,
    rng: np.random.Generator,
    fallback_uniform: bool,
    record_events: bool,
    n_steps: int | None = None,
):
    """One wiring pass.  Raises _WiringDeadEnd unless fallback_uniform is set,
    in which case remaining stubs are matched under unit rates."""
    pool_in, pool_out = _build_pools(x, size)
    em = [len(pl) for pl in pool_in]
    ep = [len(pl) for pl in pool_out]
    degree_range = range(1, size)
    s = [0.0] * size
    for k in degree_range:
        s[k] = sum(em[j] * rate[k][j] for j in degree_range)
    steps = n_edges if n_steps is None else min(n_steps, n_edges)
    us = rng.random((steps, 4)).tolist()
    src_list = [0] * steps
    dst_list = [0] * steps
    ktype_list = [0] * steps
    jtype_list = [0] * steps
    events = [] if record_events else None
    used_fallback = False
    for step in range(steps):
        u0, u1, u2, u3 = us[step]
        while True:
            c_total = 0.0
            for k in degree_range:
                w = ep[k] * s[k]
                if w > 0.0:
                    c_total += w
            if c_total <= 0.0:
                # refresh the drifting sums before concluding anything
                for k in degree_range:
                    s[k] = sum(em[j] * rate[k][j] for j in degree_range)
                c_total = sum(ep[k] * s[k] for k in degree_range if ep[k] and s[k] > 0.0)
                if c_total <= 0.0:
                    if not fallback_uniform:
                        raise _WiringDeadEnd()
                    rate = [[1.0] * size for _ in range(size)]
                    used_fallback = True
                    for k in degree_range:
                        s[k] = sum(em[j] * rate[k][j] for j in degree_range)
                    c_total = sum(ep[k] * s[k] for k in degree_range)
                    if c_total <= 0.0:
                        raise _WiringDeadEnd()  # no stubs at all: internal logic error
            target = u0 * c_total
            acc = 0.0
            kk = 0
            for k in degree_range:
                w = ep[k] * s[k]
                if w <= 0.0:
                    continue
                kk = k
                acc += w
                if acc >= target:
                    break
            row = rate[kk]
            row_total = 0.0
            for j in degree_range:
                if em[j]:
                    row_total += em[j] * row[j]
            if row_total > 0.0:
                break
            # drift left s[kk] > 0 after kk's last admissible in-stub was
            # used: redo the pick on sums recomputed from the integer counts
            for k in degree_range:
                s[k] = sum(em[j] * rate[k][j] for j in degree_range)
        target = u1 * row_total
        acc = 0.0
        jj = 0
        for j in degree_range:
            w = em[j] * row[j]
            if w <= 0.0:
                continue
            jj = j
            acc += w
            if acc >= target:
                break
        pin = pool_in[jj]
        idx = int(u2 * len(pin))
        if idx >= len(pin):
            idx = len(pin) - 1
        dst = pin[idx]
        pin[idx] = pin[-1]
        pin.pop()
        pout = pool_out[kk]
        idx = int(u3 * len(pout))
        if idx >= len(pout):
            idx = len(pout) - 1
        src = pout[idx]
        pout[idx] = pout[-1]
        pout.pop()
        em[jj] -= 1
        ep[kk] -= 1
        for k in degree_range:
            s[k] -= rate[k][jj]
        if (step & (_REFRESH_EVERY - 1)) == _REFRESH_EVERY - 1:
            for k in degree_range:
                s[k] = sum(em[j] * rate[k][j] for j in degree_range)
        src_list[step] = src
        dst_list[step] = dst
        ktype_list[step] = kk
        jtype_list[step] = jj
        if record_events:
            events.append(
                WiringEvent(
                    step=step,
                    out_type=kk,
                    in_type=jj,
                    src=src,
                    dst=dst,
                    normalizer=c_total,
                    stubs_left=n_edges - step - 1,
                )
            )
    return src_list, dst_list, ktype_list, jtype_list, events, used_fallback


def sequential_wiring(
    x: NodeTypeSequence,
    q: EdgeTypeDist,
    rng: np.random.Generator,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    uniform_fallback: bool = True,
    record_events: bool = False,
) -> MultiGraph:
    """Wire a balanced node-type sequence into a multigraph.

    Each step samples an edge type (k, j) with weight
    e-_j e+_k Q[k,j] / (Q+_k Q-_j), then picks one in-stub and one
    out-stub uniformly within the chosen degree classes.  A stalled pass
    is restarted from scratch up to max_restarts times; if every restart
    stalls, the final pass finishes under uniform stub matching (flagged
    in meta) unless uniform_fallback is False, in which case DeadEnd
    propagates.
    """
    census = stub_census(x, k_cut=q.K)
    rate = _type_rate_matrix(q)
    size = q.K + 1
    restarts = 0
    while True:
        try:
            allow_fallback = uniform_fallback and restarts == max_restarts
            src, dst, kt, jt, events, used_fallback = _wire_attempt(
                x, rate, size, census.n_edges, rng, allow_fallback, record_events
            )
            break
        except _WiringDeadEnd:
            restarts += 1
            if restarts > max_restarts:
                raise DeadEnd(
                    f"wiring stalled in {restarts} attempts and fallback is disabled"
                ) from None
    g = MultiGraph(
        in_degrees=np.array(x.in_degrees),
        out_degrees=np.array(x.out_degrees),
        edge_src=np.array(src, dtype=np.int64),
        edge_dst=np.array(dst, dtype=np.int64),
        edge_out_type=np.array(kt, dtype=np.int64),
        edge_in_type=np.array(jt, dtype=np.int64),
        meta={"wiring_restarts": restarts, "uniform_fallback": used_fallback},
    )
    if record_events:
        g.meta["events"] = events
    return g


def first_edge_types(
    x: NodeTypeSequence,
    q: EdgeTypeDist,
    rng: np.random.Generator,
    count: int,
) -> list[tuple[int, int]]:
    """Types (k, j) of the first `count` wired edges, without finishing the graph."""
    census = stub_census(x, k_cut=q.K)
    if count > census.n_edges:
        raise InfeasibleSequence(f"asked for {count} edges, sequence has {census.n_edges}")
    rate = _type_rate_matrix(q)
    try:
        _, _, kt, jt, _, _ = _wire_attempt(
            x, rate, q.K + 1, census.n_edges, rng, False, False, n_steps=count
        )
    except _WiringDeadEnd:
        raise DeadEnd("wiring stalled before reaching the requested edge count") from None
    return list(zip(kt, jt))


def generate_graph(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    delta: float = DEFAULT_DELTA,
    seed=0,
    max_redraws: int = DEFAULT_MAX_REDRAWS,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
    rng: np.random.Generator | None = None,
) -> MultiGraph:
    """Draw, clip and wire one multigraph of n nodes.

    Sequences are redrawn while the discrepancy threshold rejects them or
    clipping overflows the cutoff; RetriesExhausted after max_redraws.
    """
    if p.K != q.K:
        raise InvalidDistribution(f"node K={p.K} does not match edge K={q.K}")
    if rng is None:
        rng = np.random.default_rng(seed)
    redraws = 0
    while True:
        x = draw_node_sequence(p, n, rng)
        d_raw = x.discrepancy
        try:
            clipped = clip_sequence(x, p.K, delta=delta, rng=rng)
        except ClipOverflow:
            clipped = None
        if clipped is not None:
            break
        redraws += 1
        if redraws > max_redraws:
            raise RetriesExhausted(f"no acceptable node sequence in {max_redraws} redraws")
    g = sequential_wiring(clipped, q, rng, max_restarts=max_restarts)
    g.meta.update(
        {
            "n": n,
            "delta": delta,
            "seed": _seed_repr(seed),
            "redraws": redraws,
            "discrepancy": d_raw,
            "clip_count": abs(d_raw),
        }
    )
    return g


def _seed_repr(seed):
    if seed is None or isinstance(seed, (int, str)):
        return seed
    try:
        return [int(v) for v in seed]
    except TypeError:
        return repr(seed)


@dataclass(frozen=True)
class GraphClassification:
    """Edge-type table and simplicity summary of a multigraph."""

    edge_type_matrix: np.ndarray
    self_loop_count: int
    multi_edge_count: int
    is_simple: bool


def classify_graph(g: MultiGraph) -> GraphClassification:
    """Tabulate edge types, self-loops and parallel-edge excess."""
    size = int(max(g.in_degrees.max(initial=0), g.out_degrees.max(initial=0))) + 1
    table = np.zeros((size, size), dtype=int)
    np.add.at(table, (g.edge_out_type, g.edge_in_type), 1)
    self_loops = int(g.self_loop_mask.sum())
    if g.n_edges:
        pair_codes = g.edge_src.astype(np.int64) * g.n_nodes + g.edge_dst
        multi = g.n_edges - len(np.unique(pair_codes))
    else:
        multi = 0
    table.setflags(write=False)
    return GraphClassification(
        edge_type_matrix=table,
        self_loop_count=self_loops,
        multi_edge_count=multi,
        is_simple=self_loops == 0 and multi == 0,
    )


def write_sample(g: MultiGraph, out_dir) -> None:
    """Write nodes.csv, edges.tsv and meta.json for one sample."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write(out / "nodes.csv", _nodes_csv(g))
    _atomic_write(out / "edges.tsv", _edges_tsv(g))
    cls = classify_graph(g)
    meta = {k: v for k, v in g.meta.items() if k != "events"}
    meta.update(
        {
            "n_nodes": g.n_nodes,
            "n_edges": g.n_edges,
            "edge_type_matrix": cls.edge_type_matrix.tolist(),
            "self_loop_count": cls.self_loop_count,
            "multi_edge_count": cls.multi_edge_count,
            "is_simple": cls.is_simple,
        }
    )
    _atomic_write(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def read_sample(sample_dir) -> MultiGraph:
    """Load a sample written by write_sample."""
    directory = Path(sample_dir)
    with open(directory / "nodes.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    jd = np.array([int(r["j"]) for r in rows], dtype=np.int64)
    kd = np.array([int(r["k"]) for r in rows], dtype=np.int64)
    with open(directory / "edges.tsv", newline="", encoding="utf-8") as fh:
        erows = list(csv.DictReader(fh, delimiter="\t"))
    meta = {}
    meta_path = directory / "meta.json"
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    return MultiGraph(
        in_degrees=jd,
        out_degrees=kd,
        edge_src=np.array([int(r["src"]) for r in erows], dtype=np.int64),
        edge_dst=np.array([int(r["dst"]) for r in erows], dtype=np.int64),
        edge_out_type=np.array([int(r["k"]) for r in erows], dtype=np.int64),
        edge_in_type=np.array([int(r["j"]) for r in erows], dtype=np.int64),
        meta=meta,
    )


def _nodes_csv(g: MultiGraph) -> str:
    lines = ["id,j,k"]
    jd = g.in_degrees.tolist()
    kd = g.out_degrees.tolist()
    lines.extend(f"{i},{jd[i]},{kd[i]}" for i in range(g.n_nodes))
    return "\n".join(lines) + "\n"


def _edges_tsv(g: MultiGraph) -> str:
    lines = ["edge_id\tsrc\tdst\tk\tj\tself_loop"]
    src = g.edge_src.tolist()
    dst = g.edge_dst.tolist()
    kt = g.edge_out_type.tolist()
    jt = g.edge_in_type.tolist()
    lines.extend(
        f"{i}\t{src[i]}\t{dst[i]}\t{kt[i]}\t{jt[i]}\t{int(src[i] == dst[i])}"
        for i in range(g.n_edges)
    )
    return "\n".join(lines) + "\n"


def _atomic_write(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8")
    tmp.replace(path)
