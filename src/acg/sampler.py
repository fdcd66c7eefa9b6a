"""Approximate simulation of assortative configuration multigraphs.

The pipeline: draw N node types i.i.d., redraw or clip the stub-count
discrepancy (accept_sequence), then wire in- to out-stubs sequentially
with type-dependent weights.

The node draw consumes exactly rng.random(N) and returns the cells that
Generator.choice(len(p), size=N, p=p) returns for the same uniforms: both
invert the same cdf, the cumulative sum of P's flattened cells divided by
its last entry.  Instead of a binary search per uniform it starts from a
guide table, the first cell whose cdf exceeds the lower end of the
uniform's bucket, and steps up while the cdf does not exceed the uniform
(see draw_node_sequence).

The wiring measure factors in two stages, and the code follows it:

1. type chain: the edge type (k, j) of each step depends only on the
   integer stub counts per degree class;
2. stub matching: given the types, stubs are matched uniformly without
   replacement within each class, each class independently.

Both stages have two backends that give the same bytes: a compiled C
kernel (acg._wiring, built with the system C compiler on the first wiring
call and cached in __pycache__) and the Python loops _type_chain and
_assign_stubs, which run when no compiler is found or the build fails and
serve as the kernel's test oracle.  The same kernel formats the rows of
nodes.csv and edges.tsv (_columns); without it one "%d" format per row
writes the same bytes.

A graph of more than one write chunk (_WRITE_ROWS edges) runs on two
threads when the kernel loaded, whose calls release the GIL, and more than
one CPU is usable (_fanout._usable_cpus): sequential_wiring runs its two
stub matchings at once, and write_sample writes nodes.csv on one thread
while this one classifies the graph, then formats the chunks of edges.tsv
on both, at most two chunks ahead of the one this thread writes.  Each
chunk is formatted on its own and written in order, so the files and the
random streams are those of the serial run, which smaller graphs, one CPU
or the Python loops get.  Both threads are joined before the call returns.

Randomness comes from numpy Generators made by default_rng(seed).  Callers
that draw many graphs from one base seed give each its own stream by passing
a list: [seed, index] for the index-th graph of `acg generate --samples`,
`acg configs count` and the self-loop and assortativity suites, and
[seed, size, rep] for the edge-LLN suite.
"""

from __future__ import annotations

import contextlib
import functools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from ._common import DEFAULT_DELTA, DEFAULT_MAX_REDRAWS, DEFAULT_MAX_RESTARTS, _atomic_write
from ._params import load_json
from .degree_model import GUIDE_BUCKETS, EdgeTypeDist, NodeTypeDist
from .errors import (
    ClipOverflow,
    DeadEnd,
    InfeasibleSequence,
    InvalidDistribution,
    MalformedSample,
    RetriesExhausted,
    finite,
    integral,
    integral_array,
)

_REFRESH_EVERY = 4096  # steps between exact refreshes of drifting weight sums
_WRITE_ROWS = 1 << 16  # rows per chunk of a sample file, which bounds the text held at once


@dataclass(frozen=True)
class NodeTypeSequence:
    """Per-node degree pairs; entry i is node i's (in-degree, out-degree).

    Degrees are integral numbers (2.0 reads as 2): 1.5, true or "1" raise InvalidDistribution.
    """

    in_degrees: np.ndarray
    out_degrees: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "in_degrees", integral_array(self.in_degrees, InvalidDistribution))
        object.__setattr__(self, "out_degrees", integral_array(self.out_degrees, InvalidDistribution))
        if self.in_degrees.shape != self.out_degrees.shape or self.in_degrees.ndim != 1:
            raise InvalidDistribution("degree arrays must be 1-d and equally long")
        if self.in_degrees.min(initial=0) < 0 or self.out_degrees.min(initial=0) < 0:
            raise InvalidDistribution("degrees must be nonnegative")
        self.in_degrees.setflags(write=False)
        self.out_degrees.setflags(write=False)

    def __len__(self) -> int:
        return len(self.in_degrees)

    @functools.cached_property
    def discrepancy(self) -> int:
        """Out-stub excess D = sum(k_i - j_i), summed once: the degrees are read-only."""
        return int(self.out_degrees.sum() - self.in_degrees.sum())


def draw_node_sequence(p: NodeTypeDist, n: int, rng: np.random.Generator) -> NodeTypeSequence:
    """Draw n node types i.i.d. from P, consuming exactly rng.random(n).

    Uniform u falls in cell i, the first cell of P (flattened, j-major)
    whose cdf exceeds u; the cdf is p.cells.cdf, formed as
    Generator.choice(len(flat), size=n, p=flat) forms it, which finds the
    same i by a binary search over the same uniforms.  Here bucket
    b = floor(u * GUIDE_BUCKETS) is exact, because GUIDE_BUCKETS is a power
    of two, and its guide entry, the first cell whose cdf exceeds
    b / GUIDE_BUCKETS <= u, is a lower bound on i.  Stepping up while
    cdf <= u compares the same doubles as the search, so it stops at i
    (the last cdf entry is 1 > u).  Same cells, same generator state.
    InvalidDistribution unless n is an integer of at least 1.
    """
    n = integral(n, InvalidDistribution, 1)
    cells = p.cells
    u = rng.random(n)
    idx = cells.guide[(u * GUIDE_BUCKETS).astype(np.intp)]
    behind = np.flatnonzero(cells.cdf[idx] <= u)
    while behind.size:
        idx[behind] += 1
        behind = behind[cells.cdf[idx[behind]] <= u[behind]]
    return NodeTypeSequence(in_degrees=cells.in_degree[idx], out_degrees=cells.out_degree[idx])


def clip_threshold(n: int, delta: float) -> float:
    """N^(1/2+delta), the largest |D| that clipping accepts; InvalidDistribution unless delta is finite."""
    return float(n) ** (0.5 + finite(delta, InvalidDistribution))


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
    ClipOverflow is raised when fewer than |D| nodes can, InfeasibleSequence
    when D != 0 and no rng is given, and InvalidDistribution for a delta
    that is not finite.
    """
    threshold = clip_threshold(len(x), delta)
    d = x.discrepancy
    if d == 0:
        return x
    if abs(d) > threshold:
        return None
    if rng is None:
        raise InfeasibleSequence("clipping a nonzero discrepancy needs an rng")
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


def stub_census(x: NodeTypeSequence, k_cut: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Stub margins (e_minus, e_plus) by degree 0..K of a balanced sequence: e_minus[j] = j * #{in-degree j}."""
    d = x.discrepancy
    if d != 0:
        raise InfeasibleSequence(f"stub totals differ by {d}; clip or redraw first")
    top = int(max(x.in_degrees.max(initial=0), x.out_degrees.max(initial=0)))
    if k_cut is not None and top > k_cut:
        raise InvalidDistribution(f"degree {top} exceeds the cutoff {k_cut}")
    size = (k_cut if k_cut is not None else top) + 1
    degrees = np.arange(size)
    return degrees * np.bincount(x.in_degrees, minlength=size), degrees * np.bincount(x.out_degrees, minlength=size)


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


class _WiringDeadEnd(Exception):
    pass


def _chain_state(rate, em):
    """Support lists, reachable in-stub counts and weight sums for one rate matrix.

    cols[k] lists the in-classes j with R[k][j] > 0 and hits[j] the out-classes
    k that reach j; count[k] is the integer number of in-stubs out-class k can
    still reach and s[k] = sum_j e-_j R[k][j] its float weight sum.
    """
    size = len(rate)
    degree_range = range(1, size)
    cols = [[j for j in degree_range if rate[k][j] > 0.0] for k in range(size)]
    hits = [[k for k in degree_range if rate[k][j] > 0.0] for j in range(size)]
    count = [sum(em[j] for j in cols[k]) for k in range(size)]
    return cols, hits, count, _row_sums(rate, em, cols)


def _row_sums(rate, em, cols):
    """s[k] = sum_j e-_j R[k][j], added left to right.

    The order is part of the seeded stream: builtin sum() rounds
    differently from Python 3.12 on, so it is not used here.
    """
    sums = []
    for k in range(len(rate)):
        total = 0.0
        for j in cols[k]:
            total += em[j] * rate[k][j]
        sums.append(total)
    return sums


def _type_chain(margins, rate, us: np.ndarray, fallback_uniform: bool):
    """Edge types (k, j) of the wiring steps, from the stub margins (e_minus, e_plus) alone.

    Step t picks an out-class k with weight e+_k s_k using us[t, 0], then an
    in-class j with weight e-_j R[k][j] using us[t, 1].  Out-class k takes
    part only while its integer count of reachable in-stubs is positive; the
    float sums s_k, decremented per step and recomputed every _REFRESH_EVERY
    steps, only weigh the pick.  When no out-class takes part the chain
    raises _WiringDeadEnd, or with fallback_uniform continues under unit
    rates.  Returns (out types, in types, whether the fallback was used).
    """
    size = len(rate)
    degree_range = range(1, size)
    em, ep = (m.tolist() for m in margins)
    u_out = us[:, 0].tolist()
    u_in = us[:, 1].tolist()
    steps = len(u_out)
    kt = [0] * steps
    jt = [0] * steps
    cols, hits, count, s = _chain_state(rate, em)
    used_fallback = False
    for t in range(steps):
        while True:
            c_total = 0.0
            live = False
            for k in degree_range:
                if ep[k] and count[k]:
                    c_total += ep[k] * s[k]
                    live = True
            if live:
                break
            if not fallback_uniform or used_fallback:
                raise _WiringDeadEnd()
            rate = [[1.0] * size for _ in range(size)]
            cols, hits, count, s = _chain_state(rate, em)
            used_fallback = True
        target = u_out[t] * c_total
        acc = 0.0
        for k in degree_range:
            if ep[k] and count[k]:
                kk = k
                acc += ep[k] * s[k]
                if acc >= target:
                    break
        row = rate[kk]
        row_total = 0.0
        for j in cols[kk]:
            if em[j]:
                row_total += em[j] * row[j]
        target = u_in[t] * row_total
        acc = 0.0
        for j in cols[kk]:
            if em[j]:
                jj = j
                acc += em[j] * row[j]
                if acc >= target:
                    break
        em[jj] -= 1
        ep[kk] -= 1
        for k in hits[jj]:
            s[k] -= rate[k][jj]
            count[k] -= 1
        if (t & (_REFRESH_EVERY - 1)) == _REFRESH_EVERY - 1:
            s = _row_sums(rate, em, cols)
        kt[t] = kk
        jt[t] = jj
    return np.array(kt, dtype=np.int64), np.array(jt, dtype=np.int64), used_fallback


def _assign_stubs(degrees: np.ndarray, types: np.ndarray, us: np.ndarray, col: int) -> np.ndarray:
    """Owner of the stub each step uses, drawn uniformly within its class.

    Step t takes the stub at position int(us[t, col] * size) of the pool of
    class types[t] and fills the gap with the pool's last stub.
    """
    size = int(degrees.max(initial=0)) + 1
    pools = [np.repeat(np.flatnonzero(degrees == d), d).tolist() for d in range(size)]
    u = us[:, col].tolist()
    owners = [0] * len(types)
    for t, d in enumerate(types.tolist()):
        pool = pools[d]
        idx = int(u[t] * len(pool))
        if idx >= len(pool):
            idx = len(pool) - 1
        owners[t] = pool[idx]
        pool[idx] = pool[-1]
        pool.pop()
    return np.array(owners, dtype=np.int64)


@functools.cache
def _kernel():
    """The compiled wiring kernel, or None to run the Python loops.

    Built and loaded on the first wiring call, never at import.
    """
    from . import _wiring

    return _wiring.load()


def _chain(margins, rate: np.ndarray, us: np.ndarray, fallback_uniform: bool):
    """_type_chain, run by the compiled kernel when it loads; rate is EdgeTypeDist.rate."""
    lib = _kernel()
    if lib is None:
        return _type_chain(margins, rate.tolist(), us, fallback_uniform)
    steps = len(us)
    kt, jt = np.empty(steps, dtype=np.int64), np.empty(steps, dtype=np.int64)
    em, ep = (np.array(m, dtype=np.int64) for m in margins)  # consumed
    rc = lib.type_chain(rate, em, ep, us, fallback_uniform, _REFRESH_EVERY, kt, jt)
    if rc < 0:
        raise _WiringDeadEnd()
    return kt, jt, bool(rc)


def _owners(degrees: np.ndarray, types: np.ndarray, us: np.ndarray, col: int) -> np.ndarray:
    """_assign_stubs for a whole wiring, run by the compiled kernel when it loads."""
    lib = _kernel()
    if lib is None:
        return _assign_stubs(degrees, types, us, col)
    degrees = np.ascontiguousarray(degrees)
    steps = len(types)
    pool, owners = np.empty(steps, dtype=np.int64), np.empty(steps, dtype=np.int64)  # one step per stub
    lib.assign_stubs(degrees, types, us, col, pool, owners)
    return owners


@contextlib.contextmanager
def _threads(edges: int):
    """Two worker threads for the halves of a graph of more than one write chunk, else None.

    Threads start only when the kernel loaded, whose calls release the GIL,
    and more than one CPU is usable; both are joined when the block ends,
    and concurrent.futures is imported only when they start.
    """
    from . import _fanout  # here, not at the top: _fanout imports this module

    if edges <= _WRITE_ROWS or _kernel() is None or _fanout._usable_cpus() < 2:
        yield None
        return
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(2) as pool:
        yield pool


class _Done:
    """A call already made: what _submit returns without a pool."""

    def __init__(self, value):
        self.value = value

    def result(self):
        return self.value


def _submit(pool, fn, *args):
    """fn(*args) on a pool thread, or at once without a pool; either way its result() is fn's."""
    return _Done(fn(*args)) if pool is None else pool.submit(fn, *args)


def sequential_wiring(
    x: NodeTypeSequence,
    q: EdgeTypeDist,
    rng: np.random.Generator,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
) -> MultiGraph:
    """Wire a balanced node-type sequence into a multigraph.

    Each step samples an edge type (k, j) with weight
    e-_j e+_k Q[k,j] / (Q+_k Q-_j), then picks one in-stub and one
    out-stub uniformly within the chosen degree classes.  Every attempt
    draws one row of four uniforms per edge: two for the type chain and
    one for each stub.  A stalled attempt is restarted from scratch up to
    max_restarts times; the final attempt finishes under uniform stub
    matching if it stalls too (flagged in meta).  InvalidDistribution
    unless max_restarts is an integer of at least 0.
    """
    max_restarts = integral(max_restarts, InvalidDistribution, 0)
    margins = stub_census(x, k_cut=q.K)
    restarts = 0
    while True:
        us = rng.random((int(margins[1].sum()), 4))
        try:
            kt, jt, used_fallback = _chain(margins, q.rate, us, restarts == max_restarts)
            break
        except _WiringDeadEnd:
            restarts += 1
            if restarts > max_restarts:
                raise DeadEnd(f"wiring stalled in {restarts} attempts") from None
    with _threads(len(kt)) as pool:
        src = _submit(pool, _owners, x.out_degrees, kt, us, 3)
        dst = _owners(x.in_degrees, jt, us, 2)
    return MultiGraph(
        in_degrees=np.array(x.in_degrees),
        out_degrees=np.array(x.out_degrees),
        edge_src=src.result(),
        edge_dst=dst,
        edge_out_type=kt,
        edge_in_type=jt,
        meta={"wiring_restarts": restarts, "uniform_fallback": used_fallback},
    )


def first_edge_types(
    x: NodeTypeSequence,
    q: EdgeTypeDist,
    rng: np.random.Generator,
    count: int,
) -> list[tuple[int, int]]:
    """Types (k, j) of the first `count` wired edges, without wiring any stub.

    Draws the same uniforms as the first `count` steps of sequential_wiring.
    InvalidDistribution unless count is an integer of at least 0.
    """
    count = integral(count, InvalidDistribution, 0)
    margins = stub_census(x, k_cut=q.K)
    if count > margins[1].sum():
        raise InfeasibleSequence(f"asked for {count} edges, sequence has {margins[1].sum()}")
    try:
        kt, jt, _ = _chain(margins, q.rate, rng.random((count, 4)), False)
    except _WiringDeadEnd:
        raise DeadEnd("wiring stalled before reaching the requested edge count") from None
    return list(zip(kt.tolist(), jt.tolist()))


def accept_sequence(
    p: NodeTypeDist,
    n: int,
    delta: float,
    rng: np.random.Generator,
    max_redraws: int = DEFAULT_MAX_REDRAWS,
) -> tuple[NodeTypeSequence, int, int]:
    """Draw node sequences until clipping accepts one.

    A sequence is redrawn while the discrepancy threshold rejects it or
    clipping overflows the cutoff; RetriesExhausted after max_redraws
    redraws, and InvalidDistribution at the first clip for a delta that is
    not finite.  InvalidDistribution, before any draw, unless max_redraws is
    an integer of at least 0.  Returns (clipped sequence, raw discrepancy D, redraws).
    """
    max_redraws = integral(max_redraws, InvalidDistribution, 0)
    redraws = 0
    while True:
        x = draw_node_sequence(p, n, rng)
        try:
            clipped = clip_sequence(x, p.K, delta=delta, rng=rng)
        except ClipOverflow:
            clipped = None
        if clipped is not None:
            return clipped, x.discrepancy, redraws
        redraws += 1
        if redraws > max_redraws:
            raise RetriesExhausted(f"no acceptable node sequence in {max_redraws} redraws")


def generate_graph(
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    delta: float = DEFAULT_DELTA,
    seed=0,
    max_redraws: int = DEFAULT_MAX_REDRAWS,
    max_restarts: int = DEFAULT_MAX_RESTARTS,
) -> MultiGraph:
    """Draw, clip and wire one multigraph of n nodes (see accept_sequence).

    InvalidDistribution unless n is an integer of at least 1, delta is
    finite and seed is None or an integer or list of integers, each at
    least 0.  meta records n, delta and seed as read: Python numbers.
    """
    if p.K != q.K:
        raise InvalidDistribution(f"node K={p.K} does not match edge K={q.K}")
    n, delta = integral(n, InvalidDistribution, 1), finite(delta, InvalidDistribution)
    seed = _seed(seed)
    rng = np.random.default_rng(seed)
    x, d_raw, redraws = accept_sequence(p, n, delta, rng, max_redraws)
    g = sequential_wiring(x, q, rng, max_restarts=max_restarts)
    g.meta.update(
        {
            "n": n,
            "delta": delta,
            "seed": seed,
            "redraws": redraws,
            "discrepancy": d_raw,
            "clip_count": abs(d_raw),
        }
    )
    return g


def _seed(seed):
    """seed for default_rng: None, or an integer or a sequence of integers, each read by integral and at least 0."""
    if seed is None:
        return None
    if isinstance(seed, (list, tuple, np.ndarray)):
        return [integral(s, InvalidDistribution, 0) for s in seed]
    return integral(seed, InvalidDistribution, 0)


@dataclass(frozen=True)
class GraphClassification:
    """Edge-type table and simplicity summary of a multigraph."""

    edge_type_matrix: np.ndarray
    self_loop_count: int
    multi_edge_count: int
    is_simple: bool


def classify_graph(g: MultiGraph) -> GraphClassification:
    """Tabulate edge types, self-loops and parallel-edge excess.

    MalformedSample if an edge type (k, j) falls outside the table that the
    largest degree spans.
    """
    size = int(max(g.in_degrees.max(initial=0), g.out_degrees.max(initial=0))) + 1
    codes = g.edge_out_type * size + g.edge_in_type
    try:
        table = np.bincount(codes, minlength=size * size).reshape(size, size)
    except ValueError:  # a negative code, or one past the table
        raise MalformedSample(f"an edge type lies outside 0..{size - 1}, the range of the degrees") from None
    self_loops = int(g.self_loop_mask.sum())
    pairs = np.sort(g.edge_src.astype(np.int64) * g.n_nodes + g.edge_dst)
    multi = int((pairs[1:] == pairs[:-1]).sum())
    table.setflags(write=False)
    return GraphClassification(
        edge_type_matrix=table,
        self_loop_count=self_loops,
        multi_edge_count=multi,
        is_simple=self_loops == 0 and multi == 0,
    )


# (separator, header) of the sample files; the first column is the row index
_NODES_CSV = (",", ("id", "j", "k"))
_EDGES_TSV = ("\t", ("edge_id", "src", "dst", "k", "j", "self_loop"))


def write_sample(g: MultiGraph, out_dir) -> None:
    """Write nodes.csv, edges.tsv and meta.json for one sample.

    A negative entry raises MalformedSample and leaves no partial file;
    nodes.csv is written first.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    edges = [g.edge_src, g.edge_dst, g.edge_out_type, g.edge_in_type, g.self_loop_mask]
    with _threads(g.n_edges) as pool:
        nodes = _submit(pool, _atomic_write, out / "nodes.csv", _columns(*_NODES_CSV, [g.in_degrees, g.out_degrees]))
        cls = classify_graph(g)
        nodes.result()
        _atomic_write(out / "edges.tsv", _columns(*_EDGES_TSV, edges, pool))
    meta = dict(g.meta)
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
    """Load a sample written by write_sample.

    MalformedSample if a file (meta.json too) does not parse or holds
    bytes that are not UTF-8, if one holds a negative field or
    row ids other than 0, 1, 2, ... in order, or has an edge whose
    endpoint is not a node, whose k or j is not its source's out-degree
    or its target's in-degree, or whose self_loop is not 1 exactly when
    src equals dst; and unless each node is the source of as many edges
    as its out-degree and the target of as many as its in-degree.
    """
    directory = Path(sample_dir)
    in_degrees, out_degrees = _read_columns(directory / "nodes.csv", *_NODES_CSV)
    src, dst, k, j, self_loop = _read_columns(directory / "edges.tsv", *_EDGES_TSV)
    n = len(in_degrees)
    outside = np.flatnonzero((src >= n) | (dst >= n))
    if outside.size:
        raise MalformedSample(f"edges.tsv: edge {outside[0]} has an endpoint outside the nodes 0..{n - 1}")
    mismatched = np.flatnonzero((k != out_degrees[src]) | (j != in_degrees[dst]))
    if mismatched.size:
        raise MalformedSample(
            f"edges.tsv: edge {mismatched[0]} has a k or j other than its endpoints' out- and in-degree"
        )
    wrong_flag = np.flatnonzero(self_loop != (src == dst))
    if wrong_flag.size:
        raise MalformedSample(f"edges.tsv: edge {wrong_flag[0]} has a self_loop other than 1 if src == dst, else 0")
    for ends, degrees, role in ((src, out_degrees, "source"), (dst, in_degrees, "target")):
        counts = np.bincount(ends, minlength=n)
        off = np.flatnonzero(counts != degrees)
        if off.size:
            node = off[0]
            raise MalformedSample(f"edges.tsv: node {node} is the {role} of {counts[node]} edges, not {degrees[node]}")
    meta_path = directory / "meta.json"
    meta = load_json(meta_path, MalformedSample) if meta_path.exists() else {}
    return MultiGraph(in_degrees, out_degrees, src, dst, k, j, meta=meta)


def _columns(sep: str, header, cols, pool=None):
    """Yield the header line, then the rows (row index and integer columns) as ASCII bytes in chunks of lines.

    The bytes are those of "%d" per field, joined by sep and ended by "\n":
    no sign and no leading zero.  Each chunk of _WRITE_ROWS rows is
    formatted on its own (_chunk); with a pool, on its threads, at most two
    chunks ahead of the one yielded, and yielded in order.  A negative entry
    raises MalformedSample.
    """
    yield (sep.join(header) + "\n").encode("ascii")
    lib = _kernel()
    ahead = []
    for start in range(0, len(cols[0]), _WRITE_ROWS):
        ahead.append(_submit(pool, _chunk, lib, sep, cols, start))
        if len(ahead) > (0 if pool is None else 2):
            yield ahead.pop(0).result()
    for chunk in ahead:
        yield chunk.result()


def _chunk(lib, sep: str, cols, start: int):
    """Rows start to start + _WRITE_ROWS of _columns, as bytes.

    The chunk is copied into one int64 block, which converts the bool
    self_loop column a chunk at a time, and formatted by the compiled
    kernel when it loads, else by one "%d" format per row.
    """
    stop = min(start + _WRITE_ROWS, len(cols[0]))
    block = np.empty((len(cols), stop - start), dtype=np.int64)
    for row, col in zip(block, cols):
        row[:] = col[start:stop]
    if lib is None:
        line = sep.join(["%d"] * (len(cols) + 1)) + "\n"
        lines = map(line.__mod__, zip(range(start, stop), *block.tolist()))
        text = None if block.min() < 0 else "".join(lines).encode("ascii")
    else:
        out = np.empty((stop - start) * (len(cols) + 1) * 20, dtype=np.uint8)  # 19 digits and sep
        written = lib.format_rows(start, block, sep, out)
        text = None if written < 0 else out[:written].tobytes()
    if text is None:
        raise MalformedSample(f"cannot write the negative entry {int(block.min())} to a sample file")
    return text


def _read_columns(path: Path, sep: str, header) -> np.ndarray:
    """The integer columns after the row index of a file written by _columns; the index must run 0, 1, 2, ..."""
    with open(path, encoding="utf-8") as fh:
        try:
            found = fh.readline().rstrip("\n")
            if found != sep.join(header):
                raise MalformedSample(f"{path.name} starts with {found!r}, expected {sep.join(header)!r}")
            start = fh.tell()
            if not fh.read(1):  # np.loadtxt warns on no rows and returns shape (0, 1)
                return np.zeros((len(header) - 1, 0), dtype=np.int64)
            fh.seek(start)
            table = np.loadtxt(fh, dtype=np.int64, delimiter=sep, ndmin=2, unpack=True)
        except MalformedSample:
            raise
        except ValueError as exc:  # a field that is no integer, or bytes that are not UTF-8
            raise MalformedSample(f"{path.name}: {exc}") from None
    if len(table) != len(header):
        raise MalformedSample(f"{path.name} has {len(table)} columns, expected {len(header)}")
    if table.min() < 0:  # the format rule _columns enforces
        raise MalformedSample(f"{path.name} holds the negative entry {table.min()}")
    out_of_order = np.flatnonzero(table[0] != np.arange(table.shape[1]))
    if out_of_order.size:
        row = out_of_order[0]
        raise MalformedSample(f"{path.name}: row {row} has the {header[0]} {table[0, row]}, expected {row}")
    return table[1:]
