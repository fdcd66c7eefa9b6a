import hashlib
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from acg import _fanout, sampler
from acg.degree_model import EdgeTypeDist, NodeTypeDist, load_params
from acg.errors import (
    AcgError,
    ClipOverflow,
    DeadEnd,
    InfeasibleSequence,
    InvalidDistribution,
    MalformedSample,
    RetriesExhausted,
)
from acg.sampler import (
    DEFAULT_DELTA,
    DEFAULT_MAX_RESTARTS,
    _row_sums,
    MultiGraph,
    accept_sequence,
    NodeTypeSequence,
    classify_graph,
    clip_sequence,
    clip_threshold,
    draw_node_sequence,
    first_edge_types,
    generate_graph,
    read_sample,
    sequential_wiring,
    stub_census,
    write_sample,
)

from helpers import columns_oracle, draw_cells_oracle, random_consistent_pair, rate_matrix_oracle


def seq(pairs):
    in_degrees, out_degrees = zip(*pairs)
    return NodeTypeSequence(in_degrees=in_degrees, out_degrees=out_degrees)


def test_draw_node_sequence_frequencies(bal2):
    p, _ = bal2
    x = draw_node_sequence(p, 40000, np.random.default_rng(0))
    frac_12 = np.mean((x.in_degrees == 1) & (x.out_degrees == 2))
    assert frac_12 == pytest.approx(0.5, abs=0.02)
    assert set(zip(x.in_degrees.tolist(), x.out_degrees.tolist())) <= {(1, 2), (2, 1)}


@st.composite
def node_laws(draw):
    """Node-type law on K <= 10 with zero cells, zero rows and columns, and cells near 1e-12 beside large ones.

    Built without from_weights, which also demands equal mean in- and
    out-degree: the draw reads only the matrix.
    """
    size = draw(st.integers(1, 10)) + 1
    cell = st.sampled_from([0.0, 1e-12, 3e-12, 0.25, 1.0, 1e3]) | st.floats(1e-13, 1e3)
    m = np.array([[draw(cell) for _ in range(size)] for _ in range(size)])
    m[sorted(draw(st.sets(st.integers(0, size - 1), max_size=size - 1))), :] = 0.0
    m[:, sorted(draw(st.sets(st.integers(0, size - 1), max_size=size - 1)))] = 0.0
    assume(m.sum() > 0)
    m /= m.sum()
    return NodeTypeDist(matrix=m, in_marginal=m.sum(axis=1), out_marginal=m.sum(axis=0), mean_degree=1.0)


def _assert_draw_matches_choice(p, n, seed):
    fast, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    x = draw_node_sequence(p, n, fast)
    in_degrees, out_degrees = draw_cells_oracle(p, n, oracle)
    assert x.in_degrees.dtype == in_degrees.dtype
    assert np.array_equal(x.in_degrees, in_degrees)
    assert np.array_equal(x.out_degrees, out_degrees)
    assert fast.random() == oracle.random()


@settings(max_examples=150, deadline=None)
@given(node_laws(), st.integers(1, 10**4), st.integers(0, 2**32 - 1))
def test_draw_node_sequence_matches_generator_choice(p, n, seed):
    _assert_draw_matches_choice(p, n, seed)


def test_draw_node_sequence_matches_generator_choice_on_the_fixtures():
    # assort_k10's tail cells crowd into the last buckets, so the step-up runs several passes
    fixtures = Path(__file__).resolve().parents[1] / "clibench" / "fixtures"
    for name in ("assort_k2.json", "assort_k10.json"):
        p, _ = load_params(fixtures / name)
        for seed in range(20):
            for n in (1, 7, 1000, 10**4):
                _assert_draw_matches_choice(p, n, [seed, n])


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


def test_draw_node_sequence_breaks_ties_as_the_right_sided_search():
    # a uniform equal to a cdf entry belongs to the next cell, as in searchsorted(side="right");
    # the cells of 0.1 and 0.3 put cdf entries inside buckets, the 0.25 cells on their bounds
    m = np.array([[0.25, 0.0, 0.1], [0.0, 0.3, 0.0], [0.1, 0.0, 0.25]])
    p = NodeTypeDist(matrix=m, in_marginal=m.sum(axis=1), out_marginal=m.sum(axis=0), mean_degree=1.0)
    cdf = p.cells.cdf
    edges = np.concatenate([cdf[cdf < 1], [0.0, 2.0**-53]])
    u = np.concatenate([edges, np.nextafter(edges, 1.0), np.nextafter(edges, 0.0)[edges > 0], [1 - 2.0**-53]])
    x = draw_node_sequence(p, len(u), _FixedUniforms(u))
    cell = cdf.searchsorted(u, side="right")
    assert np.array_equal(x.in_degrees, cell // 3)
    assert np.array_equal(x.out_degrees, cell % 3)


def test_clip_balanced_sequence_is_identity():
    x = seq([(1, 2), (2, 1)])
    assert clip_sequence(x, 2) is x


def test_clip_balances_stub_totals():
    x = seq([(2, 2), (2, 2), (1, 2)])  # one out-stub too many
    assert x.discrepancy == 1
    clipped = clip_sequence(x, 2, rng=np.random.default_rng(1))
    assert clipped.discrepancy == 0
    assert clipped.in_degrees.sum() == x.in_degrees.sum() + 1
    assert np.array_equal(clipped.out_degrees, x.out_degrees)
    # negative discrepancy raises out-degrees instead
    y = seq([(2, 2), (2, 2), (2, 1)])
    assert y.discrepancy == -1
    clipped = clip_sequence(y, 2, rng=np.random.default_rng(1))
    assert clipped.discrepancy == 0
    assert np.array_equal(clipped.in_degrees, y.in_degrees)


def test_clip_rejects_large_discrepancy():
    # threshold n^(1/2+delta) = 4^1 = 4 < 6
    x = seq([(0, 2), (0, 2), (0, 2), (0, 0)])
    assert clip_sequence(x, 2, delta=0.5, rng=np.random.default_rng(0)) is None
    assert clip_threshold(4, 0.5) == pytest.approx(4.0)


@pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
def test_clip_rejects_a_delta_that_is_not_finite(delta):
    x = seq([(0, 1)] * 100)  # D = 100 at N = 100, which delta 0.25 rejects
    assert clip_sequence(x, 2, delta=0.25, rng=np.random.default_rng(0)) is None
    with pytest.raises(InvalidDistribution, match="expected a finite number"):
        clip_sequence(x, 2, delta=delta, rng=np.random.default_rng(0))
    with pytest.raises(InvalidDistribution, match="expected a finite number"):
        clip_sequence(seq([(1, 1)]), 2, delta=delta)  # balanced, so nothing to clip


def test_clip_overflow_when_no_room():
    # D = 3 within threshold, but only two nodes may gain an in-stub
    x = seq([(2, 2), (2, 2), (2, 2), (1, 2), (1, 3)])
    with pytest.raises(ClipOverflow):
        clip_sequence(x, 2, rng=np.random.default_rng(0))


def test_clip_needs_rng_only_when_unbalanced():
    with pytest.raises(ValueError):
        clip_sequence(seq([(1, 2), (2, 2)]), 2)


def test_stub_census_counts():
    x = seq([(1, 2), (2, 1), (1, 1), (1, 1)])
    e_minus, e_plus = stub_census(x)
    assert e_plus.sum() == 5
    assert e_minus.tolist() == [0, 3, 2]
    assert e_plus.tolist() == [0, 3, 2]
    with pytest.raises(InfeasibleSequence):
        stub_census(seq([(1, 2)]))


def test_degree_above_cutoff_is_rejected(bal2):
    _, q = bal2
    x = seq([(3, 3), (1, 1)])
    with pytest.raises(InvalidDistribution, match="cutoff 2"):
        stub_census(x, k_cut=2)
    with pytest.raises(InvalidDistribution, match="cutoff 2"):
        sequential_wiring(x, q, np.random.default_rng(0))


def test_row_sums_add_left_to_right():
    # 1.0 + 1e-16 + 1e-16 rounds to 1.0 term by term; a compensated sum
    # (builtin sum from Python 3.12 on) gives 1.0000000000000002.
    rate = [[0.0, 1.0, 1e-16, 1e-16]]
    assert _row_sums(rate, [0, 1, 1, 1], [[1, 2, 3]]) == [1.0]


def test_sequential_wiring_realizes_degrees(bal2):
    p, q = bal2
    x = draw_node_sequence(p, 400, np.random.default_rng(3))
    x = clip_sequence(x, 2, rng=np.random.default_rng(4))
    g = sequential_wiring(x, q, np.random.default_rng(5))
    assert g.n_edges == stub_census(x)[1].sum()
    assert np.array_equal(np.bincount(g.edge_src, minlength=g.n_nodes), x.out_degrees)
    assert np.array_equal(np.bincount(g.edge_dst, minlength=g.n_nodes), x.in_degrees)
    assert np.array_equal(g.edge_out_type, x.out_degrees[g.edge_src])
    assert np.array_equal(g.edge_in_type, x.in_degrees[g.edge_dst])
    assert g.meta["wiring_restarts"] == 0
    assert not g.meta["uniform_fallback"]


def test_sequential_wiring_deterministic(bal2):
    p, q = bal2
    x = clip_sequence(draw_node_sequence(p, 300, np.random.default_rng(7)), 2, rng=np.random.default_rng(8))
    g1 = sequential_wiring(x, q, np.random.default_rng(9))
    g2 = sequential_wiring(x, q, np.random.default_rng(9))
    assert np.array_equal(g1.edge_src, g2.edge_src)
    assert np.array_equal(g1.edge_dst, g2.edge_dst)


def test_first_edge_types_on_support(disas):
    p, q = disas
    x = clip_sequence(draw_node_sequence(p, 500, np.random.default_rng(2)), 2, rng=np.random.default_rng(3))
    types = first_edge_types(x, q, np.random.default_rng(4), 20)
    assert len(types) == 20
    assert all(q.matrix[k, j] > 0 for k, j in types)
    with pytest.raises(InfeasibleSequence):
        first_edge_types(seq([(1, 1)]), q, np.random.default_rng(0), 5)


def test_generate_graph_meta_and_determinism(bal2):
    p, q = bal2
    g1 = generate_graph(p, q, 500, seed=11)
    g2 = generate_graph(p, q, 500, seed=11)
    g3 = generate_graph(p, q, 500, seed=12)
    assert np.array_equal(g1.edge_src, g2.edge_src)
    assert np.array_equal(g1.edge_dst, g2.edge_dst)
    assert not np.array_equal(g1.edge_src, g3.edge_src)
    assert g1.n_nodes == 500
    assert g1.meta["n"] == 500
    assert g1.meta["seed"] == 11
    assert g1.meta["clip_count"] == abs(g1.meta["discrepancy"])
    assert 0.5 < g1.n_edges / (1.5 * 500) < 2.0


def test_generate_graph_accepts_stream_seeds(bal2):
    p, q = bal2
    g1 = generate_graph(p, q, 200, seed=[5, 0])
    g2 = generate_graph(p, q, 200, seed=[5, 0])
    assert np.array_equal(g1.edge_dst, g2.edge_dst)
    assert g1.meta["seed"] == [5, 0]


def test_generate_graph_rejects_mismatched_cutoffs(bal2, disas):
    p, _ = bal2
    q3 = np.zeros((4, 4))
    q3[1, 1] = 1.0
    from acg.degree_model import EdgeTypeDist

    with pytest.raises(InvalidDistribution):
        generate_graph(p, EdgeTypeDist.from_weights(q3), 100)


def _loop_and_parallel_graph():
    """Three nodes, one self-loop and one parallel pair."""
    return MultiGraph(
        in_degrees=np.array([1, 0, 2]),
        out_degrees=np.array([1, 2, 0]),
        edge_src=np.array([0, 1, 1]),
        edge_dst=np.array([0, 2, 2]),
        edge_out_type=np.array([1, 2, 2]),
        edge_in_type=np.array([1, 2, 2]),
    )


def test_classify_graph_counts():
    g = _loop_and_parallel_graph()
    cls = classify_graph(g)
    assert cls.self_loop_count == 1
    assert cls.multi_edge_count == 1
    assert not cls.is_simple
    assert cls.edge_type_matrix[1, 1] == 1
    assert cls.edge_type_matrix[2, 2] == 2
    assert int(g.self_loop_mask.sum()) == 1


def test_write_read_sample_roundtrip(bal2, tmp_path):
    p, q = bal2
    g = generate_graph(p, q, 150, seed=21)
    write_sample(g, tmp_path)
    back = read_sample(tmp_path)
    assert np.array_equal(back.edge_src, g.edge_src)
    assert np.array_equal(back.edge_dst, g.edge_dst)
    assert np.array_equal(back.in_degrees, g.in_degrees)
    assert back.meta["n_edges"] == g.n_edges


@pytest.mark.parametrize("numbers", [{"n": np.int64(150)}, {"delta": np.float32(0.25)}], ids=["int64-n", "float32-delta"])
def test_numpy_scalars_write_the_sample_of_python_numbers(bal2, tmp_path, numbers):
    p, q = bal2
    want = generate_graph(p, q, 150, delta=0.25, seed=21)
    g = generate_graph(p, q, **{"n": 150, **numbers}, seed=21)
    assert (type(g.meta["n"]), type(g.meta["delta"])) == (int, float)
    write_sample(g, tmp_path)
    back = read_sample(tmp_path)
    assert np.array_equal(back.edge_src, want.edge_src) and np.array_equal(back.edge_dst, want.edge_dst)
    assert (back.meta["n"], back.meta["delta"]) == (150, 0.25)
    assert (tmp_path / "nodes.csv").read_text().splitlines()[0] == "id,j,k"
    empty = MultiGraph(*[np.zeros(n, dtype=np.int64) for n in (4, 4, 0, 0, 0, 0)])
    write_sample(empty, tmp_path / "empty")
    back = read_sample(tmp_path / "empty")
    assert (back.n_nodes, back.n_edges, back.meta["n_edges"]) == (4, 0, 0)
    assert all(a.dtype == np.int64 for a in (back.in_degrees, back.edge_src, back.edge_in_type))
    assert classify_graph(back).edge_type_matrix.tolist() == [[0]]


# SHA-256 of nodes.csv, edges.tsv and meta.json as written before the sample
# files were formatted and parsed by column
GOLDEN_FILES = {
    "bal2": (
        "89e50238a560199bfed6fc6fab4d3fc5f0e5b55c9ffd74a7dcb4a2bc0e587113",
        "3e4526b0d8e40d302ee240d68e3ccb69529366ceb3b4e7f5dfc3bf35b1fffbcd",
        "ccac799c40a6b99ef052bdae73f6ad4b645201148a2c9e1ba67852ced214fbcd",
    ),
    "loop_and_parallel": (
        "a5bae583b00c9441a465be908f6e392593485bff89bd3da5b71ce0073b9e6502",
        "e37976a333830c46e1726779184dcfdeb415c35bb4c348cb3fa3e89b1f7f37e3",
        "ea953b0353b3191a71fee20e100ef8a9fde45e3db5909bb451b55037a2bf449b",
    ),
}


def test_sample_files_match_golden_digests(bal2, tmp_path):
    graphs = {"bal2": generate_graph(*bal2, 300, seed=7), "loop_and_parallel": _loop_and_parallel_graph()}
    for name, g in graphs.items():
        write_sample(g, tmp_path / name)
        digests = tuple(
            hashlib.sha256((tmp_path / name / f).read_bytes()).hexdigest()
            for f in ("nodes.csv", "edges.tsv", "meta.json")
        )
        assert digests == GOLDEN_FILES[name], name


# SHA-256 of nodes.csv and edges.tsv of generate_graph(*bal2, 100_000, seed=7), recorded
# with the "%d" row formatter; its 150,156 edge rows cross two chunks of _WRITE_ROWS rows
GOLDEN_FILES_100K = (
    "6195f60885ccae054eeeede7fde3b954ba81d1d5267f6e97a0751868a5641928",
    "efe1434cfa7907e7363e717c13ee5cb4f898d8edb4dacb8894c1b59efaf86d72",
)


def test_sample_files_across_chunks_match_golden_digests(wiring_path, bal2, tmp_path):
    g = generate_graph(*bal2, 100_000, seed=7)
    assert g.n_edges > 2 * sampler._WRITE_ROWS
    write_sample(g, tmp_path)
    digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in ("nodes.csv", "edges.tsv"))
    assert digests == GOLDEN_FILES_100K


def _threads_running(monkeypatch, *names):
    """{name: idents of the threads that ran it} for these sampler functions, filled as they run."""
    seen = {}
    for name in names:
        fn = getattr(sampler, name)

        def spy(*args, fn=fn, name=name):
            seen.setdefault(name, set()).add(threading.get_ident())
            return fn(*args)

        monkeypatch.setattr(sampler, name, spy)
    return seen


def test_a_large_sample_is_the_same_bytes_on_one_and_two_cpus(wiring_path, bal2, tmp_path, monkeypatch):
    files = []
    seen = _threads_running(monkeypatch, "_owners", "_chunk", "_atomic_write", "classify_graph")
    for cpus in (1, 2):
        monkeypatch.setattr(_fanout, "_usable_cpus", lambda: cpus)
        seen.clear()
        alive = threading.active_count()
        g = generate_graph(*bal2, 100_000, seed=7)
        assert threading.active_count() == alive
        write_sample(g, tmp_path / f"{cpus}cpu")
        assert threading.active_count() == alive
        files.append([(tmp_path / f"{cpus}cpu" / f).read_bytes() for f in ("nodes.csv", "edges.tsv", "meta.json")])
        # the workers run only private helpers; classify_graph, which a tracer wraps, stays on this thread
        assert seen["classify_graph"] == {threading.get_ident()}
        helpers = ["_owners", "_chunk", "_atomic_write"]
        threaded = [name for name in helpers if seen[name] != {threading.get_ident()}]
        assert threaded == (helpers if cpus == 2 and wiring_path == "native" else [])
    assert files[0] == files[1]
    assert tuple(hashlib.sha256(data).hexdigest() for data in files[0][:2]) == GOLDEN_FILES_100K


def test_a_graph_of_one_write_chunk_starts_no_thread(bal2, tmp_path, monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    seen = _threads_running(monkeypatch, "_owners", "_chunk", "_atomic_write")
    g = generate_graph(*bal2, 40_000, seed=7)
    assert g.n_edges <= sampler._WRITE_ROWS
    write_sample(g, tmp_path)
    assert set(seen) == {"_owners", "_chunk", "_atomic_write"}
    assert all(idents == {threading.get_ident()} for idents in seen.values())


def test_generate_below_the_gate_never_imports_concurrent_futures(bal2_file, tmp_path):
    code = (
        "import sys, acg.cli; "
        f"acg.cli.run(['generate', '--params', {bal2_file!r}, '--n', '500', '--seed', '1', '--out-dir', {str(tmp_path)!r}]); "
        "print('concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize(
    "column, at, left",
    [("in_degrees", 7, []), ("edge_dst", -5, ["nodes.csv"]), ("edge_dst", 3, ["nodes.csv"]),
     ("edge_out_type", 70_000, ["nodes.csv"])],
    ids=["nodes", "last-edge-chunk", "first-edge-chunk", "edge-type"],
)
def test_a_negative_entry_in_a_large_sample_leaves_no_partial_file(column, at, left, bal2, tmp_path, monkeypatch):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: 2)
    g = generate_graph(*bal2, 100_000, seed=7)
    getattr(g, column)[at] = -1
    alive = threading.active_count()
    with pytest.raises(MalformedSample):
        write_sample(g, tmp_path)
    assert threading.active_count() == alive
    assert sorted(p.name for p in tmp_path.iterdir()) == left


# entries where the digit count or the four-digit group count changes, and the widest int64
WRITER_EDGE_VALUES = [0, 9, 10, 99, 100, 9999, 10000, 10**7, 2**40, 2**63 - 1]


# the wiring_path fixture only picks the formatter, which every example shares
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    rows=st.integers(0, 300) | st.sampled_from([2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3]),
    n_ints=st.integers(1, 4),
    sep=st.sampled_from([",", "\t"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(rows=0, n_ints=1, sep=",", seed=0)
@example(rows=1, n_ints=2, sep="\t", seed=1)
@example(rows=2**16 - 1, n_ints=2, sep=",", seed=2)
@example(rows=2**16, n_ints=3, sep="\t", seed=3)
@example(rows=2**16 + 1, n_ints=1, sep=",", seed=4)
@example(rows=2**17 + 3, n_ints=4, sep="\t", seed=5)
def test_columns_match_the_percent_d_oracle(wiring_path, rows, n_ints, sep, seed):
    rng = np.random.default_rng(seed)
    cols = []
    for _ in range(n_ints):
        top = rng.choice([10, 10**4, 10**7, 2**40, 2**63 - 1])
        col = rng.integers(0, top, rows, dtype=np.int64)
        at = rng.integers(0, rows, len(WRITER_EDGE_VALUES)) if rows else []
        col[at] = WRITER_EDGE_VALUES[: len(at)]
        cols.append(col)
    cols.append(rng.random(rows) < 0.5)
    header = tuple(f"c{i}" for i in range(len(cols) + 1))
    assert b"".join(sampler._columns(sep, header, cols)) == columns_oracle(sep, header, cols)


def test_columns_reject_a_negative_entry(wiring_path, tmp_path):
    with pytest.raises(AcgError):
        b"".join(sampler._columns(",", ("id", "v"), [np.array([3, 10**5, -1])]))
    late = np.arange(2**16 + 5)
    late[2**16 + 1] = -7  # in the second chunk, after the first was written
    with pytest.raises(MalformedSample, match="-7"):
        sampler._atomic_write(tmp_path / "late.csv", sampler._columns(",", ("id", "v"), [late, late]))
    assert not any(tmp_path.iterdir())
    g = _graph_of_edges(2, [(0, 1)])
    g.edge_dst = np.array([-1])
    with pytest.raises(MalformedSample):
        write_sample(g, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["nodes.csv"]


def _graph_of_edges(n, edges):
    src = np.array([s for s, _ in edges], dtype=np.int64)
    dst = np.array([d for _, d in edges], dtype=np.int64)
    out_deg = np.bincount(src, minlength=n)
    in_deg = np.bincount(dst, minlength=n)
    return MultiGraph(in_deg, out_deg, src, dst, out_deg[src], in_deg[dst])


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12),
        )
    )
)
def test_classify_and_edge_file_match_row_loops(case):
    n, edges = case
    g = _graph_of_edges(n, edges)
    cls = classify_graph(g)
    size = cls.edge_type_matrix.shape[0]
    table = np.zeros((size, size), dtype=int)
    for k, j in zip(g.edge_out_type.tolist(), g.edge_in_type.tolist()):
        table[k, j] += 1
    assert cls.edge_type_matrix.tolist() == table.tolist()
    assert cls.self_loop_count == sum(s == d for s, d in edges)
    assert cls.multi_edge_count == len(edges) - len(set(edges))
    with tempfile.TemporaryDirectory() as d:
        write_sample(g, d)
        text = (Path(d) / "edges.tsv").read_text()
        back = read_sample(d)
    rows = zip(edges, g.edge_out_type.tolist(), g.edge_in_type.tolist())
    assert text == "edge_id\tsrc\tdst\tk\tj\tself_loop\n" + "".join(
        f"{i}\t{s}\t{d}\t{k}\t{j}\t{int(s == d)}\n" for i, ((s, d), k, j) in enumerate(rows)
    )
    for field in ("in_degrees", "out_degrees", "edge_src", "edge_dst", "edge_out_type", "edge_in_type"):
        assert np.array_equal(getattr(back, field), getattr(g, field)), field


@pytest.mark.parametrize(
    "name, text",
    [
        ("nodes.csv", "id,k,j\n0,1,1\n"),
        ("nodes.csv", "id,j,k\n0,1\n"),
        ("edges.tsv", "edge_id\tsrc\tdst\tk\tj\n"),
        ("edges.tsv", "edge_id\tsrc\tdst\tk\tj\tself_loop\n0\t0\tx\t1\t1\t0\n"),
    ],
)
def test_read_sample_rejects_a_malformed_file(bal2, tmp_path, name, text):
    write_sample(generate_graph(*bal2, 20, seed=3), tmp_path)
    (tmp_path / name).write_text(text)
    with pytest.raises(MalformedSample):
        read_sample(tmp_path)


def _edit_field(path, row, column, edit):
    """Replace field `column` of data row `row` of a sample file by edit(old value)."""
    sep = "\t" if path.suffix == ".tsv" else ","
    lines = path.read_text().split("\n")
    fields = lines[row + 1].split(sep)
    fields[column] = str(edit(int(fields[column])))
    lines[row + 1] = sep.join(fields)
    path.write_text("\n".join(lines))


@pytest.mark.parametrize(
    "name, column, edit",
    [
        pytest.param("edges.tsv", 2, lambda v: 50, id="dst-n_nodes"),
        pytest.param("edges.tsv", 1, lambda v: 50, id="src-n_nodes"),
        pytest.param("edges.tsv", 2, lambda v: -1, id="dst-negative"),
        pytest.param("edges.tsv", 0, lambda v: -1, id="edge_id-negative"),
        pytest.param("edges.tsv", 5, lambda v: -1, id="self_loop-negative"),
        pytest.param("nodes.csv", 1, lambda v: -1, id="node_j-negative"),
        pytest.param("edges.tsv", 3, lambda v: 3 - v, id="edge_k-other-class"),
        pytest.param("edges.tsv", 4, lambda v: 3 - v, id="edge_j-other-class"),
        pytest.param("nodes.csv", 2, lambda v: 3 - v, id="source_k-other-class"),
        pytest.param("edges.tsv", 0, lambda v: 999, id="edge_id-999"),
        pytest.param("nodes.csv", 0, lambda v: v + 1, id="node_id-skipped"),
        pytest.param("edges.tsv", 5, lambda v: 7, id="self_loop-7"),
        pytest.param("edges.tsv", 5, lambda v: 1 - v, id="self_loop-flipped"),
    ],
)
def test_read_sample_rejects_rows_outside_the_format(assort, tmp_path, name, column, edit):
    g = generate_graph(*assort, 50, seed=1)
    write_sample(g, tmp_path)
    row = int(g.edge_src[1]) if name == "nodes.csv" else 1  # the source node of edge 1
    _edit_field(tmp_path / name, row, column, edit)
    with pytest.raises(MalformedSample):
        read_sample(tmp_path)


def test_read_sample_rejects_edges_that_do_not_realise_the_degrees(assort, tmp_path):
    g = generate_graph(*assort, 50, seed=1)
    write_sample(g, tmp_path)
    edges = tmp_path / "edges.tsv"
    lines = edges.read_text().splitlines(keepends=True)
    edges.write_text("".join(lines[:-1]))  # the last edge row deleted: every row left is consistent
    with pytest.raises(MalformedSample, match="edges, not"):
        read_sample(tmp_path)
    # the last edge moved onto another source of the same out-degree, so its k still matches
    last = lines[-1].split("\t")
    other = next(i for i in range(g.n_nodes) if g.out_degrees[i] == int(last[3]) and i != int(last[1]))
    edges.write_text("".join(lines[:-1]) + "\t".join([last[0], str(other), *last[2:]]))
    with pytest.raises(MalformedSample, match="source of"):
        read_sample(tmp_path)


def test_clip_acceptance_is_high(bal2):
    p, _ = bal2
    rng = np.random.default_rng(123)
    accepted = 0
    draws = 200
    for _ in range(draws):
        x = draw_node_sequence(p, 2000, rng)
        if clip_sequence(x, 2, rng=rng) is not None:
            accepted += 1
    assert accepted == draws


@st.composite
def sampler_cases(draw):
    """Random symmetric node law and edge law on K <= 4, with forbidden cells."""
    size = draw(st.integers(1, 4)) + 1
    cell = st.integers(0, 3)
    w = np.array([[draw(cell) for _ in range(size)] for _ in range(size)], dtype=float)
    p = w + w.T  # equal mean in- and out-degree
    q = np.zeros((size, size))
    q[1:, 1:] = [[draw(cell) for _ in range(size - 1)] for _ in range(size - 1)]
    return p, q, draw(st.integers(1, 40)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=80, deadline=None)
@given(sampler_cases())
def test_generate_graph_realizes_sequence_or_raises(case):
    p_w, q_w, n, seed = case
    assume(p_w.sum() > 0 and q_w.sum() > 0)
    try:
        p = NodeTypeDist.from_weights(p_w / p_w.sum())
        q = EdgeTypeDist.from_weights(q_w / q_w.sum())
        g = generate_graph(p, q, n, seed=seed, max_redraws=20)
    except AcgError:
        return
    assert np.array_equal(np.bincount(g.edge_src, minlength=g.n_nodes), g.out_degrees)
    assert np.array_equal(np.bincount(g.edge_dst, minlength=g.n_nodes), g.in_degrees)
    assert np.array_equal(g.out_degrees[g.edge_src], g.edge_out_type)
    assert np.array_equal(g.in_degrees[g.edge_dst], g.edge_in_type)


@settings(max_examples=100, deadline=None)
@given(sampler_cases())
def test_rate_matrix_matches_the_scalar_loop(case):
    _, q_w, _, _ = case
    assume(q_w.sum() > 0)
    q = EdgeTypeDist.from_weights(q_w / q_w.sum())
    assert q.rate.tobytes() == np.array(rate_matrix_oracle(q)).tobytes()


def test_rate_matrix_is_zero_on_a_vanishing_margin(disas):
    _, q = disas
    m = q.matrix.copy()
    m[1, 2] += m[1, 1] + m[2, 1]  # in-class 1 loses its mass; both out-classes keep theirs
    m[1, 1] = m[2, 1] = 0.0
    q = EdgeTypeDist.from_weights(m)
    assert q.in_marginal[1] == 0 and q.out_marginal[1:].all()
    assert q.rate.tobytes() == np.array(rate_matrix_oracle(q)).tobytes()
    assert not q.rate[:, 1].any()
    assert q.rate.dtype == np.float64 and q.rate.flags.c_contiguous and not q.rate.flags.writeable


# seeds of the pair below whose float row sums drifted positive after an
# out-class had no admissible in-stub left, so the wiring indexed an empty pool
DRIFT_SEEDS = (3, 27, 140, 147, 157)


def test_wiring_survives_drifted_row_sums():
    for i in DRIFT_SEEDS:
        rng = np.random.default_rng([7, i])
        p, q = random_consistent_pair(rng, K=3)
        m = q.matrix.copy()
        mass = min(m[1, 1], m[2, 2])  # move the (1,1) mass off the diagonal, margins kept
        m[1, 1] -= mass
        m[2, 2] -= mass
        m[1, 2] += mass
        m[2, 1] += mass
        g = generate_graph(p, EdgeTypeDist.from_weights(m), 30, seed=i)
        assert np.array_equal(np.bincount(g.edge_src, minlength=g.n_nodes), g.out_degrees)
        assert np.array_equal(np.bincount(g.edge_dst, minlength=g.n_nodes), g.in_degrees)


def _moved_off_diagonal(i):
    """K=3 pair from stream [7, i] with the (1,1) edge mass moved off the diagonal."""
    p, q = random_consistent_pair(np.random.default_rng([7, i]), K=3)
    m = q.matrix.copy()
    mass = min(m[1, 1], m[2, 2])
    m[1, 1] -= mass
    m[2, 2] -= mass
    m[1, 2] += mass
    m[2, 1] += mass
    return p, EdgeTypeDist.from_weights(m)


def test_first_edge_types_lead_the_wiring_stream(disas, assort):
    for p, q in (disas, assort):
        for s in range(3):
            rng = np.random.default_rng([s, 1])
            x = clip_sequence(draw_node_sequence(p, 300, rng), p.K, rng=rng)
            g = sequential_wiring(x, q, np.random.default_rng(s))
            types = first_edge_types(x, q, np.random.default_rng(s), 25)
            assert types == list(zip(g.edge_out_type[:25].tolist(), g.edge_in_type[:25].tolist()))


def _digest(a):
    return hashlib.sha256(np.asarray(a, dtype="<i8").tobytes()).hexdigest()


# SHA-256 of little-endian int64 edge_src / edge_dst, recorded before the wiring
# was split into a type chain and per-class stub matching; seeded streams must
# not move
GOLDEN_EDGES = {
    "bal2": (
        "3d733abdfa8669413b07b81885ae45b137c2b2bd295ec655072bd85bd7b05ba3",
        "5a46ae4498cc284df225be5263eebcb0e3e54a9121d4dc8f122f7c299271f184",
    ),
    "disas": (
        "4cae85e1033d00b19fc330ea985358fee3e6a8d87e6e3297a58d648cd84392ab",
        "a637a94c566a26273a1ffb003a5630b2e747f8496df6ca2e7a73990e0af44e88",
    ),
    "fallback": (
        "ef20ca9ce2258166b5e6209462a55da1fe06394093ec286fbd3da51fc2ef85af",
        "26ccf56925f529ff34da57b48db0418fbf1046b942faa46311a9ae2756f666a6",
    ),
}


def test_seeded_edges_match_golden_digests(bal2, disas):
    graphs = {
        "bal2": generate_graph(*bal2, 500, seed=11),
        "disas": generate_graph(*disas, 500, seed=11),
        "fallback": generate_graph(*_moved_off_diagonal(25), 30, seed=25, max_restarts=0),
    }
    assert graphs["fallback"].meta["uniform_fallback"]
    for name, g in graphs.items():
        assert (_digest(g.edge_src), _digest(g.edge_dst)) == GOLDEN_EDGES[name], name


def test_accept_sequence_counts_redraws(bal2):
    p, _ = bal2
    x, d_raw, redraws = accept_sequence(p, 2000, DEFAULT_DELTA, np.random.default_rng(1))
    raw = draw_node_sequence(p, 2000, np.random.default_rng(1))
    assert (x.discrepancy, d_raw, redraws) == (0, raw.discrepancy, 0)
    assert d_raw != 0
    assert x.in_degrees.sum() + x.out_degrees.sum() == raw.in_degrees.sum() + raw.out_degrees.sum() + abs(d_raw)
    # an odd node count never balances, and the threshold admits only D = 0
    with pytest.raises(RetriesExhausted):
        accept_sequence(p, 3, -10.0, np.random.default_rng(0), max_redraws=5)


@pytest.mark.parametrize(
    "overflowing",
    [
        [(2, 2), (2, 2), (2, 2), (1, 2), (1, 3)],  # D = 3, two nodes can gain an in-stub
        [(2, 2), (2, 2), (2, 2), (2, 1), (3, 1)],  # D = -3, two nodes can gain an out-stub
    ],
    ids=["in-side", "out-side"],
)
def test_accept_sequence_redraws_after_a_clip_overflow(bal2, overflowing, monkeypatch):
    p, _ = bal2
    with pytest.raises(ClipOverflow):  # |D| = 3 is within the threshold 5^0.75
        clip_sequence(seq(overflowing), p.K, rng=np.random.default_rng(0))
    balanced = seq([(1, 2), (2, 1), (2, 2), (1, 1), (2, 2)])
    draws = iter([seq(overflowing), balanced])
    monkeypatch.setattr(sampler, "draw_node_sequence", lambda p, n, rng: next(draws))
    x, d_raw, redraws = accept_sequence(p, 5, DEFAULT_DELTA, np.random.default_rng(0))
    assert x is balanced
    assert (d_raw, redraws) == (0, 1)


def test_golden_digests_hold_on_each_wiring_path(wiring_path, bal2, disas, tmp_path):
    test_seeded_edges_match_golden_digests(bal2, disas)
    test_sample_files_match_golden_digests(bal2, tmp_path)


def _outcome(call):
    """What call() returns, as comparable bytes, or the AcgError type it raises."""
    try:
        result = call()
    except AcgError as exc:
        return type(exc)
    if isinstance(result, MultiGraph):
        fields = (result.edge_src, result.edge_dst, result.edge_out_type, result.edge_in_type)
        return tuple((a.dtype.str, a.tobytes()) for a in fields), result.meta
    return result


def _on_both_paths(call):
    """call() with the compiled wiring kernel, then with the Python loops."""
    assert sampler._kernel() is not None
    native = call()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sampler, "_kernel", lambda: None)
        return native, call()


needs_compiler = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler on PATH")


def _wiring_outcomes(x, q, seed, max_restarts=DEFAULT_MAX_RESTARTS):
    """Outcomes of the wiring and of first_edge_types for 0, E/2 and E edges, equal on both paths."""
    e = int(x.out_degrees.sum())

    def run():
        out = [_outcome(lambda: sequential_wiring(x, q, np.random.default_rng(seed), max_restarts))]
        for count in (0, e // 2, e):
            out.append(_outcome(lambda: first_edge_types(x, q, np.random.default_rng(seed), count)))
        return out

    native, python = _on_both_paths(run)
    assert native == python
    return native


@needs_compiler
@settings(max_examples=80, deadline=None)
@given(sampler_cases(), st.integers(0, 2))
def test_native_and_python_wiring_agree(case, max_restarts):
    p_w, q_w, n, seed = case
    assume(p_w.sum() > 0 and q_w.sum() > 0)
    try:
        p = NodeTypeDist.from_weights(p_w / p_w.sum())
        q = EdgeTypeDist.from_weights(q_w / q_w.sum())
        x, _, _ = accept_sequence(p, n, DEFAULT_DELTA, np.random.default_rng(seed), max_redraws=20)
    except AcgError:
        assume(False)
    _wiring_outcomes(x, q, seed, max_restarts)


@needs_compiler
def test_native_and_python_wiring_agree_at_the_edges(disas):
    _, q = disas  # forbids the (1, 1) cell
    # all nodes (1, 1): the chain stalls at its first step, so first_edge_types
    # raises DeadEnd and the wiring finishes under the uniform fallback
    stalled = seq([(1, 1)] * 12)
    for max_restarts in (0, 2):
        wired, none, half, full = _wiring_outcomes(stalled, q, 1, max_restarts)
        assert (none, half, full) == ([], DeadEnd, DeadEnd)
        assert wired[1] == {"wiring_restarts": max_restarts, "uniform_fallback": True}
    # no stub to wire
    wired, none, half, full = _wiring_outcomes(seq([(0, 0)] * 5), q, 2)
    assert wired[0] == tuple(("<i8", b"") for _ in range(4))
    assert none == half == full == []


@needs_compiler
def test_native_and_python_wiring_agree_across_refreshes():
    # In-class 1 runs out while out-classes 1 and 2 still hold 6,000 stubs that
    # reach in-class 3 only at rates near 1e-17: their float weight sums are then
    # mostly rounding error, which only the refresh every 4096 steps clears, so
    # the picks of the E = 14,000 steps depend on it.
    x = seq([(3, 1)] * 4000 + [(1, 3)] * 2000 + [(0, 2)] * 2000)
    m = np.zeros((4, 4))
    m[1:3, 1:3] = m[3, 3] = 1.0
    m[3, 1:3] = m[1:3, 3] = 1e-17
    _wiring_outcomes(x, EdgeTypeDist.from_weights(m / m.sum()), 0)
