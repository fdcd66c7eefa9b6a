import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acg import _fanout
from acg import config_probability as cfg
from acg.degree_model import load_params
from acg.errors import InvalidConfiguration, NotATree
from acg.sampler import MultiGraph, generate_graph

from helpers import count_embeddings_oracle, edge_type_prob, random_consistent_pair


def graph(in_deg, out_deg, src, dst):
    in_deg = np.asarray(in_deg)
    out_deg = np.asarray(out_deg)
    src = np.asarray(src)
    dst = np.asarray(dst)
    return MultiGraph(
        in_degrees=in_deg,
        out_degrees=out_deg,
        edge_src=src,
        edge_dst=dst,
        edge_out_type=out_deg[src],
        edge_in_type=in_deg[dst],
    )


G_PATH = graph([0, 1, 1], [1, 1, 0], [0, 1], [1, 2])
G_CYCLE2 = graph([1, 1], [1, 1], [0, 1], [1, 0])
G_PARALLEL = graph([0, 2], [2, 0], [0, 0], [1, 1])
G_LOOP = graph([1], [1], [0], [0])

H_EDGE_IN = cfg.ConfigurationTree(None, [cfg.Attachment(1, 0, "in")])
H_PATH2 = cfg.ConfigurationTree(None, [cfg.Attachment(1, 0, "in"), cfg.Attachment(2, 0, "out")])
H_CYCLE2 = cfg.ConfigurationTree(None, [cfg.Attachment(1, 0, "in"), cfg.Attachment(1, 0, "out")])


def test_two_node_edge_prob_values(bal2):
    p, q = bal2
    assert edge_type_prob(p, q, (1, 2), (2, 1)) == pytest.approx(1 / 9, abs=1e-15)
    combos = [
        edge_type_prob(p, q, t1, t2)
        for t1 in [(1, 2), (2, 1)]
        for t2 in [(1, 2), (2, 1)]
    ]
    assert combos == pytest.approx([2 / 9, 1 / 9, 4 / 9, 2 / 9])
    assert sum(combos) == pytest.approx(1.0, abs=1e-14)


def test_two_node_edge_prob_forbidden_pair(disas):
    p, q = disas
    assert edge_type_prob(p, q, (1, 2), (2, 1)) == 0.0


@settings(max_examples=30, deadline=None)
@given(k_max=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_edge_type_law_sums_to_one(k_max, seed):
    p, q = random_consistent_pair(np.random.default_rng(seed), K=k_max)
    types = list(itertools.product(range(k_max + 1), repeat=2))
    total = sum(edge_type_prob(p, q, target, source) for target in types for source in types)
    assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(k_max=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_edge_type_law_sums_to_one_from_the_source(k_max, seed):
    # an edge's source has type s with chance k_s P[s]/z, and the one-edge
    # tree rooted there with an "out" attachment gives its target's law;
    # degree-0 types have a class of no mass, whose factor is 0
    p, q = random_consistent_pair(np.random.default_rng(seed), K=k_max)
    types = list(itertools.product(range(k_max + 1), repeat=2))
    total = sum(
        source[1] * p.matrix[source] / p.mean_degree
        * cfg.tree_config_prob(cfg.ConfigurationTree(source, [cfg.Attachment(1, 0, "out", target)]), p, q)
        for source in types
        for target in types
    )
    assert total == pytest.approx(1.0, abs=1e-12)


def test_tree_config_prob_single_edge(bal2):
    p, q = bal2
    h = cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1))])
    assert cfg.tree_config_prob(h, p, q) == pytest.approx(1 / 3, abs=1e-15)


def test_tree_config_prob_chain(bal2):
    p, q = bal2
    h = cfg.ConfigurationTree(
        (1, 2),
        [cfg.Attachment(1, 0, "in", (2, 1)), cfg.Attachment(2, 1, "out", (1, 2))],
    )
    assert cfg.tree_config_prob(h, p, q) == pytest.approx(1 / 9, abs=1e-15)


def test_tree_config_prob_off_support_is_zero(disas):
    p, q = disas
    # the grown edge would need the forbidden (1, 1) type
    h = cfg.ConfigurationTree((2, 1), [cfg.Attachment(1, 0, "out", (1, 2))])
    assert cfg.tree_config_prob(h, p, q) == 0.0


def test_tree_config_prob_requires_full_types(bal2):
    p, q = bal2
    with pytest.raises(ValueError):
        cfg.tree_config_prob(H_EDGE_IN, p, q)
    with pytest.raises(NotATree):
        cfg.tree_config_prob(
            cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1)), cfg.Attachment(1, 0, "out")]),
            p,
            q,
        )


def test_count_single_edge_embeddings():
    assert cfg.count_config_occurrences(G_PATH, H_EDGE_IN) == 2
    assert cfg.count_config_occurrences(G_PARALLEL, H_EDGE_IN) == 2
    # a self-loop is not a two-node embedding
    assert cfg.count_config_occurrences(G_LOOP, H_EDGE_IN) == 0


def test_count_path_embeddings():
    assert cfg.count_config_occurrences(G_PATH, H_PATH2) == 1
    assert cfg.count_config_occurrences(G_CYCLE2, H_PATH2) == 0


def test_count_cycle_embeddings():
    assert cfg.count_config_occurrences(G_CYCLE2, H_CYCLE2) == 2
    assert cfg.count_config_occurrences(G_PARALLEL, H_CYCLE2) == 0
    assert cfg.count_config_occurrences(G_LOOP, H_CYCLE2) == 0


def test_count_respects_types():
    typed = cfg.ConfigurationTree((1, 1), [cfg.Attachment(1, 0, "in", (0, 1))])
    assert cfg.count_config_occurrences(G_PATH, typed) == 1
    wrong = cfg.ConfigurationTree((2, 2), [cfg.Attachment(1, 0, "in")])
    assert cfg.count_config_occurrences(G_PATH, wrong) == 0


def test_count_reads_a_type_given_on_a_revisit():
    typed_revisit = cfg.ConfigurationTree(
        None, [cfg.Attachment(1, 0, "in"), cfg.Attachment(1, 0, "out", (5, 5))]
    )
    assert cfg.count_config_occurrences(G_CYCLE2, typed_revisit) == 0
    matching_revisit = cfg.ConfigurationTree(
        None, [cfg.Attachment(1, 0, "in"), cfg.Attachment(1, 0, "out", (1, 1))]
    )
    assert cfg.count_config_occurrences(G_CYCLE2, matching_revisit) == 2


def test_count_rejects_conflicting_types():
    conflicted = cfg.ConfigurationTree(
        None, [cfg.Attachment(1, 0, "in", (1, 1)), cfg.Attachment(1, 0, "out", (2, 2))]
    )
    with pytest.raises(InvalidConfiguration):
        cfg.count_config_occurrences(G_CYCLE2, conflicted)


@st.composite
def graphs_and_configurations(draw):
    """A small multigraph (self-loops, parallel edges) and a configuration of up to 4 edges.

    Attachments may close cycles, and any of them may carry a type, drawn
    mostly from the types present in the graph.
    """
    n = draw(st.integers(1, 7))
    n_edges = draw(st.integers(0, 14))
    src = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)), dtype=np.int64)
    dst = np.array(draw(st.lists(st.integers(0, n - 1), min_size=n_edges, max_size=n_edges)), dtype=np.int64)
    g = graph(np.bincount(dst, minlength=n), np.bincount(src, minlength=n), src, dst)
    present = sorted({(int(j), int(k)) for j, k in zip(g.in_degrees, g.out_degrees)})
    types = st.none() | st.sampled_from(present) | st.tuples(st.integers(0, 3), st.integers(0, 3))
    atts = []
    seen = 1
    for _ in range(draw(st.integers(0, cfg.MAX_EMBED_EDGES))):
        node = draw(st.integers(0, seen))
        atts.append(cfg.Attachment(node, draw(st.integers(0, seen - 1)), draw(st.sampled_from(["in", "out"])), draw(types)))
        seen += node == seen
    return g, cfg.ConfigurationTree(draw(types), atts)


def types_on_fresh_attachments(h):
    """The same configuration with each node's type on the attachment that adds it."""
    types = h.node_types()
    seen = 1
    atts = []
    for a in h.attachments:
        fresh = a.node == seen
        seen += fresh
        atts.append(cfg.Attachment(a.node, a.parent, a.orientation, types[a.node] if fresh else None))
    return cfg.ConfigurationTree(types[0], atts)


@pytest.mark.parametrize("budget", [None, 1])
@settings(max_examples=300, deadline=None)
@given(graphs_and_configurations())
def test_count_matches_recursive_oracle(budget, case):
    g, h = case
    with pytest.MonkeyPatch.context() as mp:
        if budget is not None:
            mp.setattr(cfg, "_ROW_BUDGET", budget)
        try:
            oracle_h = types_on_fresh_attachments(h)
        except InvalidConfiguration:
            with pytest.raises(InvalidConfiguration):
                cfg.count_config_occurrences(g, h)
            return
        count = cfg.count_config_occurrences(g, h)
    assert type(count) is int
    assert count == count_embeddings_oracle(g, oracle_h)


def test_count_single_in_edge_is_edges_minus_self_loops():
    fixture = Path(__file__).resolve().parents[1] / "clibench" / "fixtures" / "assort_k10.json"
    p, q = load_params(fixture)
    g = generate_graph(p, q, 2000, seed=1)
    expected = g.n_edges - int(g.self_loop_mask.sum())
    assert cfg.count_config_occurrences(g, H_EDGE_IN) == expected


def test_count_rejects_oversized_configuration():
    atts = [cfg.Attachment(i + 1, i, "out") for i in range(5)]
    with pytest.raises(ValueError):
        cfg.count_config_occurrences(G_PATH, cfg.ConfigurationTree(None, atts))


def test_count_in_graphs_report(bal2):
    p, q = bal2
    graphs = [generate_graph(p, q, 200, seed=[31, i]) for i in range(3)]
    h = cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1))])
    report = cfg.count_in_graphs(graphs, h, p, q)
    assert report.graphs_scanned == 3
    assert report.count >= 0
    assert report.frequency == pytest.approx(report.count / 3)
    assert report.predicted == pytest.approx(1 / 3)
    cyc = cfg.count_in_graphs(graphs, H_CYCLE2, p, q)
    assert cyc.predicted is None


def test_count_in_graphs_streams_a_generator(bal2):
    p, q = bal2
    h = cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1))])
    graphs = [generate_graph(p, q, 200, seed=[31, i]) for i in range(3)]
    streamed = cfg.count_in_graphs((generate_graph(p, q, 200, seed=[31, i]) for i in range(3)), h, p, q)
    assert streamed == cfg.count_in_graphs(graphs, h, p, q)
    assert streamed.graphs_scanned == 3
    assert cfg.count_in_graphs(iter([]), h, p, q).frequency == 0.0


def test_count_in_graphs_checks_the_configuration_before_the_first_graph(bal2):
    p, q = bal2

    def graphs():
        raise AssertionError("a graph was drawn")
        yield

    conflicting = cfg.ConfigurationTree(
        None, [cfg.Attachment(1, 0, "in", (1, 1)), cfg.Attachment(1, 0, "out", (2, 2))]
    )
    with pytest.raises(InvalidConfiguration):
        cfg.count_in_graphs(graphs(), conflicting, p, q)
    oversized = cfg.ConfigurationTree(None, [cfg.Attachment(i + 1, i, "out") for i in range(5)])
    with pytest.raises(ValueError):
        cfg.count_in_graphs(graphs(), oversized, p, q)


@pytest.mark.parametrize("cpus", [1, 2])
def test_count_in_samples_equals_count_in_graphs_over_the_same_draws(bal2, monkeypatch, cpus):
    monkeypatch.setattr(_fanout, "_usable_cpus", lambda: cpus)
    p, q = bal2
    for h in (cfg.ConfigurationTree((1, 2), [cfg.Attachment(1, 0, "in", (2, 1))]), H_CYCLE2):
        graphs = (generate_graph(p, q, 200, delta=0.3, seed=[31, i]) for i in range(5))
        assert cfg.count_in_samples(h, p, q, 200, 5, 31, delta=0.3) == cfg.count_in_graphs(graphs, h, p, q)


def test_count_in_samples_checks_the_configuration_before_the_first_graph(bal2, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(cfg, "generate_graph", no_sampling)
    conflicting = cfg.ConfigurationTree(
        None, [cfg.Attachment(1, 0, "in", (1, 1)), cfg.Attachment(1, 0, "out", (2, 2))]
    )
    with pytest.raises(InvalidConfiguration):
        cfg.count_in_samples(conflicting, *bal2, 100, 4, 1)


def test_counting_builds_only_the_orientations_the_configuration_uses(monkeypatch):
    built = []
    csr = cfg._csr
    monkeypatch.setattr(cfg, "_csr", lambda ends, n: built.append(ends) or csr(ends, n))
    assert cfg.count_config_occurrences(G_PATH, cfg.ConfigurationTree(None, [cfg.Attachment(1, 0, "out")])) == 2
    assert [e is G_PATH.edge_src for e in built] == [True]


def test_cycle_order_estimate_single_edge_scales(bal2):
    p, q = bal2
    small = [generate_graph(p, q, 300, seed=[41, i]) for i in range(4)]
    large = [generate_graph(p, q, 600, seed=[42, i]) for i in range(4)]
    per_graph = [cfg.count_in_graphs(graphs, H_EDGE_IN, p, q).frequency for graphs in (small, large)]
    assert 1.5 < per_graph[1] / per_graph[0] < 2.6


# (root type, attached node's type) on bal2, whose degrees run over 0..2
OUT_OF_RANGE_TYPES = [((1, 2), (5, 5)), ((1, 2), (-1, 1)), ((-2, 2), (2, 1))]


@pytest.mark.parametrize("root, node_type", OUT_OF_RANGE_TYPES)
def test_node_types_outside_the_degree_range_are_rejected(bal2, monkeypatch, root, node_type):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a graph was drawn")

    monkeypatch.setattr(cfg, "generate_graph", no_sampling)
    p, q = bal2
    h = cfg.ConfigurationTree(root, [cfg.Attachment(1, 0, "in", node_type)])
    with pytest.raises(InvalidConfiguration, match=r"outside 0\.\.2"):
        cfg.tree_config_prob(h, p, q)
    with pytest.raises(InvalidConfiguration, match=r"outside 0\.\.2"):
        cfg.count_in_graphs((no_sampling() for _ in range(2)), h, p, q)
    with pytest.raises(InvalidConfiguration, match=r"outside 0\.\.2"):
        cfg.count_in_samples(h, p, q, 100, 2, 1)


def test_config_dict_roundtrip():
    h = cfg.ConfigurationTree(
        (1, 2),
        [cfg.Attachment(1, 0, "in", (2, 1)), cfg.Attachment(1, 0, "out")],
    )
    again = cfg.config_from_dict(cfg.config_to_dict(h))
    assert again == h
    wild = cfg.config_from_dict({"root": None, "attachments": [{"node": 1, "parent": 0, "edge": "in"}]})
    assert wild.root_type is None
    assert wild.attachments[0].node_type is None


def test_configuration_validation():
    with pytest.raises(ValueError):
        cfg.ConfigurationTree(None, [cfg.Attachment(2, 0, "in")])
    with pytest.raises(ValueError):
        cfg.ConfigurationTree(None, [cfg.Attachment(1, 1, "in")])
    with pytest.raises(ValueError):
        cfg.Attachment(1, 0, "sideways")
    conflicted = cfg.ConfigurationTree(
        (1, 1),
        [cfg.Attachment(1, 0, "in", (2, 1)), cfg.Attachment(1, 0, "out", (1, 2))],
    )
    with pytest.raises(ValueError):
        conflicted.node_types()


@pytest.mark.parametrize(
    "body",
    [
        [{"node": 1, "parent": 0, "edge": "in"}],
        {"root": [1], "attachments": []},
        {"root": None, "attachments": [{"parent": 0, "edge": "in"}]},
        {"root": None, "attachments": [{"node": None, "parent": 0, "edge": "in"}]},
        {"root": None, "attachments": [{"node": 1, "parent": 0, "edge": "in", "type": 5}]},
        {"root": None, "attachments": {"node": 1}},
        {"K": 3, "P": [[0]], "Q": "independent"},
        {"root": [1, 1], "attachments": [], "roots": [1, 1]},
        {"root": None, "attachments": [{"node": 1, "parent": 0, "edge": "in", "typ": [1, 1]}]},
    ],
)
def test_config_from_dict_rejects_malformed_layouts(body):
    with pytest.raises(InvalidConfiguration):
        cfg.config_from_dict(body)
