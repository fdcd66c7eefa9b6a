"""Probabilities and counts of small rooted configurations.

A configuration is a rooted subgraph grown one edge at a time: each
attachment either introduces a fresh node or closes a cycle onto an
existing one, with the edge oriented into ("in") or out of ("out") the
parent.  A node type is a (j, k) pair with 0 <= j, k <= K, or a wildcard
for counting; a type outside 0..K raises InvalidConfiguration.  For trees
the limiting probability of the grown node types, conditional on the
root's type, is a product of one conditional node factor and one
conditional edge factor per attachment (tree_config_prob).  Times
j P[j,k]/z, the chance that an edge's target has the root's type (j, k),
the one-edge tree with an "in" attachment gives the joint type law of an
edge's two ends.  Configurations with cycles carry no limiting constant;
their occurrence counts in sampled graphs stay bounded as the graph
grows, which count_in_graphs measures.

Occurrences are counted by a breadth-first frontier join in numpy: the
partial embeddings of all roots advance together, one attachment at a
time, over CSR adjacency built once per graph for each edge orientation
the configuration uses.  A fixed row budget (_ROW_BUDGET) caps the rows
built in one expansion by splitting the frontier, so memory grows with
the graph, not with its embedding count.
"""

from dataclasses import dataclass

import numpy as np

from ._fanout import fan_out
from .degree_model import EdgeTypeDist, NodeTypeDist, conditional_dists
from .errors import InvalidConfiguration, InvalidDistribution, NotATree, integral
from .sampler import DEFAULT_DELTA, generate_graph

MAX_EMBED_EDGES = 4
# largest frontier expansion built at once by count_config_occurrences
_ROW_BUDGET = 1 << 14


@dataclass(frozen=True)
class Attachment:
    """One growth step: node attached to parent by an oriented edge.

    orientation "in" means the edge points from node into parent;
    "out" means it points from parent to node.  node_type is a (j, k)
    pair, or None to match any type when counting.  Indices and degrees
    are integral numbers: 2.0 reads as 2, and true, "2" or 1.5 raise
    InvalidConfiguration.
    """

    node: int
    parent: int
    orientation: str
    node_type: tuple | None = None

    def __post_init__(self):
        if self.orientation not in ("in", "out"):
            raise InvalidConfiguration(f"orientation must be 'in' or 'out', got {self.orientation!r}")
        object.__setattr__(self, "node", integral(self.node, InvalidConfiguration))
        object.__setattr__(self, "parent", integral(self.parent, InvalidConfiguration))
        object.__setattr__(self, "node_type", _type_pair(self.node_type))


@dataclass(frozen=True)
class ConfigurationTree:
    """Rooted configuration: root type plus an ordered attachment list.

    Node indices are canonical: the root is 0 and each attachment either
    names the next fresh index or revisits an existing one, which closes
    a cycle.  root_type is a (j, k) pair or None for a wildcard.
    """

    root_type: tuple | None
    attachments: tuple

    def __post_init__(self):
        if not isinstance(self.attachments, (list, tuple)):
            raise InvalidConfiguration(f"attachments must be a list of Attachment, got {self.attachments!r}")
        object.__setattr__(self, "root_type", _type_pair(self.root_type))
        object.__setattr__(self, "attachments", tuple(self.attachments))
        seen = 1
        for pos, att in enumerate(self.attachments):
            if not isinstance(att, Attachment):
                raise InvalidConfiguration(f"attachment {pos} is not an Attachment")
            if not 0 <= att.parent < seen:
                raise InvalidConfiguration(f"attachment {pos} names parent {att.parent} before it exists")
            if att.node == seen:
                seen += 1
            elif not 0 <= att.node < seen:
                raise InvalidConfiguration(f"attachment {pos} names node {att.node} out of order")

    @property
    def n_edges(self) -> int:
        return len(self.attachments)

    @property
    def n_nodes(self) -> int:
        return 1 + max((a.node for a in self.attachments), default=0)

    @property
    def is_tree(self) -> bool:
        return all(a.node == pos + 1 for pos, a in enumerate(self.attachments))

    def node_types(self) -> list:
        """Type of each node index, None where only wildcards were given."""
        types = [self.root_type] + [None] * (self.n_nodes - 1)
        for att in self.attachments:
            if att.node_type is not None:
                if types[att.node] is not None and types[att.node] != att.node_type:
                    raise InvalidConfiguration(f"node {att.node} given conflicting types")
                types[att.node] = att.node_type
        return types


def config_from_dict(d) -> ConfigurationTree:
    """Build a configuration from the JSON-friendly dict layout.

    The layout is an object with an optional "root" type and an optional
    "attachments" list of objects with "node", "parent", "edge" and an
    optional "type"; a type is a [j, k] pair or null.  Any other shape,
    an unknown key included, raises InvalidConfiguration.
    """
    if not isinstance(d, dict) or not isinstance(d.get("attachments", []), list):
        raise InvalidConfiguration("a configuration is an object with an 'attachments' list")
    _known_keys(d, {"root", "attachments"}, "a configuration")
    atts = []
    for pos, a in enumerate(d.get("attachments", [])):
        if not isinstance(a, dict) or not {"node", "parent", "edge"} <= a.keys():
            raise InvalidConfiguration(f"attachment {pos} needs 'node', 'parent' and 'edge'")
        _known_keys(a, {"node", "parent", "edge", "type"}, f"attachment {pos}")
        atts.append(Attachment(a["node"], a["parent"], a["edge"], a.get("type")))
    return ConfigurationTree(d.get("root"), atts)


def _known_keys(d: dict, allowed: set, what: str) -> None:
    unknown = sorted(map(str, d.keys() - allowed))
    if unknown:
        raise InvalidConfiguration(f"{what} has unknown keys {unknown}; allowed: {sorted(allowed)}")


def _type_pair(value):
    if value is None:
        return None
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidConfiguration(f"a node type is a [j, k] pair or null, got {value!r}")
    return integral(value[0], InvalidConfiguration), integral(value[1], InvalidConfiguration)


def config_to_dict(h: ConfigurationTree) -> dict:
    return {
        "root": None if h.root_type is None else list(h.root_type),
        "attachments": [
            {
                "node": a.node,
                "parent": a.parent,
                "edge": a.orientation,
                "type": None if a.node_type is None else list(a.node_type),
            }
            for a in h.attachments
        ],
    }


def tree_config_prob(h: ConfigurationTree, p: NodeTypeDist, q: EdgeTypeDist) -> float:
    """Limiting probability of a tree configuration, given the root's type.

    Each attachment contributes one conditional node-type factor and one
    conditional edge factor: an in-edge at node m with parent m' gives
    P[j_m | k_m] Q[k_m | j_m'], an out-edge gives P[k_m | j_m] Q[j_m | k_m'].
    """
    if not h.is_tree:
        raise NotATree("configuration closes a cycle; no limiting tree probability")
    types = _types_in_range(h.node_types(), p.K)
    if None in types:
        raise InvalidConfiguration("tree probabilities need every node type specified")
    cond = conditional_dists(p, q)
    value = 1.0
    for att in h.attachments:
        j_m, k_m = types[att.node]
        j_p, k_p = types[att.parent]
        if att.orientation == "in":
            value *= cond.in_given_out[k_m, j_m] * cond.edge_out_given_in[j_p, k_m]
        else:
            value *= cond.out_given_in[j_m, k_m] * cond.edge_in_given_out[k_p, j_m]
    return value


def _csr(ends, n_nodes):
    """Edge ids grouped by the node at one end, in edge order, with row pointers."""
    order = np.argsort(ends, kind="stable")
    ptr = np.zeros(n_nodes + 1, dtype=np.intp)
    np.cumsum(np.bincount(ends, minlength=n_nodes), out=ptr[1:])
    return order, ptr


def _type_mask(g, wanted):
    if wanted is None:
        return None
    return (g.in_degrees == wanted[0]) & (g.out_degrees == wanted[1])


def count_config_occurrences(g, h: ConfigurationTree) -> int:
    """Number of embeddings of h in g, rooted anywhere, types matching.

    Distinct node indices of h map to distinct nodes of g, so tree
    embeddings never use self-loops; parallel edges count as separate
    embeddings because the edge map must be injective too.  A node's type
    may be given on any attachment that names it, revisits included;
    conflicting types raise InvalidConfiguration.

    The partial embeddings are held as rows of a frontier, one column of
    graph node ids per mapped node and one of edge ids per placed edge,
    starting from every root of matching type.  Each attachment expands
    every row by its parent's in- or out-edges (CSR adjacency built once
    per orientation h uses) and drops the rows that reuse an edge, map a
    fresh node onto a mapped one or onto a node of the wrong type, or
    close a cycle onto the wrong node.  The count is the number of rows
    left after the last attachment.  An expansion larger than _ROW_BUDGET
    rows splits its frontier in halves, so the working set stays near that
    many rows however many embeddings there are.
    """
    masks = [_type_mask(g, t) for t in _countable_types(h)]
    n = g.n_nodes
    # per orientation h uses: parent's edges by node (CSR), then the edge's far end
    ends = {"out": (g.edge_src, g.edge_dst), "in": (g.edge_dst, g.edge_src)}
    by_orientation = {
        side: (*_csr(ends[side][0], n), ends[side][1]) for side in {a.orientation for a in h.attachments}
    }
    steps = [(*by_orientation[a.orientation], a.parent, a.node, masks[a.node]) for a in h.attachments]
    roots = np.arange(n) if masks[0] is None else np.flatnonzero(masks[0])
    return int(_extend(steps, roots[None, :], np.empty((0, len(roots)), dtype=np.intp)))


def _countable_types(h: ConfigurationTree) -> list:
    """h's node types, after every check the counter makes of h alone."""
    if h.n_edges > MAX_EMBED_EDGES:
        raise InvalidConfiguration(f"embedding search is limited to {MAX_EMBED_EDGES} edges")
    return h.node_types()


def _types_in_range(types, k_max) -> list:
    """types, after checking that each given (j, k) lies in 0..k_max."""
    for t in types:
        if t is not None and not (0 <= t[0] <= k_max and 0 <= t[1] <= k_max):
            raise InvalidConfiguration(f"node type {list(t)} lies outside 0..{k_max}")
    return types


def _extend(steps, nodes, edges):
    """Number of completions of the frontier rows (columns of nodes/edges)."""
    pos = edges.shape[0]
    rows = nodes.shape[1]
    if pos == len(steps):
        return rows
    order, ptr, far_end, parent, node, mask = steps[pos]
    start = ptr[nodes[parent]]
    width = ptr[nodes[parent] + 1] - start
    total = int(width.sum())
    if total > _ROW_BUDGET and rows > 1:
        half = rows // 2
        return _extend(steps, nodes[:, :half], edges[:, :half]) + _extend(steps, nodes[:, half:], edges[:, half:])
    row = np.repeat(np.arange(rows), width)
    eid = order[start[row] + np.arange(total) - np.repeat(np.cumsum(width) - width, width)]
    other = far_end[eid]
    keep = np.ones(total, dtype=bool)
    for used in edges:
        keep &= eid != used[row]
    fresh = node == nodes.shape[0]
    if fresh:
        for mapped in nodes:
            keep &= other != mapped[row]
        if mask is not None:
            keep &= mask[other]
    else:
        keep &= other == nodes[node][row]
    if pos + 1 == len(steps):
        return int(np.count_nonzero(keep))
    row = row[keep]
    nodes = np.vstack([nodes[:, row], other[keep]]) if fresh else nodes[:, row]
    return _extend(steps, nodes, np.vstack([edges[:, row], eid[keep]]))


@dataclass(frozen=True)
class ConfigCountReport:
    """Empirical occurrence summary of one configuration."""

    configuration: ConfigurationTree
    count: int
    graphs_scanned: int
    frequency: float
    predicted: float | None


def count_in_graphs(graphs, h: ConfigurationTree, p: NodeTypeDist, q: EdgeTypeDist) -> ConfigCountReport:
    """Total and per-graph occurrence count of h, streamed over any one-pass iterable of graphs.

    h is checked before the first graph is taken, its node types against
    P's degree range included, so a generator that samples graphs draws
    none for a configuration the counter rejects.  Each graph is counted
    and dropped before the next is taken.
    """
    _types_in_range(_countable_types(h), p.K)
    return _count_report(h, p, q, [count_config_occurrences(g, h) for g in graphs])


def count_in_samples(
    h: ConfigurationTree,
    p: NodeTypeDist,
    q: EdgeTypeDist,
    n: int,
    samples: int,
    seed: int,
    delta: float = DEFAULT_DELTA,
) -> ConfigCountReport:
    """count_in_graphs over `samples` graphs of n nodes, the i-th drawn by generate_graph at seed [seed, i].

    h is checked before any graph is drawn.  The samples are spread over
    the usable CPUs (fan_out); each graph is drawn, counted and dropped in
    the process that draws it, and the report does not depend on how many
    CPUs there are.  InvalidDistribution unless samples is an integer of at
    least 1 and seed one of at least 0.
    """
    _types_in_range(_countable_types(h), p.K)
    samples, seed = integral(samples, InvalidDistribution, 1), integral(seed, InvalidDistribution, 0)

    def count_sample(i):
        return count_config_occurrences(generate_graph(p, q, n, delta=delta, seed=[seed, i]), h)

    return _count_report(h, p, q, fan_out(count_sample, range(samples)))


def _count_report(h, p, q, counts) -> ConfigCountReport:
    predicted = None
    if h.is_tree and h.n_edges and None not in h.node_types():
        predicted = tree_config_prob(h, p, q)
    count, scanned = sum(counts), len(counts)
    return ConfigCountReport(
        configuration=h,
        count=count,
        graphs_scanned=scanned,
        frequency=count / scanned if scanned else 0.0,
        predicted=predicted,
    )
