"""Network topologies, shortest-path machinery, and node features.

Networks are immutable after construction: the adjacency matrix is
write-locked and all derived structure (leaves, branches, neighbor lists)
is precomputed. Each shipped topology is a fixed template, named by its id.

Two breadth-first searches compute the hop-count geometry. ``_hops``
searches from one source: the connectivity check, the branch labels and
the attacker's shortest paths. ``all_pairs_shortest_paths`` searches from
every source at once, one bit per source, over the network's arcs, and
builds the cost matrix from the search and those arcs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import ConfigError

LAYERS = ("core", "edge", "aggregation", "access", "subnet")

# The layered templates, in the order ``TOPOLOGIES`` lists them: the core
# edges, the core node count, the branch sizes and the core node each branch
# hangs off. Only the node totals and branch counts are externally
# constrained; the split of a branch into edge/aggregation/access/subnet
# nodes is the published template of ``_build_layered``.
_TEMPLATES = {
    "tree30": ((), 1, (8, 7, 7, 7), (0,) * 4),
    "tree40": ((), 1, (7, 7, 7, 6, 6, 6), (0,) * 6),
    "tree50": ((), 1, (13, 12, 12, 12), (0,) * 4),
    "tree70": ((), 1, (9, 9, 9, 9, 9, 8, 8, 8), (0,) * 8),
    "tree90": ((), 1, (23, 22, 22, 22), (0,) * 4),
    # Four backbone core nodes, two branches hanging off each.
    "forest72": (((0, 1), (1, 2), (2, 3)), 4, (9, 9, 9, 9, 8, 8, 8, 8),
                 (0, 1, 2, 3) * 2),
    # Four fully meshed core servers with ten small branches.
    "optical54": (((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), 4, (5,) * 10,
                  (0, 1, 2, 3, 0, 1, 2, 3, 0, 1)),
}

TOPOLOGIES = tuple(_TEMPLATES)


@dataclass(frozen=True)
class Network:
    """Static network topology with layer labels and a fixed entry node.

    Derived structure is computed once in ``__post_init__`` and exposed as
    plain attributes: ``adjacency`` (write-locked bool matrix), ``neighbors``
    (sorted tuples), ``degree``, ``leaf_set`` (degree-1 nodes) and
    ``branch_of`` (per-node branch index, -1 for core nodes).
    """

    name: str
    node_count: int
    edges: tuple[tuple[int, int], ...]
    entry_node: int
    node_layer: tuple[str, ...]

    def __post_init__(self):
        n = self.node_count
        if n < 2:
            raise ValueError("network needs at least 2 nodes")
        if not (0 <= self.entry_node < n):
            raise ValueError(f"entry node {self.entry_node} out of range")
        if len(self.node_layer) != n:
            raise ValueError("node_layer length must equal node_count")
        for layer in self.node_layer:
            if layer not in LAYERS:
                raise ValueError(f"unknown layer label {layer!r}")
        adj = np.zeros((n, n), dtype=bool)
        ends: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            if i == j or not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"bad edge ({i}, {j})")
            if adj[i, j]:
                raise ValueError(f"repeated edge ({i}, {j})")
            adj[i, j] = adj[j, i] = True
            ends[i].append(j)
            ends[j].append(i)
        if tuple(self.edges) != tuple(sorted((min(e), max(e)) for e in self.edges)):
            raise ValueError("edges must be (i, j) pairs with i < j, in ascending order")
        adj.setflags(write=False)
        object.__setattr__(self, "adjacency", adj)
        # Ascending (i, j) pairs with i < j list each node's smaller
        # neighbours in ascending order before its larger ones.
        neighbors = tuple(map(tuple, ends))
        object.__setattr__(self, "neighbors", neighbors)
        degree = adj.sum(axis=1)
        degree.setflags(write=False)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "leaf_set", frozenset(int(v) for v in np.flatnonzero(degree == 1))
        )
        if -1 in _hops(neighbors, 0):
            raise ValueError("network must be connected")
        object.__setattr__(self, "branch_of", _branch_labels(self))

    @property
    def branch_count(self) -> int:
        return max(self.branch_of) + 1

    @classmethod
    def from_edges(cls, edges, entry_node=0, node_layer=None, name="custom"):
        """Build a network from an edge list; layers default to 'subnet'."""
        edges = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
        n = max(max(e) for e in edges) + 1
        if node_layer is None:
            node_layer = ("subnet",) * n
        return cls(
            name=name,
            node_count=n,
            edges=edges,
            entry_node=entry_node,
            node_layer=tuple(node_layer),
        )

    def to_json(self) -> dict:
        return {
            "edges": [[int(i), int(j)] for i, j in self.edges],
            "entry": int(self.entry_node),
            "layers": list(self.node_layer),
            "nodes": int(self.node_count),
        }

    @classmethod
    def from_json(cls, obj: dict, name: str = "custom") -> "Network":
        """The network of a ``to_json`` object; ``nodes``, ``entry`` and
        every edge endpoint must be JSON integers."""
        ends = [[json_int(v, "edge endpoint") for v in e] for e in obj["edges"]]
        return cls(
            name=name,
            node_count=json_int(obj["nodes"], "nodes"),
            edges=tuple(sorted((min(i, j), max(i, j)) for i, j in ends)),
            entry_node=json_int(obj["entry"], "entry"),
            node_layer=tuple(obj["layers"]),
        )


@dataclass(frozen=True)
class CostMatrix:
    """All-pairs shortest-path hop counts plus the graph diameter.

    The graph comes from the network's arcs, for the exact metric's flow
    over the edges: ``arc_tail``/``arc_head`` list both directions of every
    edge in row-major order, ``bfs_order`` is the nodes by hop distance from
    node 0, ``bfs_parent`` each node's smallest neighbour one hop nearer to
    node 0 (node 0 is its own parent, with arcs 0), and ``bfs_up_arc``/
    ``bfs_down_arc`` the index of the arc to and from that parent. Only
    ``all_pairs_shortest_paths`` builds one; its arrays are write-locked.
    """

    dist: np.ndarray
    diameter: int
    arc_tail: np.ndarray
    arc_head: np.ndarray
    bfs_order: np.ndarray
    bfs_parent: np.ndarray
    bfs_up_arc: np.ndarray
    bfs_down_arc: np.ndarray


def json_int(v, what: str) -> int:
    """``v`` if it is a JSON integer (not a float or a boolean)."""
    if type(v) is not int:
        raise ValueError(f"{what} must be an integer, got {v!r}")
    return v


def _hops(neighbors, source: int, blocked=frozenset()) -> list[int]:
    """Hop counts from ``source`` by a breadth-first search that never
    enters ``blocked``; -1 marks the nodes it cannot reach.

    Each level is expanded in the order the previous level was found, each
    node's neighbours in ascending id order (``neighbors`` holds sorted
    tuples).
    """
    hops = [-1] * len(neighbors)
    hops[source] = 0
    level, d = [source], 0
    while level:
        d += 1
        found = []
        for v in level:
            for w in neighbors[v]:
                if hops[w] < 0 and w not in blocked:
                    hops[w] = d
                    found.append(w)
        level = found
    return hops


def _branch_labels(net: Network) -> tuple[int, ...]:
    """Label each node with the branch (core-free component) it belongs to.

    Core-layer nodes get -1. Branches are numbered by their smallest node id,
    which for the generated templates matches construction order.
    """
    core = frozenset(v for v in range(net.node_count) if net.node_layer[v] == "core")
    label = [-1] * net.node_count
    branch = 0
    for start in range(net.node_count):
        if start in core or label[start] != -1:
            continue
        for v, h in enumerate(_hops(net.neighbors, start, core)):
            if h >= 0:
                label[v] = branch
        branch += 1
    return tuple(label)


def _build_layered(name, core_edges, n_core, branch_sizes, branch_core):
    """Assemble a layered network: core nodes first, then one branch at a time."""
    edges = list(core_edges)
    layers = ["core"] * n_core
    nid = n_core
    for b, size in enumerate(branch_sizes):
        if size < 4:
            raise ValueError("branch template needs at least 4 nodes")
        edge_node = nid
        nid += 1
        layers.append("edge")
        edges.append((branch_core[b], edge_node))
        agg = nid
        nid += 1
        layers.append("aggregation")
        edges.append((edge_node, agg))
        remainder = size - 2
        n_access = max(1, remainder // 3)
        access = []
        for _ in range(n_access):
            a = nid
            nid += 1
            layers.append("access")
            edges.append((agg, a))
            access.append(a)
        for k in range(remainder - n_access):
            leaf = nid
            nid += 1
            layers.append("subnet")
            edges.append((access[k % n_access], leaf))
    # Entry is the lowest-numbered leaf (degree-1 node), i.e. the first
    # subnet node of the first branch; it stays fixed across episodes of
    # this network.
    degree = np.bincount(np.ravel(edges), minlength=nid)
    return Network(
        name=name,
        node_count=nid,
        edges=tuple(sorted(edges)),
        entry_node=int(np.flatnonzero(degree == 1)[0]),
        node_layer=tuple(layers),
    )


def generate_network(name: str) -> Network:
    """Generate one of ``TOPOLOGIES``, each a fixed template."""
    key = name.lower()
    if key not in _TEMPLATES:
        raise ConfigError(
            f"unknown topology {name!r}; expected one of {', '.join(TOPOLOGIES)}"
        )
    return _build_layered(key, *_TEMPLATES[key])


def all_pairs_shortest_paths(net: Network) -> CostMatrix:
    """Hop-count shortest paths by one level-synchronous breadth-first
    search from every source at once (Then et al., "The More the Merrier:
    Efficient Multi-Source Graph Traversal", PVLDB 8(4), 2014).

    Each node has one row with one bit per source, packed into uint64
    words. Row ``w`` of ``frontier`` holds the sources ``d`` hops from
    ``w``: the OR of its neighbours' rows at ``d - 1``, less the sources
    already reached. Bit ``k`` of every hop count is kept in plane ``k``,
    a frontier-shaped array into which each level whose number has bit
    ``k`` set ORs its frontier, so a level costs a few passes over the
    n x ceil(n / 64) words and ``dist`` is unpacked from the planes once. ``np.packbits``
    lays the bits out and ``np.unpackbits`` reads them back; the uint64
    view only widens the OR and AND, so the layout never depends on the
    byte order. The search fills ``dist[w, s]``, which on an undirected
    graph is ``dist[s, w]``. Every entry is finite because ``Network``
    rejects disconnected graphs.
    """
    n = net.node_count
    # The arcs come grouped by their first node. No group is empty, since
    # ``Network`` rejects disconnected graphs and graphs of fewer than 2
    # nodes; on an empty group ``reduceat`` returns the row at the group's
    # start, not zero.
    tail, head = net.adjacency.nonzero()
    starts = np.cumsum(net.degree) - net.degree
    words = (n + 63) // 64
    frontier = np.packbits(np.eye(n, 64 * words, dtype=bool), axis=1).view(np.uint64)
    unreached = ~frontier
    planes = []
    for d in range(1, n):
        frontier = np.bitwise_or.reduceat(frontier.take(head, axis=0), starts, axis=0)
        frontier &= unreached
        if not np.count_nonzero(frontier):
            break
        unreached ^= frontier
        if d == 1 << len(planes):
            planes.append(frontier)
        else:
            for k in range(len(planes)):
                if d >> k & 1:
                    planes[k] |= frontier
    hops = np.zeros((n, n), dtype=np.min_scalar_type(d))
    for k, plane in enumerate(planes):
        bits = np.unpackbits(plane.view(np.uint8), axis=1, count=n)
        hops |= np.left_shift(bits, k, dtype=hops.dtype)
    dist = hops.astype(np.int64)
    # Node 0's BFS tree over the same arcs: each node's up arc is the first
    # of its group whose head is one hop nearer node 0; node 0 has none.
    level = dist[0]
    nearer = np.where(level[head] < level[tail], np.arange(head.size), head.size)
    up_arc = np.minimum.reduceat(nearer, starts)
    up_arc[0] = 0
    parent = head[up_arc]
    parent[0] = 0
    arrays = {"dist": dist, "arc_tail": tail, "arc_head": head,
              "bfs_order": np.argsort(level, kind="stable"),
              "bfs_parent": parent, "bfs_up_arc": up_arc,
              "bfs_down_arc": np.searchsorted(tail * n + head, parent * n + np.arange(n))}
    for a in arrays.values():
        a.setflags(write=False)
    return CostMatrix(diameter=int(dist.max()), **arrays)


@lru_cache(maxsize=None)
def topology(name: str) -> tuple[Network, CostMatrix]:
    """A shipped topology and its shortest paths, built once per process."""
    net = generate_network(name)
    return net, all_pairs_shortest_paths(net)


def shortest_path(net: Network, source: int, target: int,
                  blocked: frozenset[int] | None = None) -> list[int] | None:
    """One shortest path from source to target, avoiding blocked nodes.

    The hop counts to ``target`` avoiding ``blocked`` come first; the walk
    from ``source`` then steps to the smallest-id neighbour one hop nearer
    each time, so ties break toward the lexicographically smallest shortest
    path. Returns None if an endpoint is blocked or target is unreachable.
    """
    if blocked is None:
        blocked = frozenset()
    if source in blocked or target in blocked:
        return None
    hops = _hops(net.neighbors, target, blocked)
    if hops[source] < 0:
        return None
    path = [source]
    while path[-1] != target:
        v = path[-1]
        path.append(next(w for w in net.neighbors[v] if hops[w] == hops[v] - 1))
    return path


def place_high_value_nodes(net: Network, rng_seed: int,
                           exclude=()) -> tuple[int, int, int]:
    """Sample three distinct high-value leaves, uniformly, excluding the
    entry (and any extra footholds of the multi-entry variant)."""
    eligible = sorted(net.leaf_set - {net.entry_node} - set(exclude))
    if len(eligible) < 3:
        raise ValueError(
            f"need at least 3 non-entry leaves, found {len(eligible)}"
        )
    rng = np.random.default_rng(rng_seed)
    picks = rng.choice(len(eligible), size=3, replace=False)
    return tuple(int(eligible[i]) for i in picks)


def entry_candidates(net: Network, count: int) -> tuple[int, ...]:
    """Entry nodes for the multi-entry game variant: the default entry plus
    the first leaf of each subsequent branch."""
    if count < 1:
        raise ValueError("count must be >= 1")
    picks = [net.entry_node]
    home_branch = net.branch_of[net.entry_node]
    by_branch: dict[int, int] = {}
    for v in sorted(net.leaf_set):
        b = net.branch_of[v]
        if v != net.entry_node and b != home_branch and b not in by_branch:
            by_branch[b] = v
    for b in sorted(by_branch):
        if len(picks) == count:
            break
        if by_branch[b] not in picks:
            picks.append(by_branch[b])
    if len(picks) < count:
        raise ValueError(f"cannot pick {count} entry nodes on {net.name}")
    return tuple(picks)


def entry_remoteness(net: Network, cm: CostMatrix) -> np.ndarray:
    """Per-node distance to the entry node only (the single-anchor variant)."""
    return cm.dist[net.entry_node].astype(float)


def network_to_json_str(net: Network) -> str:
    return json.dumps(net.to_json(), sort_keys=True, separators=(",", ":")) + "\n"


def save_network(net: Network, path: str | Path) -> None:
    Path(path).write_text(network_to_json_str(net), encoding="utf-8")


def load_network(path: str | Path) -> Network:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    return Network.from_json(obj, name=Path(path).stem)
