import json

import numpy as np
import pytest

from nettom import graph_core as gc
from nettom.errors import ConfigError

from _oracles import (
    apsp_per_source,
    branch_labels_union_find,
    floyd_warshall,
    random_connected_graph,
    shortest_path_parent_bfs,
)


EXPECTED_BRANCHES = {
    "tree30": 4, "tree40": 6, "tree50": 4, "tree70": 8, "tree90": 4,
}
EXPECTED_NODES = {
    "tree30": 30, "tree40": 40, "tree50": 50, "tree70": 70, "tree90": 90,
    "forest72": 72, "optical54": 54,
}


def _check_all_pairs(net):
    """``dist`` is the per-source oracle's matrix by dtype, shape and bytes,
    equals Floyd-Warshall, is write-locked, and its maximum is the diameter."""
    cm = gc.all_pairs_shortest_paths(net)
    ref = apsp_per_source(net)
    assert cm.dist.dtype == ref.dtype and cm.dist.shape == ref.shape
    assert cm.dist.flags.c_contiguous and cm.dist.tobytes() == ref.tobytes()
    assert (cm.dist == floyd_warshall(net.adjacency)).all()
    assert not cm.dist.flags.writeable
    assert cm.diameter == cm.dist.max()


class TestGenerators:
    @pytest.mark.parametrize("name", sorted(EXPECTED_NODES))
    def test_node_counts(self, name):
        net = gc.generate_network(name)
        assert net.node_count == EXPECTED_NODES[name]
        assert len(net.node_layer) == net.node_count

    @pytest.mark.parametrize("name,branches", sorted(EXPECTED_BRANCHES.items()))
    def test_branch_counts(self, name, branches):
        assert gc.generate_network(name).branch_count == branches

    def test_deterministic_per_name_and_seed(self):
        a = gc.generate_network("tree30")
        b = gc.generate_network("tree30")
        assert a.edges == b.edges
        assert a.entry_node == b.entry_node

    def test_unknown_topology(self):
        with pytest.raises(ConfigError):
            gc.generate_network("tree31")
        with pytest.raises(ConfigError):
            gc.generate_network("ring99")

    def test_topology_id_is_exact(self):
        with pytest.raises(ConfigError, match="unknown topology 'TREE30'"):
            gc.generate_network("TREE30")
        with pytest.raises(ConfigError, match="unknown topology 'Tree30'"):
            gc.topology("Tree30")

    @pytest.mark.parametrize("name", sorted(EXPECTED_NODES))
    def test_invariants(self, name):
        net = gc.generate_network(name)
        # connected + symmetric/irreflexive adjacency are enforced at build
        assert not net.adjacency.diagonal().any()
        assert (net.adjacency == net.adjacency.T).all()
        # entry is the lowest-numbered leaf and every placement candidate
        # is a leaf
        assert net.entry_node == min(net.leaf_set)
        assert len(net.leaf_set - {net.entry_node}) >= 3

    def test_neighbors_are_the_adjacency_rows(self):
        rng = np.random.default_rng(31)
        nets = [gc.generate_network(name) for name in gc.TOPOLOGIES]
        nets += [gc.Network.from_edges(random_connected_graph(
            rng, int(rng.integers(2, 60)))) for _ in range(200)]
        for net in nets:
            assert net.neighbors == tuple(tuple(np.flatnonzero(row).tolist())
                                          for row in net.adjacency)

    def test_layers_present(self):
        net = gc.generate_network("tree50")
        assert set(net.node_layer) == set(gc.LAYERS)


class TestShortestPaths:
    def test_path_graph(self, path3):
        net, cm = path3
        assert cm.dist[0, 2] == 2
        assert cm.diameter == 2

    def test_star_graph(self):
        net = gc.Network.from_edges([(0, 1), (0, 2), (0, 3)], entry_node=1)
        cm = gc.all_pairs_shortest_paths(net)
        assert cm.dist[1, 2] == 2
        assert cm.diameter == 2

    @pytest.mark.parametrize("name", sorted(EXPECTED_NODES))
    def test_matches_oracles_on_shipped_topologies(self, name):
        _check_all_pairs(gc.generate_network(name))

    def test_matches_floyd_warshall_on_random_graphs(self):
        # 2,000 graphs of criterion 1's shape
        rng = np.random.default_rng(5)
        for _ in range(2000):
            n = int(rng.integers(5, 31))
            _check_all_pairs(gc.Network.from_edges(random_connected_graph(rng, n)))

    @pytest.mark.parametrize("n", [2, 3, 63, 64, 65, 127, 128, 129])
    def test_matches_oracles_across_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        for _ in range(20):
            _check_all_pairs(gc.Network.from_edges(random_connected_graph(rng, n)))

    def test_matches_oracles_on_large_graphs(self):
        # the longest search (diameter n - 1), the widest level, and cycles
        rng = np.random.default_rng(7)
        nets = [gc.Network.from_edges([(i, i + 1) for i in range(299)]),
                gc.Network.from_edges([(0, i) for i in range(1, 300)])]
        nets += [gc.Network.from_edges(random_connected_graph(rng, n))
                 for n in (100, 150, 200, 250, 300)]
        for net in nets:
            _check_all_pairs(net)
        assert [gc.all_pairs_shortest_paths(net).diameter for net in nets[:2]] == [299, 2]

    @pytest.mark.parametrize("name", sorted(EXPECTED_NODES))
    def test_metric_axioms_exhaustive(self, name):
        net = gc.generate_network(name)
        d = gc.all_pairs_shortest_paths(net).dist
        assert (d.diagonal() == 0).all()
        assert (d == d.T).all()
        assert (d >= 0).all()
        # triangle inequality via one min-plus product
        through = (d[:, :, None] + d[None, :, :]).min(axis=1)
        assert (d <= through).all()

    def test_cost_matrix_reads_the_graph_back(self):
        # every shipped topology, the smallest network, the deepest and the
        # widest BFS tree, random small graphs, and large graphs in which
        # node 0 has several neighbours
        rng = np.random.default_rng(6)
        nets = [gc.generate_network(name) for name in sorted(EXPECTED_NODES)]
        nets += [gc.Network.from_edges([(0, 1)]),
                 gc.Network.from_edges([(i, i + 1) for i in range(299)]),
                 gc.Network.from_edges([(0, i) for i in range(1, 300)])]
        nets += [gc.Network.from_edges(random_connected_graph(rng, int(rng.integers(5, 31))))
                 for _ in range(20)]
        large = [gc.Network.from_edges(random_connected_graph(rng, n))
                 for n in (100, 150, 200, 250, 300)]
        assert all(net.degree[0] > 1 for net in large)
        for net in nets + large:
            cm = gc.all_pairs_shortest_paths(net)
            n, hops = net.node_count, cm.dist[0]
            arcs = list(zip(cm.arc_tail.tolist(), cm.arc_head.tolist()))
            assert arcs == sorted(set(net.edges) | {(j, i) for i, j in net.edges})
            order = cm.bfs_order.tolist()
            assert order[0] == 0 and sorted(order) == list(range(n))
            assert (np.diff(hops[order]) >= 0).all()
            assert cm.bfs_parent[0] == 0
            assert cm.bfs_up_arc[0] == cm.bfs_down_arc[0] == 0
            for x in range(1, n):
                par = int(cm.bfs_parent[x])
                assert par == min(y for y in net.neighbors[x] if hops[y] == hops[x] - 1)
                assert arcs[cm.bfs_up_arc[x]] == (x, par)
                assert arcs[cm.bfs_down_arc[x]] == (par, x)
            for name in ("dist", "arc_tail", "arc_head", "bfs_order", "bfs_parent",
                         "bfs_up_arc", "bfs_down_arc"):
                assert not getattr(cm, name).flags.writeable

    @pytest.mark.parametrize("edges", [((2, 1), (0, 1)), ((1, 2), (0, 1)),
                                       ((1, 0), (1, 2))])
    def test_unordered_edges_rejected(self, edges):
        with pytest.raises(ValueError, match="i < j, in ascending order"):
            gc.Network(name="x", node_count=3, edges=edges, entry_node=0,
                       node_layer=("subnet",) * 3)

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError, match="connected"):
            gc.Network.from_edges([(0, 1), (2, 3)])

    def test_shortest_path_route(self, tree30):
        net, cm = tree30
        for target in sorted(net.leaf_set)[:5]:
            path = gc.shortest_path(net, net.entry_node, target)
            assert path[0] == net.entry_node and path[-1] == target
            assert len(path) - 1 == cm.dist[net.entry_node, target]
            for a, b in zip(path, path[1:]):
                assert net.adjacency[a, b]

    def test_shortest_path_blocked(self, path3):
        net, _ = path3
        assert gc.shortest_path(net, 0, 2, blocked=frozenset({1})) is None

    def test_shortest_path_matches_parent_pointer_bfs(self):
        # the same lexicographically smallest path, with and without blocked
        # nodes, and None for blocked endpoints and unreachable targets
        rng = np.random.default_rng(13)
        nets = [gc.generate_network(name) for name in gc.TOPOLOGIES]
        nets += [gc.Network.from_edges(random_connected_graph(rng, int(rng.integers(2, 61))))
                 for _ in range(80)]
        unreachable = 0
        for net in nets:
            n = net.node_count
            for _ in range(25):
                s, t = (int(x) for x in rng.integers(n, size=2))
                cut = rng.choice(n, size=int(rng.integers(0, n // 2 + 1)), replace=False)
                blocked = frozenset(cut.tolist()) - {s, t}
                for b in (None, blocked, blocked | {s}, blocked | {t}):
                    path = gc.shortest_path(net, s, t, b)
                    assert path == shortest_path_parent_bfs(net, s, t, b), (net.name, s, t, b)
                    unreachable += b == blocked and path is None
        assert unreachable > 0


class TestBranches:
    def test_branch_of_matches_union_find(self):
        # the shipped topologies, then random connected graphs with a random
        # core mask and the other layers drawn at random
        rng = np.random.default_rng(14)
        nets = [gc.generate_network(name) for name in gc.TOPOLOGIES]
        for _ in range(200):
            n = int(rng.integers(2, 61))
            layers = [gc.LAYERS[k] for k in rng.integers(1, len(gc.LAYERS), size=n)]
            for v in np.flatnonzero(rng.random(n) < rng.random() * 0.5):
                layers[v] = "core"
            nets.append(gc.Network.from_edges(random_connected_graph(rng, n),
                                              node_layer=layers))
        for net in nets:
            core = {v for v in range(net.node_count) if net.node_layer[v] == "core"}
            assert net.branch_of == branch_labels_union_find(net.node_count,
                                                              net.edges, core)


class TestPlacement:
    def test_forced_when_exactly_three_candidates(self):
        # star: center 0, leaves 1-4; entry on leaf 1 leaves exactly 3 picks
        net = gc.Network.from_edges(
            [(0, 1), (0, 2), (0, 3), (0, 4)], entry_node=1
        )
        for seed in (0, 1, 99):
            assert sorted(gc.place_high_value_nodes(net, seed)) == [2, 3, 4]

    def test_deterministic(self, tree30):
        net, _ = tree30
        assert gc.place_high_value_nodes(net, 1) == gc.place_high_value_nodes(net, 1)

    def test_too_few_leaves(self, path3):
        net, _ = path3
        with pytest.raises(ValueError, match="3 non-entry leaves"):
            gc.place_high_value_nodes(net, 0)

    def test_uniform_over_eligible_leaves(self):
        net = gc.generate_network("tree50")
        eligible = sorted(net.leaf_set - {net.entry_node})
        counts = {leaf: 0 for leaf in eligible}
        n_draws = 10_000
        for seed in range(n_draws):
            for h in gc.place_high_value_nodes(net, seed):
                counts[h] += 1
        p = 3 / len(eligible)
        expect = n_draws * p
        sigma = np.sqrt(n_draws * p * (1 - p))
        for leaf, c in counts.items():
            assert abs(c - expect) <= 3 * sigma, (leaf, c, expect)

    def test_distinct_and_excludes_entry(self, tree30):
        net, _ = tree30
        for seed in range(50):
            hvns = gc.place_high_value_nodes(net, seed)
            assert len(set(hvns)) == 3
            assert net.entry_node not in hvns
            assert all(h in net.leaf_set for h in hvns)


class TestSerialization:
    def test_round_trip(self, tree30):
        net, _ = tree30
        clone = gc.Network.from_json(json.loads(gc.network_to_json_str(net)),
                                     name=net.name)
        assert clone.edges == net.edges
        assert clone.entry_node == net.entry_node
        assert clone.node_layer == net.node_layer

    def test_canonical_bytes(self, tree30):
        net, _ = tree30
        assert gc.network_to_json_str(net) == gc.network_to_json_str(net)
        obj = json.loads(gc.network_to_json_str(net))
        assert list(obj) == ["edges", "entry", "layers", "nodes"]

    def test_save_load(self, tmp_path, tree30):
        net, _ = tree30
        path = tmp_path / "net.json"
        gc.save_network(net, path)
        loaded = gc.load_network(path)
        assert loaded.edges == net.edges


class TestEntryCandidates:
    def test_single_is_entry(self, tree30):
        net, _ = tree30
        assert gc.entry_candidates(net, 1) == (net.entry_node,)

    def test_three_distinct_leaves(self, tree30):
        net, _ = tree30
        picks = gc.entry_candidates(net, 3)
        assert len(set(picks)) == 3
        assert all(p in net.leaf_set for p in picks)
        branches = {net.branch_of[p] for p in picks}
        assert len(branches) == 3
