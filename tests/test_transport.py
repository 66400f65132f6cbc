import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nettom import graph_core as gc
from nettom import transport as tp

from _oracles import (
    brute_force_transport_cost,
    dyadic_distribution,
    network_simplex_doubling,
    normalize,
    random_connected_graph,
    tree_w1,
)
from conftest import delta


def _random_net(rng, n):
    net = gc.Network.from_edges(random_connected_graph(rng, n))
    return net, gc.all_pairs_shortest_paths(net)


def _random_tree(rng, n):
    """Edges of a random recursive tree under a random relabelling, so the
    solver's root (node 0) sits anywhere in it."""
    label = rng.permutation(n)
    return sorted(tuple(sorted((int(label[rng.integers(v)]), int(label[v]))))
                  for v in range(1, n))


def _mixed_pair(rng, n, case):
    """Dense dyadic, sparse dyadic or dense non-dyadic inputs, by case."""
    if case % 3 == 0:
        return dyadic_distribution(rng, n), dyadic_distribution(rng, n)
    if case % 3 == 1:
        return tuple(dyadic_distribution(rng, n, support=int(rng.integers(1, 5)))
                     for _ in range(2))
    return rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))


def _simplex_matches_doubling(p, q, cm):
    """Solve from the BFS start with ``_network_simplex`` and with the
    pointer-doubling oracle; both must make the same pivots and end with
    the same parent, arc, flow and potential bytes. Returns the cost."""
    parent, arc, flow, pot = tp._bfs_start(p, q, cm)
    start = (parent.copy(), arc.copy(), flow.copy())
    pivots, bland = tp._network_simplex(cm.arc_tail, cm.arc_head,
                                        parent, arc, flow, pot)
    ref_pot, ref_pivots, ref_bland = network_simplex_doubling(
        cm.arc_tail, cm.arc_head, *start, tp._BLAND_AFTER_FACTOR)
    assert (pivots, bland) == (ref_pivots, ref_bland)
    for got, want in zip((parent, arc, flow, pot), (*start, ref_pot)):
        assert got.tobytes() == want.tobytes()
    return float(flow[1:].sum())


def _certified_plan(p, q, cm, edges):
    """Solve and prove the plan optimal by LP duality: the plan is feasible
    (marginals P and Q, no negative entry) at cost <X, dist>, and the
    potential y is a feasible dual of the same value (it changes by at most
    one hop across every edge, and <P - Q, y> equals the cost)."""
    result = tp.wasserstein(p, q, cm)
    X, y = result.plan, result.potential
    assert np.abs(X.sum(axis=1) - p).max() <= 1e-12
    assert np.abs(X.sum(axis=0) - q).max() <= 1e-12
    assert X.min() >= 0.0
    assert float((X * cm.dist).sum()) == pytest.approx(result.cost, rel=0, abs=1e-12)
    u, v = np.asarray(edges).T
    assert np.abs(y[u] - y[v]).max() <= 1.0
    assert float((p - q) @ y) == pytest.approx(result.cost, rel=0, abs=1e-12)
    return result


class TestWasserstein:
    def test_identical_inputs(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(0)
        p = dyadic_distribution(rng, cm.dist.shape[0])
        result = tp.wasserstein(p, p, cm)
        assert result.cost == 0.0
        assert (result.plan == np.diag(p)).all()

    def test_single_atom_over_diameter(self, path3):
        _, cm = path3
        result = tp.wasserstein(delta(3, 0), delta(3, 2), cm)
        assert result.cost == 2.0

    def test_two_atom_hand_case(self, path3):
        # half the mass sits still, half moves one hop
        _, cm = path3
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        result = tp.wasserstein(p, q, cm)
        assert result.cost == pytest.approx(1.0, abs=1e-12)
        ref = brute_force_transport_cost(p[p > 0], q[q > 0],
                                         cm.dist[np.ix_(p > 0, q > 0)])
        assert result.cost == pytest.approx(ref, rel=1e-12)

    def test_plan_marginals(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = dyadic_distribution(rng, cm.dist.shape[0], support=6)
            q = dyadic_distribution(rng, cm.dist.shape[0], support=9)
            result = tp.wasserstein(p, q, cm)
            assert np.abs(result.plan.sum(axis=1) - p).max() < 1e-7
            assert np.abs(result.plan.sum(axis=0) - q).max() < 1e-7
            assert (result.plan >= 0).all()
            assert result.cost == pytest.approx(
                float((result.plan * cm.dist).sum()), rel=1e-12)

    def test_rejects_unnormalized(self, path3):
        _, cm = path3
        with pytest.raises(ValueError, match="normalize"):
            tp.wasserstein(np.array([0.5, 0.2, 0.0]), delta(3, 0), cm)

    def test_rejects_mismatched_dimension(self, path3):
        _, cm = path3
        with pytest.raises(ValueError, match="shape"):
            tp.wasserstein(np.ones(4) / 4, delta(3, 0), cm)

    def test_rejects_negative(self, path3):
        _, cm = path3
        with pytest.raises(ValueError, match="negative"):
            tp.wasserstein(np.array([1.5, -0.5, 0.0]), delta(3, 0), cm)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, path3, bad):
        _, cm = path3
        p = np.array([bad, 0.5, 0.5])
        with pytest.raises(ValueError, match="non-finite"):
            tp.ntd(p, delta(3, 0), cm)
        with pytest.raises(ValueError, match="non-finite"):
            tp.ntd(delta(3, 0), p, cm)

    @pytest.mark.parametrize("x, message", [
        ([np.nan, 0.5, 0.5], "P has non-finite entries"),
        ([np.inf, 0.0, 0.0], "P has non-finite entries"),
        ([np.inf, -np.inf, 1.0], "P has non-finite entries"),
        ([np.nan, -1.0, 2.0], "P has non-finite entries"),
        ([2.0, -1.0, 0.0], "P has negative entries"),
        ([-0.5, 0.0, 0.0], "P has negative entries"),
        ([0.5, 0.5, 1e-8], "P sums to 1.00000001; normalize explicitly before calling"),
        ([0.0, 0.0, 0.0], "P sums to 0.0; normalize explicitly before calling"),
    ])
    def test_check_distribution_messages(self, x, message):
        with pytest.raises(ValueError) as info:
            tp.check_distribution(np.array(x), 3, "P")
        assert str(info.value) == message

    def test_check_distribution_accepts(self):
        for x in ([1.0, 0.0, -0.0], [0.5, 0.5 + 5e-10, 0.0], [0.25, 0.25, 0.5]):
            assert tp.check_distribution(x, 3).tolist() == x

    def test_oracle_equivalence_small_supports(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(5, 25))
            net, cm = _random_net(rng, n)
            p = dyadic_distribution(rng, n, support=int(rng.integers(1, 5)))
            q = dyadic_distribution(rng, n, support=int(rng.integers(1, 5)))
            cost = tp.wasserstein(p, q, cm).cost
            ref = brute_force_transport_cost(
                p[p > 0], q[q > 0],
                cm.dist[np.ix_(p > 0, q > 0)].astype(float),
            )
            assert cost == pytest.approx(ref, rel=1e-7, abs=1e-12)

    def test_bland_rule_from_first_pivot(self, monkeypatch):
        # the anti-cycling fallback normally never fires on these sizes;
        # forcing it must reach the same optimum as Dantzig pivoting
        rng = np.random.default_rng(11)
        cases = []
        for _ in range(30):
            n = int(rng.integers(5, 25))
            _, cm = _random_net(rng, n)
            small = int(rng.integers(2, 5))
            cases.append((cm, dyadic_distribution(rng, n, support=small),
                          dyadic_distribution(rng, n, support=small), True))
        for _ in range(10):
            n = int(rng.integers(20, 60))
            _, cm = _random_net(rng, n)
            cases.append((cm, dyadic_distribution(rng, n),
                          dyadic_distribution(rng, n), False))
        default = [tp.wasserstein(p, q, cm) for cm, p, q, _ in cases]
        assert not any(r.bland for r in default)
        assert sum(r.pivots for r in default) > 0
        monkeypatch.setattr(tp, "_BLAND_AFTER_FACTOR", 0)
        for (cm, p, q, tiny), expected in zip(cases, default):
            result = tp.wasserstein(p, q, cm)
            assert result.bland
            cost = result.cost
            assert cost == pytest.approx(expected.cost, rel=1e-12, abs=1e-12)
            if tiny:
                ref = brute_force_transport_cost(
                    p[p > 0], q[q > 0],
                    cm.dist[np.ix_(p > 0, q > 0)].astype(float),
                )
                assert cost == pytest.approx(ref, rel=1e-7, abs=1e-12)


class TestNtd:
    def test_zero_iff_equal(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(2)
        p = dyadic_distribution(rng, cm.dist.shape[0])
        assert tp.ntd(p, p, cm) == 0.0

    def test_diameter_transport_is_one(self, path3):
        _, cm = path3
        assert tp.ntd(delta(3, 0), delta(3, 2), cm) == 1.0

    def test_half_diameter(self, path3):
        _, cm = path3
        p = np.array([0.5, 0.5, 0.0])
        q = np.array([0.0, 0.5, 0.5])
        assert tp.ntd(p, q, cm) == pytest.approx(0.5, abs=1e-12)

    def test_rejects_zero_diameter(self):
        cm = gc.all_pairs_shortest_paths(gc.Network.from_edges([(0, 1)]))
        cm = dataclasses.replace(cm, diameter=0)
        with pytest.raises(ValueError, match="diameter"):
            tp.ntd(delta(2, 0), delta(2, 1), cm)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 31))
        net, cm = _random_net(rng, n)
        p = dyadic_distribution(rng, n)
        q = dyadic_distribution(rng, n)
        r = dyadic_distribution(rng, n)
        d_pq = tp.ntd(p, q, cm)
        assert tp.ntd(q, p, cm) == d_pq  # symmetry, exact
        assert tp.ntd(p, p, cm) == 0.0
        assert 0.0 <= d_pq <= 1.0
        assert d_pq <= tp.ntd(p, r, cm) + tp.ntd(r, q, cm) + 1e-9

    def test_geometry_sensitivity(self):
        # three equal-shape paths: the prediction whose wrong segment stays
        # close to the truth must score strictly better than the remote one
        net = gc.generate_network("tree50")
        cm = gc.all_pairs_shortest_paths(net)
        entry = net.entry_node
        leaves = sorted(net.leaf_set - {entry})
        truth_leaf = leaves[0]
        same_branch = [l for l in leaves[1:]
                       if net.branch_of[l] == net.branch_of[truth_leaf]]
        far_branch = [l for l in leaves
                      if net.branch_of[l] != net.branch_of[truth_leaf]
                      and net.branch_of[l] != net.branch_of[entry]]
        near_leaf = same_branch[0]
        far_leaf = max(far_branch, key=lambda l: cm.dist[truth_leaf, l])

        def path_mass(target):
            path = gc.shortest_path(net, entry, target)
            x = np.zeros(net.node_count)
            x[path] = 1.0 / len(path)
            return x

        t_bar = path_mass(truth_leaf)
        p_bar = path_mass(near_leaf)
        q_bar = path_mass(far_leaf)
        assert tp.ntd(p_bar, t_bar, cm) < tp.ntd(q_bar, t_bar, cm) - 0.01


class TestGraphFlow:
    """``ntd`` and ``wasserstein`` solve on the graph's own arcs; the tree
    formula and the duality certificate check them."""

    def test_trees_match_subtree_oracle(self):
        rng = np.random.default_rng(21)
        for case in range(10_000):
            n = int(rng.integers(2, 31))
            edges = _random_tree(rng, n)
            cm = gc.all_pairs_shortest_paths(gc.Network.from_edges(edges))
            p, q = _mixed_pair(rng, n, case)
            ref = tree_w1(n, edges, p, q)
            assert tp.ntd(p, q, cm) == pytest.approx(ref / cm.diameter,
                                                      rel=0, abs=1e-12)
            # ntd skips the simplex on a tree; the solver's bytes are the same
            if not np.array_equal(p, q):
                first, second = (q, p) if q.tobytes() < p.tobytes() else (p, q)
                assert tp.ntd(p, q, cm) == (
                    _simplex_matches_doubling(first, second, cm) / cm.diameter)
            result = _certified_plan(p, q, cm, edges)
            assert result.cost == pytest.approx(ref, rel=0, abs=1e-12)
            assert result.pivots == 0  # the spanning-tree start is already optimal

    def test_cyclic_graphs_certified(self):
        rng = np.random.default_rng(22)
        pivots = 0
        for case in range(1000):
            n = int(rng.integers(5, 31))
            edges = random_connected_graph(rng, n)
            cm = gc.all_pairs_shortest_paths(gc.Network.from_edges(edges))
            p, q = _mixed_pair(rng, n, case)
            result = _certified_plan(p, q, cm, edges)
            assert tp.ntd(p, q, cm) == result.cost / cm.diameter
            assert not result.bland
            pivots += result.pivots
            _simplex_matches_doubling(p, q, cm)
        assert pivots > 0

    def test_swapped_inputs_transpose_the_plan(self):
        rng = np.random.default_rng(24)
        for case in range(200):
            n = int(rng.integers(5, 31))
            cm = gc.all_pairs_shortest_paths(
                gc.Network.from_edges(random_connected_graph(rng, n)))
            p, q = _mixed_pair(rng, n, case)
            forward, backward = tp.wasserstein(p, q, cm), tp.wasserstein(q, p, cm)
            assert (backward.plan == forward.plan.T).all()
            assert (backward.potential == -forward.potential).all()
            assert backward.cost == forward.cost

    @pytest.mark.parametrize("edges", [[(0, 1), (1, 2)],
                                       [(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)]])
    def test_totals_off_by_a_little(self, edges):
        # check_distribution lets a total miss 1 by SUM_TOL; the root, which
        # balances the flow, takes the imbalance and no walk dead-ends
        n = int(np.max(edges)) + 1
        cm = gc.all_pairs_shortest_paths(gc.Network.from_edges(edges))
        rng = np.random.default_rng(25)
        pairs = [(np.array([0.0, 0.5 + 1e-10, 0.5] + [0.0] * (n - 3)),
                  np.array([0.5, 0.0, 0.5] + [0.0] * (n - 3)))]
        for _ in range(50):
            p, q = rng.dirichlet(np.ones(n), size=2)
            p[rng.integers(n)] += rng.uniform(-5e-10, 5e-10)
            pairs.append((p, q))
        for p, q in pairs + [(q, p) for p, q in pairs]:
            result = tp.wasserstein(p, q, cm)
            X, y = result.plan, result.potential
            gap = abs(p.sum() - q.sum())
            assert result.cost == tp.ntd(p, q, cm) * cm.diameter
            assert X.min() >= 0.0
            assert np.abs(X.sum(axis=1) - p).max() <= gap + 1e-12
            assert np.abs(X.sum(axis=0) - q).max() <= gap + 1e-12
            assert abs(float((X * cm.dist).sum()) - result.cost) <= (
                gap * cm.diameter + 1e-12)
            u, v = np.asarray(edges).T
            assert np.abs(y[u] - y[v]).max() <= 1.0
            assert float((p - q) @ y) == pytest.approx(result.cost, rel=0,
                                                       abs=1e-12)

    def test_dead_end_raises(self, path3):
        # a flow that does not carry the surplus leaves mass unplaced
        _, cm = path3
        p, q = delta(3, 0), delta(3, 2)
        arc, flow = tp._graph_flow(p, q, cm)[4:]
        with pytest.raises(RuntimeError, match="dead-ended at node 1"):
            tp._plan_from_flow(p, q, cm, arc, flow * np.array([1.0, 1.0, 0.0]))

    def test_bland_rule_from_first_pivot(self, monkeypatch):
        rng = np.random.default_rng(23)
        cases = []
        while len(cases) < 20:
            n = int(rng.integers(20, 60))
            edges = random_connected_graph(rng, n)
            if len(edges) >= n:
                cm = gc.all_pairs_shortest_paths(gc.Network.from_edges(edges))
                cases.append((edges, cm, dyadic_distribution(rng, n),
                              dyadic_distribution(rng, n)))
        default = [tp.wasserstein(p, q, cm) for _, cm, p, q in cases]
        assert not any(r.bland for r in default)
        assert sum(r.pivots for r in default) > 0
        monkeypatch.setattr(tp, "_BLAND_AFTER_FACTOR", 0)
        for (edges, cm, p, q), expected in zip(cases, default):
            result = _certified_plan(p, q, cm, edges)
            assert result.bland
            _simplex_matches_doubling(p, q, cm)
            assert result.cost == pytest.approx(expected.cost, rel=0, abs=1e-12)
            assert tp.ntd(p, q, cm) == pytest.approx(expected.cost / cm.diameter,
                                                      rel=0, abs=1e-12)


class TestMinMaxScale:
    def test_basic(self):
        assert tp.minmax_scale(np.array([0.0, 5.0, 10.0]), 0.0).tolist() == [0.0, 0.5, 1.0]

    def test_floor_one_collapses_to_ones(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=17)
        assert (tp.minmax_scale(x, 1.0) == 1.0).all()

    def test_constant_input_maps_to_ones(self):
        assert (tp.minmax_scale(np.array([3.0, 3.0, 3.0]), 0.1) == 1.0).all()

    def test_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            x = rng.normal(size=int(rng.integers(2, 40)))
            f = float(rng.uniform(0, 1))
            y = tp.minmax_scale(x, f)
            assert y.min() >= f - 1e-12
            assert y.max() <= 1.0 + 1e-12

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty"):
            tp.minmax_scale(np.array([]), 0.1)


class TestCombineWeights:
    def test_single_feature_idempotent(self):
        x = np.array([2.0, 7.0, 4.0, 0.0])
        config = tp.WeightingConfig(features=(x,), coefficients=(1.0,), floor=0.1)
        assert np.allclose(tp.combine_weights(config), tp.minmax_scale(x, 0.1),
                           atol=1e-15)

    def test_negative_coefficient_reverses_ranking(self):
        x = np.array([2.0, 7.0, 4.0, 0.0])
        pos = tp.combine_weights(
            tp.WeightingConfig(features=(x,), coefficients=(1.0,), floor=0.1))
        neg = tp.combine_weights(
            tp.WeightingConfig(features=(x,), coefficients=(-1.0,), floor=0.1))
        assert (np.argsort(pos) == np.argsort(neg)[::-1]).all()

    def test_two_feature_hand_case(self):
        # worked by hand from the rescale-combine-rescale definition
        x1 = np.array([0.0, 1.0, 2.0, 3.0])
        x2 = np.array([3.0, 1.0, 0.0, 2.0])
        config = tp.WeightingConfig(features=(x1, x2),
                                    coefficients=(0.5, -1.0), floor=0.1)
        expected = np.array([0.1, 0.6625, 1.0, 0.6625])
        assert np.allclose(tp.combine_weights(config), expected, atol=1e-12)

    def test_output_in_floor_one_interval(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(1, 4))
            f = float(rng.uniform(0, 1))
            config = tp.WeightingConfig(
                features=tuple(rng.normal(size=n) for _ in range(m)),
                coefficients=tuple(float(c) for c in rng.uniform(-1, 1, size=m)),
                floor=f,
            )
            w = tp.combine_weights(config)
            assert (w >= f - 1e-12).all() and (w <= 1.0 + 1e-12).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="length"):
            tp.WeightingConfig(
                features=(np.zeros(3), np.zeros(4)),
                coefficients=(1.0, 1.0), floor=0.1,
            )

    def test_coefficient_range_enforced(self):
        with pytest.raises(ValueError, match="coefficients"):
            tp.WeightingConfig(features=(np.zeros(3),), coefficients=(1.5,),
                               floor=0.1)


class TestNtdWeighted:
    def test_floor_one_is_identity(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(8)
        feature = rng.normal(size=net.node_count)
        config = tp.WeightingConfig(features=(feature,), coefficients=(1.0,),
                                    floor=1.0)
        for _ in range(25):
            p = dyadic_distribution(rng, net.node_count, support=5)
            q = dyadic_distribution(rng, net.node_count, support=5)
            assert tp.ntd_weighted(p, q, cm, config) == tp.ntd(p, q, cm)

    def test_constant_feature_is_identity(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(9)
        config = tp.WeightingConfig(
            features=(np.full(net.node_count, 2.5),), coefficients=(1.0,),
            floor=0.1,
        )
        p = dyadic_distribution(rng, net.node_count, support=4)
        q = dyadic_distribution(rng, net.node_count, support=4)
        assert tp.ntd_weighted(p, q, cm, config) == tp.ntd(p, q, cm)

    def test_remoteness_coefficient_flip_orders_scores(self, tree30):
        # truth hugs the entry; the prediction wanders into a far branch, so
        # up-weighting remote nodes must raise the score
        net, cm = tree30
        entry = net.entry_node
        leaves = sorted(net.leaf_set - {entry})
        truth_leaf = min(leaves, key=lambda l: cm.dist[entry, l])
        far_leaf = max(leaves, key=lambda l: cm.dist[entry, l])

        def decayed_path(target):
            # support capped at 4 so the enumeration oracle stays viable
            path = gc.shortest_path(net, entry, target)[:4]
            x = np.zeros(net.node_count)
            x[path] = 0.5 ** np.arange(len(path))
            return x / x.sum()

        truth = decayed_path(truth_leaf)
        pred = decayed_path(far_leaf)
        feature = cm.dist[net.entry_node].astype(float)
        plus = tp.ntd_weighted(pred, truth, cm, tp.WeightingConfig(
            features=(feature,), coefficients=(1.0,), floor=0.1))
        minus = tp.ntd_weighted(pred, truth, cm, tp.WeightingConfig(
            features=(feature,), coefficients=(-1.0,), floor=0.1))
        assert plus > minus
        # ordering verified against the vertex-enumeration oracle
        def oracle_ntd(a, b):
            mask_a, mask_b = a > 0, b > 0
            cost = brute_force_transport_cost(
                a[mask_a], b[mask_b], cm.dist[np.ix_(mask_a, mask_b)].astype(float))
            return cost / cm.diameter

        w_plus = tp.combine_weights(tp.WeightingConfig(
            features=(feature,), coefficients=(1.0,), floor=0.1))
        w_minus = tp.combine_weights(tp.WeightingConfig(
            features=(feature,), coefficients=(-1.0,), floor=0.1))
        ref_plus = oracle_ntd(w_plus * pred / (w_plus * pred).sum(),
                              w_plus * truth / (w_plus * truth).sum())
        ref_minus = oracle_ntd(w_minus * pred / (w_minus * pred).sum(),
                               w_minus * truth / (w_minus * truth).sum())
        assert plus == pytest.approx(ref_plus, rel=1e-7)
        assert minus == pytest.approx(ref_minus, rel=1e-7)
        assert ref_plus > ref_minus


class TestNormalize:
    """``_oracles.normalize``, which the Sinkhorn tests build their inputs with."""

    def test_scales_to_one(self):
        out = normalize(np.array([2.0, 2.0]))
        assert out.tolist() == [0.5, 0.5]

    def test_rejects_zero_vector(self):
        with pytest.raises(ValueError, match="all-zero"):
            normalize(np.zeros(3))

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            normalize(np.array([1.0, -1.0]))
