"""Acceptance suite: every release gate in one module.

Each criterion runs at its stated tolerance and prints one pass/fail line
(visible with ``pytest -s`` or in failure output). Budgeted criteria also
assert their runtime caps.
"""

import filecmp
import time
from contextlib import contextmanager

import numpy as np
import pytest

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import dataset as ds
from nettom import evalkit as ek
from nettom import graph_core as gc
from nettom import sinkhorn as sk
from nettom import transport as tp

from _oracles import (
    active_adjacency,
    brute_force_transport_cost,
    dyadic_distribution,
    random_connected_graph,
)
from conftest import delta


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    print(f"[PASS] criterion {num:2d}: {description}")


def test_criterion_01_metric_axiom_suite():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    with criterion(1, "metric axioms on 10,000 random pairs, < 60 s"):
        for case in range(10_000):
            n = int(rng.integers(5, 31))
            net = gc.Network.from_edges(random_connected_graph(rng, n))
            cm = gc.all_pairs_shortest_paths(net)
            # mix dense and sparse supports; sums are exactly 1.0 by
            # construction so the unit bound can be asserted literally
            support = None if case % 2 == 0 else int(rng.integers(2, 9))
            p = dyadic_distribution(rng, n, support=support)
            q = dyadic_distribution(rng, n, support=support)
            r = dyadic_distribution(rng, n, support=support)
            d_pq = tp.ntd(p, q, cm)
            assert tp.ntd(q, p, cm) == d_pq
            assert tp.ntd(p, p, cm) == 0.0
            assert 0.0 <= d_pq <= 1.0
            assert d_pq <= tp.ntd(p, r, cm) + tp.ntd(r, q, cm) + 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_02_oracle_equivalence():
    rng = np.random.default_rng(102)
    with criterion(2, "exact solver matches vertex enumeration, 200 instances"):
        for _ in range(200):
            n = int(rng.integers(5, 31))
            net = gc.Network.from_edges(random_connected_graph(rng, n))
            cm = gc.all_pairs_shortest_paths(net)
            p = dyadic_distribution(rng, n, support=int(rng.integers(1, 5)))
            q = dyadic_distribution(rng, n, support=int(rng.integers(1, 5)))
            cost = tp.wasserstein(p, q, cm).cost
            ref = brute_force_transport_cost(
                p[p > 0], q[q > 0],
                cm.dist[np.ix_(p > 0, q > 0)].astype(float),
            )
            assert cost == pytest.approx(ref, rel=1e-7, abs=1e-12)


def test_criterion_03_bound_attainment():
    with criterion(3, "point mass moved across the diameter scores exactly 1.0"):
        for name in (t for t in gc.TOPOLOGIES if t.startswith("tree")):
            net = gc.generate_network(name)
            cm = gc.all_pairs_shortest_paths(net)
            i, j = np.unravel_index(int(cm.dist.argmax()), cm.dist.shape)
            assert cm.dist[i, j] == cm.diameter
            value = tp.ntd(delta(net.node_count, int(i)),
                           delta(net.node_count, int(j)), cm)
            assert value == 1.0, name


def test_criterion_04_geometry_ordering():
    with criterion(4, "nearer erroneous path scores strictly lower (margin 0.01)"):
        net = gc.generate_network("tree50")
        cm = gc.all_pairs_shortest_paths(net)
        entry = net.entry_node
        leaves = sorted(net.leaf_set - {entry})
        truth_leaf = leaves[0]
        near_leaf = next(l for l in leaves[1:]
                         if net.branch_of[l] == net.branch_of[truth_leaf])
        far_candidates = [l for l in leaves
                          if net.branch_of[l] not in
                          (net.branch_of[truth_leaf], net.branch_of[entry])]
        far_leaf = max(far_candidates, key=lambda l: cm.dist[truth_leaf, l])

        def path_mass(target):
            path = gc.shortest_path(net, entry, target)
            x = np.zeros(net.node_count)
            x[path] = 1.0 / len(path)
            return x

        t_bar = path_mass(truth_leaf)
        p_bar = path_mass(near_leaf)
        q_bar = path_mass(far_leaf)
        assert tp.ntd(p_bar, t_bar, cm) < tp.ntd(q_bar, t_bar, cm) - 0.01


def test_criterion_05_weighting_neutrality_and_sensitivity(tree30):
    net, cm = tree30
    rng = np.random.default_rng(105)
    with criterion(5, "floor 1 is the identity on 1,000 cases; "
                      "remote error raises the +1-weighted score"):
        feature = rng.normal(size=net.node_count)
        config = tp.WeightingConfig(features=(feature,), coefficients=(1.0,),
                                    floor=1.0)
        for _ in range(1000):
            p = dyadic_distribution(rng, net.node_count,
                                    support=int(rng.integers(2, 9)))
            q = dyadic_distribution(rng, net.node_count,
                                    support=int(rng.integers(2, 9)))
            assert tp.ntd_weighted(p, q, cm, config) == tp.ntd(p, q, cm)

        entry = net.entry_node
        leaves = sorted(net.leaf_set - {entry})
        truth_leaf = min(leaves, key=lambda l: cm.dist[entry, l])
        far_leaf = max(leaves, key=lambda l: cm.dist[entry, l])

        def decayed_path(target):
            path = gc.shortest_path(net, entry, target)
            x = np.zeros(net.node_count)
            x[path] = 0.5 ** np.arange(len(path), dtype=float)
            return x / x.sum()

        truth = decayed_path(truth_leaf)
        pred = decayed_path(far_leaf)  # error mass far from the entry
        remoteness = gc.entry_remoteness(net, cm)
        plus = tp.ntd_weighted(pred, truth, cm, tp.WeightingConfig(
            features=(remoteness,), coefficients=(1.0,), floor=0.1))
        minus = tp.ntd_weighted(pred, truth, cm, tp.WeightingConfig(
            features=(remoteness,), coefficients=(-1.0,), floor=0.1))
        assert plus > minus


def test_criterion_06_sinkhorn_convergence(tree30):
    net, cm = tree30
    rng = np.random.default_rng(106)
    entry = net.entry_node
    leaves = sorted(net.leaf_set - {entry})
    params = sk.SinkhornParams(lam=0.01 * cm.diameter, max_iters=300_000,
                               convergence_tol=1e-8)

    def attack_path_vector():
        target = int(leaves[rng.integers(len(leaves))])
        path = gc.shortest_path(net, entry, target)
        decay = rng.uniform(0.40, 0.52)
        x = np.zeros(net.node_count)
        x[path] = decay ** np.arange(len(path), dtype=float)
        return x / x.sum()

    start = time.perf_counter()
    with criterion(6, "regularized loss within 0.02 of exact on 100 sparse "
                      "cases; marginals within 1e-8; < 120 s"):
        for _ in range(100):
            p = attack_path_vector()
            q = attack_path_vector()
            res = sk.sinkhorn_plan(p, q, cm, params)
            assert res.converged
            assert res.marginal_violation <= 1e-8
            assert abs(res.value - tp.ntd(p, q, cm)) <= 0.02
        elapsed = time.perf_counter() - start
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(107)
    with criterion(7, "analytic gradient matches finite differences "
                      "(rel err <= 1e-4, 50 cases)"):
        for _ in range(50):
            n = int(rng.integers(5, 11))
            net = gc.Network.from_edges(random_connected_graph(rng, n))
            cm = gc.all_pairs_shortest_paths(net)
            params = sk.SinkhornParams(lam=0.5 * cm.diameter,
                                       max_iters=200_000,
                                       convergence_tol=1e-12)
            p = tp.normalize(rng.uniform(0.05, 1.0, size=n))
            q = tp.normalize(rng.uniform(0.05, 1.0, size=n))
            analytic = sk.ntd_loss_grad(p, q, cm, params)
            h = 1e-5
            fd = np.zeros(n)
            for i in range(n):
                up = p.copy()
                up[i] += h
                down = p.copy()
                down[i] -= h
                fd[i] = (
                    sk.ntd_loss(tp.normalize(up), q, cm, params)
                    - sk.ntd_loss(tp.normalize(down), q, cm, params)
                ) / (2 * h)
            fd -= fd.mean()
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel <= 1e-4


def test_criterion_08_environment_invariants():
    nets = {name: ds.topology(name) for name in ("tree30", "tree50", "forest72")}
    blue_ids = [f"blue.{k}" for k in sorted(ag.BLUE_REGISTRY)]
    red_kinds = sorted(ag.RED_REGISTRY)
    with criterion(8, "zero-sum, isolation round-trip, hidden => compromised, "
                      "termination, over 1,000 fuzzed episodes"):
        # isolation/reconnect restores the exact edge set
        net, cm = nets["tree30"]
        env = ce.CyberEnv(net, cm=cm)
        env.reset(seed=0)
        before = active_adjacency(env).copy()
        for v in (0, 5, 17):
            env.apply_blue(ce.BlueAction(ce.BLUE_ISOLATE, v))
        for v in (17, 0, 5):
            env.apply_blue(ce.BlueAction(ce.BLUE_RECONNECT, v))
        assert (active_adjacency(env) == before).all()

        for k in range(1000):
            name = ("tree30", "tree50", "forest72")[k % 3]
            net, cm = nets[name]
            blue = ag.make_blue(blue_ids[k % len(blue_ids)])
            red = ag.make_red(ag.RedPolicySpec(
                kind=red_kinds[k % len(red_kinds)], alpha=0.01))
            env = ce.CyberEnv(net, cm=cm)
            state = env.reset(seed=3000 + k)
            rng = np.random.default_rng(k)
            ctx = ce.EpisodeContext(net, cm, state.hvns,
                                    state.entries)
            blue.begin_episode(ctx, rng)
            red.begin_episode(ctx, rng)
            while not state.done:
                result = env.step(
                    blue.act(env.observe(ce.OBSERVER_BLUE), rng),
                    red.act(env.observe(ce.OBSERVER_RED), rng),
                )
                assert result.red_reward == -result.blue_reward
                assert not (state.hidden & ~state.compromised).any()
            assert state.step <= 500
            assert state.outcome in (ce.RED_WIN, ce.BLUE_WIN)


def _ten_game_config(master_seed):
    return ds.DatasetConfig(
        blues=("blue.msn_d",),
        reds=tuple(ag.species_members("hvt_pref_sp", 0.01, 10, seed=5)),
        networks=("tree30",),
        master_seed=master_seed,
        n_c=3, n_p=8, n_past=4, past_k=5,
        gammas=(0.5, 0.95, 0.999),
    )


def test_criterion_09_dataset_determinism(tmp_path):
    with criterion(9, "10-game dataset build reproduces byte-for-byte"):
        config = _ten_game_config(master_seed=4242)
        ds.build_dataset(config, tmp_path / "run1")
        ds.build_dataset(config, tmp_path / "run2")
        files1 = sorted(p.relative_to(tmp_path / "run1")
                        for p in (tmp_path / "run1").rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(tmp_path / "run2")
                        for p in (tmp_path / "run2").rglob("*") if p.is_file())
        assert files1 == files2
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "run1", tmp_path / "run2",
            [str(f) for f in files1], shallow=False,
        )
        assert not mismatch and not errors
        assert len(match) == len(files1)


def test_criterion_10_dataset_arithmetic_and_hygiene(tmp_path):
    with criterion(10, "27 episodes per game, disjoint past pools, "
                       "normalized occupancy truths"):
        config = _ten_game_config(master_seed=777)
        manifest = ds.build_dataset(config, tmp_path / "data")
        episodes = list((tmp_path / "data" / "episodes").glob("*.jsonl"))
        assert len(episodes) == 10 * 27
        for game_id in manifest.games:
            per_game = [p for p in episodes if p.name.startswith(game_id)]
            assert len(per_game) == 27
        assert ds.past_pools_disjoint(manifest)
        assert len(manifest.samples) >= 1
        for sample in manifest.samples:
            assert set(sample.truth_sr) == {"0.5", "0.95", "0.999"}
            for vec in sample.truth_sr.values():
                arr = np.asarray(vec)
                assert abs(arr.sum() - 1.0) <= 1e-9
                assert (arr >= 0).all()


def test_criterion_11_tournament_directional_reproduction():
    blues = [f"blue.{k}" for k in sorted(ag.BLUE_REGISTRY)]
    reds = [ag.RedPolicySpec(kind=k, alpha=0.01, label=f"red.{k}:alpha=0.01")
            for k in sorted(ag.RED_REGISTRY)]
    networks = ["tree30", "forest72", "optical54"]
    start = time.perf_counter()
    with criterion(11, "isolation tops win rate; shortest-path attacker is "
                       "the hardest red for the rest; < 10 min"):
        table = ek.run_tournament(blues, reds, networks,
                                  episodes_per_cell=20, seed=1111)
        averaged = table.averaged()
        blue_rates = {}
        for blue in blues:
            rates = [c.win_rate for c in averaged if c.blue == blue]
            blue_rates[blue] = float(np.mean(rates))
        top_blue = max(sorted(blue_rates), key=lambda b: blue_rates[b])
        runner_up = max((b for b in sorted(blue_rates) if b != top_blue),
                        key=lambda b: blue_rates[b])
        lead = blue_rates[top_blue] - blue_rates[runner_up]
        print(f"criterion 11 margin: {top_blue} ({blue_rates[top_blue]:.4f}) "
              f"leads {runner_up} ({blue_rates[runner_up]:.4f}) by {lead:+.4f}")
        assert top_blue == "blue.isolate", blue_rates

        red_rates = {}
        for red in reds:
            rates = [c.win_rate for c in averaged
                     if c.red == red.policy_id and c.blue != "blue.isolate"]
            red_rates[red.policy_id] = float(np.mean(rates))
        hardest_red = min(sorted(red_rates), key=lambda r: red_rates[r])
        next_red = min((r for r in sorted(red_rates) if r != hardest_red),
                       key=lambda r: red_rates[r])
        gap = red_rates[next_red] - red_rates[hardest_red]
        print(f"criterion 11 margin: {hardest_red} ({red_rates[hardest_red]:.4f}) "
              f"holds blue below {next_red} ({red_rates[next_red]:.4f}) "
              f"by {gap:+.4f}")
        assert hardest_red == "red.hvt_pref_sp:alpha=0.01", red_rates
        elapsed = time.perf_counter() - start
        print(f"criterion 11 wall time: {elapsed:.1f} s")
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_12_scoring_sanity(tree30, tmp_path):
    net, cm = tree30
    entry = net.entry_node
    leaves = sorted(net.leaf_set - {entry})
    hvns = (leaves[0], leaves[1], leaves[2])

    def path_vector(target):
        path = gc.shortest_path(net, entry, target)
        x = np.zeros(net.node_count)
        x[path] = 0.5 ** np.arange(len(path), dtype=float)
        return x / x.sum()

    with criterion(12, "perfect predictions score F1=1 and zero distances; "
                       "random 3-class guessing scores 1/3 +- 0.02"):
        samples, perfect = [], {}
        for i, truth in enumerate((hvns * 4)[:12]):
            sr = {"0.5": tuple(path_vector(truth))}
            sample = ds.ToMSample(
                sample_id=f"s{i}", game_id="g00000", network="tree30",
                blue_id="blue.msn_d", red_id=f"red.r{i % 3}",
                current_episode_id=f"s{i}", t=0, truth_hvn=truth,
                truth_sr=sr, past=(), hvns=hvns,
                target_index=hvns.index(truth), entry=entry,
            )
            samples.append(sample)
            one_hot = tuple(1.0 if h == truth else 0.0 for h in hvns)
            perfect[sample.sample_id] = ek.PredictionRecord(
                sample_id=sample.sample_id, pred_hvn=one_hot, pred_sr=sr)
        manifest = ds.DatasetManifest(
            schema_version=1, master_seed=0, networks=["tree30"],
            gammas=(0.5,), n_c=3, n_p=8, n_past=4, past_k=5,
            split_ratio=0.75, games={}, samples=samples,
            split={s.sample_id: "val" for s in samples}, red_split={},
        )
        hvt = ek.score_hvt(perfect, manifest)
        assert hvt.weighted_f1 == 1.0
        sr_scores = ek.score_sr(perfect, manifest)
        assert all(row.value == 0.0 for row in sr_scores.rows)
        for stat in sr_scores.stats():
            assert stat["mean"] == 0.0 and stat["q75"] == 0.0

        rng = np.random.default_rng(112)
        base_sr = {"0.5": tuple(path_vector(hvns[0]))}
        big_samples, random_preds = [], {}
        for i in range(10_000):
            truth = hvns[i % 3]
            sample = ds.ToMSample(
                sample_id=f"r{i}", game_id="g00000", network="tree30",
                blue_id="blue.msn_d", red_id="red.r0",
                current_episode_id=f"r{i}", t=0, truth_hvn=truth,
                truth_sr=base_sr, past=(), hvns=hvns,
                target_index=hvns.index(truth), entry=entry,
            )
            big_samples.append(sample)
            probs = rng.dirichlet(np.ones(3))
            random_preds[sample.sample_id] = ek.PredictionRecord(
                sample_id=sample.sample_id, pred_hvn=tuple(probs),
                pred_sr=base_sr)
        big_manifest = ds.DatasetManifest(
            schema_version=1, master_seed=0, networks=["tree30"],
            gammas=(0.5,), n_c=3, n_p=8, n_past=4, past_k=5,
            split_ratio=0.75, games={}, samples=big_samples,
            split={s.sample_id: "val" for s in big_samples}, red_split={},
        )
        score = ek.score_hvt(random_preds, big_manifest)
        assert abs(score.weighted_f1 - 1 / 3) <= 0.02
