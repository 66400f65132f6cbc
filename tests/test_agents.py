import bisect
from dataclasses import replace

import numpy as np
import pytest

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import graph_core as gc
from nettom.errors import ConfigError

from _oracles import active_adjacency, defence_probability_clip


def _ctx_and_env(tree30, seed=0):
    net, cm = tree30
    env = ce.CyberEnv(net, cm=cm)
    state = env.reset(seed)
    ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
    return env, state, ctx


class TestSpeciesSampling:
    def test_sparse_concentration_gives_near_one_hot(self):
        members = ag.sample_species(alpha=0.01, count=10_000, dim=3, seed=3)
        peaks = np.array([max(m) for m in members])
        assert (peaks > 0.95).mean() >= 0.90

    def test_members_on_simplex(self):
        for member in ag.sample_species(alpha=0.7, count=500, dim=6, seed=4):
            assert all(x >= 0 for x in member)
            assert abs(sum(member) - 1.0) <= 1e-9

    def test_deterministic(self):
        a = ag.sample_species(0.01, 50, 3, seed=9)
        b = ag.sample_species(0.01, 50, 3, seed=9)
        assert np.array_equal(a, b)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="alpha"):
            ag.sample_species(0.0, 1, 3, seed=0)
        with pytest.raises(ValueError, match="count"):
            ag.sample_species(0.5, 0, 3, seed=0)


class TestBluePolicies:
    def test_sleep_always_does_nothing(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        policy = ag.make_blue("blue.sleep")
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        for _ in range(10):
            assert policy.act(env.observe(ce.OBSERVER_BLUE), rng).kind \
                == ce.BLUE_DO_NOTHING

    def test_perimeter_cleaner_inside_reach(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        net, cm = ctx.net, ctx.cm
        hvn = ctx.hvns[0]
        two_hops = int(np.flatnonzero(cm.dist[hvn] == 2)[0])
        state.compromised[two_hops] = True
        policy = ag.make_blue("blue.msn_d")
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        # the entry foothold is also visible; take the closer threat
        state.compromised[net.entry_node] = False
        action = policy.act(env.observe(ce.OBSERVER_BLUE), rng)
        assert action == ce.BlueAction(ce.BLUE_MAKE_SAFE, two_hops)

    def test_perimeter_cleaner_scans_beyond_reach(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        cm = ctx.cm
        state.compromised[:] = False
        candidates = np.flatnonzero(cm.dist[:, list(ctx.hvns)].min(axis=1) == 4)
        state.compromised[candidates[0]] = True
        policy = ag.make_blue("blue.msn_d")
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        action = policy.act(env.observe(ce.OBSERVER_BLUE), rng)
        assert action.kind == ce.BLUE_SCAN

    def test_hidden_compromise_invisible_to_cleaner(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        state.compromised[:] = False
        hvn = ctx.hvns[0]
        neighbor = ctx.net.neighbors[hvn][0]
        state.compromised[neighbor] = True
        state.hidden[neighbor] = True
        policy = ag.make_blue("blue.msn_d")
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        assert policy.act(env.observe(ce.OBSERVER_BLUE), rng).kind == ce.BLUE_SCAN

    def test_isolate_cuts_entry_first(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        policy = ag.make_blue("blue.isolate")
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        first = policy.act(env.observe(ce.OBSERVER_BLUE), rng)
        assert first == ce.BlueAction(ce.BLUE_ISOLATE, ctx.net.entry_node)

    def test_stochastic_family_determinism_per_seed(self, tree30):
        net, cm = tree30
        red = ag.make_red(ag.parse_red_id(
            "red.hvt_pref_sp:alpha=0.01,seed=5,index=1"))
        for blue_id in ("blue.msn_s", "blue.restore", "blue.msn_rnv",
                        "blue.msn_restore", "blue.msn_rnv_restore"):
            a = ce.trajectory_to_jsonl(ce.rollout(
                net, ag.make_blue(blue_id), red, seed=77, cm=cm))
            b = ce.trajectory_to_jsonl(ce.rollout(
                net, ag.make_blue(blue_id), red, seed=77, cm=cm))
            assert a == b, blue_id


class TestRedTargetSelection:
    def test_degenerate_preference_picks_that_node(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        spec = ag.RedPolicySpec(kind="hvt_pref_sp", params=(1.0, 0.0, 0.0))
        policy = ag.make_red(spec)
        policy.begin_episode(ctx, np.random.default_rng(0))
        assert policy._target == ctx.hvns[0]

    def test_uniform_preference_prefers_nearest(self):
        # entry at one end; candidate targets at hop distances 2, 5 and 9
        net = gc.Network.from_edges([(i, i + 1) for i in range(9)], entry_node=0)
        cm = gc.all_pairs_shortest_paths(net)
        ctx = ce.EpisodeContext(net, cm, hvns=(2, 5, 9), entries=(0,))
        third = 1.0 / 3.0
        spec = ag.RedPolicySpec(kind="hvt_pref_sp",
                                params=(third, third, 1.0 - 2 * third))
        policy = ag.make_red(spec)
        policy.begin_episode(ctx, np.random.default_rng(0))
        assert policy._target == 2

    def test_most_vulnerable_target_chosen(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        net = ctx.net
        neighbors = list(net.neighbors[net.entry_node])
        pool = np.flatnonzero(ce.attackable_nodes(
            active_adjacency(env), state.compromised, state.isolated,
            state.is_entry))
        state.vulnerability[:] = 0.3
        state.vulnerability[pool[-1]] = 0.9
        state.vulnerability[pool[0]] = 0.5
        spec = ag.RedPolicySpec(kind="target_vulnerable",
                                params=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
        policy = ag.make_red(spec)
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        action = policy.act(env.observe(ce.OBSERVER_RED), rng)
        assert action == ce.RedAction(ce.RED_BASIC_ATTACK, int(pool[-1]))

    def test_degree_targeting(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        pool = np.flatnonzero(ce.attackable_nodes(
            active_adjacency(env), state.compromised, state.isolated,
            state.is_entry))
        degrees = active_adjacency(env)[pool].sum(axis=1)
        rng = np.random.default_rng(0)
        for kind, pick in (("target_connected", pool[int(np.argmax(degrees))]),
                           ("target_unconnected", pool[int(np.argmin(degrees))])):
            spec = ag.RedPolicySpec(kind=kind,
                                    params=(0.0, 1.0, 0.0, 0.0, 0.0, 0.0))
            policy = ag.make_red(spec)
            policy.begin_episode(ctx, rng)
            assert policy.act(env.observe(ce.OBSERVER_RED), rng).target == pick


class TestRedBehaviour:
    def test_shortest_path_attacker_traces_a_shortest_path(self, tree30):
        net, cm = tree30
        for index in range(5):
            red = ag.make_red(ag.parse_red_id(
                f"red.hvt_pref_sp:alpha=0.01,seed=5,index={index}"))
            traj = ce.rollout(net, ag.make_blue("blue.sleep"), red,
                              seed=50 + index, cm=cm)
            assert traj.outcome == ce.RED_WIN
            attacked = []
            for step in traj.steps:
                for v in step.red_hits:
                    if v not in attacked:
                        attacked.append(v)
            path = [net.entry_node] + attacked
            assert path[-1] == traj.target_node
            assert len(path) - 1 == cm.dist[net.entry_node, traj.target_node]
            for a, b in zip(path, path[1:]):
                assert net.adjacency[a, b]

    def test_smart_never_wastes_zero_days(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        state.zero_day_budget = 0
        spec = ag.RedPolicySpec(kind="random_smart",
                                params=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
        policy = ag.make_red(spec)
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        for _ in range(50):
            action = policy.act(env.observe(ce.OBSERVER_RED), rng)
            assert action.kind == ce.RED_BASIC_ATTACK

    def test_simple_wastes_zero_days(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        state.zero_day_budget = 0
        spec = ag.RedPolicySpec(kind="random_simple",
                                params=(0.0, 0.0, 0.0, 1.0, 0.0, 0.0))
        policy = ag.make_red(spec)
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        action = policy.act(env.observe(ce.OBSERVER_RED), rng)
        assert action.kind == ce.RED_ZERO_DAY  # and the env will no-op it

    def test_opportunist_strikes_adjacent_hvn(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        hvn = ctx.hvns[0]
        neighbor = ctx.net.neighbors[hvn][0]
        state.compromised[neighbor] = True
        spec = ag.RedPolicySpec(kind="hvt_simple",
                                params=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0))
        policy = ag.make_red(spec)
        rng = np.random.default_rng(0)
        policy.begin_episode(ctx, rng)
        action = policy.act(env.observe(ce.OBSERVER_RED), rng)
        assert action == ce.RedAction(ce.RED_ZERO_DAY, hvn)
        state.zero_day_budget = 0
        action = policy.act(env.observe(ce.OBSERVER_RED), rng)
        assert action == ce.RedAction(ce.RED_BASIC_ATTACK, hvn)

    def test_preference_attacker_deviates_sometimes(self, tree30):
        net, cm = tree30
        spec = ag.RedPolicySpec(kind="hvt_pref", params=(1.0, 0.0, 0.0))
        sp_spec = ag.RedPolicySpec(kind="hvt_pref_sp", params=(1.0, 0.0, 0.0))
        # same seeds: the non-SP variant takes at least as long on average
        durations = {"hvt_pref": [], "hvt_pref_sp": []}
        for seed in range(15):
            for label, s in (("hvt_pref", spec), ("hvt_pref_sp", sp_spec)):
                traj = ce.rollout(net, ag.make_blue("blue.sleep"),
                                  ag.make_red(s), seed=300 + seed, cm=cm)
                durations[label].append(traj.final_step)
        assert np.mean(durations["hvt_pref"]) > np.mean(durations["hvt_pref_sp"])

    def test_replans_around_isolation(self, tree30):
        net, cm = tree30
        env = ce.CyberEnv(net, cm=cm)
        state = env.reset(seed=1)
        ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
        red = ag.make_red(ag.RedPolicySpec(kind="hvt_pref_sp",
                                           params=(1.0, 0.0, 0.0)))
        rng = np.random.default_rng(0)
        red.begin_episode(ctx, rng)
        # sever the planned route mid-path; red must route around or stall
        mid = red._path[len(red._path) // 2]
        env.apply_blue(ce.BlueAction(ce.BLUE_ISOLATE, mid))
        action = red.act(env.observe(ce.OBSERVER_RED), rng)
        assert action.kind in (ce.RED_ZERO_DAY, ce.RED_BASIC_ATTACK,
                               ce.RED_DO_NOTHING)
        if action.target is not None:
            assert action.target != mid

    def test_entry_searches_after_footholds_fail(self):
        """Only a failed search from the entry is remembered: once the last
        foothold is cut off, the entry searches under the same isolated set."""
        # The plan is 0-1-2-6-5; the detour 0-3-4-7-8-5 is one hop longer.
        net = gc.Network.from_edges([(0, 1), (0, 3), (1, 2), (2, 6), (3, 4),
                                     (4, 7), (5, 6), (5, 8), (7, 8)])
        ctx = ce.EpisodeContext(net, gc.all_pairs_shortest_paths(net),
                                (5, 6, 8), (0,))
        red = ag.make_red(ag.RedPolicySpec(kind="hvt_pref_sp",
                                           params=(1.0, 0.0, 0.0)))
        red.begin_episode(ctx, np.random.default_rng(0))
        assert red._path == [0, 1, 2, 6, 5]
        n = net.node_count
        compromised, isolated = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
        compromised[2] = True
        isolated[[1, 6]] = True
        obs = ce.StateObservation(
            vulnerability=np.full(n, 0.5), compromised_visible=compromised,
            isolated=isolated,
            is_entry=np.arange(n) == 0, zero_day_budget=0)
        red._replan(obs)
        assert red._path is None  # node 2 cannot reach the target
        red._replan(obs)
        assert red._path == [0, 3, 4, 7, 8, 5]

    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    @pytest.mark.parametrize("kind", ["hvt_pref_sp", "hvt_pref"])
    def test_failed_replan_is_not_repeated(self, network, kind, monkeypatch):
        """Once the entry cannot reach the target, the attacker searches
        again only when the isolated set changes: the same actions as
        searching on every step, with fewer searches."""
        net, cm = gc.topology(network)
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return gc.shortest_path(*args, **kwargs)

        monkeypatch.setattr(ag, "shortest_path", counted)

        def play(forget):
            actions, calls[0] = [], 0
            for seed in range(6):
                red = ag.make_red(ag.RedPolicySpec(kind=kind, alpha=0.5))
                if forget:
                    replan = red._replan

                    def _replan(obs, red=red, replan=replan):
                        red._entry_cut_off = None
                        replan(obs)
                    red._replan = _replan
                for blue in ("blue.isolate", "blue.random", "blue.msn_s"):
                    traj = ce.rollout(net, ag.make_blue(blue), red, seed=seed,
                                      cm=cm)
                    actions += [(s.blue_action, s.red_action) for s in traj.steps]
            return actions, calls[0]

        actions, searches = play(forget=False)
        want_actions, want_searches = play(forget=True)
        assert actions == want_actions
        assert searches < want_searches


class TestLegality:
    STATES_PER_POLICY = 10_000

    @pytest.mark.parametrize("blue_id", sorted(ag.BLUE_REGISTRY))
    def test_blue_actions_always_legal(self, tree30, blue_id):
        net, cm = tree30
        env = ce.CyberEnv(net, cm=cm)
        rng = np.random.default_rng(99)
        policy = ag.make_blue(f"blue.{blue_id}")
        for trial in range(self.STATES_PER_POLICY):
            state = self._randomize(env, rng, net, trial)
            if trial % 50 == 0:
                ctx = ce.EpisodeContext(net, cm, state.hvns,
                                        state.entries)
                policy.begin_episode(ctx, rng)
            action = policy.act(env.observe(ce.OBSERVER_BLUE), rng)
            assert action.kind in ce.BLUE_ACTION_KINDS
            env.apply_blue(action)  # raises on anything illegal

    @pytest.mark.parametrize("red_kind", sorted(ag.RED_REGISTRY))
    def test_red_actions_always_legal(self, tree30, red_kind):
        net, cm = tree30
        env = ce.CyberEnv(net, cm=cm)
        rng = np.random.default_rng(98)
        spec = ag.RedPolicySpec(kind=red_kind, alpha=0.5)
        policy = ag.make_red(spec)
        for trial in range(self.STATES_PER_POLICY):
            state = self._randomize(env, rng, net, trial)
            if trial % 50 == 0:
                ctx = ce.EpisodeContext(net, cm, state.hvns,
                                        state.entries)
                policy.begin_episode(ctx, rng)
            action = policy.act(env.observe(ce.OBSERVER_RED), rng)
            assert action.kind in ce.RED_ACTION_KINDS
            env.apply_red(action)

    @staticmethod
    def _randomize(env, rng, net, trial):
        state = env.reset(seed=trial) if trial % 50 == 0 else env.state
        n = net.node_count
        state.compromised[:] = rng.random(n) < 0.3
        state.compromised[net.entry_node] |= rng.random() < 0.7
        state.hidden[:] = state.compromised & (rng.random(n) < 0.4)
        state.isolated[:] = rng.random(n) < 0.15
        state.zero_day_budget = int(rng.integers(0, 3))
        return state


class TestRegistry:
    def test_blue_ids_resolve(self):
        for key in ag.BLUE_REGISTRY:
            assert ag.make_blue(f"blue.{key}").policy_id == f"blue.{key}"

    def test_unknown_ids_rejected(self):
        with pytest.raises(ConfigError, match="unknown blue"):
            ag.make_blue("blue.turtle")
        with pytest.raises(ConfigError, match="unknown red"):
            ag.parse_red_id("red.turtle:alpha=0.01")

    def test_member_id_round_trip(self):
        spec = ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5,index=12")
        assert spec.params is not None
        assert len(spec.params) == 3
        assert spec.policy_id == "red.hvt_pref_sp:alpha=0.01,seed=5,index=12"
        again = ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5,index=12")
        assert again.params == spec.params

    def test_species_id_draws_fresh_members(self, tree30):
        net, cm = tree30
        spec = ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5")
        assert spec.alpha == 0.01 and spec.params is None
        policy = ag.make_red(spec)
        rng = np.random.default_rng(0)
        ctx = ce.EpisodeContext(net, cm, hvns=tuple(sorted(net.leaf_set)[1:4]),
                                entries=(net.entry_node,))
        policy.begin_episode(ctx, rng)
        first = tuple(policy._params)
        policy.begin_episode(ctx, rng)
        assert tuple(policy._params) != first

    def test_probs_grammar(self):
        spec = ag.parse_red_id("red.target_vulnerable:probs=0:1:0:0:0:0")
        assert spec.params == (0.0, 1.0, 0.0, 0.0, 0.0, 0.0)

    def test_malformed_arguments(self):
        with pytest.raises(ConfigError, match="needs alpha"):
            ag.parse_red_id("red.hvt_pref_sp")
        with pytest.raises(ConfigError, match="requires seed"):
            ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,index=3")
        with pytest.raises(ConfigError, match="malformed"):
            ag.parse_red_id("red.hvt_pref_sp:alpha")

    @pytest.mark.parametrize("red_id, message", [
        ("red.hvt_pref_sp:alpha=abc", "alpha='abc' is not a valid float"),
        ("red.hvt_pref_sp:alpha=0.01,seed=x,index=0",
         "seed='x' is not a valid int"),
        ("red.hvt_pref_sp:alpha=0.01,seed=5,index=x",
         "index='x' is not a valid int"),
        ("red.target_vulnerable:probs=a:1:0:0:0:0", "probs='a' is not a valid float"),
        ("red.hvt_pref_sp:alpha=0.01,seed=5,index=-1", "index must be >= 0"),
        ("red.hvt_pref_sp:alpha=-1", "alpha must be positive and finite"),
        ("red.hvt_pref_sp:alpha=nan", "alpha must be positive and finite"),
        ("red.hvt_pref_sp:alpha=inf", "alpha must be positive and finite"),
        ("red.hvt_pref_sp:alpha=-1,seed=5,index=0",
         "alpha must be positive and finite"),
        ("red.target_vulnerable:probs=nan:0:0:0:0:1", "non-finite"),
        ("red.target_vulnerable:probs=0.5:0:0:0:0:0", "sums to"),
        ("red.hvt_pref_sp:probs=1:0", "expected (3,)"),
        ("red.hvt_pref_sp:alpha=0.01,seed=5,index=100000",
         "index must be >= 0 and below 100000"),
        ("red.hvt_pref_sp:alpha=0.01,seed=abc", "seed='abc' is not a valid int"),
        ("red.hvt_pref_sp:probs=0.2:0.3:0.5,alpha=xyz,index=-4",
         "probs=... takes no other argument"),
        ("red.hvt_pref_sp:alpha=0.01,alpha=0.5", "alpha= is given twice"),
        ("red.hvt_pref_sp:alpha=0.01,seed=5,index=3,index=4",
         "index= is given twice"),
    ])
    def test_bad_argument_values_rejected(self, red_id, message):
        with pytest.raises(ConfigError) as info:
            ag.parse_red_id(red_id)
        assert message in str(info.value)

    @pytest.mark.parametrize("kwargs", [
        {"alpha": -1.0}, {"alpha": float("nan")}, {"alpha": float("inf")},
        {"params": (float("nan"), 0.0, 0.0, 0.0, 0.0, 1.0)},
    ])
    def test_spec_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            ag.RedPolicySpec(kind="target_vulnerable", **kwargs)

    def test_unknown_argument_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown agent argument 'bogus'"):
            ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,bogus=3")
        # seed= without index= still names the species, as documented.
        spec = ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5")
        assert spec.params is None and spec.alpha == 0.01

    def test_pinned_member_builds_one_spec(self, monkeypatch):
        name = "red.hvt_pref_sp:alpha=0.01,seed=5,index=500"
        expected = replace(ag.species_members("hvt_pref_sp", 0.01, 501, 5)[500],
                           label=name)
        built = []
        check = ag.RedPolicySpec.__post_init__
        monkeypatch.setattr(ag.RedPolicySpec, "__post_init__",
                            lambda spec: built.append(spec) or check(spec))
        assert ag.parse_red_id(name) == expected
        assert len(built) == 1

    def test_species_members_are_labelled(self):
        members = ag.species_members("hvt_pref_sp", 0.01, 3, seed=5)
        assert [m.policy_id for m in members] == [
            f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}" for i in range(3)
        ]
        # labels resolve back to the identical parameter vectors
        for member in members:
            assert ag.parse_red_id(member.policy_id).params == member.params


class TestFastPaths:
    """Per-episode precomputations checked against the per-step originals."""

    DRAWS = 200_000

    @staticmethod
    def _vectors():
        rng = np.random.default_rng(0)
        sparse = ag._dirichlet_rows(rng, 0.01, 5000, 6)
        zeros = (sparse == 0).any(axis=1)
        flat = ag._dirichlet_rows(rng, 1.0, 4, 6)
        fixed = np.array([
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            [0.5, 0.0, 0.5, 0.0, 0.0, 0.0],
            [0.1, 0.2, 0.3, 0.1, 0.2, 0.1],
        ])
        return np.vstack([sparse[zeros][:4], sparse[~zeros][:4], flat, fixed])

    def test_cdf_draw_matches_generator_choice(self, tree30):
        env, state, ctx = _ctx_and_env(tree30)
        vectors = self._vectors()
        assert (vectors[:4] == 0).any(axis=1).all()  # exact zeros covered
        per_vector = self.DRAWS // len(vectors)
        for k, vec in enumerate(vectors):
            policy = ag.make_red(ag.RedPolicySpec(
                kind="random_simple", params=tuple(float(x) for x in vec)))
            policy.begin_episode(ctx, np.random.default_rng(k))
            fast = np.random.default_rng(100 + k)
            slow = np.random.default_rng(100 + k)
            got = [bisect.bisect_right(policy._cdf, fast.random())
                   for _ in range(per_vector)]
            want = [int(slow.choice(6, p=vec)) for _ in range(per_vector)]
            assert got == want, vec
            assert fast.random() == slow.random()  # same stream position

    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    def test_nearest_threat_matches_gather(self, network):
        net, cm = gc.topology(network)
        env = ce.CyberEnv(net, cm=cm)
        rng = np.random.default_rng(7)
        policy = ag.make_blue("blue.msn_d")
        for trial in range(600):
            if trial % 50 == 0:
                state = env.reset(seed=trial)
                ctx = ce.EpisodeContext(net, cm, state.hvns,
                                        state.entries)
                policy.begin_episode(ctx, rng)
            state.compromised[:] = rng.random(net.node_count) < rng.random() * 0.3
            state.hidden[:] = state.compromised & (rng.random(net.node_count) < 0.4)
            obs = env.observe(ce.OBSERVER_BLUE)
            visible = np.flatnonzero(obs.compromised_visible)
            if visible.size == 0:
                want = None
            else:
                dists = cm.dist[np.ix_(visible, list(ctx.hvns))].min(axis=1)
                k = int(np.argmin(dists))
                want = (int(visible[k]), int(dists[k]))
            assert policy._nearest_threat(obs) == want

    def test_defence_probability_matches_clip(self):
        for dist in range(61):
            for diameter in range(61):
                got = ag._defence_probability(dist, diameter)
                assert type(got) is float
                assert got == defence_probability_clip(dist, diameter), \
                    (dist, diameter)
