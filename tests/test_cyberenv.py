import json
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import graph_core as gc

from _oracles import (
    active_adjacency,
    attackable_nodes_nn,
    live_degree_loop,
    move_targets_nn,
    observe_snapshot,
)


def _env(tree30):
    net, cm = tree30
    return ce.CyberEnv(net, cm=cm)


def _quiet_red():
    return ag.make_red(ag.RedPolicySpec(
        kind="random_simple", params=(1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        label="red.do_nothing"))


def _sp_red(index=0):
    return ag.make_red(ag.parse_red_id(
        f"red.hvt_pref_sp:alpha=0.01,seed=5,index={index}"))


_OBSERVERS = (ce.OBSERVER_BLUE, ce.OBSERVER_RED)
_STATE_ARRAYS = ("vulnerability", "compromised", "hidden", "isolated")


def _assert_observation_matches(got, want, where=None):
    """Every field of ``got`` equals ``want``'s: arrays by dtype and values,
    the rest (None included) by type and value."""
    for f in fields(ce.StateObservation):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray) and a.dtype == b.dtype \
                and np.array_equal(a, b), (where, f.name)
        else:
            assert type(a) is type(b) and a == b, (where, f.name)


class TestReset:
    def test_deterministic(self, tree30):
        env = _env(tree30)
        a = env.reset(seed=3)
        vuln_a = a.vulnerability.copy()
        hvns_a = a.hvns
        b = env.reset(seed=3)
        assert (b.vulnerability == vuln_a).all()
        assert b.hvns == hvns_a

    def test_entry_compromised_and_visible(self, tree30):
        net, _ = tree30
        state = _env(tree30).reset(seed=0)
        assert state.compromised[net.entry_node]
        assert not state.hidden[net.entry_node]
        assert state.compromised.sum() == 1

    def test_vulnerability_range(self, tree30):
        env = _env(tree30)
        for seed in range(1000):
            v = env.reset(seed).vulnerability
            assert (v >= 0.2).all() and (v <= 0.8).all()

    def test_budget_and_step_initialized(self, tree30):
        state = _env(tree30).reset(seed=1)
        assert state.zero_day_budget == 1
        assert state.step == 0
        assert not state.done

    def test_multi_entry_variant(self, tree30):
        # tournament-only config flag: several footholds on distinct branches
        net, cm = tree30
        env = ce.CyberEnv(net, cm=cm, entry_count=3)
        state = env.reset(seed=1)
        assert len(state.entries) == 3
        assert all(state.compromised[e] for e in state.entries)
        assert len({net.branch_of[e] for e in state.entries}) == 3
        assert state.is_entry.sum() == 3
        # placements still avoid every entry
        assert not set(state.hvns) & set(state.entries)


class TestBlueActions:
    def test_isolate_reconnect_round_trip(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        env.reset(seed=2)
        before = active_adjacency(env).copy()
        v = 11
        env.apply_blue(ce.BlueAction(ce.BLUE_ISOLATE, v))
        assert not active_adjacency(env)[v].any()
        env.apply_blue(ce.BlueAction(ce.BLUE_RECONNECT, v))
        assert (active_adjacency(env) == before).all()

    def test_scan_reveals_all_hidden(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=2)
        for v in (3, 7, 12):
            state.compromised[v] = True
            state.hidden[v] = True
        env.apply_blue(ce.BlueAction(ce.BLUE_SCAN))
        assert state.hidden.sum() == 0
        assert state.compromised[[3, 7, 12]].all()

    def test_make_safe_idempotent_on_clean_node(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=2)
        vuln = state.vulnerability.copy()
        env.apply_blue(ce.BlueAction(ce.BLUE_MAKE_SAFE, 4))
        assert not state.compromised[4]
        assert (state.vulnerability == vuln).all()

    def test_reduce_vulnerability_factor_and_floor(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=2)
        state.vulnerability[5] = 0.5
        env.apply_blue(ce.BlueAction(ce.BLUE_REDUCE_VULN, 5))
        assert state.vulnerability[5] == pytest.approx(0.4)
        state.vulnerability[5] = 0.05
        env.apply_blue(ce.BlueAction(ce.BLUE_REDUCE_VULN, 5))
        assert state.vulnerability[5] == 0.05

    def test_restore_resets_vulnerability(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=2)
        initial = state.initial_vulnerability[6]
        state.vulnerability[6] = 0.01
        state.compromised[6] = True
        state.hidden[6] = True
        env.apply_blue(ce.BlueAction(ce.BLUE_RESTORE, 6))
        assert not state.compromised[6] and not state.hidden[6]
        assert state.vulnerability[6] == initial

    def test_reconnect_on_connected_node_is_noop(self, tree30):
        env = _env(tree30)
        env.reset(seed=2)
        before = active_adjacency(env).copy()
        env.apply_blue(ce.BlueAction(ce.BLUE_RECONNECT, 9))
        assert (active_adjacency(env) == before).all()

    def test_invalid_node_rejected(self, tree30):
        env = _env(tree30)
        env.reset(seed=2)
        with pytest.raises(ValueError, match="valid node"):
            env.apply_blue(ce.BlueAction(ce.BLUE_MAKE_SAFE, 999))
        with pytest.raises(ValueError, match="valid node"):
            env.apply_blue(ce.BlueAction(ce.BLUE_ISOLATE, None))
        with pytest.raises(ValueError, match="unknown blue action"):
            env.apply_blue(ce.BlueAction("nuke", 1))


class TestRedActions:
    def test_zero_day_guaranteed_and_budget_spent(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        neighbor = net.neighbors[net.entry_node][0]
        assert state.zero_day_budget == 1
        hits = env.apply_red(ce.RedAction(ce.RED_ZERO_DAY, neighbor))
        assert hits == (neighbor,)
        assert state.compromised[neighbor] and state.hidden[neighbor]
        assert state.zero_day_budget == 0

    def test_zero_day_without_budget_is_noop(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        state.zero_day_budget = 0
        neighbor = net.neighbors[net.entry_node][0]
        assert env.apply_red(ce.RedAction(ce.RED_ZERO_DAY, neighbor)) == ()
        assert not state.compromised[neighbor]

    def test_basic_attack_certain_at_full_vulnerability(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        neighbor = net.neighbors[net.entry_node][0]
        state.vulnerability[neighbor] = 1.0
        hits = env.apply_red(ce.RedAction(ce.RED_BASIC_ATTACK, neighbor))
        assert hits == (neighbor,)

    def test_basic_attack_success_rate(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        neighbor = net.neighbors[net.entry_node][0]
        successes = 0
        trials = 10_000
        state = env.reset(seed=3)
        for _ in range(trials):
            state.compromised[neighbor] = False
            state.vulnerability[neighbor] = 0.5
            successes += bool(
                env.apply_red(ce.RedAction(ce.RED_BASIC_ATTACK, neighbor))
            )
        assert abs(successes / trials - 0.5) <= 0.02

    def test_attack_requires_live_adjacent_foothold(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        far = max(
            net.leaf_set,
            key=lambda v: env.cm.dist[net.entry_node, v],
        )
        state.vulnerability[far] = 1.0
        assert env.apply_red(ce.RedAction(ce.RED_BASIC_ATTACK, far)) == ()

    def test_isolated_nodes_immune_even_to_intrude(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        state.vulnerability[:] = 1.0
        env.apply_blue(ce.BlueAction(ce.BLUE_ISOLATE, net.entry_node))
        # the only foothold is cut off: no mass attack reaches anything
        assert env.apply_red(ce.RedAction(ce.RED_INTRUDE)) == ()
        assert env.apply_red(ce.RedAction(ce.RED_SPREAD)) == ()
        assert state.compromised.sum() == 1

    def test_spread_hits_only_adjacent(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        state.vulnerability[:] = 1.0
        hits = env.apply_red(ce.RedAction(ce.RED_SPREAD))
        assert set(hits) == set(net.neighbors[net.entry_node])

    def test_intrude_reaches_everything_with_foothold(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        state.vulnerability[:] = 1.0
        hits = env.apply_red(ce.RedAction(ce.RED_INTRUDE))
        assert len(hits) == net.node_count - 1

    def test_entry_can_be_retaken(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        env.apply_blue(ce.BlueAction(ce.BLUE_MAKE_SAFE, net.entry_node))
        assert state.compromised.sum() == 0
        state.vulnerability[net.entry_node] = 1.0
        hits = env.apply_red(ce.RedAction(ce.RED_BASIC_ATTACK, net.entry_node))
        assert hits == (net.entry_node,)

    def test_random_move_is_bookkeeping_only(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        state = env.reset(seed=3)
        fields = ("compromised", "hidden", "isolated", "vulnerability")
        before = {name: getattr(state, name).copy() for name in fields}
        neighbor = net.neighbors[net.entry_node][0]
        assert env.apply_red(ce.RedAction(ce.RED_RANDOM_MOVE, neighbor)) == ()
        for name in fields:
            assert np.array_equal(getattr(state, name), before[name]), name


class TestStep:
    def test_zero_reward_when_nothing_held(self, tree30):
        net, _ = tree30
        env = _env(tree30)
        env.reset(seed=4)
        env.apply_blue(ce.BlueAction(ce.BLUE_MAKE_SAFE, net.entry_node))
        result = env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                          ce.RedAction(ce.RED_DO_NOTHING))
        assert result.blue_reward == 0.0

    def test_zero_sum_exact(self, tree30):
        env = _env(tree30)
        env.reset(seed=4)
        rng = np.random.default_rng(0)
        red = _sp_red()
        red.begin_episode(ce.EpisodeContext(env.net, env.cm,
                                            env.state.hvns,
                                            env.state.entries), rng)
        while not env.state.done:
            result = env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                              red.act(env.observe(ce.OBSERVER_RED), rng))
            assert result.red_reward == -result.blue_reward

    def test_red_win_on_hvn_compromise(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=4)
        hvn = state.hvns[1]
        state.compromised[hvn] = True  # simulate the capture
        result = env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                          ce.RedAction(ce.RED_DO_NOTHING))
        assert result.done
        assert state.outcome == ce.RED_WIN
        assert state.target == hvn

    def test_sleep_vs_do_nothing_runs_full_game(self, tree30):
        net, cm = tree30
        traj = ce.rollout(net, ag.make_blue("blue.sleep"), _quiet_red(),
                          seed=5, cm=cm)
        assert traj.outcome == ce.BLUE_WIN
        assert traj.final_step == 500
        # only the entry foothold is ever compromised: one unit per step
        assert traj.total_blue_reward == -500.0

    def test_step_after_done_rejected(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=4)
        state.done = True
        with pytest.raises(RuntimeError, match="finished"):
            env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                     ce.RedAction(ce.RED_DO_NOTHING))

    def test_result_unpacks_and_refuses_assignment(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=4)
        result = env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                          ce.RedAction(ce.RED_INTRUDE))
        blue_reward, red_reward, done, red_hits = result
        assert (blue_reward, red_reward, done, red_hits) == (
            result.blue_reward, result.red_reward, result.done, result.red_hits)
        assert red_hits and set(red_hits) <= set(state.compromised.nonzero()[0])
        with pytest.raises(AttributeError):
            result.blue_reward = 0.0

    def test_budget_refills_every_four_steps(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=4)
        start = state.zero_day_budget
        for k in range(8):
            env.step(ce.BlueAction(ce.BLUE_DO_NOTHING),
                     ce.RedAction(ce.RED_DO_NOTHING))
        assert state.zero_day_budget == start + 2


class TestObserve:
    def test_hidden_masked_for_blue(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=6)
        state.compromised[8] = True
        state.hidden[8] = True
        blue = env.observe(ce.OBSERVER_BLUE)
        assert not blue.compromised_visible[8]
        assert blue.zero_day_budget is None

    def test_blue_view_is_masked_full_view(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=6)
        rng = np.random.default_rng(1)
        state.compromised[rng.choice(30, 6, replace=False)] = True
        state.hidden[:] = state.compromised & (rng.random(30) < 0.5)
        state.isolated[rng.choice(30, 3, replace=False)] = True
        assert state.hidden.any() and (state.compromised & ~state.hidden).any()
        blue = env.observe(ce.OBSERVER_BLUE)
        red = env.observe(ce.OBSERVER_RED)
        for obs in (blue, red):
            assert (obs.vulnerability == state.vulnerability).all()
            assert (obs.isolated == state.isolated).all()
        assert (blue.compromised_visible == state.compromised & ~state.hidden).all()
        assert (red.compromised_visible == state.compromised).all()
        # the entry mask is built once in reset and shared read-only
        assert blue.is_entry is red.is_entry is state.is_entry
        assert not state.is_entry.flags.writeable

    def test_red_sees_own_hidden_compromises(self, tree30):
        env = _env(tree30)
        state = env.reset(seed=6)
        state.compromised[8] = True
        state.hidden[8] = True
        red = env.observe(ce.OBSERVER_RED)
        assert red.compromised_visible[8]
        assert red.zero_day_budget == state.zero_day_budget

    @pytest.mark.parametrize("observer", [ce.OBSERVER_BLUE, ce.OBSERVER_RED])
    def test_writes_to_an_observation_leave_the_state_alone(self, tree30,
                                                            observer):
        env = _env(tree30)
        state = env.reset(seed=6)
        state.compromised[[3, 8]] = True
        state.hidden[8] = True
        state.isolated[5] = True
        before = {k: v.copy() for k, v in vars(state).items()
                  if isinstance(v, np.ndarray)}
        budget = state.zero_day_budget
        expected = observe_snapshot(state, observer)
        obs = env.observe(observer)
        arrays = {k: v for k, v in vars(obs).items() if isinstance(v, np.ndarray)}
        assert len(arrays) == 4
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
            for write in (lambda: arr.__setitem__(..., arr[::-1]),
                          lambda: arr.__setitem__(0, arr[-1]),
                          lambda: arr.fill(arr[-1]),
                          lambda: np.add(arr, arr, out=arr)):
                with pytest.raises(ValueError):
                    write()
        for name, arr in before.items():
            assert (getattr(state, name) == arr).all(), name
        assert state.zero_day_budget == budget
        # The state itself stays writable: the game writes it in place.
        for name in _STATE_ARRAYS:
            assert getattr(state, name).flags.writeable, name
        _assert_observation_matches(env.observe(observer), expected)

    def test_one_observation_per_observer_and_episode(self, tree30):
        env = _env(tree30)
        env.reset(seed=6)
        first = {o: env.observe(o) for o in _OBSERVERS}
        assert first[ce.OBSERVER_BLUE] is not first[ce.OBSERVER_RED]
        for _ in range(3):
            env.step(ce.BlueAction(ce.BLUE_SCAN), ce.RedAction(ce.RED_SPREAD))
            for o in _OBSERVERS:
                assert env.observe(o) is first[o], o
        kept = {o: observe_snapshot(env.state, o) for o in _OBSERVERS}
        env.reset(seed=7)
        for v in (5, 6, 7, 8):
            env.step(ce.BlueAction(ce.BLUE_ISOLATE, v),
                     ce.RedAction(ce.RED_DO_NOTHING))
            env.step(ce.BlueAction(ce.BLUE_REDUCE_VULN, v),
                     ce.RedAction(ce.RED_DO_NOTHING))
        for o in _OBSERVERS:
            fresh = env.observe(o)
            for name in ("vulnerability", "compromised_visible", "isolated"):
                assert not np.array_equal(getattr(fresh, name),
                                          getattr(kept[o], name)), (o, name)
            assert fresh is not first[o], o
            _assert_observation_matches(fresh, observe_snapshot(env.state, o), o)
            # The last episode's observation no longer follows any state.
            _assert_observation_matches(first[o], kept[o], o)

    def test_state_arrays_are_written_in_place(self, tree30):
        """The observations are views bound at reset, so every action must
        write the state's arrays in place: after an episode that plays every
        blue and every red action kind, each is the object reset made. The
        observation re-read after every step shows the stepped state."""
        env = _env(tree30)
        state = env.reset(seed=6)
        bound = {name: getattr(state, name) for name in _STATE_ARRAYS}
        first = {o: env.observe(o) for o in _OBSERVERS}
        h0, h1, h2 = state.hvns
        net = tree30[0]
        B, R = ce.BlueAction, ce.RedAction

        def pick(mask):
            nodes = np.flatnonzero(mask)
            return int(nodes[0]) if nodes.size else 0

        def attackable():
            return ce.attackable_nodes(net.adjacency, state.compromised,
                                       state.isolated, state.is_entry)

        # The high-value nodes go offline first, so red cannot end the game.
        script = [
            lambda: (B(ce.BLUE_ISOLATE, h0), R(ce.RED_DO_NOTHING)),
            lambda: (B(ce.BLUE_ISOLATE, h1), R(ce.RED_DO_NOTHING)),
            lambda: (B(ce.BLUE_ISOLATE, h2), R(ce.RED_SPREAD)),
            lambda: (B(ce.BLUE_DO_NOTHING), R(ce.RED_INTRUDE)),
            lambda: (B(ce.BLUE_SCAN), R(ce.RED_BASIC_ATTACK, pick(attackable()))),
            lambda: (B(ce.BLUE_MAKE_SAFE, pick(state.compromised & ~state.is_entry)),
                     R(ce.RED_ZERO_DAY, pick(attackable()))),
            lambda: (B(ce.BLUE_REDUCE_VULN, pick(state.compromised)),
                     R(ce.RED_RANDOM_MOVE, pick(attackable()))),
            lambda: (B(ce.BLUE_RESTORE, pick(state.compromised & ~state.is_entry)),
                     R(ce.RED_INTRUDE)),
            lambda: (B(ce.BLUE_SCAN), R(ce.RED_SPREAD)),
            lambda: (B(ce.BLUE_RECONNECT, h2), R(ce.RED_DO_NOTHING)),
        ]
        played, changed = set(), set()
        for make in script:
            blue_action, red_action = make()
            before = {o: observe_snapshot(state, o) for o in _OBSERVERS}
            env.step(blue_action, red_action)
            played.update((blue_action.kind, red_action.kind))
            for o in _OBSERVERS:
                obs = env.observe(o)
                assert obs is first[o], o
                _assert_observation_matches(obs, observe_snapshot(state, o), o)
                changed.update((o, f.name) for f in fields(obs) if not np.array_equal(
                    getattr(obs, f.name), getattr(before[o], f.name)))
        assert played >= set(ce.BLUE_ACTION_KINDS) | set(ce.RED_ACTION_KINDS)
        # The script moves every refreshed field of both observations.
        assert changed == {(o, name) for o in _OBSERVERS for name in
                           ("vulnerability", "compromised_visible", "isolated")} \
            | {(ce.OBSERVER_RED, "zero_day_budget")}
        assert not state.done
        for name, arr in bound.items():
            assert getattr(state, name) is arr, name

    @pytest.mark.parametrize("name", ["vulnerability", "compromised", "isolated"])
    def test_rebound_state_array_raises(self, tree30, name):
        """A rebound array would leave the observations viewing the old one,
        so ``observe`` refuses to serve them, for either observer."""
        env = _env(tree30)
        state = env.reset(seed=6)
        setattr(state, name, getattr(state, name).copy())
        for o in _OBSERVERS:
            with pytest.raises(RuntimeError, match="rebound"):
                env.observe(o)
        env.reset(seed=6)
        for o in _OBSERVERS:
            env.observe(o)

    def test_unknown_observer(self, tree30):
        env = _env(tree30)
        env.reset(seed=6)
        with pytest.raises(ValueError, match="observer"):
            env.observe("purple")


class TestRollout:
    def test_deterministic_serialization(self, tree30):
        net, cm = tree30

        def run():
            return ce.trajectory_to_jsonl(ce.rollout(
                net, ag.make_blue("blue.msn_s"), _sp_red(), seed=42, cm=cm))

        assert run() == run()

    def test_isolate_beats_shortest_path_attacker(self, tree30):
        net, cm = tree30
        for seed in range(10):
            traj = ce.rollout(net, ag.make_blue("blue.isolate"), _sp_red(seed),
                              seed=700 + seed, cm=cm)
            assert traj.outcome == ce.BLUE_WIN

    def test_sleep_loses_quickly_to_shortest_path_attacker(self, tree30):
        net, cm = tree30
        for seed in range(10):
            traj = ce.rollout(net, ag.make_blue("blue.sleep"), _sp_red(seed),
                              seed=800 + seed, cm=cm)
            assert traj.outcome == ce.RED_WIN
            dist = cm.dist[net.entry_node, traj.target_node]
            assert traj.final_step <= dist * 25

    def test_records_full_observability_and_terminal_state(self, tree30):
        net, cm = tree30
        traj = ce.rollout(net, ag.make_blue("blue.sleep"), _sp_red(), seed=9,
                          cm=cm)
        shape = (traj.final_step + 1, net.node_count)
        assert len(traj.steps) == shape[0]
        assert (traj.vulnerability.dtype, traj.vulnerability.shape) == (np.float64, shape)
        assert (traj.flags.dtype, traj.flags.shape) == (np.uint8, shape)
        # the first row is the state reset leaves: only the entry held, visibly
        start = _env(tree30).reset(seed=9)
        assert np.array_equal(traj.vulnerability[0], start.vulnerability)
        assert np.array_equal(traj.flags[0], start.is_entry * ce.FLAG_VISIBLE)
        last = traj.steps[-1]
        assert last.blue_action is None and last.red_action is None
        assert traj.flags[-1, traj.target_node] & (ce.FLAG_VISIBLE | ce.FLAG_HIDDEN)

    def test_hits_recorded_match_compromise_diffs(self, tree30):
        net, cm = tree30
        traj = ce.rollout(net, ag.make_blue("blue.sleep"), _sp_red(), seed=10,
                          cm=cm)
        compromised = (traj.flags & (ce.FLAG_VISIBLE | ce.FLAG_HIDDEN)) != 0
        for step, comp_prev, comp_next in zip(traj.steps, compromised,
                                              compromised[1:]):
            newly = set(np.flatnonzero(comp_next & ~comp_prev))
            # sleep blue never cleans, so diffs are exactly red's hits
            assert newly == set(step.red_hits)

    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    def test_unrecorded_rollout_plays_the_same_game(self, network):
        net, cm = gc.topology(network)
        for b, blue_id in enumerate(sorted(ag.BLUE_REGISTRY)):
            for r, red_kind in enumerate(sorted(ag.RED_REGISTRY)):
                red = ag.parse_red_id(f"red.{red_kind}:alpha=0.01")
                seed = 3000 + 10 * b + r
                full, lean = (
                    ce.rollout(net, ag.make_blue(f"blue.{blue_id}"),
                               ag.make_red(red), seed=seed, cm=cm, record=rec)
                    for rec in (True, False))
                key = (blue_id, red_kind)
                assert type(full.total_blue_reward) is float, key
                assert type(lean.total_blue_reward) is float, key
                assert lean.steps == [], key
                assert lean.vulnerability is None and lean.flags is None, key
                assert len(full.steps) == full.final_step + 1, key
                assert lean.total_blue_reward == full.total_blue_reward, key
                assert lean.outcome == full.outcome, key
                assert lean.final_step == full.final_step, key
                assert lean.target_node == full.target_node, key

    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    def test_round_trip_file(self, network, tmp_path):
        """Every field of the trajectory read back equals the one written:
        the two state arrays by dtype, shape and bytes, every other field
        with ``==``, over every blue (isolate, restore, hardening and scan
        change every kind of flag) against every red. Every line is written
        as ``json`` with sorted keys writes it."""
        net, cm = gc.topology(network)
        path = tmp_path / "ep.jsonl"
        arrays = {"vulnerability": np.float64, "flags": np.uint8}
        matchups = 0
        for b, blue_id in enumerate(sorted(ag.BLUE_REGISTRY)):
            for r, red_kind in enumerate(sorted(ag.RED_REGISTRY)):
                red = ag.parse_red_id(f"red.{red_kind}:alpha=0.5")
                traj = ce.rollout(net, ag.make_blue(f"blue.{blue_id}"),
                                  ag.make_red(red), seed=5000 + 10 * b + r,
                                  cm=cm, episode_id=f"ep-{b}-{r}")
                ce.write_trajectory(traj, path)
                loaded = ce.read_trajectory(path)
                key = (blue_id, red_kind)
                for line in path.read_text(encoding="utf-8").splitlines():
                    assert json.dumps(json.loads(line), sort_keys=True,
                                      separators=(",", ":")) == line, key
                shape = (traj.final_step + 1, net.node_count)
                assert loaded == traj, key
                for name, value in vars(traj).items():
                    back = getattr(loaded, name)
                    if name in arrays:
                        assert value.dtype == back.dtype == arrays[name], (key, name)
                        assert value.shape == back.shape == shape, (key, name)
                        assert back.tobytes() == value.tobytes(), (key, name)
                    else:
                        assert back == value, (key, name)
                matchups += 1
        assert matchups == 90


def _index(line: int) -> int:
    """The list index of file line ``line``; -1 is the last line."""
    return line - 1 if line > 0 else line


def _set(line: int, path: tuple, value):
    def edit(lines):
        obj = lines[_index(line)]
        for k in path[:-1]:
            obj = obj[k]
        obj[path[-1]] = value
    return edit


def _delete(line: int, key: str):
    return lambda lines: lines[_index(line)].pop(key)


def _replace(line: int, value):
    def edit(lines):
        lines[_index(line)] = value
    return edit


def _header_only(final_step: int):
    def edit(lines):
        del lines[1:]
        lines[0]["final_step"] = final_step
    return edit


_STEP_0 = "step 0 does not change nodes 0..29 in order"

# (edit of the decoded lines, line it names, message fragment); line 2 is
# step 0, which lists every node of tree30, and line -1 the terminal line.
# The episode has entries [5] and hvns [21, 7, 6]; tree30's entry
# candidates are 5, 12, ..., and its leaves include 5-8 and 12-15. tree70
# has the same first entry candidate, and 6-8 are leaves of both.
MALFORMED_TRAJECTORIES = {
    "header_missing_key": (_delete(1, "total_blue_reward"), 1,
                           "total_blue_reward: required field is missing"),
    "header_not_object": (_replace(1, [2]), 1, "not a JSON object"),
    "network_unknown": (_set(1, ("network",), "ring9"), 1, "unknown topology 'ring9'"),
    "network_wrong_case": (_set(1, ("network",), "TREE30"), 1,
                           "unknown topology 'TREE30'"),
    "network_relabelled": (_set(1, ("network",), "forest72"), 1,
                           "entries [5] are not a non-empty list of distinct nodes, "
                           "the first of forest72's entry candidates"),
    "network_relabelled_tree70": (
        lambda lines: lines[0].update(network="tree70", hvns=[6, 7, 8]), 2,
        "step 0 does not change nodes 0..69 in order"),
    "entries_not_candidates": (_set(1, ("entries",), [12]), 1,
                               "the first of tree30's entry candidates"),
    "hvn_not_leaf": (_set(1, ("hvns", 0), 0), 1, "hvns [0, 7, 6] are not three "
                     "distinct nodes among tree30's leaves other than the entries"),
    "hvn_on_entry": (_set(1, ("hvns", 0), 5), 1, "hvns [5, 7, 6] are not three "
                     "distinct nodes among tree30's leaves other than the entries"),
    "step_0_node_missing": (lambda lines: lines[1]["changed"].pop(4), 2, _STEP_0),
    "step_0_nodes_reversed": (lambda lines: lines[1]["changed"].reverse(), 2, _STEP_0),
    "hvn_negative": (_set(1, ("hvns", 0), -1), 1, "node -1 outside [0, 30)"),
    "hvns_one": (_set(1, ("hvns",), [1]), 1, "hvns [1] are not three distinct nodes"),
    "hvns_repeated": (_set(1, ("hvns",), [1, 1, 2]), 1,
                      "hvns [1, 1, 2] are not three distinct nodes"),
    "hvns_four": (_set(1, ("hvns",), [1, 2, 3, 4]), 1,
                  "hvns [1, 2, 3, 4] are not three distinct nodes"),
    "seed_string": (_set(1, ("seed",), "x"), 1, "seed: expected int, got str"),
    "seed_float": (_set(1, ("seed",), 11.0), 1, "seed: expected int, got float"),
    "winner_unknown": (_set(1, ("outcome", "winner"), "nobody"), 1,
                       "unknown winner 'nobody'"),
    "winner_null": (_set(1, ("outcome", "winner"), None), 1,
                    "outcome.winner: expected str, got null"),
    "outcome_target_outside": (_set(1, ("outcome", "target"), 30), 1,
                               "node 30 outside [0, 30)"),
    "outcome_target_string": (_set(1, ("outcome", "target"), "3"), 1,
                              "outcome.target: expected int or null, got str"),
    "reward_string": (_set(1, ("total_blue_reward",), "lots"), 1,
                      "total_blue_reward: expected float, got str"),
    "reward_bool": (_set(1, ("total_blue_reward",), True), 1,
                    "total_blue_reward: expected float, got bool"),
    "reward_huge_int": (_set(1, ("total_blue_reward",), 10**400), 1,
                        "total_blue_reward: expected float, got int"),
    "reward_nan": (_set(1, ("total_blue_reward",), float("nan")), 1,
                   "total_blue_reward nan is not a finite number"),
    "final_step_float": (_set(1, ("final_step",), 3.0), 1, "final_step: expected int, got float"),
    "final_step_negative": (_header_only(-1), 1, "final_step -1 is negative"),
    "step_missing_changed": (_delete(3, "changed"), 3, "missing key 'changed'"),
    "step_missing_t": (_delete(2, "t"), 2, "missing key 't'"),
    "step_not_object": (_replace(3, [1, 0.5, 0]), 3, "not a JSON object"),
    "step_not_json": (_replace(4, "{"), 4, "not JSON"),
    "step_t_not_index": (_set(3, ("t",), 7), 3, "t 7 is not the line's step index 1"),
    "step_t_float": (_set(3, ("t",), 1.0), 3, "t: expected int, got float"),
    "step_blue_action_null": (_set(3, ("blue_action",), None), 3,
                              "a null action before the terminal line"),
    "step_red_action_null": (_set(4, ("red_action",), None), 4,
                             "a null action before the terminal line"),
    "terminal_red_spread": (_set(-1, ("red_action",),
                                 {"kind": ce.RED_SPREAD, "target": None, "hits": []}),
                            -1, "the terminal line carries an action"),
    "terminal_blue_scan": (_set(-1, ("blue_action",),
                                {"kind": ce.BLUE_SCAN, "target": None}),
                           -1, "the terminal line carries an action"),
    "node_outside": (_set(2, ("changed", 0, 0), 30), 2, "node 30 outside [0, 30)"),
    "node_negative": (_set(2, ("changed", 0, 0), -1), 2, "node -1 outside [0, 30)"),
    "node_float": (_set(2, ("changed", 0, 0), 1.0), 2, "node 1.0 outside [0, 30)"),
    "flag_float": (_set(2, ("changed", 0, 2), 1.5), 2, "flags 1.5 is not an integer"),
    "flag_bool": (_set(2, ("changed", 0, 2), True), 2, "flags True is not an integer"),
    "flag_too_big": (_set(2, ("changed", 0, 2), 8), 2, "flags 8 is not an integer in [0, 8)"),
    "vulnerability_string": (_set(2, ("changed", 0, 1), "0.5"), 2, "is not a float"),
    "vulnerability_infinity": (_set(2, ("changed", 0, 1), float("inf")), 2,
                               "vulnerability inf is not finite"),
    "change_not_triple": (_set(2, ("changed", 0), [0, 0.5]), 2, "not enough values"),
    "action_not_object": (_set(3, ("blue_action",), 7), 3, "not subscriptable"),
    "hit_outside": (_set(3, ("red_action", "hits"), [-1]), 3, "node -1 outside [0, 30)"),
    "target_outside": (_set(3, ("blue_action", "target"), 30), 3,
                       "node 30 outside [0, 30)"),
    "unknown_kind": (_set(3, ("red_action", "kind"), "fly"), 3,
                     "unknown action kind 'fly'"),
    "episode_id_int": (_set(1, ("episode_id",), 5), 1, "episode_id: expected str, got int"),
    "network_null": (_set(1, ("network",), None), 1, "network: expected str, got null"),
    "agents_blue_list": (_set(1, ("agents", "blue"), [1]), 1,
                         "agents.blue: expected str, got list"),
    "agents_red_int": (_set(1, ("agents", "red"), 3), 1, "agents.red: expected str, got int"),
    "entries_empty": (_set(1, ("entries",), []), 1,
                      "entries [] are not a non-empty list of distinct nodes"),
    "entries_object": (_set(1, ("entries",), {}), 1,
                       "entries: expected list, got an object"),
    "entries_repeated": (_set(1, ("entries",), [0, 0]), 1,
                         "entries [0, 0] are not a non-empty list of distinct nodes"),
    "changed_object": (_set(3, ("changed",), {}), 3, "changed must be a list, got {}"),
    "changed_string": (_set(3, ("changed",), ""), 3, "changed must be a list, got ''"),
    "hits_object": (_set(3, ("red_action", "hits"), {}), 3, "hits must be a list, got {}"),
    "hits_string": (_set(3, ("red_action", "hits"), ""), 3, "hits must be a list, got ''"),
    "header_unknown_key": (_set(1, ("bogus",), 1), 1, "unknown key bogus (known: "),
    "header_agents_unknown_key": (_set(1, ("agents", "bogus"), 1), 1,
                                  "unknown key agents.bogus (known: blue, red)"),
    "step_unknown_key": (_set(3, ("bogus",), 1), 3,
                         "unknown key bogus (known: blue_action, changed, red_action, t)"),
    "action_unknown_key": (_set(3, ("red_action", "bogus"), 1), 3,
                           "unknown key red_action.bogus (known: hits, kind, target)"),
}


# Values the fuzz writes at one JSON path of a file: every JSON type, small,
# large and extreme numbers (31 is one past tree30's last node), and the
# non-finite floats that json writes.
FUZZ_VALUES = (None, True, False, "", "x", "0", 0, -1, 1, 2, 31, 10**6, 2**62, 1.5,
               1e308, -1e308, float("nan"), float("inf"), float("-inf"), [], [0],
               [[1]], [0, 0], {}, {"a": 1})


def _json_paths(obj, path=()):
    """Every path into ``obj``, the root ``()`` included."""
    yield path
    if isinstance(obj, (dict, list)):
        for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
            yield from _json_paths(value, path + (key,))


def _nan_vulnerability(traj):
    vulnerability = traj.vulnerability.copy()
    vulnerability[1, 0] = np.nan
    return replace(traj, vulnerability=vulnerability)


# (edit of a recorded tree30 trajectory, message fragment after its id)
INCONSISTENT_TRAJECTORIES = {
    "vulnerability_nan": (_nan_vulnerability, "a vulnerability is not finite"),
    "no_vulnerability": (lambda t: replace(t, vulnerability=None),
                         "no recorded state arrays"),
    "no_flags": (lambda t: replace(t, flags=None), "no recorded state arrays"),
    "arrays_cut_to_3_rows": (
        lambda t: replace(t, vulnerability=t.vulnerability[:3], flags=t.flags[:3]),
        "state arrays of shapes (3, 30) and (3, 30), expected ("),
    "flags_one_node_short": (lambda t: replace(t, flags=t.flags[:, :-1]),
                             "state arrays of shapes ("),
    "arrays_one_node_short": (
        lambda t: replace(t, vulnerability=t.vulnerability[:, :-1], flags=t.flags[:, :-1]),
        "state arrays of shapes (38, 29) and (38, 29), expected (38, 30)"),
    "network_unknown": (lambda t: replace(t, network="ring9"), "unknown topology 'ring9'"),
    "terminal_step_dropped": (
        lambda t: replace(t, steps=t.steps[:-1], vulnerability=t.vulnerability[:-1],
                          flags=t.flags[:-1]),
        "steps, expected final_step + 1"),
}


class TestTrajectoryFile:
    @pytest.fixture(scope="class")
    def traj(self, tree30):
        net, cm = tree30
        return ce.rollout(net, ag.make_blue("blue.msn_d"), _sp_red(), seed=11,
                          cm=cm)

    @pytest.fixture(scope="class")
    def lines(self, traj):
        return ce.trajectory_to_jsonl(traj).splitlines()

    def _write(self, tmp_path, lines):
        path = tmp_path / "ep.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    @pytest.mark.parametrize("case", sorted(MALFORMED_TRAJECTORIES))
    def test_malformed_names_file_and_line(self, lines, tmp_path, case):
        edit, line, fragment = MALFORMED_TRAJECTORIES[case]
        decoded = [json.loads(x) for x in lines]
        edit(decoded)
        path = self._write(tmp_path, [x if isinstance(x, str) else json.dumps(x)
                                      for x in decoded])
        with pytest.raises(ValueError) as info:
            ce.read_trajectory(path)
        message = str(info.value)
        if line < 0:
            line += len(lines) + 1
        assert message.startswith(f"{path}:{line}: "), message
        assert fragment in message and "\n" not in message

    def test_truncated_file_rejected(self, lines, tmp_path):
        path = self._write(tmp_path, lines[:-1])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: {len(lines) - 2} step lines, expected final_step + 1")):
            ce.read_trajectory(path)

    @pytest.mark.parametrize("version", [1, pytest.param(2, id="schema_2"), None, "2"])
    def test_other_schema_rejected(self, lines, tmp_path, version):
        header = json.loads(lines[0])
        header["schema_version"] = version
        path = self._write(tmp_path, [json.dumps(header)] + lines[1:])
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: unsupported trajectory schema {version!r}")):
            ce.read_trajectory(path)

    @pytest.fixture(scope="class")
    def line_paths(self, lines):
        return [list(_json_paths(json.loads(line))) for line in lines]

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=300)
    @given(data=st.data())
    def test_fuzzed_file_raises_only_value_error(self, lines, line_paths, fuzz_dir,
                                                data):
        # Half the examples edit the header, half one step line.
        k = data.draw(st.one_of(st.just(0), st.integers(1, len(lines) - 1)), label="line")
        path = data.draw(st.sampled_from(line_paths[k]), label="path")
        value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
        if path:
            obj = parent = json.loads(lines[k])
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            value = obj
        file = self._write(fuzz_dir, lines[:k] + [json.dumps(value)] + lines[k + 1:])
        try:
            ce.read_trajectory(file)
        except ValueError as exc:
            message = str(exc)
            assert message.startswith(f"{file}:") and "\n" not in message, message

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, [])
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: not JSON")):
            ce.read_trajectory(path)

    def test_unrecorded_trajectory_not_encoded(self, tree30):
        net, cm = tree30
        traj = ce.rollout(net, ag.make_blue("blue.msn_d"), _sp_red(), seed=11,
                          cm=cm, record=False)
        with pytest.raises(ValueError, match="no recorded steps"):
            ce.trajectory_to_jsonl(traj)

    @pytest.mark.parametrize("case", sorted(INCONSISTENT_TRAJECTORIES))
    def test_inconsistent_trajectory_not_encoded(self, traj, case):
        edit, fragment = INCONSISTENT_TRAJECTORIES[case]
        with pytest.raises(ValueError) as info:
            ce.trajectory_to_jsonl(edit(traj))
        message = str(info.value)
        assert message.startswith(f"episode {traj.episode_id}: "), message
        assert fragment in message and "\n" not in message

    def test_equality_compares_arrays_by_dtype_shape_and_values(self, traj, tree30):
        net, cm = tree30
        assert traj == replace(traj, vulnerability=traj.vulnerability.copy(),
                               flags=traj.flags.copy(), steps=list(traj.steps))
        changed = traj.vulnerability.copy()
        changed[-1, 0] += 0.5
        for other in (replace(traj, vulnerability=changed),
                      replace(traj, flags=traj.flags.astype(np.int64)),
                      replace(traj, flags=traj.flags[:-1]),
                      replace(traj, flags=None),
                      replace(traj, total_blue_reward=traj.total_blue_reward + 1),
                      replace(traj, steps=traj.steps[:-1])):
            assert traj != other and other != traj
        lean = ce.rollout(net, ag.make_blue("blue.msn_d"), _sp_red(), seed=11,
                          cm=cm, record=False)
        assert lean == replace(lean) and lean != traj


class TestInvariants:
    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    def test_node_attackable_matches_mask(self, network):
        """The per-node check against the mask, and every rule that reads
        the base adjacency with ``isolated`` against the same rule read from
        the live-edge matrix: the attackable mask, the random-move pool and
        the live degree."""
        net, cm = gc.topology(network)
        env = ce.CyberEnv(net, cm=cm, entry_count=2)
        rng = np.random.default_rng(5)
        n = net.node_count
        for trial in range(300):
            state = env.reset(seed=trial) if trial % 50 == 0 else env.state
            ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
            state.compromised[:] = rng.random(n) < rng.random() * 0.5
            state.isolated[:] = rng.random(n) < rng.random() * 0.3
            live_adj = active_adjacency(env)
            mask = ce.attackable_nodes(net.adjacency, state.compromised,
                                       state.isolated, state.is_entry)
            assert np.array_equal(mask, ce.attackable_nodes(
                live_adj, state.compromised, state.isolated, state.is_entry)), trial
            for v in range(n):
                assert ce.node_attackable(
                    net.neighbors, v, state.compromised, state.isolated,
                    state.is_entry) == mask[v], (trial, v)

            obs = env.observe(ce.OBSERVER_RED)
            live = obs.compromised_visible & ~obs.isolated
            assert np.array_equal(
                ag._move_targets(obs, ctx),
                np.flatnonzero((live_adj & live[None, :]).any(axis=1))), trial
            alive = np.flatnonzero(~obs.isolated)
            assert np.array_equal(ag._live_degree(obs, ctx, alive),
                                  live_adj[alive].sum(axis=1)), trial

    @pytest.mark.parametrize("network", gc.TOPOLOGIES)
    def test_row_gathers_match_oracles(self, network):
        """The attackable mask, the random-move pool and the live degree,
        each read from rows gathered by ``take``, against the n x n row
        reductions and a per-node neighbour count: on random states, with
        no live node (zero rows gathered) and with every node isolated."""
        net, cm = gc.topology(network)
        env = ce.CyberEnv(net, cm=cm, entry_count=2)
        state = env.reset(seed=1)
        ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
        n = net.node_count
        rng = np.random.default_rng(11)
        none, every = np.zeros(n, dtype=bool), np.ones(n, dtype=bool)
        cases = [(none, none), (every, none), (rng.random(n) < 0.5, every)] + [
            (rng.random(n) < rng.random() * 0.6, rng.random(n) < rng.random() * 0.4)
            for _ in range(40)]
        nodes = np.arange(n)
        for k, (compromised, isolated) in enumerate(cases):
            state.compromised[:], state.isolated[:] = compromised, isolated
            obs = env.observe(ce.OBSERVER_RED)
            assert np.array_equal(
                ce.attackable_nodes(net.adjacency, state.compromised,
                                    state.isolated, state.is_entry),
                attackable_nodes_nn(net.adjacency, compromised, isolated,
                                    state.is_entry)), k
            assert np.array_equal(ag._move_targets(obs, ctx),
                                  move_targets_nn(net.adjacency, compromised,
                                                  isolated)), k
            assert np.array_equal(ag._live_degree(obs, ctx, nodes),
                                  live_degree_loop(net.neighbors, isolated, nodes)), k
            assert ag._live_degree(obs, ctx, nodes[:0]).shape == (0,), k

    def test_fuzzed_episodes(self, tree30):
        net, cm = tree30
        blues = ["blue.sleep", "blue.random", "blue.random_smart", "blue.msn_s"]
        for k in range(40):
            blue = ag.make_blue(blues[k % len(blues)])
            red = ag.make_red(ag.RedPolicySpec(kind="random_smart", alpha=0.5))
            env = ce.CyberEnv(net, cm=cm)
            state = env.reset(seed=2000 + k)
            rng = np.random.default_rng(k)
            ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
            blue.begin_episode(ctx, rng)
            red.begin_episode(ctx, rng)
            while not state.done:
                result = env.step(blue.act(env.observe(ce.OBSERVER_BLUE), rng),
                                  red.act(env.observe(ce.OBSERVER_RED), rng))
                assert not (state.hidden & ~state.compromised).any()
                assert result.red_reward == -result.blue_reward
                assert state.step <= 500
            assert state.outcome in (ce.RED_WIN, ce.BLUE_WIN)

    @pytest.mark.parametrize("entry_count", [1, 2])
    @pytest.mark.parametrize("network", ["tree30", "forest72", "optical54"])
    def test_fast_forms_match_oracles(self, network, entry_count):
        """On every step of fuzzed episodes: each observation against one
        built from copies of the state (``observe_snapshot``), the
        attackable mask and the random-move pool, read from the live nodes'
        rows, against the n x n row reduction (``tests/_oracles.py``) for
        both observers; and the step reward against the mask sums."""
        net, cm = gc.topology(network)
        blues = sorted(ag.BLUE_REGISTRY)
        reds = ["random_smart", "target_connected", "hvt_simple", "hvt_pref"]
        # One environment for every episode: each reset binds new views.
        env = ce.CyberEnv(net, cm=cm, entry_count=entry_count)
        for k in range(12):
            blue = ag.make_blue(blues[k % len(blues)])
            red = ag.make_red(ag.RedPolicySpec(kind=reds[k % len(reds)], alpha=0.5))
            state = env.reset(seed=3000 + k)
            rng = np.random.default_rng(k)
            ctx = ce.EpisodeContext(net, cm, state.hvns, state.entries)
            blue.begin_episode(ctx, rng)
            red.begin_episode(ctx, rng)
            while True:
                # The red observer's compromised mask is the state's.
                for observer in (ce.OBSERVER_BLUE, ce.OBSERVER_RED):
                    obs = env.observe(observer)
                    _assert_observation_matches(
                        obs, observe_snapshot(state, observer),
                        (k, state.step, observer))
                    seen, isolated = obs.compromised_visible, obs.isolated
                    assert np.array_equal(
                        ag._attackable(obs, ctx),
                        attackable_nodes_nn(net.adjacency, seen, isolated,
                                            obs.is_entry))
                    assert np.array_equal(
                        ag._move_targets(obs, ctx),
                        move_targets_nn(net.adjacency, seen, isolated))
                if state.done:
                    break
                result = env.step(blue.act(env.observe(ce.OBSERVER_BLUE), rng),
                                  red.act(env.observe(ce.OBSERVER_RED), rng))
                want = -(ce.COST_COMPROMISED * float(state.compromised.sum())
                         + ce.COST_ISOLATED * float(state.isolated.sum()))
                if state.outcome == ce.RED_WIN:
                    want -= ce.RED_WIN_PENALTY
                assert result.blue_reward == want
                assert type(result.blue_reward) is float
                assert type(result.red_reward) is float
