import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import dataset as ds
from nettom import graph_core as gc
from nettom.errors import ConfigError, SampleExclusionError
from nettom.seeding import rng_for


def _fake_traj(final_step, hits_by_step, entries=(0,), outcome=ce.RED_WIN,
               episode_id="ep"):
    steps = []
    for t in range(final_step):
        hits = tuple(hits_by_step.get(t, ()))
        steps.append(ce.TrajectoryStep(
            t=t,
            blue_action=ce.BlueAction(ce.BLUE_DO_NOTHING),
            red_action=ce.RedAction(ce.RED_DO_NOTHING),
            red_hits=hits,
        ))
    steps.append(ce.TrajectoryStep(t=final_step, blue_action=None,
                                   red_action=None, red_hits=()))
    return ce.EpisodeTrajectory(
        episode_id=episode_id, network="tree30", seed=0, blue_id="blue.sleep",
        red_id="red.x", outcome=outcome, target_node=None,
        final_step=final_step, hvns=(5, 6, 7), entries=entries,
        total_blue_reward=0.0, steps=steps,
    )


def _members(count):
    return ag.species_members("hvt_pref_sp", 0.01, count, seed=5)


class TestGameSet:
    def test_thousand_attackers_one_game_each(self):
        games = ds.build_game_set(["blue.msn_d"], _members(1000), ["tree30"])
        assert len(games) == 1000

    def test_lexicographic_product(self):
        blues = ["blue.isolate", "blue.msn_d"]
        reds = _members(3)
        nets = ["tree30", "tree40", "tree50", "tree70"]
        games = ds.build_game_set(blues, reds, nets)
        assert len(games) == 24
        assert games[0].blue == "blue.isolate"
        assert games[0].network == "tree30"
        assert games[1].network == "tree40"
        assert games[4].red.policy_id == reds[1].policy_id
        assert [g.game_id for g in games] == [f"g{i:05d}" for i in range(24)]

    def test_empty_factor_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ds.build_game_set(["blue.msn_d"], [], ["tree30"])

    @pytest.mark.parametrize("blues, red_copies, networks, message", [
        (["blue.msn_d", "msn_d"], 1, ["tree30"], "blues: 'blue.msn_d' is repeated"),
        (["blue.msn_d"], 2, ["tree30"],
         "reds: 'red.hvt_pref_sp:alpha=0.01,seed=5,index=0' is repeated"),
        (["blue.msn_d"], 1, ["tree30", "tree30"], "networks: 'tree30' is repeated"),
        (["blue.msn_d", "blue.nope"], 1, ["tree30"],
         "blues[1]: unknown blue policy 'blue.nope'"),
        (["blue.msn_d"], 1, ["ring9"], "networks[0]: unknown topology 'ring9'"),
        (["blue.msn_d"], 1, ["tree30", "TREE30"], "networks[1]: unknown topology 'TREE30'"),
    ])
    def test_bad_factor_rejected(self, blues, red_copies, networks, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            ds.build_game_set(blues, _members(1) * red_copies, networks)


class TestEpisodeGeneration:
    def test_boundary_single_episode(self):
        game = ds.build_game_set(["blue.sleep"], _members(1), ["tree30"],
                                 master_seed=3)[0]
        jobs = ds._episode_jobs(game, n_c=1, n_p=0)
        assert [episode_id for episode_id, _ in jobs] == [f"{game.game_id}-c0"]


class TestSubsampling:
    def test_even_spacing_on_long_episode(self):
        assert ds.subsample_indices(100, 5) == (0, 25, 50, 75, 100)

    def test_short_episode_returns_everything(self):
        assert ds.subsample_indices(3, 5) == (0, 1, 2, 3)

    def test_k_one_takes_first(self):
        assert ds.subsample_indices(100, 1) == (0,)

    def test_rounding(self):
        assert ds.subsample_indices(10, 4) == (0, 3, 7, 10)


class TestCurrentStep:
    def test_uniform_over_first_two_steps(self):
        traj = _fake_traj(50, {0: (1,)})
        picks = [ds.pick_current_step(traj, rng_for(7, "pick", i))
                 for i in range(10_000)]
        assert abs(np.mean([p == 0 for p in picks]) - 0.5) <= 0.02
        assert set(picks) == {0, 1}

    def test_single_step_episode_pins_zero(self):
        traj = _fake_traj(1, {0: (1,)})
        for i in range(20):
            assert ds.pick_current_step(traj, rng_for(8, i)) == 0

    def test_deterministic_per_seed(self):
        traj = _fake_traj(50, {0: (1,)})
        assert (ds.pick_current_step(traj, rng_for(9, "x"))
                == ds.pick_current_step(traj, rng_for(9, "x")))


class TestSrGroundTruth:
    def test_single_hit_after_t_is_a_point_mass(self):
        traj = _fake_traj(6, {3: (4,)})
        for gamma in (0.5, 0.95, 0.999):
            sr = ds.sr_ground_truth(traj, t=2, gamma=gamma, node_count=10)
            assert sr[4] == 1.0
            assert sr.sum() == 1.0

    def test_two_consecutive_hits_split_two_to_one(self):
        traj = _fake_traj(6, {2: (3,), 3: (4,)})
        sr = ds.sr_ground_truth(traj, t=2, gamma=0.5, node_count=10)
        assert sr[3] == pytest.approx(2 / 3)
        assert sr[4] == pytest.approx(1 / 3)

    def test_entry_counts_at_step_zero_only(self):
        traj = _fake_traj(6, {1: (2,)}, entries=(0,))
        sr0 = ds.sr_ground_truth(traj, t=0, gamma=0.5, node_count=10)
        assert sr0[0] > 0
        sr1 = ds.sr_ground_truth(traj, t=1, gamma=0.5, node_count=10)
        assert sr1[0] == 0.0
        assert sr1[2] == 1.0

    def test_normalized_for_paper_discounts(self, tree30):
        net, cm = tree30
        traj = ce.rollout(net, ag.make_blue("blue.sleep"),
                          ag.make_red(_members(2)[1]), seed=6, cm=cm)
        assert traj.outcome == ce.RED_WIN
        for gamma in (0.5, 0.95, 0.999):
            sr = ds.sr_ground_truth(traj, 0, gamma, net.node_count)
            assert abs(sr.sum() - 1.0) <= 1e-9
            assert (sr >= 0).all()
            untouched = sr == 0
            assert untouched.sum() >= net.node_count - traj.final_step - 1

    def test_no_occupancy_flags_exclusion(self):
        traj = _fake_traj(6, {0: (2,)})
        with pytest.raises(SampleExclusionError):
            ds.sr_ground_truth(traj, t=1, gamma=0.5, node_count=10)

    def test_domain_checks(self):
        traj = _fake_traj(6, {0: (2,)})
        with pytest.raises(ValueError, match="outside"):
            ds.sr_ground_truth(traj, t=7, gamma=0.5, node_count=10)
        with pytest.raises(ValueError, match="gamma"):
            ds.sr_ground_truth(traj, t=0, gamma=1.0, node_count=10)


@pytest.fixture(scope="module")
def one_game(tmp_path_factory):
    """One built game (3 currents, 8 past episodes each), read back from disk."""
    config = ds.DatasetConfig(blues=("blue.msn_d",), reds=tuple(_members(1)),
                              networks=("tree30",), master_seed=11)
    out = tmp_path_factory.mktemp("one_game")
    ds.build_dataset(config, out)
    game = ds.build_game_set(config.blues, config.reds, config.networks,
                             config.master_seed)[0]

    def load(episode_id):
        return ce.read_trajectory(out / "episodes" / f"{episode_id}.jsonl")

    currents = [load(f"{game.game_id}-c{c}") for c in range(3)]
    pools = [[load(f"{game.game_id}-c{c}-p{j}") for j in range(8)]
             for c in range(3)]
    return game, currents, pools


class TestAssembly:
    @pytest.mark.parametrize("n_past", [1, 2, 3, 4])
    def test_supported_past_counts(self, one_game, n_past):
        game, currents, pools = one_game
        samples, _ = ds.assemble_samples(currents, pools, n_past, 5,
                                         (0.5,), 11, game)
        for s in samples:
            assert len(s.past) == n_past

    def test_past_sets_disjoint(self, one_game):
        game, currents, pools = one_game
        samples, _ = ds.assemble_samples(currents, pools, 4, 5, (0.5,), 11, game)
        seen = set()
        for s in samples:
            ids = {p.episode_id for p in s.past}
            assert not (ids & seen)
            seen |= ids

    def test_oversized_past_request_rejected(self, one_game):
        game, currents, pools = one_game
        with pytest.raises(ValueError, match="exceeds"):
            ds.assemble_samples(currents, pools, 9, 5, (0.5,), 11, game)

    def test_truth_is_final_capture(self, one_game):
        game, currents, pools = one_game
        samples, _ = ds.assemble_samples(currents, pools, 2, 5, (0.5,), 11, game)
        by_id = {c.episode_id: c for c in currents}
        for s in samples:
            assert s.truth_hvn == by_id[s.current_episode_id].target_node
            assert s.hvns[s.target_index] == s.truth_hvn
            assert s.t in (0, 1)


class TestConfigRanges:
    @pytest.mark.parametrize("overrides, field", [
        ({"n_c": 0}, "n_c"),
        ({"n_past": 0}, "n_past"),
        ({"n_past": 9}, "n_past"),
        ({"past_k": 0}, "past_k"),
        ({"gammas": (0.5, 1.0)}, "gammas"),
        ({"gammas": (float("nan"),)}, "gammas"),
        ({"split_ratio": 0.0}, "split_ratio"),
        ({"split_ratio": 1.0}, "split_ratio"),
        ({"reds": (ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5"),)},
         r"reds\[0\]"),
        # An id that names no kind, or another kind, would not read back.
        ({"reds": (ag.RedPolicySpec(kind="hvt_pref_sp", params=(1.0, 0.0, 0.0),
                                    label="insider"),)}, r"reds\[0\]"),
        ({"reds": (ag.RedPolicySpec(kind="hvt_pref_sp", params=(1.0, 0.0, 0.0),
                                    label="red.hvt_pref:probs=1:0:0"),)}, r"reds\[0\]"),
    ])
    def test_out_of_range_rejected(self, overrides, field):
        config = {"blues": ("blue.sleep",), "reds": tuple(_members(1)),
                  "networks": ("tree30",), "master_seed": 0}
        with pytest.raises(ConfigError, match=f"^{field}: "):
            ds.DatasetConfig(**{**config, **overrides})

    def test_smallest_sizes_accepted(self):
        ds.DatasetConfig(blues=("blue.sleep",), reds=tuple(_members(1)),
                         networks=("tree30",), master_seed=0,
                         n_c=1, n_p=1, n_past=1, past_k=1)


class TestSplit:
    def test_thousand_agents_split_750_250(self):
        labels = [f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                  for i in range(1000)]
        assignment = ds.split_by_agent(labels, 0.75, seed=2)
        counts = {"train": 0, "val": 0}
        for side in assignment.values():
            counts[side] += 1
        assert counts == {"train": 750, "val": 250}

    def test_degenerate_ratio_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            ds.split_by_agent(["a", "b"], 1.0, seed=0)
        with pytest.raises(ValueError, match="ratio"):
            ds.split_by_agent(["a", "b"], 0.0, seed=0)

    def test_deterministic(self):
        labels = [f"agent{i}" for i in range(40)]
        assert (ds.split_by_agent(labels, 0.75, seed=3)
                == ds.split_by_agent(labels, 0.75, seed=3))


class TestBuildPipeline:
    def test_end_to_end_build(self, tmp_path):
        config = ds.DatasetConfig(
            blues=("blue.msn_d",),
            reds=tuple(_members(4)),
            networks=("tree30",),
            master_seed=21,
            n_c=2, n_p=3, n_past=2, past_k=5,
            gammas=(0.5, 0.95),
        )
        manifest = ds.build_dataset(config, tmp_path / "d")
        assert len(manifest.games) == 4
        episode_files = sorted((tmp_path / "d" / "episodes").glob("*.jsonl"))
        assert len(episode_files) == 4 * 2 * (1 + 3)
        assert ds.past_pools_disjoint(manifest)
        assert len(manifest.samples) + len(manifest.excluded) == 8
        for s in manifest.samples:
            assert set(s.truth_sr) == {"0.5", "0.95"}
            assert manifest.red_split[s.red_id] in ("train", "val")
        loaded = ds.read_manifest(tmp_path / "d" / "manifest.json")
        assert loaded.samples == manifest.samples
        assert loaded.red_split == manifest.red_split

    def test_workers_return_no_trajectories(self, tmp_path, monkeypatch):
        calls = []
        real_map_jobs = ds.map_jobs

        def spy(fn, tasks, jobs):
            results = real_map_jobs(fn, tasks, jobs)
            calls.append((len(tasks), results))
            return results

        monkeypatch.setattr(ds, "map_jobs", spy)
        config = ds.DatasetConfig(
            blues=("blue.msn_d",), reds=tuple(_members(2)),
            networks=("tree30",), master_seed=22,
            n_c=1, n_p=2, n_past=1, past_k=3, gammas=(0.5,),
        )
        ds.build_dataset(config, tmp_path / "d")
        assert [n for n, _ in calls] == [2]  # one map over the two games

        def trajectories(value):
            if isinstance(value, ce.EpisodeTrajectory):
                return 1
            if isinstance(value, (list, tuple)):
                return sum(trajectories(v) for v in value)
            return 0

        assert trajectories(calls[0][1]) == 0

    def test_parallel_build_matches_serial(self, tmp_path):
        config = ds.DatasetConfig(
            blues=("blue.msn_d",),
            reds=tuple(_members(2)),
            networks=("tree30",),
            master_seed=22,
            n_c=1, n_p=2, n_past=1, past_k=3,
            gammas=(0.5,),
        )
        ds.build_dataset(config, tmp_path / "serial", jobs=1)
        ds.build_dataset(config, tmp_path / "parallel", jobs=2)
        serial = sorted((tmp_path / "serial").rglob("*.json*"))
        parallel = sorted((tmp_path / "parallel").rglob("*.json*"))
        assert [p.name for p in serial] == [p.name for p in parallel]
        for a, b in zip(serial, parallel):
            assert a.read_bytes() == b.read_bytes(), a.name


# Two pinned members of every attacker kind.
PINNED_REDS = [spec for kind in ag.RED_REGISTRY
               for spec in ag.species_members(kind, 0.01, 2, seed=5)]


@st.composite
def small_configs(draw):
    """A small valid build: 1-2 blues, 1-3 pinned reds, 1-3 shipped
    topologies, every size in 1-2, a subset of the default discounts."""
    n_p = draw(st.integers(1, 2))
    return ds.DatasetConfig(
        blues=tuple(draw(st.lists(st.sampled_from(sorted(ag.BLUE_REGISTRY)),
                                  min_size=1, max_size=2, unique=True))),
        reds=tuple(draw(st.lists(st.sampled_from(PINNED_REDS), min_size=1,
                                 max_size=3, unique_by=lambda red: red.policy_id))),
        networks=tuple(draw(st.lists(st.sampled_from(gc.TOPOLOGIES), min_size=1,
                                     max_size=3, unique=True))),
        master_seed=draw(st.integers(0, 2**31 - 1)),
        n_c=draw(st.integers(1, 2)),
        n_p=n_p,
        n_past=draw(st.integers(1, n_p)),
        past_k=draw(st.integers(1, 2)),
        gammas=tuple(draw(st.lists(st.sampled_from(ds.DEFAULT_GAMMAS), min_size=1,
                                   unique=True))),
        split_ratio=draw(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    )


class TestManifestRoundTrip:
    @settings(max_examples=30)
    @given(config=small_configs())
    # A blue named without its "blue." prefix is recorded by its policy id,
    # as its episodes record it.
    @example(config=ds.DatasetConfig(blues=("msn_d",), reds=tuple(PINNED_REDS[:1]),
                                     networks=("tree30",), master_seed=0, n_c=1,
                                     n_p=1, n_past=1, past_k=1))
    # A red named without its "red." prefix is read back by the kind it names.
    @example(config=ds.DatasetConfig(
        blues=("blue.sleep",),
        reds=(ag.parse_red_id("hvt_pref_sp:alpha=0.01,seed=5,index=0"),),
        networks=("tree30",), master_seed=0, n_c=1, n_p=1, n_past=1, past_k=1))
    def test_read_returns_what_the_build_wrote(self, config):
        with tempfile.TemporaryDirectory(prefix="nettom-roundtrip-") as out:
            built = ds.build_dataset(config, out)
            assert ds.read_manifest(Path(out) / "manifest.json") == built
            # The entry node the manifest no longer records is the one the
            # current episode entered by: its topology's.
            for s in built.samples:
                episode = ce.read_trajectory(Path(out) / "episodes" / f"{s.sample_id}.jsonl")
                assert episode.entries == (s.entry,)
                assert s.entry == gc.topology(s.network)[0].entry_node
