import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nettom import agents as ag
from nettom import dataset as ds
from nettom import evalkit as ek
from nettom import graph_core as gc
from nettom import transport as tp
from nettom.errors import ConfigError, DataError
from test_cyberenv import FUZZ_VALUES, _json_paths


def _synthetic_manifest(samples, gammas=(0.5,)):
    return ds.DatasetManifest(
        master_seed=0, gammas=tuple(gammas), n_c=3, n_p=8, n_past=4, past_k=5,
        split_ratio=0.75, games={}, samples=samples,
        red_split={},
    )


def _sample(sample_id, truth_hvn, hvns, truth_sr, t=0):
    return ds.ToMSample(
        sample_id=sample_id, game_id="g00000", network="tree30",
        blue_id="blue.msn_d", red_id="red.x",
        t=t, truth_sr=truth_sr, past=(), hvns=hvns,
        target_index=hvns.index(truth_hvn),
    )


def _path_sr(net, cm, start, target, gamma=0.5):
    path = gc.shortest_path(net, start, target)
    x = np.zeros(net.node_count)
    x[path] = gamma ** np.arange(len(path), dtype=float)
    return x / x.sum()


def _record(sample_id, pred_hvn, pred_sr):
    return ek.PredictionRecord(sample_id=sample_id, pred_hvn=tuple(pred_hvn),
                               pred_sr=pred_sr)


@pytest.fixture(scope="module")
def small_table():
    reds = [
        ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5"),
        ag.parse_red_id("red.target_vulnerable:probs=0:1:0:0:0:0"),
    ]
    return ek.run_tournament(
        ["blue.sleep", "blue.isolate", "blue.msn_d"], reds, ["tree30"],
        episodes_per_cell=5, seed=31,
    )


class TestTournament:
    def test_isolation_wins_everything(self, small_table):
        for cell in small_table.cells:
            if cell.blue == "blue.isolate":
                assert cell.win_rate == 1.0

    def test_sleeper_loses_to_attackers(self, small_table):
        for cell in small_table.cells:
            if cell.blue == "blue.sleep":
                assert cell.win_rate == 0.0

    def test_durations_capped(self, small_table):
        for cell in small_table.cells:
            assert 1 <= cell.mean_duration <= 500

    def test_win_rate_is_a_rate(self, small_table):
        for cell in small_table.cells:
            assert 0.0 <= cell.win_rate <= 1.0
            assert cell.episodes == 5

    def test_averaged_rows(self, small_table):
        avg = small_table.averaged()
        assert all(c.network == "all" for c in avg)
        assert len(avg) == 6

    def test_empty_sets_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            ek.run_tournament([], [], ["tree30"], 1, 0)

    def test_repeated_factors_rejected(self):
        # Each repeat would replay the same seeded episodes as another cell.
        reds = [ag.parse_red_id("red.hvt_pref_sp:alpha=0.01,seed=5")]
        for blues, networks, message in (
                (["blue.msn_d"] * 2, ["tree30"], "blues: 'blue.msn_d' is repeated"),
                (["blue.msn_d"], ["tree30"] * 2, "networks: 'tree30' is repeated")):
            with pytest.raises(ConfigError, match=message):
                ek.run_tournament(blues, reds, networks, 2, 1)
        with pytest.raises(ConfigError, match="reds: .* is repeated"):
            ek.run_tournament(["blue.msn_d"], reds * 2, ["tree30"], 2, 1)

    def test_deterministic_and_parallel_equivalent(self):
        reds = [ag.parse_red_id("red.random_smart:alpha=0.01,seed=1")]
        kwargs = dict(episodes_per_cell=4, seed=99)
        a = ek.run_tournament(["blue.msn_s"], reds, ["tree30"], **kwargs)
        b = ek.run_tournament(["blue.msn_s"], reds, ["tree30"], **kwargs)
        c = ek.run_tournament(["blue.msn_s"], reds, ["tree30"], jobs=2, **kwargs)
        assert a.cells == b.cells == c.cells

    def test_report_files(self, small_table, tmp_path):
        paths = ek.write_tournament_reports(small_table, tmp_path)
        # 3 metrics x (1 network + averaged)
        assert len(paths) == 6
        text = (tmp_path / "tournament_win_rate_tree30.csv").read_text()
        assert text.startswith("blue\\red")


class TestHvtScoring:
    def test_perfect_predictions(self, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[0], leaves[1], leaves[2])
        samples, preds = [], {}
        for i, truth in enumerate(hvns):
            sr = {"0.5": tuple(_path_sr(net, cm, net.entry_node, truth))}
            s = _sample(f"s{i}", truth, hvns, sr)
            samples.append(s)
            one_hot = [1.0 if h == truth else 0.0 for h in hvns]
            preds[s.sample_id] = _record(s.sample_id, one_hot, sr)
        score = ek.score_hvt(preds, _synthetic_manifest(samples))
        assert score.weighted_f1 == 1.0
        for (t, p), c in score.confusion.items():
            assert t == p

    def test_two_class_hand_case(self):
        # truths split a/b evenly, predictions all b: the missed class
        # scores zero, the hit class 2/3, support-weighted total 1/3
        assert ek.weighted_f1(["a", "a", "b", "b"],
                              ["b", "b", "b", "b"]) == pytest.approx(1 / 3)

    def test_uniform_random_three_class(self, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[0], leaves[1], leaves[2])
        rng = np.random.default_rng(17)
        samples, preds = [], {}
        sr = {"0.5": tuple(_path_sr(net, cm, net.entry_node, hvns[0]))}
        for i in range(10_000):
            truth = hvns[i % 3]
            s = _sample(f"s{i}", truth, hvns, sr)
            samples.append(s)
            probs = rng.dirichlet(np.ones(3))
            preds[s.sample_id] = _record(s.sample_id, tuple(probs), sr)
        score = ek.score_hvt(preds, _synthetic_manifest(samples))
        assert abs(score.weighted_f1 - 1 / 3) <= 0.02

    def test_argmax_tie_breaks_to_lowest_node(self, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[2], leaves[0], leaves[1])  # deliberately unsorted
        sr = {"0.5": tuple(_path_sr(net, cm, net.entry_node, hvns[0]))}
        s = _sample("s0", hvns[0], hvns, sr)
        record = _record("s0", (0.5, 0.5, 0.0), sr)
        assert ek.predicted_hvn(s, record) == min(hvns[0], hvns[1])

    def test_missing_samples_listed(self, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[0], leaves[1], leaves[2])
        sr = {"0.5": tuple(_path_sr(net, cm, net.entry_node, hvns[0]))}
        samples = [_sample(f"s{i}", hvns[0], hvns, sr)
                   for i in range(12)]
        with pytest.raises(DataError, match="12 sample ids missing"):
            ek.score_hvt({}, _synthetic_manifest(samples))


@pytest.fixture(scope="module")
def scenario(tree30):
    net, cm = tree30
    entry = net.entry_node
    leaves = sorted(net.leaf_set - {entry})
    near = min(leaves, key=lambda l: cm.dist[entry, l])
    far = max(leaves, key=lambda l: cm.dist[entry, l])
    mid = leaves[len(leaves) // 2]
    hvns = tuple(sorted({near, far, mid}))
    truth_vec = _path_sr(net, cm, entry, near)
    samples = [_sample("s0", near, hvns, {"0.5": tuple(truth_vec)})]
    manifest = _synthetic_manifest(samples)
    return net, cm, manifest, truth_vec, near, far, hvns


class TestSrScoring:
    def test_perfect_prediction_scores_zero(self, scenario):
        net, cm, manifest, truth_vec, near, far, hvns = scenario
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0), {"0.5": tuple(truth_vec)})}
        scores = ek.score_sr(preds, manifest)
        assert all(r.value == 0.0 for r in scores.rows)

    def test_neutral_column_equals_unweighted_metric(self, scenario):
        net, cm, manifest, truth_vec, near, far, hvns = scenario
        pred_vec = _path_sr(net, cm, net.entry_node, far)
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0), {"0.5": tuple(pred_vec)})}
        scores = ek.score_sr(preds, manifest)
        neutral = [r for r in scores.rows if r.coefficient == 0.0]
        assert len(neutral) == 1
        expected = tp.ntd(pred_vec, np.asarray(truth_vec), cm)
        assert neutral[0].value == expected

    def test_error_far_from_entry_widens_weighting_gap(self, scenario):
        net, cm, manifest, truth_vec, near, far, hvns = scenario
        pred_vec = _path_sr(net, cm, net.entry_node, far)
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0), {"0.5": tuple(pred_vec)})}
        rows = {r.coefficient: r.value for r in ek.score_sr(preds, manifest).rows}
        assert abs(rows[1.0] - rows[-1.0]) > 0.0

    def test_unknown_gamma_rejected(self, scenario):
        net, cm, manifest, truth_vec, near, far, hvns = scenario
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0),
                               {"0.9": tuple(truth_vec)})}
        with pytest.raises(DataError, match="gamma"):
            ek.score_sr(preds, manifest)

    def test_stats_shape(self, scenario):
        net, cm, manifest, truth_vec, near, far, hvns = scenario
        pred_vec = _path_sr(net, cm, net.entry_node, far)
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0), {"0.5": tuple(pred_vec)})}
        stats = ek.score_sr(preds, manifest).stats()
        assert len(stats) == 3  # one per coefficient
        for st in stats:
            assert st["count"] == 1
            assert set(st) >= {"mean", "median", "q25", "q75"}


class TestSampleRemoteness:
    def test_endpoints_are_zero(self, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[0], leaves[1], leaves[2])
        sample = _sample("s0", hvns[1], hvns, {})
        r = ek._sample_remoteness(sample)
        assert r[net.entry_node] == 0
        assert r[hvns[1]] == 0
        assert (r == np.minimum(cm.dist[net.entry_node], cm.dist[hvns[1]])).all()


class TestHedging:
    def test_separated_groups_leave_fourth_bin_small(self):
        rng = np.random.default_rng(5)
        groups = []
        for axis in (0, 7, 14):
            block = np.zeros((30, 20))
            block[:, axis] = 1.0
            block += rng.normal(0, 1e-3, size=block.shape)
            groups.append(block)
        X = np.vstack(groups)
        result = ek.hedging_clusters(X, k=4, seed=3)
        sizes = sorted(result.histogram, reverse=True)
        assert sizes[:3] == [30, 30, 30] or sizes[0] + sizes[3] == 30 * 3 - sum(sizes[1:3])
        # three pure clusters; whatever remains is empty or a split group
        assert sum(result.histogram) == 90
        big = [s for s in result.histogram if s >= 30]
        assert len(big) >= 2

    def test_k_one_single_cluster(self):
        X = np.random.default_rng(0).random((10, 4))
        result = ek.hedging_clusters(X, k=1, seed=0)
        assert result.histogram == [10]

    def test_deterministic(self):
        X = np.random.default_rng(1).random((40, 6))
        a = ek.hedging_clusters(X, k=4, seed=9)
        b = ek.hedging_clusters(X, k=4, seed=9)
        assert (a.assignments == b.assignments).all()
        assert a.histogram == b.histogram

    def test_fewer_samples_than_k_rejected(self):
        with pytest.raises(ValueError, match="at least"):
            ek.hedging_clusters(np.zeros((2, 3)), k=4, seed=0)

    def test_branch_labels(self, tree30):
        net, cm = tree30
        vectors = []
        for target in sorted(net.leaf_set - {net.entry_node})[:8]:
            vectors.append(_path_sr(net, cm, net.entry_node, target))
        result = ek.hedging_clusters(np.array(vectors), k=2, seed=1,
                                     branch_of=net.branch_of)
        assert len(result.labels) == 2
        assert all(label >= -1 for label in result.labels)


class TestPredictionIO:
    def test_round_trip(self, tmp_path, tree30):
        net, cm = tree30
        vec = _path_sr(net, cm, net.entry_node,
                       sorted(net.leaf_set - {net.entry_node})[0])
        line = json.dumps({
            "sample_id": "s0",
            "pred_hvn": [0.2, 0.3, 0.5],
            "pred_sr": {"0.5": list(vec)},
        })
        path = tmp_path / "preds.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        records = ek.read_predictions(path)
        assert records["s0"].pred_hvn == (0.2, 0.3, 0.5)

    def test_rejects_unnormalized(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({
            "sample_id": "s0",
            "pred_hvn": [0.2, 0.3, 0.4],
            "pred_sr": {},
        }) + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="normalized"):
            ek.read_predictions(path)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity"])
    def test_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "preds.jsonl"
        path.write_text(
            '{"sample_id": "s0", "pred_hvn": [0.5, 0.5, 0.0], '
            f'"pred_sr": {{"0.5": [{bad}, 0.5, 0.5]}}}}\n',
            encoding="utf-8",
        )
        with pytest.raises(DataError, match=r"preds.jsonl:1: pred_sr\[0.5\] has non-finite"):
            ek.read_predictions(path)

    def test_rejects_duplicate_sample_id(self, tmp_path):
        line = json.dumps({"sample_id": "s0", "pred_hvn": [1.0, 0.0, 0.0],
                           "pred_sr": {}})
        path = tmp_path / "preds.jsonl"
        path.write_text(f"{line}\n{line}\n", encoding="utf-8")
        with pytest.raises(DataError, match="preds.jsonl:2: duplicate sample_id 's0'"):
            ek.read_predictions(path)

    @pytest.mark.parametrize("line", [
        '{"sample_id": "s0"}',
        '{"sample_id": "s0", "pred_hvn": [1, 0, 0], "pred_sr": [[1, 0]]}',
        '{"sample_id": ["s0"], "pred_hvn": [1, 0, 0], "pred_sr": {}}',
        '{"sample_id": "s0", "pred_hvn": "1", "pred_sr": {}}',
        '{"sample_id": "s0", "pred_hvn": [1, 0, 0], "pred_sr": {"0.5": "1"}}',
        '{"sample_id": "s0", "pred_hvn": [true, false, false], "pred_sr": {}}',
        '{"sample_id": "s0", "pred_hvn": [1, 0, 0], "pred_sr": {"0.5": [false, true]}}',
        '{"sample_id": "s0", "pred_hvn": {"0": 1}, "pred_sr": {}}',
        '{"sample_id": "s0", "pred_hvn": [1, "0", 0], "pred_sr": {}}',
    ], ids=["missing_keys", "pred_sr_list", "sample_id_list", "pred_hvn_string",
            "pred_sr_string", "pred_hvn_bools", "pred_sr_bools", "pred_hvn_object",
            "string_entry"])
    def test_rejects_malformed(self, tmp_path, line):
        path = tmp_path / "preds.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match="preds.jsonl:1: malformed"):
            ek.read_predictions(path)

    def test_score_report_files(self, tmp_path, tree30):
        net, cm = tree30
        leaves = sorted(net.leaf_set - {net.entry_node})
        hvns = (leaves[0], leaves[1], leaves[2])
        truth = _path_sr(net, cm, net.entry_node, hvns[0])
        samples = [_sample("s0", hvns[0], hvns, {"0.5": tuple(truth)})]
        preds = {"s0": _record("s0", (1.0, 0.0, 0.0), {"0.5": tuple(truth)})}
        manifest = _synthetic_manifest(samples)
        hvt = ek.score_hvt(preds, manifest)
        sr = ek.score_sr(preds, manifest)
        paths = ek.write_score_reports(tmp_path, hvt=hvt, sr=sr)
        names = {p.name for p in paths}
        assert names == {"hvt_score.json", "sr_scores.csv", "sr_stats.csv"}
        payload = json.loads((tmp_path / "hvt_score.json").read_text())
        assert payload["weighted_f1"] == 1.0


@pytest.fixture(scope="module")
def scored_build(tmp_path_factory):
    """A 4-sample tree30 build with discounts 0.5 and 0.95, and the lines of
    its perfect predictions."""
    out = tmp_path_factory.mktemp("scored")
    manifest = ds.build_dataset(ds.DatasetConfig(
        blues=("blue.msn_d",),
        reds=tuple(ag.parse_red_id(f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}")
                   for i in range(2)),
        networks=("tree30",), master_seed=41, n_c=2, n_p=2, n_past=2, past_k=3,
        gammas=(0.5, 0.95)), out, jobs=1)
    lines = []
    for s in manifest.samples:
        pred_hvn = [0.0, 0.0, 0.0]
        pred_hvn[s.target_index] = 1.0
        lines.append(json.dumps({"sample_id": s.sample_id, "pred_hvn": pred_hvn,
                                 "pred_sr": {k: list(v) for k, v in s.truth_sr.items()}}))
    return out / "manifest.json", lines


class TestScorePredictions:
    def _write(self, directory, lines):
        path = directory / "preds.jsonl"
        path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
        return path

    def test_perfect_predictions(self, scored_build, tmp_path):
        manifest_path, lines = scored_build
        hvt, sr, hedging, skipped = ek.score_predictions(
            self._write(tmp_path, lines), manifest_path, kmeans_k=2)
        assert hvt.weighted_f1 == 1.0
        assert len(sr.rows) == 4 * 2 * 3 and all(r.value == 0.0 for r in sr.rows)
        assert sum(hedging.histogram) == 4 and skipped is None

    def test_k_zero_runs_no_hedging_pass(self, scored_build, tmp_path):
        manifest_path, lines = scored_build
        result = ek.score_predictions(self._write(tmp_path, lines), manifest_path,
                                      kmeans_k=0)
        assert result[2:] == (None, None)

    def test_negative_k_refused_before_any_file_is_read(self, tmp_path):
        with pytest.raises(ConfigError, match="--kmeans-k: must be >= 0, got -3"):
            ek.score_predictions(tmp_path / "none.jsonl", tmp_path / "none.json",
                                 kmeans_k=-3)

    def test_manifest_rules_checked_before_predictions_are_read(self, scored_build,
                                                                tmp_path):
        manifest_path, _ = scored_build
        with pytest.raises(ConfigError, match=re.escape(
                "--gammas: 0.7 is not a discount of the manifest (0.5, 0.95)")):
            ek.score_predictions(tmp_path / "none.jsonl", manifest_path, gammas=(0.7,))

    @pytest.fixture(scope="class")
    def fuzz_dir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @settings(max_examples=300)
    @given(data=st.data())
    def test_fuzzed_prediction_raises_only_data_or_config_error(
            self, scored_build, fuzz_dir, data):
        manifest_path, lines = scored_build
        k = data.draw(st.integers(0, len(lines) - 1), label="line")
        obj = json.loads(lines[k])
        path = data.draw(st.sampled_from(list(_json_paths(obj))), label="path")
        value = data.draw(st.sampled_from(FUZZ_VALUES), label="value")
        if path:
            parent = obj
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = value
            value = obj
        preds = self._write(fuzz_dir, lines[:k] + [json.dumps(value)] + lines[k + 1:])
        try:
            ek.score_predictions(preds, manifest_path)
        except (ConfigError, DataError) as exc:
            assert "\n" not in str(exc), str(exc)
