import json
import re
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import dataset as ds
from nettom import graph_core as gc
from nettom import sinkhorn
from nettom import transport as tp
from nettom.cli import (DATASET_KEYS, SPECIES_KEYS, TOURNAMENT_KEYS, _read_keys,
                        main)

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def runner():
    return CliRunner()


def _write_dataset_config(path, reds, seed=41, **overrides):
    config = {
        "schema_version": 1,
        "blues": ["blue.msn_d"],
        "reds": reds,
        "networks": ["tree30"],
        "seed": seed,
        "n_c": 2,
        "n_p": 2,
        "n_past": 2,
        "past_k": 3,
        "gammas": [0.5, 0.95],
    }
    config.update(overrides)
    path.write_text(json.dumps(config), encoding="utf-8")
    return config


def _perfect_predictions(manifest_path, out_path):
    manifest = ds.read_manifest(manifest_path)
    lines = []
    for s in manifest.samples:
        one_hot = [0.0, 0.0, 0.0]
        one_hot[s.target_index] = 1.0
        lines.append(json.dumps({
            "sample_id": s.sample_id,
            "pred_hvn": one_hot,
            "pred_sr": {k: list(v) for k, v in s.truth_sr.items()},
        }))
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return manifest


class _OffNetworkBlue(ag.BlueSleep):
    """Cleans a node that no shipped topology has, so every episode fails."""

    policy_id = "blue.off_network"

    def act(self, obs, rng):
        return ce.BlueAction(ce.BLUE_MAKE_SAFE, 999)


_PINNED_REDS = [f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}" for i in range(2)]


def _failing_episode_args(tmp_path, command):
    """The arguments of a ``command`` run whose first episode fails."""
    out = ["--out", str(tmp_path / "out")]
    if command == "simulate":
        return ["simulate", "--blue", "blue.off_network", "--red", _PINNED_REDS[0],
                "--network", "tree30", "--seed", "1"] + out
    cfg = tmp_path / "c.json"
    if command == "tournament":
        cfg.write_text(json.dumps({
            "schema_version": 1, "blues": ["blue.off_network"],
            "reds": _PINNED_REDS[:1], "networks": ["tree30"],
            "episodes_per_cell": 1, "seed": 13}), encoding="utf-8")
    else:
        _write_dataset_config(cfg, reds=_PINNED_REDS, blues=["blue.off_network"])
    return [command, "--config", str(cfg), "--jobs", "1"] + out


@pytest.mark.parametrize("command", ["simulate", "tournament", "dataset"])
def test_failed_episode_exits_1_with_one_line(runner, tmp_path, monkeypatch,
                                              command):
    monkeypatch.setitem(ag.BLUE_REGISTRY, "off_network", _OffNetworkBlue)
    result = runner.invoke(main, _failing_episode_args(tmp_path, command))
    assert result.exit_code == 1, result.output
    assert result.exc_info[0] is SystemExit
    lines = result.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("Error: episode "), lines
    assert lines[0].endswith("needs a valid node, got 999")


class TestNetworkCommand:
    def test_generates_expected_network(self, runner, tmp_path):
        result = runner.invoke(main, ["network", "--topology", "tree40",
                                      "--seed", "1", "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert "40 nodes" in result.output
        assert "6 branches" in result.output
        net = gc.load_network(tmp_path / "tree40.json")
        assert net.node_count == 40

    def test_repeat_is_byte_identical(self, runner, tmp_path):
        for sub in ("a", "b"):
            runner.invoke(main, ["network", "--topology", "tree30",
                                 "--seed", "5", "--out", str(tmp_path / sub)])
        assert (tmp_path / "a" / "tree30.json").read_bytes() \
            == (tmp_path / "b" / "tree30.json").read_bytes()

    def test_seed_has_no_effect(self, runner, tmp_path):
        for seed in ("0", "1"):
            result = runner.invoke(main, ["network", "--topology", "optical54",
                                          "--seed", seed, "--out", str(tmp_path / seed)])
            assert result.exit_code == 0, result.output
        assert (tmp_path / "0" / "optical54.json").read_bytes() \
            == (tmp_path / "1" / "optical54.json").read_bytes()
        assert "no effect" in runner.invoke(main, ["network", "--help"]).output

    def test_unknown_topology_exits_2_and_lists_ids(self, runner, tmp_path):
        result = runner.invoke(main, ["network", "--topology", "ring9",
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "tree30" in result.output and "tree90" in result.output

    def test_topology_id_is_exact(self, runner, tmp_path):
        result = runner.invoke(main, ["network", "--topology", "TREE30",
                                      "--out", str(tmp_path / "net")])
        assert result.exit_code == 2, result.output
        assert "Error: unknown topology 'TREE30'; expected one of tree30," in result.output
        assert not (tmp_path / "net").exists()


class TestSimulateCommand:
    def test_isolation_sweep(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--blue", "blue.isolate",
            "--red", "red.hvt_pref_sp:alpha=0.01,seed=5",
            "--network", "tree30", "--episodes", "10", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0, result.output
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["win_rate"] == 1.0
        assert len(list(tmp_path.glob("episode_*.jsonl"))) == 10

    def test_zero_episodes_is_empty_success(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--blue", "blue.sleep",
            "--red", "red.hvt_pref_sp:alpha=0.01,seed=5",
            "--network", "tree30", "--episodes", "0", "--seed", "3",
            "--out", str(tmp_path),
        ])
        assert result.exit_code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["episodes"] == 0
        assert summary["win_rate"] is None

    def test_deterministic_outputs(self, runner, tmp_path):
        args = ["simulate", "--blue", "blue.msn_s",
                "--red", "red.target_vulnerable:probs=0:1:0:0:0:0",
                "--network", "tree30", "--episodes", "2", "--seed", "9"]
        runner.invoke(main, args + ["--out", str(tmp_path / "a")])
        runner.invoke(main, args + ["--out", str(tmp_path / "b")])
        for name in ("episode_0000.jsonl", "episode_0001.jsonl", "summary.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_unknown_agent_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--blue", "blue.nope", "--red",
            "red.hvt_pref_sp:alpha=0.01,seed=1", "--network", "tree30",
            "--episodes", "1", "--seed", "1", "--out", str(tmp_path),
        ])
        assert result.exit_code == 2

    def test_topology_id_is_exact(self, runner, tmp_path):
        result = runner.invoke(main, [
            "simulate", "--blue", "blue.sleep", "--red",
            "red.hvt_pref_sp:alpha=0.01,seed=1", "--network", "TREE30",
            "--episodes", "1", "--seed", "1", "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 2, result.output
        assert "Error: unknown topology 'TREE30'" in result.output
        assert not (tmp_path / "sim").exists()

    @pytest.mark.parametrize("red_id", [
        "red.hvt_pref_sp:alpha=abc",
        "red.hvt_pref_sp:alpha=0.01,seed=5,index=-1",
        "red.hvt_pref_sp:alpha=nan",
        "red.target_vulnerable:probs=nan:0:0:0:0:1",
    ])
    def test_bad_red_id_exits_2(self, runner, tmp_path, red_id):
        result = runner.invoke(main, [
            "simulate", "--blue", "blue.sleep", "--red", red_id,
            "--network", "tree30", "--episodes", "1", "--seed", "1",
            "--out", str(tmp_path / "sim"),
        ])
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        assert not (tmp_path / "sim").exists()


class TestTournamentCommand:
    def test_small_tournament(self, runner, tmp_path):
        config = {
            "schema_version": 1,
            "blues": ["blue.isolate", "blue.sleep"],
            "reds": ["red.hvt_pref_sp:alpha=0.01,seed=5"],
            "networks": ["tree30"],
            "episodes_per_cell": 3,
            "seed": 13,
        }
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = runner.invoke(main, ["tournament", "--config", str(cfg),
                                      "--out", str(tmp_path / "rep")])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rep" / "tournament_win_rate_tree30.csv").exists()
        assert (tmp_path / "rep" / "tournament_win_rate_all.csv").exists()

    def test_schema_violation_names_field(self, runner, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"schema_version": 1, "blues": ["blue.msn_d"],
                                   "networks": ["tree30"],
                                   "reds": ["red.hvt_pref_sp:alpha=0.01,seed=1"]}),
                       encoding="utf-8")
        result = runner.invoke(main, ["tournament", "--config", str(cfg),
                                      "--out", str(tmp_path)])
        assert result.exit_code == 2
        assert "config.seed" in result.output

    @pytest.mark.parametrize("overrides, message", [
        ({"episodes_per_cell": True},
         "config.episodes_per_cell: expected int, got bool"),
        ({"entry_count": False}, "config.entry_count: expected int, got bool"),
        ({"blues": [3]}, "config.blues[0]: expected str, got int"),
        ({"networks": ["tree30", 3]}, "config.networks[1]: expected str, got int"),
        ({"reds": {"kind": "hvt_pref_sp", "count": True, "seed": 5}},
         "config.reds.count: expected int, got bool"),
        ({"reds": {"kind": "hvt_pref_sp", "alpha": "abc", "count": 2, "seed": 5}},
         "config.reds.alpha: expected float, got str"),
        ({"reds": {"kind": "hvt_pref_sp", "alpha": -1, "count": 2, "seed": 5}},
         "config.reds: alpha must be positive"),
        ({"reds": ["red.hvt_pref_sp:alpha=0.01,seed=x,index=0"]},
         "config.reds[0]: 'red.hvt_pref_sp:alpha=0.01,seed=x,index=0': "
         "seed='x' is not a valid int"),
        ({"reds": ["red.hvt_pref_sp:alpha=inf"]},
         "config.reds[0]: alpha must be positive and finite"),
        ({"entry_count": 0}, "config.entry_count: count must be >= 1"),
        ({"entry_count": 9}, "config.entry_count: cannot pick 9 entry nodes on tree30"),
        ({"schema_version": 2}, "config.schema_version: must be 1, got 2"),
        ({"reds": {"kind": "hvt_pref_sp", "seed": 5}},
         "config.reds.count: required field is missing"),
        ({"blues": ["blue.nope"]}, "config.blues[0]: unknown blue policy 'blue.nope'"),
        ({"networks": ["ring9"]}, "config.networks[0]: unknown topology 'ring9'"),
        ({"blues": []}, "config.blues: must be non-empty"),
        ({"blues": ["blue.msn_d", "blue.msn_d"]}, "config.blues: 'blue.msn_d' is repeated"),
        ({"reds": ["red.hvt_pref_sp:alpha=0.01,seed=1"] * 2},
         "config.reds: 'red.hvt_pref_sp:alpha=0.01,seed=1' is repeated"),
        ({"networks": ["tree30", "tree30"]}, "config.networks: 'tree30' is repeated"),
        ({"networks": ["TREE30"]}, "config.networks[0]: unknown topology 'TREE30'"),
    ])
    def test_config_type_errors_exit_2(self, runner, tmp_path, overrides, message):
        config = {"schema_version": 1, "blues": ["blue.msn_d"],
                  "reds": ["red.hvt_pref_sp:alpha=0.01,seed=1"],
                  "networks": ["tree30"], "episodes_per_cell": 1, "seed": 3}
        config.update(overrides)
        cfg = tmp_path / "t.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        result = runner.invoke(main, ["tournament", "--config", str(cfg),
                                      "--out", str(tmp_path / "rep")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        *_, error = result.output.strip().splitlines()
        assert error.startswith("Error: ") and message in error, result.output
        assert not (tmp_path / "rep").exists()


class TestDatasetCommand:
    def test_build_and_report(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)])
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output
        assert "past_pools_disjoint=True" in result.output
        assert (tmp_path / "data" / "manifest.json").exists()

    def test_species_reds_rejected_for_datasets(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(cfg, reds=["red.hvt_pref_sp:alpha=0.01,seed=5"])
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 2
        assert "pinned members" in result.output

    def test_species_object_form(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds={"kind": "hvt_pref_sp", "alpha": 0.01, "count": 2,
                       "seed": 5})
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output

    def test_holdout_manifest(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)],
            n_c=1, holdout_reds=2)
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output
        assert "holdout: reds=2" in result.output
        test_manifest = ds.read_manifest(
            tmp_path / "data" / "test" / "manifest.json")
        main_manifest = ds.read_manifest(tmp_path / "data" / "manifest.json")
        # fresh draws: no attacker appears in both manifests
        assert not (set(test_manifest.red_split) & set(main_manifest.red_split))

    @pytest.mark.parametrize("value, message", [
        ("abc", "config.holdout_reds: expected int"),
        (-2, "config.holdout_reds: must be >= 0"),
        (100_001, "config.holdout_reds: must be >= 0 and at most 100000"),
    ])
    def test_bad_holdout_reds_exit_2(self, runner, tmp_path, value, message):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=["red.hvt_pref_sp:alpha=0.01,seed=5,index=0"],
            holdout_reds=value)
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 2
        assert message in result.output
        assert not (tmp_path / "data").exists()

    @pytest.mark.parametrize("overrides, message", [
        ({"holdout_reds": True}, "config.holdout_reds: expected int, got bool"),
        ({"n_c": False}, "config.n_c: expected int, got bool"),
        ({"split_ratio": True}, "config.split_ratio: expected float, got bool"),
        ({"gammas": ["a"]}, "config.gammas[0]: expected float, got str"),
        ({"blues": [3]}, "config.blues[0]: expected str, got int"),
        ({"networks": [3]}, "config.networks[0]: expected str, got int"),
        ({"n_c": 0}, "config.n_c: must be >= 1, got 0"),
        ({"n_past": 3}, "config.n_past: must lie in [1, n_p=2], got 3"),
        ({"past_k": 0}, "config.past_k: must be >= 1, got 0"),
        ({"gammas": [0.5, 1.5]}, "config.gammas: 1.5 must lie strictly between"),
        ({"split_ratio": 1.0}, "config.split_ratio: 1.0 must lie strictly between"),
        ({"reds": {"kind": "hvt_pref_sp", "count": 100_001, "seed": 5}},
         "config.reds: count must lie in [1, 100000], got 100001"),
        ({"holdout_reds": 1,
          "reds": ["red.hvt_pref_sp:alpha=0.01,seed=5,index=0",
                   "red.target_vulnerable:probs=0:1:0:0:0:0"]},
         "config.holdout_reds needs a single red kind"),
        ({"gammas": []}, "config.gammas: must be non-empty"),
        ({"gammas": [0.5, 0.5]}, "config.gammas: 0.5 is repeated"),
        ({"blues": ["blue.nope"]}, "config.blues[0]: unknown blue policy 'blue.nope'"),
        ({"networks": ["ring9"]}, "config.networks[0]: unknown topology 'ring9'"),
        ({"blues": []}, "config.blues: must be non-empty"),
        ({"blues": ["blue.msn_d", "blue.msn_d"]}, "config.blues: 'blue.msn_d' is repeated"),
        ({"reds": ["red.hvt_pref_sp:alpha=0.01,seed=5,index=0"] * 2},
         "config.reds: 'red.hvt_pref_sp:alpha=0.01,seed=5,index=0' is repeated"),
        ({"networks": ["tree30", "tree30"]}, "config.networks: 'tree30' is repeated"),
        ({"networks": ["TREE30"]}, "config.networks[0]: unknown topology 'TREE30'"),
    ])
    def test_config_type_errors_exit_2(self, runner, tmp_path, overrides, message):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, **{"reds": ["red.hvt_pref_sp:alpha=0.01,seed=5,index=0"],
                    **overrides})
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 2, result.output
        assert message in result.output
        *_, error = result.output.strip().splitlines()
        assert error.startswith("Error: ") and message in error, result.output
        assert not (tmp_path / "data").exists()


def _base_config(table_name):
    """The command and a valid config that reads ``table_name``'s keys;
    ``species`` is a tournament whose reds are a species object."""
    common = {"schema_version": 1, "blues": ["blue.msn_d"],
              "networks": ["tree30"], "seed": 3}
    if table_name == "dataset":
        return "dataset", {**common,
                           "reds": ["red.hvt_pref_sp:alpha=0.01,seed=5,index=0"]}
    config = {**common, "reds": ["red.hvt_pref_sp:alpha=0.01,seed=1"],
              "episodes_per_cell": 1}
    if table_name == "species":
        config["reds"] = {"kind": "hvt_pref_sp", "count": 2, "seed": 5}
    return "tournament", config


_TABLES = {"tournament": TOURNAMENT_KEYS, "dataset": DATASET_KEYS,
           "species": SPECIES_KEYS}
_WRONG = {int: 1.0, float: "0.5", str: 3, list: "x", (list, dict): 3}


def _wrong_type_cases():
    for table_name, table in _TABLES.items():
        for name, key in table.items():
            values = [True, _WRONG[key.kind]]
            if key.item is not None:
                values.append([True])
            for value in values:
                yield pytest.param(table_name, name, value,
                                   id=f"{table_name}-{name}-{json.dumps(value)}")


def _run_config(runner, tmp_path, command, config):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    return runner.invoke(main, [command, "--config", str(cfg),
                                "--out", str(tmp_path / "out")])


class TestConfigSchema:
    """Cases generated from the key tables: every key, every table."""

    @pytest.mark.parametrize("table_name, name, value", _wrong_type_cases())
    def test_wrong_type_exits_2_naming_key(self, runner, tmp_path, table_name,
                                           name, value):
        command, config = _base_config(table_name)
        species = table_name == "species"
        (config["reds"] if species else config)[name] = value
        result = _run_config(runner, tmp_path, command, config)
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        where = "config.reds" if species else "config"
        assert f"{where}.{name}" in result.output
        assert "expected" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("table_name, extra, message", [
        ("tournament", {"episode_per_cell": 1, "entry_cuont": 3},
         "unknown key config.episode_per_cell, config.entry_cuont (known: "),
        ("dataset", {"n_pats": 3}, "unknown key config.n_pats (known: "),
        ("species", {"alpah": 0.5}, "unknown key config.reds.alpah (known: "),
    ])
    def test_unknown_keys_exit_2_naming_them(self, runner, tmp_path, table_name,
                                             extra, message):
        command, config = _base_config(table_name)
        (config["reds"] if table_name == "species" else config).update(extra)
        result = _run_config(runner, tmp_path, command, config)
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        assert message in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("obj", [[], "x", 3])
    def test_non_object_exits_2(self, runner, tmp_path, obj):
        result = _run_config(runner, tmp_path, "tournament", obj)
        assert result.exit_code == 2, result.output
        assert "config: expected an object" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("heading, table", [
        ("Tournament config:", TOURNAMENT_KEYS),
        ("Dataset config", DATASET_KEYS),
    ])
    def test_readme_config_blocks_pass_the_reader(self, heading, table):
        text = README.read_text(encoding="utf-8")
        block = re.search(re.escape(heading) + r".*?```json\n(.*?)```", text,
                          re.DOTALL).group(1)
        config = _read_keys(json.loads(block), table, "config")
        assert set(config) == set(table)
        assert config["reds"] and config["networks"] and config["blues"]


def _edit_manifest(path, value):
    """An edit that sets the entry of the manifest object at path to value."""
    def edit(obj):
        target = obj
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return obj
    return edit


def _drop_hvns(obj):
    """Remove the first sample's high-value nodes."""
    del obj["samples"][0]["hvns"]
    return obj


def _repeat_sample_id(obj):
    """Give the second sample the first one's id."""
    obj["samples"][1]["sample_id"] = obj["samples"][0]["sample_id"]
    return obj


def _edit_red_split(obj):
    """Put the first attacker on neither side of the split."""
    obj["red_split"][next(iter(obj["red_split"]))] = "nope"
    return obj


def _set_other_hvn(value):
    """An edit that sets a high-value node of the first sample, other than
    its target, to ``value(sample)``."""
    def edit(obj):
        sample = obj["samples"][0]
        sample["hvns"][(sample["target_index"] + 1) % 3] = value(sample)
        return obj
    return edit


def _keep_one_past(obj):
    """Keep only the first sample's first past episode."""
    obj["samples"][0]["past"] = obj["samples"][0]["past"][:1]
    return obj


def _reuse_episode(source):
    """An edit that names, as the second sample's first past episode, the
    episode that ``source(samples)`` picks."""
    def edit(obj):
        samples = obj["samples"]
        samples[1]["past"][0]["episode_id"] = source(samples)
        return obj
    return edit


def _exclude_first_sample(obj):
    obj["excluded"] = [{"episode": obj["samples"][0]["sample_id"], "reason": "blue_win"}]
    return obj


# Every case reaches `nettom score` through a 2-game tree30 build.
MALFORMED_MANIFESTS = {
    "top_level_list": (lambda obj: [obj], "manifest must be a JSON object"),
    "sample_not_object": (_edit_manifest(("samples",), [1]), "malformed manifest"),
    "gammas_string": (_edit_manifest(("gammas",), "x"), "malformed manifest"),
    "gammas_empty": (_edit_manifest(("gammas",), []), "gammas: must be non-empty"),
    "gammas_repeated": (_edit_manifest(("gammas",), [0.5, 0.5, 0.95, 0.999]),
                        "gammas: 0.5 is repeated"),
    "gammas_bool": (_edit_manifest(("gammas", 0), True),
                    "gammas must be a list of numbers"),
    "gammas_above_one": (_edit_manifest(("gammas", 0), 1.5),
                         "gammas: 1.5 must lie strictly between 0 and 1"),
    "gammas_zero": (_edit_manifest(("gammas", 1), 0),
                    "gammas: 0.0 must lie strictly between 0 and 1"),
    "gammas_nan": (_edit_manifest(("gammas", 1), float("nan")),
                   "gammas: nan must lie strictly between 0 and 1"),
    "gammas_entry_string": (_edit_manifest(("gammas", 0), "0.5"),
                            "gammas must be a list of numbers"),
    "truth_sr_wrong_length": (_edit_manifest(("samples", 0, "truth_sr", "0.5"), [1.0]),
                              "truth_sr has shape (1,), expected (30,)"),
    # A sample's entry node is its topology's, so the manifest does not record it.
    "entry_off_network": (_edit_manifest(("samples", 0, "entry"), 999),
                          "samples[0] has unknown keys ['entry']"),
    "entry_not_topology_entry": (_edit_manifest(("samples", 0, "entry"), 0),
                                 "samples[0] has unknown keys ['entry']"),
    "hvn_off_network": (_set_other_hvn(lambda sample: 999),
                        "are not distinct leaves of tree30 other than its entry"),
    "hvn_is_entry": (_set_other_hvn(lambda sample: gc.topology("tree30")[0].entry_node),
                     "are not distinct leaves of tree30 other than its entry"),
    "t_seven": (_edit_manifest(("samples", 0, "t"), 7),
                "samples[0].t must be 0 or 1, got 7"),
    "n_c_string": (_edit_manifest(("n_c",), "x"), "n_c must be an integer, got 'x'"),
    "master_seed_list": (_edit_manifest(("master_seed",), [1]),
                         "master_seed must be an integer, got [1]"),
    "split_ratio_null": (_edit_manifest(("split_ratio",), None),
                         "split_ratio must be a number, got None"),
    "n_past_zero": (_edit_manifest(("n_past",), 0), "n_past: must lie in [1, n_p=2], got 0"),
    "past_k_negative": (_edit_manifest(("past_k",), -3), "past_k: must be >= 1, got -3"),
    "networks_not_games": (_edit_manifest(("networks",), ["ring9"]),
                           "manifest has unknown keys ['networks']"),
    "top_level_unknown_key": (_edit_manifest(("comment",), "x"),
                              "manifest has unknown keys ['comment']"),
    "sample_stale_network": (_edit_manifest(("samples", 0, "network"), "tree90"),
                             "samples[0] has unknown keys ['network']"),
    "sample_missing_hvns": (_drop_hvns, "samples[0] has missing keys ['hvns']"),
    "past_unknown_key": (_edit_manifest(("samples", 0, "past", 0, "note"), "x"),
                         "samples[0].past[0] has unknown keys ['note']"),
    "past_count_not_n_past": (_keep_one_past, "samples[0].past must list n_past=2 episodes"),
    "sample_id_int": (_edit_manifest(("samples", 0, "sample_id"), 5),
                      "samples[0].sample_id must be a string, got 5"),
    "t_string": (_edit_manifest(("samples", 0, "t"), "x"),
                 "samples[0].t must be an integer, got 'x'"),
    "schema_1": (_edit_manifest(("schema_version",), 1),
                 "unsupported manifest schema 1"),
    "schema_2": (_edit_manifest(("schema_version",), 2),
                 "unsupported manifest schema 2"),
    "schema_3": (_edit_manifest(("schema_version",), 3),
                 "unsupported manifest schema 3"),
    "split_unknown": (_edit_red_split, "must be 'train' or 'val', got 'nope'"),
    "truth_sr_entry_object": (_edit_manifest(("samples", 0, "truth_sr", "0.5", 0), {}),
                              "samples[0].truth_sr[0.5] must be a list of numbers"),
    "truth_sr_entry_bool": (_edit_manifest(("samples", 0, "truth_sr", "0.5", 0), True),
                            "samples[0].truth_sr[0.5] must be a list of numbers"),
    "truth_sr_unknown_gamma": (_edit_manifest(("samples", 0, "truth_sr", "0.7"), [1.0]),
                               "samples[0].truth_sr keys ['0.5', '0.7', '0.95'] "
                               "are not the manifest's discounts ['0.5', '0.95']"),
    "hvns_string": (_edit_manifest(("samples", 0, "hvns", 0), "a"),
                    "samples[0].hvns entry must be an integer, got 'a'"),
    "hvns_repeated": (_edit_manifest(("samples", 0, "hvns"), [1, 1, 2]),
                      "samples[0].hvns [1, 1, 2] are not distinct"),
    "target_index_9": (_edit_manifest(("samples", 0, "target_index"), 9),
                       "samples[0].target_index must be 0, 1 or 2, got 9"),
    "past_step_string": (_edit_manifest(("samples", 0, "past", 0, "steps"), ["x"]),
                         "samples[0].past[0].steps entry must be an integer"),
    "past_step_negative": (_edit_manifest(("samples", 0, "past", 0, "steps"), [-1]),
                           "samples[0].past[0].steps must be a list of non-negative"),
    # Each steps row breaks one rule only: the bound, the order, the count.
    "past_steps_beyond_max": (_edit_manifest(("samples", 0, "past", 0, "steps"), [0, 1000000]),
                              "samples[0].past[0].steps must be a list of non-negative "
                              "integers rising strictly from 0, at most past_k=3 of them "
                              "and none above 500, got [0, 1000000]"),
    "past_steps_unsorted": (_edit_manifest(("samples", 0, "past", 0, "steps"), [0, 4, 2]),
                            "samples[0].past[0].steps must be a list of non-negative "
                            "integers rising strictly from 0"),
    "past_steps_over_past_k": (_edit_manifest(("samples", 0, "past", 0, "steps"),
                                              [0, 1, 2, 3]),
                               "samples[0].past[0].steps must be a list of non-negative"),
    "past_episode_id_int": (_edit_manifest(("samples", 0, "past", 0, "episode_id"), 3),
                            "samples[0].past[0].episode_id must be a string, got 3"),
    "games_list": (_edit_manifest(("games",), [1]),
                   "games must be an object, got [1]"),
    "red_split_list": (_edit_manifest(("red_split",), []),
                       "red_split must be an object, got []"),
    "excluded_object": (_edit_manifest(("excluded",), {}),
                        "excluded must be a list, got {}"),
    "samples_object": (_edit_manifest(("samples",), {}),
                       "samples must be a list, got {}"),
    "excluded_not_objects": (_edit_manifest(("excluded",), [1, None]),
                             "excluded[0] must hold string episode and reason, got 1"),
    "excluded_is_sample": (_exclude_first_sample,
                           "excluded[0].episode 'g00000-c0' is already"),
    "past_shared": (_reuse_episode(lambda samples: samples[0]["past"][0]["episode_id"]),
                    "samples[1].past[0].episode_id 'g00000-c0-p0' is already"),
    "past_is_current": (_reuse_episode(lambda samples: samples[0]["sample_id"]),
                        "samples[1].past[0].episode_id 'g00000-c0' is already"),
    "sample_id_repeated": (_repeat_sample_id,
                           "samples[1].sample_id 'g00000-c0' is already"),
    "game_id_unknown": (_edit_manifest(("samples", 0, "game_id"), "g99999"),
                        "samples[0].game_id 'g99999' is not in games"),
    "game_entry_not_object": (_edit_manifest(("games", "g00000"), 1),
                              "games['g00000'] must hold string blue, red and network "
                              "and integer base_seed, got 1"),
    "game_red_not_string": (_edit_manifest(("games", "g00000", "red"), 5),
                            "games['g00000'] must hold string blue, red and network"),
    "game_base_seed_string": (_edit_manifest(("games", "g00000", "base_seed"), "7"),
                              "games['g00000'] must hold string blue, red and network"),
    "red_id_not_in_red_split": (_edit_manifest(("games", "g00000", "red"), "red.x"),
                                "not the games' attackers "
                                "['red.hvt_pref_sp:alpha=0.01,seed=5,index=1', 'red.x']"),
    "red_split_extra_attacker": (_edit_manifest(("red_split", "red.y"), "train"),
                                 "red_split names ['red.hvt_pref_sp:alpha=0.01,seed=5,"
                                 "index=0', 'red.hvt_pref_sp:alpha=0.01,seed=5,index=1', "
                                 "'red.y'], not the games' attackers"),
}


def _edit_prediction(edit):
    """An edit that applies an object edit to the first prediction line."""
    return lambda lines: [json.dumps(edit(json.loads(lines[0])))] + lines[1:]


def _set_prediction(path, value):
    return _edit_prediction(_edit_manifest(path, value))


def _replace_first(text):
    """An edit that replaces the first prediction line with text."""
    return lambda lines: [text] + lines[1:]


# Every case edits the perfect predictions of a 2-game tree30 build.
MALFORMED_PREDICTIONS = {
    "not_json": (_replace_first("{"), "preds.jsonl:1: malformed prediction"),
    "line_string": (_replace_first('"abc"'), "preds.jsonl:1: malformed "
                    "prediction: not a JSON object"),
    "line_list": (_replace_first("[1, 2]"), "preds.jsonl:1: malformed "
                  "prediction: not a JSON object"),
    "missing_pred_hvn": (_edit_prediction(
        lambda obj: {k: v for k, v in obj.items() if k != "pred_hvn"}),
        "missing key 'pred_hvn'"),
    "sample_id_int": (_set_prediction(("sample_id",), 5),
                      "sample_id must be a string, got int"),
    "pred_hvn_bool": (_set_prediction(("pred_hvn",), [True, False, False]),
                      "pred_hvn must be a list of numbers"),
    "pred_hvn_nan": (_set_prediction(("pred_hvn",), [float("nan"), 0.0, 1.0]),
                     "pred_hvn has non-finite entries"),
    "pred_hvn_negative": (_set_prediction(("pred_hvn",), [-0.5, 0.5, 1.0]),
                          "pred_hvn is not normalized within 1e-6"),
    "pred_hvn_unnormalised": (_set_prediction(("pred_hvn",), [0.5, 0.5, 0.5]),
                              "pred_hvn is not normalized within 1e-6"),
    "pred_hvn_wrong_length": (_set_prediction(("pred_hvn",), [0.5, 0.5]),
                              "pred_hvn has 2 entries, expected 3"),
    "pred_sr_list": (_set_prediction(("pred_sr",), [[1.0]]),
                     "pred_sr must be an object, got list"),
    "pred_sr_unknown_gamma": (_set_prediction(("pred_sr", "0.7"), [1.0] + [0.0] * 29),
                              "prediction provides gamma 0.7 absent from the manifest"),
    "pred_sr_wrong_length": (_set_prediction(("pred_sr", "0.5"), [1.0]),
                             "pred_sr has shape (1,), expected (30,)"),
    "duplicate_id": (lambda lines: lines + lines[:1], "duplicate sample_id"),
}


@pytest.fixture(scope="module")
def built_manifest(tmp_path_factory):
    """A 2-game tree30 build, shared by tests that only read its manifest."""
    tmp_path = tmp_path_factory.mktemp("built")
    cfg = tmp_path / "d.json"
    _write_dataset_config(
        cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                   for i in range(2)])
    result = CliRunner().invoke(main, ["dataset", "--config", str(cfg),
                                       "--out", str(tmp_path / "data")])
    assert result.exit_code == 0, result.output
    return tmp_path / "data" / "manifest.json"


class TestScoreCommand:
    def test_perfect_predictions_score_perfectly(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)])
        assert runner.invoke(main, ["dataset", "--config", str(cfg),
                                    "--out", str(tmp_path / "data")]).exit_code == 0
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(tmp_path / "data" / "manifest.json", preds)
        result = runner.invoke(main, [
            "score", "--predictions", str(preds),
            "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 0, result.output
        assert "weighted_f1=1.0000" in result.output
        assert (tmp_path / "rep" / "sr_stats.csv").exists()

    def test_gamma_subset_flag(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)])
        runner.invoke(main, ["dataset", "--config", str(cfg),
                             "--out", str(tmp_path / "data")])
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(tmp_path / "data" / "manifest.json", preds)
        result = runner.invoke(main, [
            "score", "--predictions", str(preds),
            "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--gammas", "0.95", "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 0, result.output
        assert "gamma=0.95" in result.output
        assert "gamma=0.5 " not in result.output

    def test_missing_sample_ids_exit_1(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)])
        runner.invoke(main, ["dataset", "--config", str(cfg),
                             "--out", str(tmp_path / "data")])
        preds = tmp_path / "empty.jsonl"
        preds.write_text("", encoding="utf-8")
        result = runner.invoke(main, [
            "score", "--predictions", str(preds),
            "--manifest", str(tmp_path / "data" / "manifest.json"),
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 1
        assert "missing from predictions" in result.output

    def _built(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)])
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output
        return tmp_path / "data" / "manifest.json"

    def _score(self, runner, tmp_path, preds, manifest_path):
        return runner.invoke(main, [
            "score", "--predictions", str(preds),
            "--manifest", str(manifest_path), "--out", str(tmp_path / "rep"),
        ])

    def test_unknown_topology_in_manifest_exit_1(self, runner, tmp_path):
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        obj = json.loads(manifest_path.read_text(encoding="utf-8"))
        for game in obj["games"].values():
            game["network"] = "ring9"
        manifest_path.write_text(json.dumps(obj), encoding="utf-8")
        result = self._score(runner, tmp_path, preds, manifest_path)
        assert result.exit_code == 1
        assert "unknown topology 'ring9'" in result.output
        assert result.exc_info[0] is SystemExit

    def test_duplicate_sample_id_exit_1(self, runner, tmp_path):
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        lines = preds.read_text(encoding="utf-8").splitlines()
        preds.write_text("\n".join(lines + lines[:1]) + "\n", encoding="utf-8")
        result = self._score(runner, tmp_path, preds, manifest_path)
        assert result.exit_code == 1
        assert f"preds.jsonl:{len(lines) + 1}: duplicate sample_id" in result.output

    def test_hedging_needs_one_topology(self, runner, tmp_path):
        cfg = tmp_path / "d.json"
        _write_dataset_config(
            cfg, reds=[f"red.hvt_pref_sp:alpha=0.01,seed=5,index={i}"
                       for i in range(2)], networks=["tree30", "tree50"])
        result = runner.invoke(main, ["dataset", "--config", str(cfg),
                                      "--out", str(tmp_path / "data")])
        assert result.exit_code == 0, result.output
        manifest_path = tmp_path / "data" / "manifest.json"
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        result = self._score(runner, tmp_path, preds, manifest_path)
        assert result.exit_code == 0, result.output
        assert result.exception is None
        assert "--kmeans-network" in result.stderr
        assert (tmp_path / "rep" / "sr_stats.csv").exists()
        assert not (tmp_path / "rep" / "hedging_histogram.csv").exists()
        result = runner.invoke(main, [
            "score", "--predictions", str(preds), "--manifest",
            str(manifest_path), "--kmeans-network", "tree30",
            "--out", str(tmp_path / "rep30"),
        ])
        assert result.exit_code == 0, result.output
        assert (tmp_path / "rep30" / "hedging_histogram.csv").exists()

    def test_wrong_length_hedging_vector_exit_1(self, runner, tmp_path):
        # Only 0.5 is scored; the hedging pass reads the largest discount.
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        lines = preds.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["pred_sr"]["0.95"] = [0.5, 0.5]
        lines[0] = json.dumps(first)
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = runner.invoke(main, [
            "score", "--predictions", str(preds), "--manifest",
            str(manifest_path), "--gammas", "0.5", "--kmeans-k", "2",
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert len(result.output.strip().splitlines()) == 1
        assert f"sample {first['sample_id']}: pred_sr[0.95] has 2 entries" \
            in result.output

    @pytest.mark.parametrize("flags", [["--kmeans-k", "0"], ["--kmeans-gamma", "0.5"]])
    def test_wrong_length_unused_vector_exit_1(self, runner, tmp_path, built_manifest,
                                               flags):
        # Neither scored nor clustered, the 0.95 vector is still checked.
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(built_manifest, preds)
        lines = preds.read_text(encoding="utf-8").splitlines()
        first = json.loads(lines[0])
        first["pred_sr"]["0.95"] = [1.0]
        preds.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n",
                         encoding="utf-8")
        result = runner.invoke(main, [
            "score", "--predictions", str(preds), "--manifest", str(built_manifest),
            "--gammas", "0.5", "--out", str(tmp_path / "rep")] + flags)
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert result.output.strip().splitlines() == [
            f"Error: sample {first['sample_id']}: pred_sr[0.95] has 1 entries: "
            "pred_sr has shape (1,), expected (30,) for tree30"]
        assert not (tmp_path / "rep").exists()

    def test_unreadable_predictions_exit_1(self, runner, tmp_path, built_manifest):
        result = self._score(runner, tmp_path, tmp_path / "none.jsonl", built_manifest)
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert result.output.startswith("Error: cannot read predictions ")
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--floor", "2"), ("--floor", "nan"), ("--floor", "-0.1"),
        ("--coefficients", "2"), ("--coefficients", "-1,0,1.5"),
        ("--coefficients", "nan"),
    ])
    def test_out_of_range_weighting_flag_exit_2(self, runner, tmp_path, flag,
                                                value):
        # Neither file exists: the flag is checked before either is read.
        result = runner.invoke(main, [
            "score", "--predictions", str(tmp_path / "none.jsonl"),
            "--manifest", str(tmp_path / "none.json"), flag, value,
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        assert f"Error: {flag} must lie in" in result.output
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("flag, value", [
        ("--coefficients", "0,0"), ("--coefficients", "-1,0,-1.0"),
        ("--gammas", "0.5,0.50"),
    ])
    def test_repeated_values_exit_2(self, runner, tmp_path, flag, value):
        # Neither file exists: the flag is checked before either is read.
        result = runner.invoke(main, [
            "score", "--predictions", str(tmp_path / "none.jsonl"),
            "--manifest", str(tmp_path / "none.json"), flag, value,
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        assert f"Error: {flag}: " in result.output
        assert "is repeated" in result.output
        assert not (tmp_path / "rep").exists()

    def test_hedging_k_above_vector_count_is_reported(self, runner, tmp_path):
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        n = len(json.loads(manifest_path.read_text(encoding="utf-8"))["samples"])
        result = runner.invoke(main, [
            "score", "--predictions", str(preds), "--manifest",
            str(manifest_path), "--kmeans-k", str(n + 1),
            "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 0, result.output
        assert (f"hedging pass skipped: {n} vectors for {n + 1} clusters"
                in result.stderr)
        assert (tmp_path / "rep" / "sr_stats.csv").exists()
        assert not (tmp_path / "rep" / "hedging_histogram.csv").exists()

    @pytest.mark.parametrize("flag, value, listed", [
        ("--kmeans-network", "tree90", "samples span tree30"),
        ("--kmeans-network", "ring9", "samples span tree30"),
        ("--kmeans-gamma", "0.7", "of the manifest (0.5, 0.95)"),
        ("--kmeans-gamma", "0.950", "of the manifest (0.5, 0.95)"),
        ("--gammas", "0.7", "0.7 is not a discount of the manifest (0.5, 0.95)"),
        ("--gammas", "0.5,0.9", "0.9 is not a discount of the manifest (0.5, 0.95)"),
        ("--kmeans-k", "-3", "must be >= 0, got -3"),
    ])
    def test_hedging_flag_matching_nothing_exit_2(self, runner, tmp_path, flag,
                                                  value, listed):
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        result = runner.invoke(main, [
            "score", "--predictions", str(preds), "--manifest",
            str(manifest_path), flag, value, "--out", str(tmp_path / "rep"),
        ])
        assert result.exit_code == 2, result.output
        assert result.exc_info[0] is SystemExit
        assert f"Error: {flag}: " in result.output
        assert listed in result.output
        assert not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("shape", list(MALFORMED_MANIFESTS))
    def test_malformed_manifest_exit_1(self, runner, tmp_path, shape):
        manifest_path = self._built(runner, tmp_path)
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(manifest_path, preds)
        edit, fragment = MALFORMED_MANIFESTS[shape]
        obj = edit(json.loads(manifest_path.read_text(encoding="utf-8")))
        manifest_path.write_text(json.dumps(obj), encoding="utf-8")
        result = self._score(runner, tmp_path, preds, manifest_path)
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert fragment in result.output
        assert len(result.output.strip().splitlines()) == 1

    @pytest.mark.parametrize("shape", list(MALFORMED_PREDICTIONS))
    def test_malformed_predictions_exit_1(self, runner, tmp_path, built_manifest,
                                          shape):
        preds = tmp_path / "preds.jsonl"
        _perfect_predictions(built_manifest, preds)
        edit, fragment = MALFORMED_PREDICTIONS[shape]
        lines = edit(preds.read_text(encoding="utf-8").splitlines())
        preds.write_text("\n".join(lines) + "\n", encoding="utf-8")
        result = self._score(runner, tmp_path, preds, built_manifest)
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert fragment in result.output
        assert len(result.output.strip().splitlines()) == 1


class TestNtdCommands:
    @pytest.fixture
    def files(self, tmp_path):
        net = gc.Network.from_edges([(0, 1), (1, 2)], entry_node=0,
                                    name="path3")
        net_path = tmp_path / "net.json"
        gc.save_network(net, net_path)
        p_path = tmp_path / "p.json"
        q_path = tmp_path / "q.json"
        p_path.write_text("[1.0, 0.0, 0.0]", encoding="utf-8")
        q_path.write_text("[0.0, 0.0, 1.0]", encoding="utf-8")
        return net_path, p_path, q_path

    def test_exact_score(self, runner, files):
        net_path, p_path, q_path = files
        result = runner.invoke(main, ["ntd", "score", "--p", str(p_path),
                                      "--q", str(q_path),
                                      "--network", str(net_path)])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["cost"] == 2.0
        assert payload["ntd"] == 1.0
        assert payload["pivots"] == 0
        assert payload["bland"] is False

    @pytest.mark.parametrize("topology, pivots", [("optical54", None),
                                                  ("tree30", 0)])
    def test_score_is_the_certified_metric(self, runner, tmp_path, topology,
                                           pivots):
        # ntd equals the library metric bit for bit, the potential closes
        # the duality gap, and pivots count the graph solve (none on a tree)
        net, cm = gc.topology(topology)
        rng = np.random.default_rng(12)
        p, q = rng.dirichlet(np.ones(net.node_count), size=2)
        paths = [tmp_path / name for name in ("net.json", "p.json", "q.json")]
        gc.save_network(net, paths[0])
        paths[1].write_text(json.dumps(p.tolist()), encoding="utf-8")
        paths[2].write_text(json.dumps(q.tolist()), encoding="utf-8")
        result = runner.invoke(main, ["ntd", "score", "--network", str(paths[0]),
                                      "--p", str(paths[1]), "--q", str(paths[2])])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["ntd"] == tp.ntd(p, q, cm)
        assert abs(payload["duality_gap"]) <= 1e-12
        if pivots is not None:
            assert payload["pivots"] == pivots

    def test_score_total_off_by_a_little(self, runner, files, tmp_path):
        # a total within check_distribution's tolerance of 1 is scored
        net_path, _, _ = files
        p, q = [0.0, 0.5 + 1e-10, 0.5], [0.5, 0.0, 0.5]
        paths = [tmp_path / "p1.json", tmp_path / "q1.json"]
        for path, x in zip(paths, (p, q)):
            path.write_text(json.dumps(x), encoding="utf-8")
        result = runner.invoke(main, ["ntd", "score", "--p", str(paths[0]),
                                      "--q", str(paths[1]),
                                      "--network", str(net_path), "--plan"])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        cm = gc.all_pairs_shortest_paths(gc.load_network(net_path))
        assert payload["ntd"] == tp.ntd(np.array(p), np.array(q), cm)
        assert np.abs(np.sum(payload["plan"], axis=1) - p).max() <= 1e-12

    def test_score_solver_failure_exits_1(self, runner, files, monkeypatch):
        def dead_end(*args):
            raise RuntimeError("flow decomposition dead-ended at node 0")

        monkeypatch.setattr(tp, "_plan_from_flow", dead_end)
        net_path, p_path, q_path = files
        result = runner.invoke(main, ["ntd", "score", "--p", str(p_path),
                                      "--q", str(q_path),
                                      "--network", str(net_path)])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert result.output.strip() == (
            "Error: flow decomposition dead-ended at node 0")

    def test_plan_flag(self, runner, files):
        net_path, p_path, q_path = files
        result = runner.invoke(main, ["ntd", "score", "--p", str(p_path),
                                      "--q", str(q_path),
                                      "--network", str(net_path), "--plan"])
        payload = json.loads(result.output)
        assert np.asarray(payload["plan"]).shape == (3, 3)
        assert payload["plan"][0][2] == 1.0

    def test_sinkhorn_close_to_exact(self, runner, files):
        net_path, p_path, q_path = files
        result = runner.invoke(main, [
            "ntd", "sinkhorn", "--p", str(p_path), "--q", str(q_path),
            "--network", str(net_path), "--lambda", "0.02",
            "--max-iters", "200000",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["converged"]
        assert abs(payload["value"] - 1.0) < 0.02
        assert payload["absorptions"] == 0

    def test_sinkhorn_reports_absorptions(self, runner, files):
        net_path, p_path, q_path = files
        result = runner.invoke(main, [
            "ntd", "sinkhorn", "--p", str(p_path), "--q", str(q_path),
            "--network", str(net_path), "--lambda", "0.002",
        ])
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["converged"]
        assert payload["absorptions"] > 0
        assert abs(payload["value"] - 1.0) < 1e-6

    @pytest.mark.parametrize("flag, value, name", [
        ("--lambda", "inf", "lam"), ("--lambda", "-inf", "lam"),
        ("--lambda", "nan", "lam"), ("--tol", "nan", "convergence_tol"),
        ("--tol", "inf", "convergence_tol"), ("--max-iters", "0", "max_iters"),
    ])
    def test_sinkhorn_non_finite_parameter_exits_1(self, runner, files, flag,
                                                   value, name):
        # the message names the flag typed, not the SinkhornParams field
        net_path, p_path, q_path = files
        result = runner.invoke(main, [
            "ntd", "sinkhorn", "--p", str(p_path), "--q", str(q_path),
            "--network", str(net_path), flag, value,
        ])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert result.output.startswith(f"Error: {flag} must be "), result.output
        assert f"got {value}" in result.output
        assert f"{name} must" not in result.output
        assert len(result.output.strip().splitlines()) == 1, result.output

    def test_sinkhorn_other_parameter_message_passes_through(
            self, runner, files, monkeypatch):
        def reject(**kwargs):
            raise ValueError("parameters rejected")

        monkeypatch.setattr(sinkhorn, "SinkhornParams", reject)
        net_path, p_path, q_path = files
        result = runner.invoke(main, [
            "ntd", "sinkhorn", "--p", str(p_path), "--q", str(q_path),
            "--network", str(net_path),
        ])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert result.output.strip() == "Error: parameters rejected"

    def test_unnormalized_input_exits_1(self, runner, files, tmp_path):
        net_path, p_path, q_path = files
        bad = tmp_path / "bad.json"
        bad.write_text("[0.5, 0.0, 0.0]", encoding="utf-8")
        result = runner.invoke(main, ["ntd", "score", "--p", str(bad),
                                      "--q", str(q_path),
                                      "--network", str(net_path)])
        assert result.exit_code == 1

    @pytest.mark.parametrize("payload", [
        [[0, 1], [1, 2]],
        {"edges": [["0", "1"], ["1", "2"]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": 3},
        {"edges": [[0, 1.5], [1, 2]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": 3},
        '{"edges": [[0, 1], [1, 2]], "entry": 0, '
        '"layers": ["subnet", "subnet", "subnet"], "nodes": 1e400}',
        {"edges": [[0, 1], [1, 2]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": 3.9},
        {"edges": [[0, 1], [1, 2]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": "3"},
        {"edges": [[0, 1], [1, 2]], "entry": False,
         "layers": ["subnet"] * 3, "nodes": 3},
        {"edges": [[0, 1], [1, 2], [1, 0]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": 3},
        {"edges": [[0, 1], [1, 2], [1, 2]], "entry": 0,
         "layers": ["subnet"] * 3, "nodes": 3},
    ], ids=["list", "string_endpoints", "float_endpoint", "nodes_overflow",
            "nodes_float", "nodes_string", "entry_bool",
            "edge_repeated_reversed", "edge_repeated"])
    @pytest.mark.parametrize("command", ["score", "sinkhorn"])
    def test_malformed_network_exits_1(self, runner, files, tmp_path, payload,
                                       command):
        _, p_path, q_path = files
        bad = tmp_path / "bad_net.json"
        bad.write_text(payload if isinstance(payload, str) else json.dumps(payload),
                       encoding="utf-8")
        result = runner.invoke(main, ["ntd", command, "--p", str(p_path),
                                      "--q", str(q_path), "--network", str(bad)])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert "cannot load network" in result.output
        assert len(result.output.strip().splitlines()) == 1, result.output

    @pytest.mark.parametrize("text", ["[true, false, false]", '["1", 0, 0]', "{}"],
                             ids=["booleans", "string_entry", "object"])
    @pytest.mark.parametrize("command", ["score", "sinkhorn"])
    def test_non_number_distribution_exits_1(self, runner, files, tmp_path,
                                             text, command):
        net_path, _, q_path = files
        bad = tmp_path / "bad_p.json"
        bad.write_text(text, encoding="utf-8")
        result = runner.invoke(main, ["ntd", command, "--p", str(bad),
                                      "--q", str(q_path),
                                      "--network", str(net_path)])
        assert result.exit_code == 1, result.output
        assert result.exc_info[0] is SystemExit
        assert "P must be a list of numbers" in result.output
        assert len(result.output.strip().splitlines()) == 1, result.output
