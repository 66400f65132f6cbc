"""Behaviour fingerprint: SHA-256 digests of seeded outputs.

A refactor or speed-up that keeps every seeded output byte for byte leaves
these digests unchanged; one that shifts a single RNG draw, a rule constant
or an encoding detail does not. Sinkhorn values are pinned at 1e-12 instead
of by digest, because vectorized ``exp``/``log`` may differ by an ulp from
one CPU to another. A deliberate behaviour change re-records the values
below from the assertion diff and says so in its change notes.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from _oracles import trajectory_to_jsonl_v1
from nettom import agents as ag
from nettom import cyberenv as ce
from nettom import dataset as ds
from nettom import evalkit as ek
from nettom import graph_core as gc
from nettom import sinkhorn as sk
from nettom import transport as tr
from nettom.cli import main


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _tree_digests(root: Path) -> dict[str, str]:
    return {p.relative_to(root).as_posix(): _sha(p.read_bytes())
            for p in sorted(root.rglob("*")) if p.is_file()}


def _combined(digests: dict[str, str]) -> str:
    return _sha("".join(f"{k}={v}\n" for k, v in digests.items()).encode())


def _pairs(net: gc.Network, cm: gc.CostMatrix):
    """A sparse attack-path pair and a dense pair built without any
    transcendental function, so their bytes are the same on every CPU."""
    n = net.node_count
    far = int(np.argmax(cm.dist[net.entry_node]))
    path = gc.shortest_path(net, net.entry_node, far)
    p = np.zeros(n)
    p[path] = np.arange(1, len(path) + 1, dtype=float)
    q = np.zeros(n)
    leaves = sorted(net.leaf_set - {net.entry_node})
    q[leaves[: 3]] = (0.5, 0.3, 0.2)
    dense_p = np.arange(n) % 7 + 1.0
    dense_q = (np.arange(n) * 5) % 11 + 1.0
    return [(p / p.sum(), q), (dense_p / dense_p.sum(), dense_q / dense_q.sum())]


def _cyclic120() -> tuple[gc.Network, gc.CostMatrix]:
    """A fixed 120-node graph with cycles: a 100-node ring, 33 chords and
    20 pendant leaves (node 100, a leaf, is the entry)."""
    ring = [(i, (i + 1) % 100) for i in range(100)]
    chords = [(i, (i * 37 + 11) % 100) for i in range(0, 100, 3)]
    edges = {(min(e), max(e)) for e in ring + chords if e[0] != e[1]}
    edges |= {(5 * k, 100 + k) for k in range(20)}
    net = gc.Network.from_edges(edges, entry_node=100, name="cyclic120")
    return net, gc.all_pairs_shortest_paths(net)


def _weighting(net: gc.Network, cm: gc.CostMatrix) -> tr.WeightingConfig:
    return tr.WeightingConfig(
        features=(cm.dist[net.entry_node].astype(float),
                  np.asarray(net.degree, dtype=float)),
        coefficients=(-1.0, 1.0),
        floor=0.1,
    )


EXPECTED_DATASET = "19c00c5f4d234b04bbd003b1a98f6a9e6c9138b773faba36a4d36347a5987847"
EXPECTED_TOURNAMENT = {
    1: "8820f0b41aaff760e18ae75fe7693807531b4d74123aa21d3a81ed433dd14db6",
    3: "aded1ec7b652e934b4b576d09cf34be9e2fd4436ebe1983dd98003dba210849e",
}
EXPECTED_SIMULATE = "fb6430f601b92a46a9bb35cfc52131229c44a2a239679f4dff6132774015d17b"
# The dataset and simulate trees as trajectory schema 1 wrote them.
EXPECTED_DATASET_V1 = "bc7705b786ce1ae952f48ee71b9647fe437173825fff787a3292bae824a64503"
EXPECTED_SIMULATE_V1 = "382cc19065242488ab6305efef31a1899734cb8251e2fd1211dcbe5e25819f01"
EXPECTED_METRIC = "6f03b992c89bf2b9f4f2894166baa445f550b3d823f64eeb934a6395561a00b8"
# `nettom score` run twice on the `_build` dataset, scoring `_predictions`.
EXPECTED_SCORE = "af8507d8468be256915b0158575adcdcc5bd76d8485f4b75e1588d2dba895478"
EXPECTED_PLANS = "572d5ddae2965b4c247d97cccc8d624a6aca1ae845b26ea4ad970ef2d4dda930"
EXPECTED_SINKHORN = {
    "tree30": [0.522481981309285, -0.1212994193650917],
    "forest72": [0.5034167483585317, -0.17845652167294263],
    "optical54": [0.15723520531596125, -0.15791706802252672],
}


def _build(out: Path) -> None:
    config = ds.DatasetConfig(
        blues=("blue.msn_rnv_restore",),
        reds=(ag.parse_red_id("red.hvt_pref:alpha=0.01,seed=5,index=0"),
              ag.parse_red_id("red.random_smart:alpha=1,seed=5,index=1")),
        networks=("tree30",),
        master_seed=17,
    )
    ds.build_dataset(config, out, jobs=1)


def _simulate(out: Path) -> None:
    result = CliRunner().invoke(main, [
        "simulate", "--blue", "blue.msn_restore",
        "--red", "red.hvt_simple:probs=0.1:0.3:0.2:0.2:0.1:0.1",
        "--network", "optical54", "--episodes", "3", "--seed", "4",
        "--out", str(out),
    ])
    assert result.exit_code == 0, result.output


def _predictions(manifest: ds.DatasetManifest) -> str:
    """Seeded predictions for every sample, built without any transcendental
    function: each (sample, discount) vector is the truth, a 0.9/0.1 mix of
    the truth and a dense vector, or a dense vector alone."""
    lines = []
    for i, s in enumerate(manifest.samples):
        pred_hvn = [0.0, 0.0, 0.0]
        pred_hvn[s.target_index] = 1.0
        if i % 2:
            pred_hvn = [0.25, 0.25, 0.25]
            pred_hvn[i % 3] = 0.5
        pred_sr = {}
        for j, key in enumerate(ds.gamma_key(g) for g in manifest.gammas):
            truth = np.asarray(s.truth_sr[key])
            n = truth.size
            dense = np.arange(n) % 7 + 1.0
            other = (np.arange(n) * 5 + i) % 11 + 1.0
            vec = [truth, 0.9 * truth + 0.1 * dense / dense.sum(),
                   other / other.sum()][(i + j) % 3]
            pred_sr[key] = [float(x) for x in vec]
        lines.append(json.dumps({"sample_id": s.sample_id, "pred_hvn": pred_hvn,
                                 "pred_sr": pred_sr}))
    return "".join(f"{line}\n" for line in lines)


def test_score_fingerprint(tmp_path, monkeypatch):
    """`nettom score` with the hedging pass on tree30 at k = 4, then on a
    discount subset: every report file, stdout and stderr."""
    _build(tmp_path / "data")
    manifest = ds.read_manifest(tmp_path / "data" / "manifest.json")
    assert len(manifest.samples) == 6
    (tmp_path / "preds.jsonl").write_text(_predictions(manifest), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    digests = {}
    for run, flags in (("default", []),
                       ("subset", ["--gammas", "0.5", "--coefficients", "0,1",
                                   "--kmeans-gamma", "0.95", "--kmeans-k", "2"])):
        result = CliRunner().invoke(main, [
            "score", "--predictions", "preds.jsonl",
            "--manifest", str(Path("data") / "manifest.json"), "--out", run,
        ] + flags)
        assert result.exit_code == 0, result.output
        assert (tmp_path / run / "hedging_histogram.csv").exists()
        digests.update({f"{run}/{rel}": d
                        for rel, d in _tree_digests(tmp_path / run).items()})
        digests[f"{run}:stdout"] = _sha(result.stdout.encode())
        digests[f"{run}:stderr"] = _sha(result.stderr.encode())
    assert _combined(digests) == EXPECTED_SCORE


def test_dataset_build_fingerprint(tmp_path):
    _build(tmp_path)
    digests = _tree_digests(tmp_path)
    assert len(digests) == 2 * 27 + 1
    assert _combined(digests) == EXPECTED_DATASET


@pytest.mark.parametrize("run, expected", [(_build, EXPECTED_DATASET_V1),
                                           (_simulate, EXPECTED_SIMULATE_V1)],
                         ids=["dataset", "simulate"])
def test_episodes_read_back_as_schema_1(tmp_path, run, expected):
    """Episode files decoded and re-encoded in schema 1 reproduce the
    digests schema 1 wrote, so the schema-3 files lose nothing."""
    run(tmp_path)
    digests = _tree_digests(tmp_path)
    for rel in digests:
        if rel.endswith(".jsonl"):
            traj = ce.read_trajectory(tmp_path / rel)
            digests[rel] = _sha(trajectory_to_jsonl_v1(traj).encode())
    assert _combined(digests) == expected


@pytest.mark.parametrize("entry_count", [1, 3])
def test_tournament_fingerprint(tmp_path, entry_count):
    table = ek.run_tournament(
        ["blue.msn_s", "blue.random_smart"],
        [ag.parse_red_id("red.random_simple:alpha=0.5"),
         ag.parse_red_id("red.hvt_pref:alpha=0.01")],
        ["tree30", "forest72"], 5, seed=23, entry_count=entry_count,
    )
    ek.write_tournament_reports(table, tmp_path)
    assert _combined(_tree_digests(tmp_path)) == EXPECTED_TOURNAMENT[entry_count]


def test_simulate_fingerprint(tmp_path):
    _simulate(tmp_path)
    assert _combined(_tree_digests(tmp_path)) == EXPECTED_SIMULATE


def test_metric_fingerprint():
    lines = []
    for name in gc.TOPOLOGIES:
        net, cm = gc.topology(name)
        for p, q in _pairs(net, cm):
            lines.append(f"{name} ntd {tr.ntd(p, q, cm)!r}")
            lines.append(f"{name} ntd_weighted "
                         f"{tr.ntd_weighted(p, q, cm, _weighting(net, cm))!r}")
    assert _sha("\n".join(lines).encode()) == EXPECTED_METRIC


def test_plan_fingerprint():
    """Exact plans, not only costs: ``nettom ntd score --plan`` prints them."""
    graphs = [(name, *gc.topology(name)) for name in gc.TOPOLOGIES]
    graphs.append(("cyclic120", *_cyclic120()))
    digest = hashlib.sha256()
    for name, net, cm in graphs:
        for p, q in _pairs(net, cm):
            result = tr.wasserstein(p, q, cm)
            digest.update(f"{name} {result.cost!r}\n".encode())
            digest.update(result.plan.tobytes())
    assert digest.hexdigest() == EXPECTED_PLANS


@pytest.mark.parametrize("name", ["tree30", "forest72", "optical54"])
def test_sinkhorn_values(name):
    net, cm = gc.topology(name)
    params = sk.SinkhornParams(lam=0.05 * cm.diameter)
    values = [sk.sinkhorn_plan(p, q, cm, params).value for p, q in _pairs(net, cm)]
    assert values == pytest.approx(EXPECTED_SINKHORN[name], rel=0, abs=1e-12)
