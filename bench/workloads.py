"""The benchmark's three workloads: input generation, the timed calls into
nettom, and the checks on what those calls return.

Each workload is a class with the same four steps:

* ``__init__(seed, workdir)`` sets up: it clears the program's caches,
  builds the fixed inputs and warms the program's lazy set-up with a tiny
  call, so that set-up cost is not timed as work.
* ``inputs(r)`` generates the inputs of round ``r`` from the workload seed
  (untimed).
* ``run(inputs)`` makes the library calls of one round and returns a
  :class:`Round` with the time of each stage, the item count and a plain
  summary of the outputs (lists of numbers and strings), so that two runs
  can be compared by meaning rather than by file bytes.
* ``check(inputs, round)`` returns a list of failure messages, one per
  wrong output, from independent recomputation (``oracles``) and from
  invariants the game rules guarantee (untimed).

``gate()`` runs fixed inputs that do not depend on the seed and returns
their summary, which ``gate.py`` compares with ``reference.json``.

Every call is made in this process with ``jobs=1``, each after the previous
one returns (a closed loop with one client).
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from nettom import agents, cyberenv, dataset, evalkit, graph_core, sinkhorn, transport

import oracles

BLUES = (
    "blue.sleep", "blue.random", "blue.random_smart", "blue.isolate",
    "blue.msn_d", "blue.msn_s", "blue.restore", "blue.msn_rnv",
    "blue.msn_restore", "blue.msn_rnv_restore",
)
RED_KINDS = (
    "random_simple", "random_smart", "target_connected", "target_unconnected",
    "target_vulnerable", "target_resilient", "hvt_simple", "hvt_pref",
    "hvt_pref_sp",
)
SHIPPED = ("tree30", "tree40", "tree50", "tree70", "tree90", "forest72", "optical54")
GAMMAS = (0.5, 0.95, 0.999)
MAX_STEPS = 500

# Fixed seed of the gate inputs; the gate must not depend on --seed, so
# that its outputs can be compared with values recorded once.
GATE_SEED = 20241204
# Fixed seed of the warm-up calls, so that set-up does the same work for
# every workload seed.
WARM_SEED = 7


def derive(seed: int, *parts) -> int:
    """A child seed for one generated input, independent of nettom's own
    seed derivation."""
    key = "/".join(str(p) for p in (seed,) + parts)
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big") >> 2


def clear_program_caches() -> None:
    """Empty every memoized nettom function, so set-up is paid again."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("nettom"):
            continue
        for value in vars(module).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and getattr(value, "__module__", "").startswith("nettom"):
                clear()


@dataclass
class Round:
    """One timed round: stage seconds, work items, ops and output summary."""

    stages: dict[str, float]
    items: int
    ops: int
    outputs: dict
    info: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.stages.values())


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _total(rounds, key: str, field: str = "info") -> float:
    return sum(getattr(r, field).get(key, 0) for r in rounds)


def _timed(stages: dict, name: str, fn, *args, **kwargs):
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    stages[name] = stages.get(name, 0.0) + time.perf_counter() - start
    return result


def _species(kind: str) -> agents.RedPolicySpec:
    return agents.parse_red_id(f"red.{kind}:alpha=0.01")


# ---------------------------------------------------------------------------
# tournament
# ---------------------------------------------------------------------------


class Tournament:
    """The criterion-11 grid, one episode per cell per round, then reports.

    An item is one game step: episodes last 1 to 500 steps, so steps per
    second does not depend on which episodes a seed happens to draw.
    """

    name = "tournament"
    networks = ("tree30", "forest72", "optical54")
    episodes_per_cell = 1

    def __init__(self, seed: int, workdir: Path):
        clear_program_caches()
        self.seed = seed
        self.workdir = workdir
        self.reds = [_species(k) for k in RED_KINDS]
        # One short episode per network builds the topologies before timing.
        evalkit.run_tournament(["blue.sleep"], [_species("hvt_pref_sp")],
                               self.networks, 1, WARM_SEED, jobs=1)

    def inputs(self, r: int) -> dict:
        return {"seed": derive(self.seed, "tournament", r),
                "out": self.workdir / f"reports{r}"}

    def run(self, inp: dict) -> Round:
        stages: dict[str, float] = {}
        table = _timed(stages, "play", evalkit.run_tournament, BLUES, self.reds,
                       self.networks, self.episodes_per_cell, inp["seed"], jobs=1)
        _timed(stages, "report", evalkit.write_tournament_reports, table, inp["out"])
        cells = [[c.blue, c.red, c.network, c.episodes, c.mean_reward,
                  c.win_rate, c.mean_duration] for c in table.cells]
        episodes = sum(c.episodes for c in table.cells)
        steps = int(round(sum(c.mean_duration * c.episodes for c in table.cells)))
        return Round(stages=stages, items=steps, ops=episodes,
                     outputs={"cells": cells}, info={"episodes": episodes})

    @staticmethod
    def report(rounds) -> dict:
        """Workload-level rates by name: {name: (value, unit)}."""
        play = _total(rounds, "play", "stages")
        return {"tournament_episodes_per_s": (_total(rounds, "episodes") / play, "episodes/s"),
                "tournament_steps_per_s": (sum(r.items for r in rounds) / play, "steps/s")}

    def check(self, inp: dict, rnd: Round) -> list[str]:
        bad = []
        cells = rnd.outputs["cells"]
        if len(cells) != len(BLUES) * len(RED_KINDS) * len(self.networks):
            bad.append(f"tournament: {len(cells)} cells")
        for blue, red, net, eps, reward, win, dur in cells:
            cell = f"{blue}/{red}/{net}"
            if eps != self.episodes_per_cell:
                bad.append(f"{cell}: {eps} episodes")
            if not (0.0 <= win <= 1.0 and 1.0 <= dur <= MAX_STEPS and reward <= 0.0):
                bad.append(f"{cell}: stats out of range {reward, win, dur}")
            # Isolated nodes cannot be attacked, so isolation always holds out.
            if blue == "blue.isolate" and (win != 1.0 or dur != MAX_STEPS):
                bad.append(f"{cell}: isolation lost ({win}, {dur})")
        bad += self._check_reports(inp["out"], cells)
        return bad

    def _check_reports(self, out: Path, cells) -> list[str]:
        bad = []
        columns = {"mean_reward": 4, "win_rate": 5, "mean_duration": 6}
        for metric, col in columns.items():
            for net in self.networks:
                path = out / f"tournament_{metric}_{net}.csv"
                try:
                    with open(path, newline="", encoding="utf-8") as fh:
                        rows = list(csv.reader(fh))
                except OSError as exc:
                    bad.append(f"report {path.name}: {exc}")
                    continue
                reds = rows[0][1:]
                table = {(row[0], red): v for row in rows[1:]
                         for red, v in zip(reds, row[1:])}
                for c in cells:
                    if c[2] == net and table.get((c[0], c[1])) != format(c[col], ".6g"):
                        bad.append(f"report {path.name}: {c[0]}/{c[1]} differs")
        return bad

    def gate(self) -> dict:
        blues = ["blue.isolate", "blue.msn_d", "blue.random"]
        reds = [_species("hvt_pref_sp"), _species("random_simple")]
        table = evalkit.run_tournament(blues, reds, self.networks, 2, GATE_SEED, jobs=1)
        return {"cells": [[c.blue, c.red, c.network, c.episodes, c.mean_reward,
                           c.win_rate, c.mean_duration] for c in table.cells]}


# ---------------------------------------------------------------------------
# dataset
# ---------------------------------------------------------------------------


class Dataset:
    """Build a dataset, read back what its manifest references, then score a
    seeded predictions file against it.

    An item is one game step produced by the build, so the rate does not
    depend on how long the seed's episodes happen to be.
    """

    name = "dataset"
    blues = ("blue.msn_d", "blue.restore")
    networks = ("tree30", "tree50", "tree90")

    def __init__(self, seed: int, workdir: Path):
        clear_program_caches()
        self.seed = seed
        self.workdir = workdir
        warm = dataset.DatasetConfig(
            blues=self.blues[:1], reds=(self._member(WARM_SEED, 0),),
            networks=self.networks, master_seed=WARM_SEED,
            n_c=1, n_p=1, n_past=1, past_k=1,
        )
        dataset.build_dataset(warm, workdir / "warm", jobs=1)
        shutil.rmtree(workdir / "warm")

    @staticmethod
    def _member(species_seed: int, index: int) -> agents.RedPolicySpec:
        return agents.parse_red_id(
            f"red.hvt_pref_sp:alpha=0.01,seed={species_seed},index={index}")

    def _config(self, seed: int, index: int, networks=None) -> dataset.DatasetConfig:
        return dataset.DatasetConfig(
            blues=self.blues,
            reds=(self._member(derive(seed, "species"), index),),
            networks=networks or self.networks,
            master_seed=derive(seed, "build", index),
        )

    def inputs(self, r: int) -> dict:
        # Only one round's files are kept on disk at a time.
        for old in self.workdir.glob("round*"):
            shutil.rmtree(old)
        return {"config": self._config(self.seed, r), "out": self.workdir / f"round{r}",
                "pred_seed": derive(self.seed, "predictions", r)}

    def run(self, inp: dict) -> Round:
        out = inp["out"]
        stages: dict[str, float] = {}
        built = _timed(stages, "build", dataset.build_dataset, inp["config"], out, jobs=1)
        manifest, episodes = _timed(stages, "readback", self._read_back, out)
        # The predictions file stands for an external model's output; writing
        # it is input generation, not the program's work.
        pred_path, predictions = write_predictions(out / "predictions.jsonl", manifest,
                                                   inp["pred_seed"])
        scores = _timed(stages, "score", self._score, pred_path, manifest, out / "scores")
        files = sorted((out / "episodes").iterdir())
        steps = sum(_episode_steps(p) for p in files)
        outputs = {
            "samples": _sample_summary(built),
            "readback_samples": _sample_summary(manifest),
            "episodes": episodes,
            "predictions": predictions,
            **scores,
        }
        games = len(built.games)
        return Round(
            stages=stages, items=steps,
            ops=len(files) + len(episodes) + len(manifest.samples),
            outputs=outputs,
            info={"games": games, "episodes_built": len(files),
                  "episode_bytes": sum(p.stat().st_size for p in files),
                  "episodes_read": len(episodes), "samples": len(manifest.samples)},
        )

    @staticmethod
    def _read_back(out: Path):
        """The consumer's view: the manifest, then every episode it names."""
        manifest = dataset.read_manifest(out / "manifest.json")
        wanted = sorted({s.current_episode_id for s in manifest.samples}
                        | {p.episode_id for s in manifest.samples for p in s.past})
        episodes = []
        for eid in wanted:
            traj = cyberenv.read_trajectory(out / "episodes" / f"{eid}.jsonl")
            episodes.append([
                eid, traj.outcome, traj.target_node, traj.final_step,
                list(traj.entries), len(traj.steps),
                [list(s.red_hits) for s in traj.steps if s.red_action is not None],
            ])
        return manifest, episodes

    @staticmethod
    def _score(pred_path: Path, manifest, out: Path) -> dict:
        preds = evalkit.read_predictions(pred_path)
        hvt = evalkit.score_hvt(preds, manifest)
        sr = evalkit.score_sr(preds, manifest)
        evalkit.write_score_reports(out, hvt=hvt, sr=sr)
        return {
            "hvt": [hvt.weighted_f1, sorted([t, p, c] for (t, p), c in hvt.confusion.items())],
            "sr_rows": [[r.sample_id, r.network, r.gamma, r.coefficient, r.value]
                        for r in sr.rows],
        }

    @staticmethod
    def report(rounds) -> dict:
        """Workload-level rates by name: {name: (value, unit)}."""
        def rate(key, stage):
            return _total(rounds, key) / _total(rounds, stage, "stages")
        return {
            "build_games_per_s": (rate("games", "build"), "games/s"),
            "dataset_bytes_per_episode": (_total(rounds, "episode_bytes")
                                          / _total(rounds, "episodes_built"), "bytes"),
            "readback_episodes_per_s": (rate("episodes_read", "readback"), "episodes/s"),
            "score_samples_per_s": (rate("samples", "score"), "samples/s"),
        }

    def check(self, inp: dict, rnd: Round) -> list[str]:
        out = rnd.outputs
        bad = []
        if out["samples"] != out["readback_samples"]:
            bad.append("manifest read back differs from the built manifest")
        config = inp["config"]
        expected_files = len(config.blues) * len(config.networks) * config.n_c * (1 + config.n_p)
        if rnd.info["episodes_built"] != expected_files:
            bad.append(f"{rnd.info['episodes_built']} episode files, expected {expected_files}")
        episodes = {e[0]: e for e in out["episodes"]}
        seen_past: set[str] = set()
        for sid, truth_hvn, t, hvns, target_index, entry, net, truth_sr, past in out["samples"]:
            cur = episodes.get(sid)
            if cur is None:
                bad.append(f"{sid}: current episode not read back")
                continue
            _, outcome, target, final_step, entries, n_steps, hits = cur
            if outcome != cyberenv.RED_WIN or target != truth_hvn:
                bad.append(f"{sid}: truth {truth_hvn} but episode says {outcome}/{target}")
            if hvns[target_index] != truth_hvn or entry != entries[0]:
                bad.append(f"{sid}: target index or entry inconsistent")
            if n_steps != final_step + 1 or len(hits) != final_step:
                bad.append(f"{sid}: {n_steps} steps for final step {final_step}")
            for key, vec in truth_sr.items():
                want = oracles.discounted_occupancy(entries, hits, t, float(key), len(vec))
                if np.abs(np.asarray(vec) - want).max() > 1e-12:
                    bad.append(f"{sid}: truth_sr[{key}] differs from the read-back episode")
            for eid, steps in past:
                if eid in seen_past:
                    bad.append(f"{sid}: past episode {eid} shared between samples")
                seen_past.add(eid)
                ep = episodes.get(eid)
                if ep is None or max(steps) > ep[3]:
                    bad.append(f"{sid}: past ref {eid} not readable at steps {steps}")
        bad += self._check_scores(out)
        return bad

    def _check_scores(self, out) -> list[str]:
        bad = []
        preds = out["predictions"]
        samples = {s[0]: s for s in out["samples"]}
        rows = out["sr_rows"]
        coefficients = evalkit.DEFAULT_COEFFICIENTS
        if len(rows) != len(samples) * len(GAMMAS) * len(coefficients):
            bad.append(f"{len(rows)} score rows for {len(samples)} samples")
        f1, confusion = out["hvt"]
        if not 0.0 <= f1 <= 1.0 or sum(c for _, _, c in confusion) != len(samples):
            bad.append(f"hvt score inconsistent: f1={f1}")
        topo = {}
        for sid, net, gamma, coef, value in rows:
            if net not in topo:
                g = graph_core.generate_network(net)
                dist = oracles.hop_distances(g.node_count, g.edges)
                topo[net] = (g, dist, int(dist.max()))
            g, dist, diameter = topo[net]
            s = samples[sid]
            truth = np.asarray(s[7][gamma])
            pred = np.asarray(preds[sid][gamma])
            pred = pred / pred.sum() if abs(pred.sum() - 1.0) > 1e-9 else pred
            feature = np.minimum(dist[s[5]], dist[s[1]]).astype(float)
            w = oracles.remoteness_weights(feature, coef, evalkit.DEFAULT_FLOOR)
            want = oracles.weighted_tree_ntd(g.node_count, g.edges, diameter,
                                             pred, truth, w)
            if abs(value - want) > 1e-9:
                bad.append(f"{sid} gamma={gamma} coef={coef}: ntd {value} != {want}")
            if np.array_equal(pred, truth) and value != 0.0:
                bad.append(f"{sid}: exact prediction scored {value}")
        return bad

    def gate(self) -> dict:
        out = self.workdir / "gate"
        if out.exists():
            shutil.rmtree(out)
        built = dataset.build_dataset(self._config(GATE_SEED, 0, ("tree30",)), out, jobs=1)
        manifest, episodes = self._read_back(out)
        pred_path, _ = write_predictions(out / "predictions.jsonl", manifest, GATE_SEED)
        scores = self._score(pred_path, manifest, out / "scores")
        shutil.rmtree(out)
        return {"samples": _sample_summary(built), "episodes": episodes, **scores}


def _sample_summary(manifest) -> list:
    return [
        [s.sample_id, s.truth_hvn, s.t, list(s.hvns), s.target_index, s.entry,
         s.network, {k: list(v) for k, v in s.truth_sr.items()},
         [[p.episode_id, list(p.step_indices)] for p in s.past]]
        for s in manifest.samples
    ]


def _episode_steps(path: Path) -> int:
    """Steps stored in one episode file, from its header when it has one."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
    if "final_step" in header:
        return int(header["final_step"]) + 1
    return cyberenv.read_trajectory(path).final_step + 1


def write_predictions(path: Path, manifest, seed: int):
    """A seeded predictions file: dense softmax-like vectors, every fourth
    one concentrated near the truth and every eighth equal to it. Returns
    the path and the ``pred_sr`` vectors by sample id."""
    rng = np.random.default_rng(seed)
    lines = []
    predictions = {}
    for k, s in enumerate(manifest.samples):
        logits = rng.normal(size=3)
        hvn = np.exp(logits) / np.exp(logits).sum()
        pred_sr = {}
        for key, truth in s.truth_sr.items():
            truth = np.asarray(truth)
            noise = np.exp(2.0 * rng.normal(size=len(truth)))
            dense = noise / noise.sum()
            if k % 8 == 0:
                vec = truth
            elif k % 4 == 0:
                vec = 0.9 * truth + 0.1 * dense
            else:
                vec = dense
            pred_sr[key] = [float(x) for x in vec]
        predictions[s.sample_id] = pred_sr
        lines.append(json.dumps({"sample_id": s.sample_id,
                                 "pred_hvn": [float(x) for x in hvn],
                                 "pred_sr": pred_sr}))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, predictions


# ---------------------------------------------------------------------------
# metric
# ---------------------------------------------------------------------------


def _path_to(dist: np.ndarray, neighbors, source: int, target: int) -> list[int]:
    """A shortest path found by walking down the target's distance column."""
    path = [source]
    v = source
    while v != target:
        v = min(w for w in neighbors[v] if dist[w, target] == dist[v, target] - 1)
        path.append(v)
    return path


def _attack_path_pair(rng, net, dist, neighbors, leaves):
    """Two sparse occupancies shaped like attack paths: discounted mass along
    shortest paths from the entry to two random leaves."""
    vecs = []
    for _ in range(2):
        target = int(leaves[rng.integers(len(leaves))])
        gamma = GAMMAS[rng.integers(len(GAMMAS))]
        path = _path_to(dist, neighbors, net.entry_node, target)
        x = np.zeros(net.node_count)
        x[path] = gamma ** np.arange(len(path), dtype=float)
        vecs.append(x / x.sum())
    return vecs


def _dense_pair(rng, n):
    return [rng.dirichlet(np.ones(n)) for _ in range(2)]


def random_cyclic_network(rng, n: int) -> graph_core.Network:
    """A connected graph with cycles: a random tree plus n/2 chords."""
    edges = {(int(rng.integers(i)), i) for i in range(1, n)}
    while len(edges) < n - 1 + n // 2:
        i, j = sorted(int(x) for x in rng.choice(n, size=2, replace=False))
        edges.add((i, j))
    return graph_core.Network.from_edges(sorted(edges), entry_node=0,
                                         name=f"cyclic{n}")


class Metric:
    """Direct calls to the exact metric and its regularized relaxation.

    Each round makes the same mix of calls on fresh inputs: ``ntd`` and
    ``ntd_weighted`` on two sparse and two dense pairs per shipped
    topology, ``ntd`` on a dense and a sparse pair per generated cyclic
    graph, and ``sinkhorn_plan`` plus ``ntd_loss_grad`` on a sparse and a
    dense pair per shipped topology. An item is one call.

    Sinkhorn runs at the command-line defaults (lambda = 0.05 * diameter,
    tol 1e-8). lambda = 0.01 * diameter is left out on purpose: one solve
    on optical54 takes some 83k iterations and would dominate every run.
    """

    name = "metric"
    cyclic_sizes = (100, 200, 300)
    floor = 0.1

    def __init__(self, seed: int, workdir: Path):
        clear_program_caches()
        self.seed = seed
        rng = np.random.default_rng(derive(seed, "cyclic"))
        nets = [graph_core.generate_network(name) for name in SHIPPED]
        nets += [random_cyclic_network(rng, n) for n in self.cyclic_sizes]
        self.graphs = []
        for net in nets:
            cm = graph_core.all_pairs_shortest_paths(net)
            self.graphs.append({
                "net": net, "cm": cm, "dist": np.asarray(cm.dist),
                "leaves": sorted(net.leaf_set - {net.entry_node})
                or list(range(1, net.node_count)),
                "params": sinkhorn.SinkhornParams(lam=0.05 * cm.diameter,
                                                  convergence_tol=1e-8),
                "cyclic": net.name.startswith("cyclic"),
            })

    def inputs(self, r: int) -> list[dict]:
        rng = np.random.default_rng(derive(self.seed, "metric", r))
        calls = []
        for g in self.graphs:
            net, dist = g["net"], g["dist"]
            pairs = {
                "sparse": [_attack_path_pair(rng, net, dist, net.neighbors, g["leaves"])
                           for _ in range(1 if g["cyclic"] else 2)],
                "dense": [_dense_pair(rng, net.node_count)
                          for _ in range(1 if g["cyclic"] else 2)],
            }
            for density, plist in pairs.items():
                for k, (p, q) in enumerate(plist):
                    base = {"g": g, "p": p, "q": q, "density": density}
                    if g["cyclic"]:
                        calls.append({**base, "kind": "ntd_large"})
                        continue
                    calls.append({**base, "kind": "ntd"})
                    calls.append({**base, "kind": "ntd_weighted",
                                  "coefficient": (-1.0, 1.0)[k % 2]})
                    if k == 0:
                        calls.append({**base, "kind": "sinkhorn_plan"})
                        calls.append({**base, "kind": "ntd_loss_grad"})
        return calls

    def _call(self, c: dict):
        g = c["g"]
        kind = c["kind"]
        if kind in ("ntd", "ntd_large"):
            return transport.ntd(c["p"], c["q"], g["cm"])
        if kind == "ntd_weighted":
            config = transport.WeightingConfig(
                features=(g["dist"][g["net"].entry_node].astype(float),),
                coefficients=(c["coefficient"],), floor=self.floor)
            return transport.ntd_weighted(c["p"], c["q"], g["cm"], config)
        if kind == "sinkhorn_plan":
            res = sinkhorn.sinkhorn_plan(c["p"], c["q"], g["cm"], g["params"])
            return [res.value, res.converged, res.iterations_used, res.marginal_violation]
        grad = sinkhorn.ntd_loss_grad(c["p"], c["q"], g["cm"], g["params"])
        return [float(x) for x in grad]

    def run(self, calls: list[dict]) -> Round:
        stages: dict[str, float] = {}
        latencies: dict[str, list[float]] = {}
        values = []
        for c in calls:
            start = time.perf_counter()
            value = self._call(c)
            elapsed = time.perf_counter() - start
            stages[c["kind"]] = stages.get(c["kind"], 0.0) + elapsed
            latencies.setdefault(c["kind"], []).append(elapsed)
            latencies.setdefault(f"{c['kind']}_{c['density']}", []).append(elapsed)
            values.append(value)
        return Round(stages=stages, items=len(calls), ops=len(calls),
                     outputs={"values": values}, info={"latencies": latencies})

    @staticmethod
    def report(rounds) -> dict:
        """Latency quantiles per call kind, overall and per density stratum:
        {name: (value, unit)}, with the sample count of each."""
        lat: dict[str, list[float]] = {}
        for r in rounds:
            for key, values in r.info["latencies"].items():
                lat.setdefault(key, []).extend(values)
        out = {}
        for key, values in lat.items():
            label = key.replace("sinkhorn_plan", "sinkhorn")
            quantiles = (0.5, 0.99) if label in ("ntd", "sinkhorn") else (0.5,)
            for q in quantiles:
                out[f"{label}_ms_p{round(q * 100)}"] = (1e3 * _quantile(values, q), "ms")
            out[f"{label}_samples"] = (len(values), "count")
        return out

    def check(self, calls: list[dict], rnd: Round) -> list[str]:
        bad = []
        for c, value in zip(calls, rnd.outputs["values"]):
            g = c["g"]
            net, diameter = g["net"], g["cm"].diameter
            label = f"{c['kind']} {net.name} {c['density']}"
            if c["kind"] in ("ntd", "ntd_large", "ntd_weighted"):
                if c["kind"] == "ntd_weighted":
                    w = oracles.remoteness_weights(g["dist"][net.entry_node],
                                                   c["coefficient"], self.floor)
                else:
                    w = np.ones(net.node_count)
                if not 0.0 <= value <= 1.0:
                    bad.append(f"{label}: {value} outside [0, 1]")
                elif oracles.is_tree(net.node_count, net.edges):
                    want = oracles.weighted_tree_ntd(net.node_count, net.edges,
                                                     diameter, c["p"], c["q"], w)
                    if abs(value - want) > 1e-9:
                        bad.append(f"{label}: {value} != tree oracle {want}")
                else:
                    if "oracle_dist" not in g:
                        g["oracle_dist"] = oracles.hop_distances(net.node_count, net.edges)
                    dist = g["oracle_dist"]
                    wp, wq = w * c["p"], w * c["q"]
                    lower = oracles.dual_lower_bound(dist, wp / wp.sum(),
                                                     wq / wq.sum()) / dist.max()
                    if value < lower - 1e-9:
                        bad.append(f"{label}: {value} below dual bound {lower}")
            elif c["kind"] == "sinkhorn_plan":
                val, converged, _, violation = value
                if not (converged and violation <= 1e-8 and np.isfinite(val)):
                    bad.append(f"{label}: not converged ({violation})")
            else:
                grad = np.asarray(value)
                if not np.isfinite(grad).all() or abs(grad.sum()) > 1e-9:
                    bad.append(f"{label}: gradient not centred")
        return bad

    def gate(self) -> dict:
        calls = Metric(GATE_SEED, Path()).inputs(0)
        values = [self._call(c) for c in calls]
        exact = [v for c, v in zip(calls, values)
                 if c["kind"] in ("ntd", "ntd_large", "ntd_weighted")]
        plans = [v for c, v in zip(calls, values) if c["kind"] == "sinkhorn_plan"]
        grads = [v for c, v in zip(calls, values) if c["kind"] == "ntd_loss_grad"]
        return {"ntd": exact, "sinkhorn_value": [p[0] for p in plans],
                "sinkhorn_converged": [p[1] for p in plans], "grad": grads}


WORKLOADS = {cls.name: cls for cls in (Tournament, Dataset, Metric)}
