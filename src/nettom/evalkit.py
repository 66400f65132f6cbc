"""Agent tournaments and prediction scoring.

Tournaments roll every (defender, attacker, topology) cell for a fixed
number of episodes and aggregate defender reward, win rate, and episode
duration. Predictions are always consumed from files (never in-process),
so externally trained models can be scored against a dataset manifest:
high-value-node predictions get support-weighted F1 and raw confusion
counts, and occupancy predictions get transport-distance statistics
stratified by topology, discount, and remoteness weighting, plus a
k-means pass that surfaces hedged (multi-path) predictions.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cyberenv import BLUE_WIN
from .dataset import (DatasetManifest, ToMSample, build_game_set, gamma_key, map_jobs,
                      read_manifest, run_episode)
from .errors import ConfigError, DataError
from .graph_core import entry_candidates, topology
from .jsonkeys import Key, number_map, number_vector, read_keys
from .seeding import derive_seed
from .transport import WeightingConfig, ntd_weighted

DEFAULT_COEFFICIENTS = (-1.0, 0.0, 1.0)
DEFAULT_FLOOR = 0.1
DEFAULT_ENTRY_COUNT = 1
DEFAULT_KMEANS_K = 4
HEDGING_MAX_ITERS = 300  # Lloyd iterations per hedging run, at most


# ---------------------------------------------------------------------------
# Tournaments
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    blue: str
    red: str
    network: str
    episodes: int
    mean_reward: float
    win_rate: float
    mean_duration: float


@dataclass
class TournamentTable:
    cells: list[CellStats]

    def averaged(self) -> list[CellStats]:
        """Per (blue, red) cells averaged across networks."""
        keys = sorted({(c.blue, c.red) for c in self.cells})
        out = []
        for blue, red in keys:
            group = [c for c in self.cells if (c.blue, c.red) == (blue, red)]
            out.append(CellStats(
                blue=blue,
                red=red,
                network="all",
                episodes=sum(c.episodes for c in group),
                mean_reward=float(np.mean([c.mean_reward for c in group])),
                win_rate=float(np.mean([c.win_rate for c in group])),
                mean_duration=float(np.mean([c.mean_duration for c in group])),
            ))
        return out


def _tournament_episode(args) -> tuple[float, bool, int]:
    network, blue_id, red_spec, seed, entry_count = args
    # A tournament reads only the reward, the outcome and the duration.
    traj = run_episode(network, blue_id, red_spec, f"{network}-{seed}", seed,
                       entry_count, record=False)
    return traj.total_blue_reward, traj.outcome == BLUE_WIN, traj.final_step


def run_tournament(blues, reds, networks, episodes_per_cell: int, seed: int,
                   entry_count: int = DEFAULT_ENTRY_COUNT, jobs: int = 1
                   ) -> TournamentTable:
    """Evaluate every joint policy profile over seeded episodes.

    Attacker specs naming only a species draw a fresh member per episode,
    so a cell's numbers describe the species, not one lucky draw.
    """
    games = build_game_set(blues, reds, networks)
    if episodes_per_cell < 1:
        raise ConfigError(f"episodes_per_cell: must be >= 1, got {episodes_per_cell}")
    for network in dict.fromkeys(game.network for game in games):
        try:
            entry_candidates(topology(network)[0], entry_count)
        except ValueError as exc:
            raise ConfigError(f"entry_count: {exc}") from None

    tasks = [(g.network, g.blue, g.red,
              derive_seed(seed, "tournament", g.blue, g.red.policy_id, g.network, e),
              entry_count)
             for g in games for e in range(episodes_per_cell)]
    results = map_jobs(_tournament_episode, tasks, jobs)

    cells = []
    for i, game in enumerate(games):
        rows = results[i * episodes_per_cell:(i + 1) * episodes_per_cell]
        cells.append(CellStats(
            blue=game.blue,
            red=game.red.policy_id,
            network=game.network,
            episodes=len(rows),
            mean_reward=float(np.mean([r[0] for r in rows])),
            win_rate=float(np.mean([1.0 if r[1] else 0.0 for r in rows])),
            mean_duration=float(np.mean([r[2] for r in rows])),
        ))
    return TournamentTable(cells=cells)


def write_tournament_reports(table: TournamentTable, out_dir: str | Path) -> list[Path]:
    """One CSV per metric per network, plus cross-network averages."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    networks = sorted({c.network for c in table.cells})
    groups = [(net, [c for c in table.cells if c.network == net])
              for net in networks]
    groups.append(("all", table.averaged()))
    for metric in ("mean_reward", "win_rate", "mean_duration"):
        for network, cells in groups:
            blues = sorted({c.blue for c in cells})
            reds = sorted({c.red for c in cells})
            path = out / f"tournament_{metric}_{network}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["blue\\red"] + reds)
                lut = {(c.blue, c.red): getattr(c, metric) for c in cells}
                for blue in blues:
                    writer.writerow(
                        [blue] + [format(lut[(blue, red)], ".6g") for red in reds]
                    )
            written.append(path)
    return written


# ---------------------------------------------------------------------------
# Prediction scoring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionRecord:
    sample_id: str
    pred_hvn: tuple[float, ...]
    pred_sr: dict[str, tuple[float, ...]]


#: The keys of a prediction line.
PREDICTION_KEYS = {"sample_id": Key(str), "pred_hvn": Key(list, convert=number_vector),
                   "pred_sr": Key(dict, convert=number_map)}


def read_predictions(path: str | Path) -> dict[str, PredictionRecord]:
    """Parse a predictions file: one JSON object per line, read against
    ``PREDICTION_KEYS``: sample_id, pred_hvn (a list of numbers) and
    pred_sr (a map from discount to a list of numbers), each list a
    distribution within 1e-6."""
    records = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = PredictionRecord(**read_keys(json.loads(line), PREDICTION_KEYS))
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: malformed prediction: {exc}") from None
            for label, vec in [("pred_hvn", rec.pred_hvn)] + [
                (f"pred_sr[{k}]", v) for k, v in rec.pred_sr.items()
            ]:
                arr = np.asarray(vec, dtype=float)
                if not np.isfinite(arr).all():
                    raise DataError(
                        f"{path}:{lineno}: {label} has non-finite entries"
                    )
                if (arr < 0).any() or abs(arr.sum() - 1.0) > 1e-6:
                    raise DataError(
                        f"{path}:{lineno}: {label} is not normalized within 1e-6"
                    )
            if rec.sample_id in records:
                raise DataError(
                    f"{path}:{lineno}: duplicate sample_id {rec.sample_id!r}"
                )
            records[rec.sample_id] = rec
    return records


def _match(preds: dict[str, PredictionRecord], manifest: DatasetManifest
           ) -> list[tuple[ToMSample, PredictionRecord]]:
    """Each sample with its prediction, whose ``pred_sr`` names only the
    manifest's discounts, each by a vector as long as the sample's topology."""
    missing = [s.sample_id for s in manifest.samples if s.sample_id not in preds]
    if missing:
        raise DataError(f"{len(missing)} sample ids missing from predictions: "
                        f"{', '.join(missing[:10])}")
    known = {gamma_key(g) for g in manifest.gammas}
    for s in manifest.samples:
        n = topology(s.network)[0].node_count
        for key, vec in preds[s.sample_id].pred_sr.items():
            if key not in known:
                raise DataError(f"sample {s.sample_id}: prediction provides gamma "
                                f"{key} absent from the manifest")
            if len(vec) != n:
                raise DataError(f"sample {s.sample_id}: pred_sr[{key}] has {len(vec)} "
                                f"entries: pred_sr has shape ({len(vec)},), expected ({n},) "
                                f"for {s.network}")
    return [(s, preds[s.sample_id]) for s in manifest.samples]


@dataclass
class HvtScore:
    weighted_f1: float
    confusion: dict[tuple[int, int], int]  # (true node, predicted node) -> count
    classes: list[int]

    def normalized_rows(self) -> dict[int, dict[int, float]]:
        """Row-normalized proportions, computed at emission time only."""
        out = {}
        for true in self.classes:
            row = {p: self.confusion.get((true, p), 0) for p in self.classes}
            total = sum(row.values())
            out[true] = {p: (c / total if total else 0.0) for p, c in row.items()}
        return out


def predicted_hvn(sample: ToMSample, record: PredictionRecord) -> int:
    """Argmax over the sample's candidate nodes; ties go to the lowest id."""
    if len(record.pred_hvn) != len(sample.hvns):
        raise DataError(
            f"sample {sample.sample_id}: pred_hvn has {len(record.pred_hvn)} "
            f"entries, expected {len(sample.hvns)}"
        )
    best = max(record.pred_hvn)
    return min(h for h, p in zip(sample.hvns, record.pred_hvn) if p == best)


def weighted_f1(y_true, y_pred) -> float:
    """Support-weighted one-vs-rest F1 over the classes present in y_true."""
    y_true = list(y_true)
    y_pred = list(y_pred)
    total = 0.0
    for c in sorted(set(y_true)):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if (tp + fp) else 0.0
        recall = tp / (tp + fn) if (tp + fn) else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if (precision + recall) else 0.0)
        support = sum(1 for t in y_true if t == c)
        total += support / len(y_true) * f1
    return total


def score_hvt(preds: dict[str, PredictionRecord],
              manifest: DatasetManifest) -> HvtScore:
    pairs = _match(preds, manifest)
    if not pairs:
        raise DataError("no samples to score")
    y_true = [s.truth_hvn for s, _ in pairs]
    y_pred = [predicted_hvn(s, r) for s, r in pairs]
    confusion: dict[tuple[int, int], int] = {}
    for t, p in zip(y_true, y_pred):
        confusion[(t, p)] = confusion.get((t, p), 0) + 1
    classes = sorted(set(y_true) | set(y_pred))
    return HvtScore(
        weighted_f1=weighted_f1(y_true, y_pred),
        confusion=confusion,
        classes=classes,
    )


@dataclass(frozen=True)
class SrScoreRow:
    sample_id: str
    network: str
    gamma: str
    coefficient: float
    value: float


@dataclass
class SrScores:
    rows: list[SrScoreRow]

    def stats(self) -> list[dict]:
        """Mean/median/quartile summaries per (network, gamma, coefficient)."""
        keys = sorted({(r.network, r.gamma, r.coefficient) for r in self.rows})
        out = []
        for network, gamma, coef in keys:
            vals = np.array([r.value for r in self.rows
                             if (r.network, r.gamma, r.coefficient)
                             == (network, gamma, coef)])
            out.append({
                "network": network,
                "gamma": gamma,
                "coefficient": coef,
                "count": int(vals.size),
                "mean": float(vals.mean()),
                "median": float(np.median(vals)),
                "q25": float(np.quantile(vals, 0.25)),
                "q75": float(np.quantile(vals, 0.75)),
            })
        return out


def _sample_remoteness(sample: ToMSample) -> np.ndarray:
    _, cm = topology(sample.network)
    return np.minimum(cm.dist[sample.entry], cm.dist[sample.truth_hvn]).astype(float)


def score_sr(preds: dict[str, PredictionRecord], manifest: DatasetManifest,
             coefficients=DEFAULT_COEFFICIENTS, floor: float = DEFAULT_FLOOR,
             gammas=None) -> SrScores:
    """Transport-distance scores per sample, discount, and weighting.

    The weighting feature is node remoteness (hop distance to the nearer of
    the entry and the true target); a zero coefficient makes the feature
    vector constant, which the weight combiner maps to all-ones, so the
    neutral column equals the unweighted metric exactly.

    The manifest is trusted: ``build_dataset`` and ``read_manifest`` hold
    each sample to its game's topology. ``_match`` holds the predictions to
    the manifest, and ``read_predictions`` each vector to a distribution.
    """
    pairs = _match(preds, manifest)
    gamma_keys = [gamma_key(g) for g in (manifest.gammas if gammas is None else gammas)]
    rows = []
    for sample, record in pairs:
        cm = topology(sample.network)[1]
        remoteness = _sample_remoteness(sample)
        for key in gamma_keys:
            if key not in record.pred_sr:
                raise DataError(
                    f"sample {sample.sample_id}: prediction missing gamma {key}"
                )
            pred = np.asarray(record.pred_sr[key], dtype=float)
            # Predictions are validated to 1e-6 on read; bring stragglers up
            # to the metric's tighter tolerance without disturbing vectors
            # that already meet it (an exact match must score exactly zero).
            total = pred.sum()
            if abs(total - 1.0) > 1e-9:
                pred = pred / total
            for coef in coefficients:
                config = WeightingConfig(
                    features=(remoteness,), coefficients=(float(coef),),
                    floor=floor,
                )
                value = ntd_weighted(pred, sample.truth_sr[key], cm, config)
                rows.append(SrScoreRow(
                    sample_id=sample.sample_id,
                    network=sample.network,
                    gamma=key,
                    coefficient=float(coef),
                    value=float(value),
                ))
    return SrScores(rows=rows)


# ---------------------------------------------------------------------------
# Hedging analysis
# ---------------------------------------------------------------------------


@dataclass
class HedgingResult:
    assignments: np.ndarray
    centroids: np.ndarray
    histogram: list[int]
    labels: list[int]  # dominant branch per cluster, -1 for core-heavy


def _kmeans_pp_init(X: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    centers = [X[int(rng.integers(len(X)))]]
    for _ in range(1, k):
        d2 = np.min([np.square(X - c).sum(axis=1) for c in centers], axis=0)
        total = d2.sum()
        if total <= 0.0:
            centers.append(X[int(rng.integers(len(X)))])
            continue
        centers.append(X[int(rng.choice(len(X), p=d2 / total))])
    return np.stack(centers)


def hedging_clusters(vectors: np.ndarray, k: int, seed: int,
                     branch_of=None) -> HedgingResult:
    """Single seeded Lloyd run over raw occupancy vectors.

    Plus-plus style seeding, Euclidean distance, ties to the lowest cluster
    index; empty clusters are allowed and simply keep their centroid.
    Clusters are labelled by the network branch holding most of their
    centroid mass when a branch map is supplied.
    """
    X = np.asarray(vectors, dtype=float)
    if X.ndim != 2:
        raise ValueError("vectors must be a 2-d array of row vectors")
    if len(X) < k:
        raise ValueError(f"need at least k={k} samples, got {len(X)}")
    rng = np.random.default_rng(seed)
    centers = _kmeans_pp_init(X, k, rng)
    assignments = np.zeros(len(X), dtype=int)
    for _ in range(HEDGING_MAX_ITERS):
        dists = np.stack([np.square(X - c).sum(axis=1) for c in centers])
        new_assignments = dists.argmin(axis=0)
        for j in range(k):
            members = X[new_assignments == j]
            if len(members):
                centers[j] = members.mean(axis=0)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
    histogram = [int((assignments == j).sum()) for j in range(k)]
    labels = []
    for j in range(k):
        if branch_of is None:
            labels.append(-1)
            continue
        mass: dict[int, float] = {}
        for node, branch in enumerate(branch_of):
            mass[branch] = mass.get(branch, 0.0) + centers[j][node]
        best = max(mass.values())
        labels.append(min(b for b, m in mass.items() if m == best))
    return HedgingResult(assignments=assignments, centroids=centers,
                         histogram=histogram, labels=labels)


# ---------------------------------------------------------------------------
# The scoring pipeline of ``nettom score`` and its report files
# ---------------------------------------------------------------------------


def score_predictions(pred_path: str | Path, manifest_path: str | Path,
                      coefficients=DEFAULT_COEFFICIENTS, floor: float = DEFAULT_FLOOR,
                      gammas=None, kmeans_k: int = DEFAULT_KMEANS_K,
                      kmeans_gamma: str | None = None,
                      kmeans_network: str | None = None, seed: int = 0):
    """``(hvt, sr, hedging, skipped)`` for a predictions file scored against
    a manifest: ``gammas`` (default: the manifest's) with each coefficient,
    then the hedging pass over one topology's vectors of one discount (the
    largest by default), or None with the reason in ``skipped``; ``kmeans_k``
    0 runs no pass. A bad flag raises ``ConfigError`` (``nettom score`` exits
    2), starting with the flag, and bad data ``DataError`` (exit 1). Every
    flag is checked before any file is read, and against the manifest before
    the predictions are read."""
    for flag, values in (("--coefficients", coefficients), ("--gammas", gammas or ())):
        repeated = [v for v in values if values.count(v) > 1]
        if repeated:
            raise ConfigError(f"{flag}: {repeated[0]:g} is repeated")
    try:
        # WeightingConfig owns these rules; its messages start with the field.
        WeightingConfig(features=(np.zeros(1),) * len(coefficients),
                        coefficients=coefficients, floor=floor)
    except ValueError as exc:
        raise ConfigError(f"--{exc}") from None
    if kmeans_k < 0:
        raise ConfigError(f"--kmeans-k: must be >= 0, got {kmeans_k}")
    try:
        manifest = read_manifest(manifest_path)
    except (OSError, ValueError, DataError) as exc:
        raise DataError(f"cannot load manifest {manifest_path}: {exc}") from None
    networks = sorted({s.network for s in manifest.samples})
    if kmeans_network is not None and kmeans_network not in networks:
        raise ConfigError(f"--kmeans-network: no sample on {kmeans_network!r}; "
                          f"samples span {', '.join(networks)}")
    keys = [gamma_key(g) for g in manifest.gammas]
    if kmeans_gamma is not None and kmeans_gamma not in keys:
        raise ConfigError(f"--kmeans-gamma: {kmeans_gamma!r} is not a discount "
                          f"of the manifest ({', '.join(keys)})")
    unknown = [k for k in map(gamma_key, gammas or ()) if k not in keys]
    if unknown:
        raise ConfigError(f"--gammas: {unknown[0]} is not a discount of the "
                          f"manifest ({', '.join(keys)})")
    try:
        preds = read_predictions(pred_path)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read predictions {pred_path}: {exc}") from None
    hvt = score_hvt(preds, manifest)
    sr = score_sr(preds, manifest, coefficients=coefficients, floor=floor,
                  gammas=gammas)

    if not kmeans_k:
        return hvt, sr, None, None
    if kmeans_network is None and len(networks) > 1:
        # Vectors over different topologies share no node space to cluster in.
        return hvt, sr, None, (f"samples span {', '.join(networks)}; "
                               "choose one with --kmeans-network")
    network = kmeans_network or networks[0]
    key = kmeans_gamma or gamma_key(max(manifest.gammas))
    vectors = [preds[s.sample_id].pred_sr[key] for s in manifest.samples
               if s.network == network and key in preds[s.sample_id].pred_sr]
    if len(vectors) < kmeans_k:
        return hvt, sr, None, f"{len(vectors)} vectors for {kmeans_k} clusters"
    hedging = hedging_clusters(np.asarray(vectors, dtype=float), kmeans_k, seed,
                               branch_of=topology(network)[0].branch_of)
    return hvt, sr, hedging, None


def write_score_reports(out_dir: str | Path, hvt: HvtScore | None = None,
                        sr: SrScores | None = None,
                        hedging: HedgingResult | None = None) -> list[Path]:
    """JSON and CSV artifacts mirroring the score tables; plot data only."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if hvt is not None:
        payload = {
            "weighted_f1": hvt.weighted_f1,
            "classes": hvt.classes,
            "confusion_counts": [
                {"true": t, "pred": p, "count": c}
                for (t, p), c in sorted(hvt.confusion.items())
            ],
            "confusion_row_normalized": {
                str(t): {str(p): v for p, v in row.items()}
                for t, row in hvt.normalized_rows().items()
            },
        }
        path = out / "hvt_score.json"
        path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                        encoding="utf-8")
        written.append(path)
    if sr is not None:
        path = out / "sr_scores.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id", "network", "gamma", "coefficient", "ntd"])
            for row in sr.rows:
                writer.writerow([row.sample_id, row.network, row.gamma,
                                 row.coefficient, format(row.value, ".9g")])
        written.append(path)
        path = out / "sr_stats.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["network", "gamma", "coefficient", "count",
                             "mean", "median", "q25", "q75"])
            for st in sr.stats():
                writer.writerow([st["network"], st["gamma"], st["coefficient"], st["count"]]
                                + [format(st[k], ".9g") for k in ("mean", "median", "q25", "q75")])
        written.append(path)
    if hedging is not None:
        path = out / "hedging_histogram.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "size", "dominant_branch"])
            for j, (size, label) in enumerate(zip(hedging.histogram,
                                                  hedging.labels)):
                writer.writerow([j, size, label])
        written.append(path)
    return written
