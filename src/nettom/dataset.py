"""Observer-training dataset construction.

A sample pairs a handful of *past* episodes of one attacker (what the
observer has seen before), a *current* episode truncated to its first step
or two (what the observer is watching now), and ground truths for what the
attacker will do: the high-value node it ultimately captures and its
discounted future node occupancy from the truncation point onward.

Leakage hygiene drives the layout: every current episode owns a private
pool of past episodes, so no past trajectory is shared between samples,
and the train/validation split is made at the attacker level so that no
attacker parameterization appears on both sides.

Everything is derived from one master seed; rebuilding a dataset with the
same config reproduces every file byte for byte.
"""

from __future__ import annotations

import concurrent.futures
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .agents import RedPolicySpec, make_blue, make_red
from .cyberenv import RED_WIN, EpisodeTrajectory, rollout, write_trajectory
from .errors import ConfigError, DataError, SampleExclusionError
from .graph_core import json_int, topology
from .seeding import derive_seed, rng_for

MANIFEST_SCHEMA_VERSION = 1

DEFAULT_GAMMAS = (0.5, 0.95, 0.999)


@dataclass(frozen=True)
class GameConfig:
    """One cell of the game product: a defender, an attacker, a topology."""

    game_id: str
    blue: str
    red: RedPolicySpec
    network: str
    base_seed: int


@dataclass(frozen=True)
class PastRef:
    """A past episode plus the evenly spaced observation steps sampled from it."""

    episode_id: str
    step_indices: tuple[int, ...]


@dataclass(frozen=True)
class ToMSample:
    sample_id: str
    game_id: str
    network: str
    blue_id: str
    red_id: str
    current_episode_id: str
    t: int
    truth_hvn: int
    truth_sr: dict[str, tuple[float, ...]]
    past: tuple[PastRef, ...]
    hvns: tuple[int, int, int]
    target_index: int
    entry: int


@dataclass
class DatasetManifest:
    schema_version: int
    master_seed: int
    networks: list[str]
    gammas: tuple[float, ...]
    n_c: int
    n_p: int
    n_past: int
    past_k: int
    split_ratio: float
    games: dict[str, dict]
    samples: list[ToMSample]
    split: dict[str, str] = field(default_factory=dict)  # sample_id -> train/val
    red_split: dict[str, str] = field(default_factory=dict)  # red label -> side
    excluded: list[dict] = field(default_factory=list)


@dataclass(frozen=True)
class DatasetConfig:
    blues: tuple[str, ...]
    reds: tuple[RedPolicySpec, ...]
    networks: tuple[str, ...]
    master_seed: int
    n_c: int = 3
    n_p: int = 8
    n_past: int = 4
    past_k: int = 5
    gammas: tuple[float, ...] = DEFAULT_GAMMAS
    split_ratio: float = 0.75

    def __post_init__(self):
        """Reject sizes and discounts the build could only fail on late;
        each message starts with the field it names."""
        for i, spec in enumerate(self.reds):
            if spec.params is None:
                raise ConfigError(f"reds[{i}]: dataset attackers must be pinned "
                                  "members (give seed= and index=, or probs=)")
        if self.n_c < 1:
            raise ConfigError(f"n_c: must be >= 1, got {self.n_c}")
        if not 1 <= self.n_past <= self.n_p:
            raise ConfigError(
                f"n_past: must lie in [1, n_p={self.n_p}], got {self.n_past}"
            )
        if self.past_k < 1:
            raise ConfigError(f"past_k: must be >= 1, got {self.past_k}")
        for g in self.gammas:
            if not 0.0 < g < 1.0:
                raise ConfigError(f"gammas: {g!r} must lie strictly between 0 and 1")
        if not 0.0 < self.split_ratio < 1.0:
            raise ConfigError(
                f"split_ratio: {self.split_ratio!r} must lie strictly between 0 and 1"
            )


def build_game_set(blues, reds, networks, master_seed: int = 0) -> list[GameConfig]:
    """Full Cartesian product of defenders x attackers x topologies, in
    stable lexicographic order (blues outermost, networks innermost)."""
    blues = list(blues)
    reds = list(reds)
    networks = list(networks)
    if not blues or not reds or not networks:
        raise ConfigError("every game factor set must be non-empty")
    games = []
    idx = 0
    for blue in blues:
        for red in reds:
            for network in networks:
                games.append(GameConfig(
                    game_id=f"g{idx:05d}",
                    blue=blue,
                    red=red,
                    network=network,
                    base_seed=derive_seed(master_seed, "game", idx),
                ))
                idx += 1
    return games


def _episode_jobs(game: GameConfig, n_c: int, n_p: int):
    """(episode_id, seed) pairs for one game: currents then their pools."""
    jobs = []
    for c in range(n_c):
        jobs.append((f"{game.game_id}-c{c}", derive_seed(game.base_seed, "cur", c)))
        for j in range(n_p):
            jobs.append((
                f"{game.game_id}-c{c}-p{j}",
                derive_seed(game.base_seed, "past", c, j),
            ))
    return jobs


def run_episode(network: str, blue_id: str, red_spec: RedPolicySpec,
                episode_id: str, seed: int, entry_count: int = 1,
                record: bool = True) -> EpisodeTrajectory:
    """Play one seeded episode on a shipped topology; a failure names the
    episode, the matchup and the seed. ``record`` is passed to ``rollout``."""
    net, cm = topology(network)
    blue = make_blue(blue_id)
    red = make_red(red_spec)
    try:
        return rollout(net, blue, red, seed, cm=cm, entry_count=entry_count,
                       episode_id=episode_id, record=record)
    except Exception as exc:
        raise RuntimeError(
            f"episode {episode_id} on {network} "
            f"(blue={blue_id}, red={red_spec.policy_id}, seed={seed}): {exc}"
        ) from exc


def map_jobs(fn, tasks, jobs: int) -> list:
    """``fn`` applied to every task, results in task order; ``jobs > 1``
    spreads the calls over that many worker processes, in chunks of up to
    four tasks (fewer when there are too few tasks to give every worker
    a full chunk)."""
    if jobs <= 1:
        return [fn(task) for task in tasks]
    chunksize = max(1, min(4, len(tasks) // jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=chunksize))


def subsample_indices(final_step: int, k: int) -> tuple[int, ...]:
    """k evenly spaced observation indices over [0, final_step], endpoints
    included; short episodes return every index."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return (0,)
    if final_step + 1 <= k:
        return tuple(range(final_step + 1))
    return tuple(int(round(i * final_step / (k - 1))) for i in range(k))


def pick_current_step(traj: EpisodeTrajectory, rng: np.random.Generator) -> int:
    """Uniform over the first two time-steps; single-step episodes pin t=0."""
    if traj.final_step < 2:
        return 0
    return int(rng.integers(2))


def sr_ground_truth(traj: EpisodeTrajectory, t: int, gamma: float,
                    node_count: int) -> np.ndarray:
    """Normalized discounted rollout of red's successful compromises from t.

    Each node hit at step s >= t contributes gamma^(s-t); the entry
    foothold counts as an occupancy event at step 0. Episodes where red
    touches nothing from t onward are flagged for exclusion.
    """
    if not 0 <= t <= traj.final_step:
        raise ValueError(f"t={t} outside [0, {traj.final_step}]")
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie strictly between 0 and 1")
    raw = np.zeros(node_count, dtype=float)
    if t == 0:
        for e in traj.entries:
            raw[e] += 1.0
    for step in traj.steps:
        if step.red_action is None or step.t < t:
            continue
        w = gamma ** (step.t - t)
        for v in step.red_hits:
            raw[v] += w
    total = raw.sum()
    if total <= 0:
        raise SampleExclusionError(
            f"no red occupancy from step {t} in episode {traj.episode_id}"
        )
    return raw / total


def assemble_samples(currents, pools, n_past: int, past_k: int,
                     gammas, master_seed: int, game: GameConfig
                     ) -> tuple[list[ToMSample], list[dict]]:
    """Build samples from one game's episodes.

    Only current episodes red actually won can be labelled with a true
    target, so others are excluded (their files stay on disk). Past
    trajectories come from the current episode's private pool only.
    """
    if not 1 <= n_past:
        raise ValueError("n_past must be >= 1")
    samples = []
    excluded = []
    for cur, pool in zip(currents, pools):
        if n_past > len(pool):
            raise ValueError(
                f"n_past={n_past} exceeds the past pool size {len(pool)}"
            )
        if cur.outcome != RED_WIN:
            excluded.append({"episode": cur.episode_id, "reason": "blue_win"})
            continue
        net, _ = topology(cur.network)
        rng = rng_for(master_seed, "sample", cur.episode_id)
        t = pick_current_step(cur, rng)
        try:
            truth_sr = {
                gamma_key(g): tuple(
                    float(x) for x in
                    sr_ground_truth(cur, t, g, net.node_count)
                )
                for g in gammas
            }
        except SampleExclusionError as exc:
            excluded.append({"episode": cur.episode_id, "reason": str(exc)})
            continue
        chosen = rng.choice(len(pool), size=n_past, replace=False)
        past = tuple(
            PastRef(
                episode_id=pool[i].episode_id,
                step_indices=subsample_indices(pool[i].final_step, past_k),
            )
            for i in sorted(int(i) for i in chosen)
        )
        samples.append(ToMSample(
            sample_id=cur.episode_id,
            game_id=game.game_id,
            network=cur.network,
            blue_id=cur.blue_id,
            red_id=cur.red_id,
            current_episode_id=cur.episode_id,
            t=t,
            truth_hvn=cur.target_node,
            truth_sr=truth_sr,
            past=past,
            hvns=cur.hvns,
            target_index=cur.hvns.index(cur.target_node),
            entry=cur.entries[0],
        ))
    return samples, excluded


def gamma_key(gamma: float) -> str:
    return format(gamma, "g")


def split_by_agent(red_labels, ratio: float, seed: int) -> dict[str, str]:
    """Assign whole attackers to train or validation, deterministically.

    Splitting at the agent level keeps every parameterization unseen on
    the other side; a sample-level split would leak agent identity.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("split ratio must lie strictly between 0 and 1")
    labels = sorted(set(red_labels))
    rng = rng_for(seed, "split")
    order = rng.permutation(len(labels))
    n_train = int(round(ratio * len(labels)))
    assignment = {}
    for rank, idx in enumerate(order):
        assignment[labels[int(idx)]] = "train" if rank < n_train else "val"
    return assignment


def _build_game(task) -> tuple[list[ToMSample], list[dict]]:
    """Play and write one game's episodes, then label its samples; only the
    samples and exclusions leave the worker."""
    game, config, episodes_dir = task
    played = []
    for episode_id, seed in _episode_jobs(game, config.n_c, config.n_p):
        traj = run_episode(game.network, game.blue, game.red, episode_id, seed)
        write_trajectory(traj, episodes_dir / f"{episode_id}.jsonl")
        played.append(traj)
    # _episode_jobs lays each current out just before its pool of n_p.
    stride = config.n_p + 1
    currents = played[::stride]
    pools = [played[i + 1:i + stride] for i in range(0, len(played), stride)]
    return assemble_samples(currents, pools, config.n_past, config.past_k,
                            config.gammas, config.master_seed, game)


def build_dataset(config: DatasetConfig, out_dir: str | Path,
                  jobs: int = 1) -> DatasetManifest:
    """Run the full pipeline: episodes, samples, split, files on disk."""
    out = Path(out_dir)
    episodes_dir = out / "episodes"
    episodes_dir.mkdir(parents=True, exist_ok=True)

    games = build_game_set(
        config.blues, config.reds, config.networks, config.master_seed
    )
    results = map_jobs(
        _build_game, [(game, config, episodes_dir) for game in games], jobs
    )
    all_samples = [s for samples, _ in results for s in samples]
    all_excluded = [e for _, excluded in results for e in excluded]

    red_split = split_by_agent(
        [g.red.policy_id for g in games], config.split_ratio, config.master_seed
    )
    split = {s.sample_id: red_split[s.red_id] for s in all_samples}

    manifest = DatasetManifest(
        schema_version=MANIFEST_SCHEMA_VERSION,
        master_seed=config.master_seed,
        networks=list(config.networks),
        gammas=config.gammas,
        n_c=config.n_c,
        n_p=config.n_p,
        n_past=config.n_past,
        past_k=config.past_k,
        split_ratio=config.split_ratio,
        games={
            g.game_id: {
                "blue": g.blue,
                "red": g.red.policy_id,
                "network": g.network,
                "base_seed": g.base_seed,
            }
            for g in games
        },
        samples=all_samples,
        split=split,
        red_split=red_split,
        excluded=all_excluded,
    )
    write_manifest(manifest, out / "manifest.json")
    return manifest


def past_pools_disjoint(manifest: DatasetManifest) -> bool:
    """Exact set arithmetic on the leakage guarantee."""
    seen: set[str] = set()
    total = 0
    for sample in manifest.samples:
        ids = {ref.episode_id for ref in sample.past}
        total += len(ids)
        seen |= ids
    return len(seen) == total


def manifest_to_json(manifest: DatasetManifest) -> dict:
    return {
        "schema_version": manifest.schema_version,
        "master_seed": manifest.master_seed,
        "networks": manifest.networks,
        "gammas": [float(g) for g in manifest.gammas],
        "n_c": manifest.n_c,
        "n_p": manifest.n_p,
        "n_past": manifest.n_past,
        "past_k": manifest.past_k,
        "split_ratio": manifest.split_ratio,
        "games": manifest.games,
        "red_split": manifest.red_split,
        "excluded": manifest.excluded,
        "samples": [
            {
                "sample_id": s.sample_id,
                "game_id": s.game_id,
                "network": s.network,
                "blue_id": s.blue_id,
                "red_id": s.red_id,
                "current_episode_id": s.current_episode_id,
                "t": s.t,
                "truth_hvn": s.truth_hvn,
                "truth_sr": {k: list(v) for k, v in s.truth_sr.items()},
                "past": [
                    {"episode_id": p.episode_id, "steps": list(p.step_indices)}
                    for p in s.past
                ],
                "hvns": list(s.hvns),
                "target_index": s.target_index,
                "entry": s.entry,
                "split": manifest.split[s.sample_id],
            }
            for s in manifest.samples
        ],
    }


def write_manifest(manifest: DatasetManifest, path: str | Path) -> None:
    payload = json.dumps(manifest_to_json(manifest), sort_keys=True,
                         separators=(",", ":")) + "\n"
    Path(path).write_text(payload, encoding="utf-8")


def read_manifest(path: str | Path) -> DatasetManifest:
    obj = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(obj, dict):
        raise DataError("manifest must be a JSON object")
    if obj.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise ValueError(f"unsupported manifest schema {obj.get('schema_version')!r}")
    try:
        return _manifest_from_json(obj)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed manifest: {exc!r}") from None


def _sample_from_json(i: int, s: dict) -> ToMSample:
    for key in ("sample_id", "game_id", "network", "blue_id", "red_id",
                "current_episode_id"):
        if not isinstance(s[key], str):
            raise TypeError(f"samples[{i}].{key} must be a string, got {s[key]!r}")
    for key in ("t", "truth_hvn", "target_index", "entry"):
        json_int(s[key], f"samples[{i}].{key}")
    if s["split"] not in ("train", "val"):
        raise ValueError(f"samples[{i}].split must be 'train' or 'val', "
                         f"got {s['split']!r}")
    hvns = s["hvns"]
    if not isinstance(hvns, list) or len(hvns) != 3:
        raise ValueError(f"samples[{i}].hvns must be three integers, got {hvns!r}")
    for h in hvns:
        json_int(h, f"samples[{i}].hvns entry")
    if len(set(hvns)) != 3:
        raise ValueError(f"samples[{i}].hvns {hvns!r} are not distinct")
    if s["target_index"] not in (0, 1, 2):
        raise ValueError(f"samples[{i}].target_index must be 0, 1 or 2, "
                         f"got {s['target_index']!r}")
    if s["truth_hvn"] != hvns[s["target_index"]]:
        raise ValueError(f"samples[{i}].truth_hvn {s['truth_hvn']!r} is not "
                         f"hvns[{s['target_index']}] = {hvns[s['target_index']]!r}")
    for k, ref in enumerate(s["past"]):
        if not isinstance(ref["episode_id"], str):
            raise TypeError(f"samples[{i}].past[{k}].episode_id must be a string, "
                            f"got {ref['episode_id']!r}")
        if not isinstance(ref["steps"], list) or any(
                json_int(t, f"samples[{i}].past[{k}].steps entry") < 0
                for t in ref["steps"]):
            raise ValueError(f"samples[{i}].past[{k}].steps must be a list of "
                             f"non-negative integers, got {ref['steps']!r}")
    return ToMSample(
        sample_id=s["sample_id"],
        game_id=s["game_id"],
        network=s["network"],
        blue_id=s["blue_id"],
        red_id=s["red_id"],
        current_episode_id=s["current_episode_id"],
        t=s["t"],
        truth_hvn=s["truth_hvn"],
        truth_sr={k: tuple(v) for k, v in s["truth_sr"].items()},
        past=tuple(
            PastRef(episode_id=p["episode_id"], step_indices=tuple(p["steps"]))
            for p in s["past"]
        ),
        hvns=tuple(s["hvns"]),
        target_index=s["target_index"],
        entry=s["entry"],
    )


def _gammas_from_json(gammas) -> tuple[float, ...]:
    """The manifest's discounts: a non-empty list of distinct numbers, each
    strictly between 0 and 1, as a build writes them."""
    if not isinstance(gammas, list) or not gammas:
        raise ValueError(f"gammas must be a non-empty list, got {gammas!r}")
    for k, g in enumerate(gammas):
        if isinstance(g, bool) or not isinstance(g, (int, float)) or not 0 < g < 1:
            raise ValueError(f"gammas[{k}] must be a number strictly between "
                             f"0 and 1, got {g!r}")
        if g in gammas[:k]:
            raise ValueError(f"gammas[{k}] {g!r} is repeated")
    return tuple(float(g) for g in gammas)


def _manifest_from_json(obj: dict) -> DatasetManifest:
    for key, kind, name in (("games", dict, "an object"),
                            ("red_split", dict, "an object"),
                            ("excluded", list, "a list")):
        if not isinstance(obj[key], kind):
            raise TypeError(f"{key} must be {name}, got {obj[key]!r}")
    samples = [_sample_from_json(i, s) for i, s in enumerate(obj["samples"])]
    red_split = obj["red_split"]
    # One attacker's samples all sit on its side of the split.
    for i, s in enumerate(obj["samples"]):
        red = s["red_id"]
        if red not in red_split:
            raise ValueError(f"samples[{i}].red_id {red!r} is not in red_split")
        if s["split"] != red_split[red]:
            raise ValueError(f"samples[{i}].split {s['split']!r} is not "
                             f"red_split[{red!r}] = {red_split[red]!r}")
    return DatasetManifest(
        schema_version=obj["schema_version"],
        master_seed=obj["master_seed"],
        networks=obj["networks"],
        gammas=_gammas_from_json(obj["gammas"]),
        n_c=obj["n_c"],
        n_p=obj["n_p"],
        n_past=obj["n_past"],
        past_k=obj["past_k"],
        split_ratio=obj["split_ratio"],
        games=obj["games"],
        samples=samples,
        split={s["sample_id"]: s["split"] for s in obj["samples"]},
        red_split=red_split,
        excluded=obj["excluded"],
    )
