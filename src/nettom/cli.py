"""Command-line entry point wiring the whole toolkit together.

Exit codes: 0 success, 1 runtime/data error, 2 usage or config error.
Every stochastic command takes an explicit seed (no wall-clock defaults),
so re-running a command reproduces its outputs byte for byte. Only the
output directory and the worker count may come from the environment
(NETTOM_OUTPUT_DIR, NETTOM_JOBS).
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import agents, cyberenv, dataset, evalkit, graph_core, sinkhorn, transport
from .errors import ConfigError, DataError
from .seeding import derive_seed

CONFIG_SCHEMA_VERSION = 1

#: Marks a config key that has no default.
REQUIRED = object()


class Key(NamedTuple):
    """One config key: its JSON type (an int also passes as a float; JSON
    true/false pass as neither), the type of each item of a list, its
    default, the inclusive bounds the CLI owns, and a converter that checks
    the value further and returns what the command passes on."""

    kind: type | tuple[type, ...]
    default: object = REQUIRED
    item: type | None = None
    bounds: tuple[int, int] | None = None
    convert: Callable | None = None


def _fail_usage(message: str) -> "click.UsageError":
    err = click.UsageError(message)
    err.exit_code = 2
    return err


def _fail_data(message: str) -> "click.ClickException":
    err = click.ClickException(message)
    err.exit_code = 1
    return err


def _read_keys(obj, table: dict[str, Key], where: str) -> dict:
    """The checked value of every key of ``table`` read from ``obj`` (the
    default for an absent key, a tuple for a list); a key that ``table``
    does not name is an error."""
    if not isinstance(obj, dict):
        raise _fail_usage(f"{where}: expected an object, got {type(obj).__name__}")
    unknown = [name for name in obj if name not in table]
    if unknown:
        raise _fail_usage(
            f"unknown key {', '.join(f'{where}.{name}' for name in unknown)} "
            f"(known: {', '.join(table)})"
        )

    def typed(value, at: str, kind):
        if kind is float and type(value) is int:
            return float(value)
        if isinstance(value, bool) or not isinstance(value, kind):
            names = [k.__name__ for k in (kind if isinstance(kind, tuple) else (kind,))]
            raise _fail_usage(f"{at}: expected {' or '.join(names)}, "
                              f"got {type(value).__name__}")
        return value

    out = {}
    for name, key in table.items():
        at = f"{where}.{name}"
        if name not in obj:
            if key.default is REQUIRED:
                raise _fail_usage(f"{at}: required field is missing")
            out[name] = key.default
            continue
        value = typed(obj[name], at, key.kind)
        if isinstance(value, list):
            value = tuple(typed(x, f"{at}[{i}]", key.item) for i, x in enumerate(value))
        if key.bounds is not None:
            lo, hi = key.bounds
            if not lo <= value <= hi:
                rule = f"{lo}" if lo == hi else f">= {lo} and at most {hi}"
                raise _fail_usage(f"{at}: must be {rule}, got {value}")
        out[name] = key.convert(value, at) if key.convert else value
    return out


SPECIES_KEYS = {
    "kind": Key(str),
    "alpha": Key(float, 0.01),
    "count": Key(int),
    "seed": Key(int),
}


def _red_specs(reds, where: str) -> tuple[agents.RedPolicySpec, ...]:
    """Attacker specs from a list of agent ids or a species object."""
    if isinstance(reds, dict):
        species = _read_keys(reds, SPECIES_KEYS, where)
        try:
            return tuple(agents.species_members(**species))
        except (ConfigError, ValueError) as exc:
            raise _fail_usage(f"{where}: {exc}")
    specs = []
    for i, red_id in enumerate(reds):
        try:
            specs.append(agents.parse_red_id(red_id))
        except ConfigError as exc:
            raise _fail_usage(f"{where}[{i}]: {exc}")
    return tuple(specs)


_CONFIG_KEYS = {
    "schema_version": Key(int, CONFIG_SCHEMA_VERSION,
                          bounds=(CONFIG_SCHEMA_VERSION, CONFIG_SCHEMA_VERSION)),
    "blues": Key(list, item=str),
    "networks": Key(list, item=str),
    "seed": Key(int),
    "reds": Key((list, dict), item=str, convert=_red_specs),
}

TOURNAMENT_KEYS = {
    **_CONFIG_KEYS,
    "episodes_per_cell": Key(int, 100),
    "entry_count": Key(int, evalkit.DEFAULT_ENTRY_COUNT),
}

_DATASET_DEFAULTS = dataset.DatasetConfig

DATASET_KEYS = {
    **_CONFIG_KEYS,
    "holdout_reds": Key(int, 0, bounds=(0, agents.MAX_SPECIES_MEMBERS)),
    "n_c": Key(int, _DATASET_DEFAULTS.n_c),
    "n_p": Key(int, _DATASET_DEFAULTS.n_p),
    "n_past": Key(int, _DATASET_DEFAULTS.n_past),
    "past_k": Key(int, _DATASET_DEFAULTS.past_k),
    "gammas": Key(list, _DATASET_DEFAULTS.gammas, item=float),
    "split_ratio": Key(float, _DATASET_DEFAULTS.split_ratio),
}


def _load_config(path: str, table: dict[str, Key]) -> dict:
    """The checked config at ``path``, less its schema version."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail_usage(f"cannot read config {path}: {exc}")
    config = _read_keys(obj, table, "config")
    del config["schema_version"]
    return config


def _read_distribution(path: str, n: int, name: str) -> np.ndarray:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        values = graph_core.number_vector(data, name)
    except (OSError, TypeError, ValueError) as exc:
        raise _fail_data(f"cannot read distribution {path}: {exc}")
    try:
        return transport.check_distribution(values, n, name)
    except ValueError as exc:
        raise _fail_data(str(exc))


def _load_net(path: str) -> graph_core.Network:
    try:
        return graph_core.load_network(path)
    except (OSError, json.JSONDecodeError, IndexError, KeyError, TypeError,
            ValueError) as exc:
        raise _fail_data(f"cannot load network {path}: {exc}")


@click.group()
def main():
    """Graph transport metrics and the cyber-defence game toolkit."""


@main.command()
@click.option("--topology", required=True, help="Topology id, e.g. tree30.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Has no effect: every topology is a fixed template, so "
                   "all seeds write the same file.")
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default=".",
              help="Output directory (env: NETTOM_OUTPUT_DIR).")
def network(topology, seed, out):
    """Generate a topology and write its JSON description."""
    try:
        net = graph_core.generate_network(topology)
    except ConfigError as exc:
        raise _fail_usage(str(exc))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{net.name}.json"
    graph_core.save_network(net, path)
    click.echo(
        f"{net.name}: {net.node_count} nodes, {len(net.edges)} edges, "
        f"{net.branch_count} branches, entry {net.entry_node} -> {path}"
    )


@main.command()
@click.option("--blue", required=True, help="Blue policy id, e.g. blue.msn_d.")
@click.option("--red", "red_id", required=True,
              help="Red agent id, e.g. red.hvt_pref_sp:alpha=0.01,seed=5,index=0.")
@click.option("--network", "topology", required=True)
@click.option("--episodes", type=int, default=1, show_default=True)
@click.option("--seed", type=int, required=True)
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default="sim_out",
              show_default=True)
def simulate(blue, red_id, topology, episodes, seed, out):
    """Roll out episodes of one matchup and write trajectories + summary."""
    if episodes < 0:
        raise _fail_usage("--episodes must be >= 0")
    try:
        graph_core.topology(topology)
        agents.make_blue(blue)
        red_spec = agents.parse_red_id(red_id)
    except ConfigError as exc:
        raise _fail_usage(str(exc))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rewards, durations, wins = [], [], 0
    for e in range(episodes):
        try:
            traj = dataset.run_episode(topology, blue, red_spec, f"sim-{e}",
                                       derive_seed(seed, "simulate", e))
        except RuntimeError as exc:
            raise _fail_data(str(exc))
        cyberenv.write_trajectory(traj, out_dir / f"episode_{e:04d}.jsonl")
        rewards.append(traj.total_blue_reward)
        durations.append(traj.final_step)
        wins += traj.outcome == cyberenv.BLUE_WIN
    summary = {
        "episodes": episodes,
        "blue": blue,
        "red": red_id,
        "network": topology,
        "seed": seed,
        "win_rate": (wins / episodes) if episodes else None,
        "mean_duration": (sum(durations) / episodes) if episodes else None,
        "mean_reward": (sum(rewards) / episodes) if episodes else None,
    }
    (out_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    click.echo(json.dumps(summary, sort_keys=True))


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default="tournament_out",
              show_default=True)
@click.option("--jobs", envvar="NETTOM_JOBS", type=int, default=1, show_default=True)
def tournament(config_path, out, jobs):
    """Run a full tournament from a JSON config and emit metric tables."""
    config = _load_config(config_path, TOURNAMENT_KEYS)
    try:
        table = evalkit.run_tournament(**config, jobs=max(1, jobs))
    except ConfigError as exc:
        # run_tournament's messages start with the config key they check.
        raise _fail_usage(f"config.{exc}")
    except (DataError, RuntimeError, ValueError) as exc:
        raise _fail_data(str(exc))
    paths = evalkit.write_tournament_reports(table, out)
    click.echo(f"wrote {len(paths)} tables to {out}")
    for cell in table.averaged():
        click.echo(
            f"{cell.blue} vs {cell.red}: win_rate={cell.win_rate:.3f} "
            f"reward={cell.mean_reward:.2f} duration={cell.mean_duration:.1f}"
        )


@main.command(name="dataset")
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default="dataset_out",
              show_default=True)
@click.option("--jobs", envvar="NETTOM_JOBS", type=int, default=1, show_default=True)
def dataset_cmd(config_path, out, jobs):
    """Build the observer dataset (episodes + manifest) from a JSON config."""
    config = _load_config(config_path, DATASET_KEYS)
    holdout = config.pop("holdout_reds")
    try:
        ds_config = dataset.DatasetConfig(master_seed=config.pop("seed"), **config)
    except ConfigError as exc:
        raise _fail_usage(f"config.{exc}")
    if holdout and len({spec.kind for spec in ds_config.reds}) != 1:
        raise _fail_usage("config.holdout_reds needs a single red kind")

    def build(config, where):
        try:
            return dataset.build_dataset(config, where, jobs=max(1, jobs))
        except (RuntimeError, ValueError) as exc:
            raise _fail_data(str(exc))

    manifest = build(ds_config, out)
    disjoint = dataset.past_pools_disjoint(manifest)
    n_train = sum(manifest.red_split[s.red_id] == "train" for s in manifest.samples)
    click.echo(
        f"games={len(manifest.games)} samples={len(manifest.samples)} "
        f"(train={n_train}, val={len(manifest.samples) - n_train}) "
        f"excluded={len(manifest.excluded)} past_pools_disjoint={disjoint}"
    )
    if holdout:
        holdout_specs = agents.species_members(
            ds_config.reds[0].kind, SPECIES_KEYS["alpha"].default, holdout,
            derive_seed(ds_config.master_seed, "holdout"),
        )
        test_config = dataclasses.replace(
            ds_config, reds=tuple(holdout_specs),
            master_seed=derive_seed(ds_config.master_seed, "holdout", "build"),
        )
        test_manifest = build(test_config, Path(out) / "test")
        click.echo(
            f"holdout: reds={holdout} samples={len(test_manifest.samples)}"
        )
    if not disjoint:
        raise _fail_data("past pools are not disjoint; dataset is invalid")


@main.command()
@click.option("--predictions", "pred_path", required=True, type=click.Path())
@click.option("--manifest", "manifest_path", required=True, type=click.Path())
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default="score_out",
              show_default=True)
@click.option("--coefficients", default="-1,0,1", show_default=True,
              help="Remoteness weighting coefficients, comma-separated.")
@click.option("--gammas", default=None,
              help="Discount subset to score, comma-separated "
                   "(default: every discount in the manifest).")
@click.option("--floor", type=float, default=evalkit.DEFAULT_FLOOR,
              show_default=True)
@click.option("--kmeans-k", type=int, default=evalkit.DEFAULT_KMEANS_K,
              show_default=True, help="Clusters of the hedging pass (0: no pass).")
@click.option("--kmeans-gamma", default=None,
              help="Discount stratum for the hedging pass (default: largest).")
@click.option("--kmeans-network", default=None,
              help="Topology stratum for the hedging pass (default: all).")
@click.option("--seed", type=int, default=0, show_default=True)
def score(pred_path, manifest_path, out, coefficients, gammas, floor,
          kmeans_k, kmeans_gamma, kmeans_network, seed):
    """Score a predictions file against a dataset manifest."""
    try:
        coeffs = tuple(float(x) for x in coefficients.split(","))
        gamma_set = (tuple(float(x) for x in gammas.split(","))
                     if gammas else None)
    except ValueError:
        raise _fail_usage("--coefficients/--gammas: expected comma-separated "
                          "numbers")
    try:
        hvt, sr, hedging, skipped = evalkit.score_predictions(
            pred_path, manifest_path, coefficients=coeffs, floor=floor,
            gammas=gamma_set, kmeans_k=kmeans_k, kmeans_gamma=kmeans_gamma,
            kmeans_network=kmeans_network, seed=seed)
    except ConfigError as exc:
        raise _fail_usage(str(exc))
    except DataError as exc:
        raise _fail_data(str(exc))
    if skipped is not None:
        click.echo(f"hedging pass skipped: {skipped}", err=True)
    paths = evalkit.write_score_reports(out, hvt=hvt, sr=sr, hedging=hedging)
    click.echo(f"weighted_f1={hvt.weighted_f1:.4f}")
    for st in sr.stats():
        click.echo(
            f"ntd[{st['network']} gamma={st['gamma']} "
            f"coef={st['coefficient']:+.0f}]: mean={st['mean']:.4f} "
            f"median={st['median']:.4f} (n={st['count']})"
        )
    if hedging is not None:
        click.echo(f"hedging histogram: {hedging.histogram}")
    click.echo(f"wrote {len(paths)} report files to {out}")


@main.group()
def ntd():
    """Transport metric utilities on serialized distributions."""


@ntd.command(name="score")
@click.option("--p", "p_path", required=True, type=click.Path())
@click.option("--q", "q_path", required=True, type=click.Path())
@click.option("--network", "net_path", required=True, type=click.Path())
@click.option("--plan", "with_plan", is_flag=True, help="Include the plan.")
def ntd_score(p_path, q_path, net_path, with_plan):
    """Exact transport cost and unit-bounded score for two distributions."""
    net = _load_net(net_path)
    cm = graph_core.all_pairs_shortest_paths(net)
    p = _read_distribution(p_path, net.node_count, "P")
    q = _read_distribution(q_path, net.node_count, "Q")
    try:
        result = transport.wasserstein(p, q, cm)
    except (ValueError, RuntimeError) as exc:
        raise _fail_data(str(exc))
    payload = {
        "cost": result.cost,
        "ntd": result.cost / cm.diameter,
        "diameter": cm.diameter,
        "duality_gap": result.cost - float((p - q) @ result.potential),
        "pivots": result.pivots,
        "bland": result.bland,
    }
    if with_plan:
        payload["plan"] = [[float(x) for x in row] for row in result.plan]
    click.echo(json.dumps(payload, sort_keys=True))


_SINKHORN_FLAGS = {"lam": "--lambda", "max_iters": "--max-iters",
                   "convergence_tol": "--tol"}


@ntd.command(name="sinkhorn")
@click.option("--p", "p_path", required=True, type=click.Path())
@click.option("--q", "q_path", required=True, type=click.Path())
@click.option("--network", "net_path", required=True, type=click.Path())
@click.option("--lambda", "lam", type=float, default=None,
              help="Regularization weight (default 0.05 * diameter).")
@click.option("--max-iters", type=int, default=10_000, show_default=True)
@click.option("--tol", type=float, default=1e-8, show_default=True)
def ntd_sinkhorn(p_path, q_path, net_path, lam, max_iters, tol):
    """Entropic-regularized loss via scaling iterations."""
    net = _load_net(net_path)
    cm = graph_core.all_pairs_shortest_paths(net)
    p = _read_distribution(p_path, net.node_count, "P")
    q = _read_distribution(q_path, net.node_count, "Q")
    if lam is None:
        lam = 0.05 * cm.diameter
    try:
        params = sinkhorn.SinkhornParams(
            lam=lam, max_iters=max_iters, convergence_tol=tol
        )
    except ValueError as exc:
        # SinkhornParams owns these rules; name the flag for the field its
        # message starts with, and pass any other message on unchanged.
        field, _, rest = str(exc).partition(" ")
        raise _fail_data(f"{_SINKHORN_FLAGS.get(field, field)} {rest}")
    try:
        result = sinkhorn.sinkhorn_plan(p, q, cm, params)
    except (ValueError, RuntimeError) as exc:
        raise _fail_data(str(exc))
    click.echo(json.dumps({
        "value": result.value,
        "iterations": result.iterations_used,
        "converged": result.converged,
        "marginal_violation": result.marginal_violation,
        "absorptions": result.absorptions,
        "lam": lam,
    }, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
