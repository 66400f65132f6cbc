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

import click
import numpy as np

from . import agents, cyberenv, dataset, evalkit, graph_core, sinkhorn, transport
from .errors import ConfigError, DataError
from .seeding import derive_seed

#: Experiment defaults that no library module defines. Dataset sizes and
#: discounts default to ``dataset.DatasetConfig``, the scoring floor to
#: ``evalkit.DEFAULT_FLOOR`` and the entry count to ``evalkit.run_tournament``.
EXPERIMENT_DEFAULTS = {
    "alpha": 0.01,
    "episodes_per_cell": 100,
    "kmeans_k": 4,
}

CONFIG_SCHEMA_VERSION = 1


def _fail_usage(message: str) -> "click.UsageError":
    err = click.UsageError(message)
    err.exit_code = 2
    return err


def _fail_data(message: str) -> "click.ClickException":
    err = click.ClickException(message)
    err.exit_code = 1
    return err


def _load_config(path: str) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise _fail_usage(f"cannot read config {path}: {exc}")
    if not isinstance(obj, dict):
        raise _fail_usage(f"config {path}: top level must be an object")
    version = obj.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise _fail_usage(
            f"config {path}: schema_version: expected {CONFIG_SCHEMA_VERSION}, "
            f"got {version!r}"
        )
    return obj


def _typed(value, where: str, kind):
    """``value`` if it is a ``kind``; an int passes as a float, and JSON
    true/false pass as neither."""
    if kind is float and type(value) is int:
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise _fail_usage(
            f"{where}: expected {kind.__name__}, got {type(value).__name__}"
        )
    return value


def _field(config: dict, name: str, kind, default=None, required=False,
           item=None):
    """The typed config field ``name``; a list field checks each entry
    against ``item``."""
    if name not in config:
        if required:
            raise _fail_usage(f"config.{name}: required field is missing")
        return default
    value = _typed(config[name], f"config.{name}", kind)
    if item is not None:
        value = [_typed(x, f"config.{name}[{i}]", item) for i, x in enumerate(value)]
    return value


def _red_specs_from_config(config: dict) -> list[agents.RedPolicySpec]:
    reds = config.get("reds")
    if isinstance(reds, list):
        out = []
        for i, item in enumerate(reds):
            if not isinstance(item, str):
                raise _fail_usage(f"config.reds[{i}]: expected an agent id string")
            try:
                out.append(agents.parse_red_id(item))
            except ConfigError as exc:
                raise _fail_usage(f"config.reds[{i}]: {exc}")
        return out
    if isinstance(reds, dict):
        kind = reds.get("kind")
        if not isinstance(kind, str):
            raise _fail_usage("config.reds.kind: required agent kind string")
        alpha = _typed(reds.get("alpha", EXPERIMENT_DEFAULTS["alpha"]),
                       "config.reds.alpha", float)
        count = _typed(reds.get("count"), "config.reds.count", int)
        seed = _typed(reds.get("seed"), "config.reds.seed", int)
        try:
            return agents.species_members(kind, alpha, count, seed)
        except (ConfigError, ValueError) as exc:
            raise _fail_usage(f"config.reds: {exc}")
    raise _fail_usage("config.reds: expected a list of agent ids or a species object")


def _read_distribution(path: str, n: int, name: str) -> np.ndarray:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        arr = np.asarray(data, dtype=float)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise _fail_data(f"cannot read distribution {path}: {exc}")
    try:
        return transport.check_distribution(arr, n, name)
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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", envvar="NETTOM_OUTPUT_DIR", default=".",
              help="Output directory (env: NETTOM_OUTPUT_DIR).")
def network(topology, seed, out):
    """Generate a topology and write its JSON description."""
    try:
        net = graph_core.generate_network(topology, seed)
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
    config = _load_config(config_path)
    blues = _field(config, "blues", list, required=True, item=str)
    networks = _field(config, "networks", list, required=True, item=str)
    episodes_per_cell = _field(config, "episodes_per_cell", int,
                               default=EXPERIMENT_DEFAULTS["episodes_per_cell"])
    seed = _field(config, "seed", int, required=True)
    options = {}
    if "entry_count" in config:
        options["entry_count"] = _field(config, "entry_count", int)
    reds = _red_specs_from_config(config)
    try:
        table = evalkit.run_tournament(
            blues, reds, networks, episodes_per_cell, seed,
            jobs=max(1, jobs), **options,
        )
    except ConfigError as exc:
        raise _fail_usage(str(exc))
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
    config = _load_config(config_path)
    blues = _field(config, "blues", list, required=True, item=str)
    networks = _field(config, "networks", list, required=True, item=str)
    seed = _field(config, "seed", int, required=True)
    holdout = _field(config, "holdout_reds", int, default=0)
    if not 0 <= holdout <= agents.MAX_SPECIES_MEMBERS:
        raise _fail_usage("config.holdout_reds: must be >= 0 and at most "
                          f"{agents.MAX_SPECIES_MEMBERS}")
    reds = _red_specs_from_config(config)
    for i, spec in enumerate(reds):
        if spec.params is None:
            raise _fail_usage(
                f"config.reds[{i}]: dataset attackers must be pinned members "
                "(give seed= and index=, or probs=)"
            )
    defaults = dataset.DatasetConfig
    try:
        ds_config = dataset.DatasetConfig(
            blues=tuple(blues),
            reds=tuple(reds),
            networks=tuple(networks),
            master_seed=seed,
            n_c=_field(config, "n_c", int, default=defaults.n_c),
            n_p=_field(config, "n_p", int, default=defaults.n_p),
            n_past=_field(config, "n_past", int, default=defaults.n_past),
            past_k=_field(config, "past_k", int, default=defaults.past_k),
            gammas=tuple(_field(config, "gammas", list,
                                default=defaults.gammas, item=float)),
            split_ratio=_field(config, "split_ratio", float,
                               default=defaults.split_ratio),
        )
    except ConfigError as exc:
        raise _fail_usage(f"config.{exc}")
    try:
        manifest = dataset.build_dataset(ds_config, out, jobs=max(1, jobs))
    except (ConfigError, ValueError) as exc:
        raise _fail_data(str(exc))
    disjoint = dataset.past_pools_disjoint(manifest)
    n_train = sum(1 for v in manifest.split.values() if v == "train")
    click.echo(
        f"games={len(manifest.games)} samples={len(manifest.samples)} "
        f"(train={n_train}, val={len(manifest.samples) - n_train}) "
        f"excluded={len(manifest.excluded)} past_pools_disjoint={disjoint}"
    )
    if holdout:
        red_kinds = {spec.kind for spec in reds}
        if len(red_kinds) != 1:
            raise _fail_usage("config.holdout_reds needs a single red kind")
        kind = red_kinds.pop()
        holdout_specs = agents.species_members(
            kind, EXPERIMENT_DEFAULTS["alpha"], holdout,
            derive_seed(seed, "holdout"),
        )
        test_config = dataclasses.replace(
            ds_config, reds=tuple(holdout_specs),
            master_seed=derive_seed(seed, "holdout", "build"),
        )
        test_manifest = dataset.build_dataset(
            test_config, Path(out) / "test", jobs=max(1, jobs)
        )
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
@click.option("--kmeans-k", type=int, default=EXPERIMENT_DEFAULTS["kmeans_k"],
              show_default=True)
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
        manifest = dataset.read_manifest(manifest_path)
    except (OSError, ValueError, DataError) as exc:
        raise _fail_data(f"cannot load manifest {manifest_path}: {exc}")
    try:
        preds = evalkit.read_predictions(pred_path)
        hvt = evalkit.score_hvt(preds, manifest)
        sr = evalkit.score_sr(preds, manifest, coefficients=coeffs,
                              floor=floor, gammas=gamma_set)
    except (ConfigError, DataError) as exc:
        raise _fail_data(str(exc))

    hedging = None
    stratum = [
        s for s in manifest.samples
        if kmeans_network is None or s.network == kmeans_network
    ]
    nets = sorted({s.network for s in stratum})
    if kmeans_k >= 1 and len(nets) > 1:
        # Vectors over different topologies share no node space to cluster in.
        click.echo(f"hedging pass skipped: samples span {', '.join(nets)}; "
                   "choose one with --kmeans-network", err=True)
    elif kmeans_k >= 1:
        key = kmeans_gamma or dataset.gamma_key(max(manifest.gammas))
        net = graph_core.topology(nets[0])[0]
        vectors = []
        for s in stratum:
            vec = preds[s.sample_id].pred_sr.get(key)
            if vec is None:
                continue
            # Only the scored discounts were length-checked by score_sr.
            if len(vec) != net.node_count:
                raise _fail_data(
                    f"sample {s.sample_id}: pred_sr[{key}] has {len(vec)} "
                    f"entries, expected {net.node_count} for {nets[0]}")
            vectors.append(vec)
        if len(vectors) >= kmeans_k:
            hedging = evalkit.hedging_clusters(
                np.asarray(vectors, dtype=float), kmeans_k, seed,
                branch_of=net.branch_of,
            )
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
    except ValueError as exc:
        raise _fail_data(str(exc))
    payload = {
        "cost": result.cost,
        "ntd": result.cost / cm.diameter,
        "diameter": cm.diameter,
        "pivots": result.pivots,
        "bland": result.bland,
    }
    if with_plan:
        payload["plan"] = [[float(x) for x in row] for row in result.plan]
    click.echo(json.dumps(payload, sort_keys=True))


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
        result = sinkhorn.sinkhorn_plan(p, q, cm, params)
    except (ValueError, RuntimeError) as exc:
        raise _fail_data(str(exc))
    click.echo(json.dumps({
        "value": result.value,
        "iterations": result.iterations_used,
        "converged": result.converged,
        "marginal_violation": result.marginal_violation,
        "lam": lam,
    }, sort_keys=True))


if __name__ == "__main__":
    sys.exit(main())
