"""Rule-based attacker and defender policies, plus species sampling.

Every policy is addressable by a string id (``blue.msn_d``,
``red.hvt_pref_sp:alpha=0.01,seed=5,index=12``) and follows the same tiny
protocol: ``begin_episode(ctx, rng)`` resets all per-episode memory, and
``act(obs, rng)`` returns a legal action for the observation. Policy
objects may be reused across episodes; nothing persists between them.

Attacker parameterizations come from a Dirichlet species: a concentration
value alpha defines the species, and individual agents are simplex draws
from it. Specs may pin a fixed member (datasets score fixed agents) or
name only the species, in which case a fresh member is drawn at the start
of every episode (tournaments evaluate the species as a whole).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .cyberenv import (
    BLUE_ACTION_KINDS,
    BLUE_DO_NOTHING,
    BLUE_ISOLATE,
    BLUE_MAKE_SAFE,
    BLUE_RECONNECT,
    BLUE_REDUCE_VULN,
    BLUE_RESTORE,
    BLUE_SCAN,
    RED_ACTION_KINDS,
    RED_BASIC_ATTACK,
    RED_DO_NOTHING,
    RED_INTRUDE,
    RED_RANDOM_MOVE,
    RED_SPREAD,
    RED_ZERO_DAY,
    BlueAction,
    EpisodeContext,
    RedAction,
    StateObservation,
    attackable_nodes,
    node_attackable,
)
from .errors import ConfigError
from .graph_core import shortest_path
from .seeding import derive_seed
from .transport import check_distribution

#: Largest number of members one species draw may produce. Members are drawn
#: in sequence, so pinning member ``index`` draws ``index + 1`` of them.
MAX_SPECIES_MEMBERS = 100_000

# The actions that take no target, built once: they are frozen, so every
# policy and step can share them.
_BLUE_UNTARGETED = {kind: BlueAction(kind) for kind in (BLUE_DO_NOTHING, BLUE_SCAN)}
_RED_UNTARGETED = {kind: RedAction(kind)
                   for kind in (RED_DO_NOTHING, RED_SPREAD, RED_INTRUDE)}
_BLUE_IDLE = _BLUE_UNTARGETED[BLUE_DO_NOTHING]
_SCAN = _BLUE_UNTARGETED[BLUE_SCAN]
_RED_IDLE = _RED_UNTARGETED[RED_DO_NOTHING]
# The blue actions aimed at a visible, non-isolated compromise.
_ON_VISIBLE = (BLUE_MAKE_SAFE, BLUE_RESTORE, BLUE_ISOLATE)
# ``BlueRandomSmart``'s choices, in ``BLUE_ACTION_KINDS`` order, keyed by
# (is a visible compromise not isolated?, may an isolated node be
# reconnected?).
_RANDOM_SMART_KINDS = {
    (has_visible, has_isolated): tuple(
        k for k in BLUE_ACTION_KINDS
        if (has_visible or k not in _ON_VISIBLE)
        and (has_isolated or k != BLUE_RECONNECT))
    for has_visible in (False, True) for has_isolated in (False, True)
}


def _dirichlet_rows(rng: np.random.Generator, alpha: float, count: int,
                    dim: int) -> np.ndarray:
    """Dirichlet(alpha * 1_dim) draws via normalized Gamma variates.

    Sampled in log space (the shape-boost identity G(a) = G(a+1) * U^(1/a))
    so sparse concentrations like alpha=0.01 do not underflow to all-zero
    rows before normalization. Rows consume the generator one draw at a
    time, so the i-th member of a seeded sequence does not depend on how
    many members were requested.
    """
    rows = np.empty((count, dim))
    for i in range(count):
        boosted = rng.gamma(alpha + 1.0, 1.0, size=dim)
        u = 1.0 - rng.random(size=dim)  # (0, 1], log-safe
        log_g = np.log(boosted) + np.log(u) / alpha
        log_g -= log_g.max()
        g = np.exp(log_g)
        rows[i] = g / g.sum()
    return rows


def _check_alpha(alpha: float) -> None:
    """A species concentration must be a finite number above zero."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ConfigError(f"alpha must be positive and finite, got {alpha!r}")


def sample_species(alpha: float, count: int, dim: int, seed: int) -> np.ndarray:
    """Draw ``count`` i.i.d. members of the species, deterministically per
    seed, as the rows of one read-only ``(count, dim)`` array."""
    _check_alpha(alpha)
    if not 1 <= count <= MAX_SPECIES_MEMBERS:
        raise ConfigError(
            f"count must lie in [1, {MAX_SPECIES_MEMBERS}], got {count}")
    rows = _dirichlet_rows(np.random.default_rng(seed), alpha, count, dim)
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# Blue policies
# ---------------------------------------------------------------------------


class _Policy:
    policy_id = "policy"

    def begin_episode(self, ctx: EpisodeContext, rng: np.random.Generator) -> None:
        self._ctx = ctx

    def act(self, obs: StateObservation, rng: np.random.Generator):
        raise NotImplementedError


class _ThreatAware(_Policy):
    """A defender that watches how close visible compromises are to the
    high-value nodes; their distances are fixed for the episode."""

    def begin_episode(self, ctx, rng):
        super().begin_episode(ctx, rng)
        # Hop distance from every node to its nearest high-value node.
        self._hvn_dist = ctx.cm.dist[:, list(ctx.hvns)].min(axis=1)

    def _nearest_threat(self, obs: StateObservation):
        """The visible compromised node closest to any high-value node, with
        its hop distance; None when blue sees no compromise. Ties break low
        id."""
        visible = obs.compromised_visible.nonzero()[0]
        if visible.size == 0:
            return None
        dists = self._hvn_dist[visible]
        k = int(dists.argmin())
        return int(visible[k]), int(dists[k])


def _defence_probability(dist_to_hvn: int, diameter: int) -> float:
    """Chance of acting defensively, rising as a compromise nears an HVN."""
    return min(max(1.0 - dist_to_hvn / max(diameter, 1), 0.1), 0.95)


class BlueSleep(_Policy):
    """Never acts; baseline for an undefended network."""

    policy_id = "blue.sleep"

    def act(self, obs, rng):
        return _BLUE_IDLE


class BlueRandom(_Policy):
    """Uniform action, uniform node; no strategy at all."""

    policy_id = "blue.random"

    def act(self, obs, rng):
        kind = BLUE_ACTION_KINDS[rng.integers(len(BLUE_ACTION_KINDS))]
        if kind in _BLUE_UNTARGETED:
            return _BLUE_UNTARGETED[kind]
        return BlueAction(kind, int(rng.integers(len(obs.vulnerability))))


class BlueRandomSmart(_Policy):
    """Uniform over actions that currently have a sensible target, then a
    uniform pick among those targets: cleaning, restoring and quarantine
    (isolation) all go to visibly compromised nodes, and quarantine is
    lifted only while no compromise is visible. No strategy, but no
    outright self-defeating moves either."""

    policy_id = "blue.random_smart"

    def act(self, obs, rng):
        # On bools, compromised_visible > isolated is compromised_visible & ~isolated.
        visible = (obs.compromised_visible > obs.isolated).nonzero()[0]
        isolated = visible[:0] if np.count_nonzero(obs.compromised_visible) else \
            obs.isolated.nonzero()[0]
        kinds = _RANDOM_SMART_KINDS[visible.size > 0, isolated.size > 0]
        kind = kinds[rng.integers(len(kinds))]
        if kind in _BLUE_UNTARGETED:
            return _BLUE_UNTARGETED[kind]
        if kind == BLUE_REDUCE_VULN:
            return BlueAction(kind, int(rng.integers(len(obs.vulnerability))))
        pool = isolated if kind == BLUE_RECONNECT else visible
        return BlueAction(kind, int(pool[rng.integers(len(pool))]))


class BlueIsolate(_Policy):
    """Cuts the entry and the high-value nodes off the network in the first
    few steps, then scans and cleans whatever shows up. Wins by the rules
    (isolated nodes cannot be attacked) at a standing reward cost."""

    policy_id = "blue.isolate"

    def begin_episode(self, ctx, rng):
        super().begin_episode(ctx, rng)
        self._queue = list(ctx.entries) + [h for h in ctx.hvns
                                           if h not in ctx.entries]

    def act(self, obs, rng):
        while self._queue:
            v = self._queue.pop(0)
            if not obs.isolated[v]:
                return BlueAction(BLUE_ISOLATE, v)
        visible = obs.compromised_visible.nonzero()[0]
        if visible.size:
            return BlueAction(BLUE_MAKE_SAFE, int(visible[0]))
        return _SCAN


class BlueMsnD(_ThreatAware):
    """Deterministic perimeter defence: clean the visible compromise nearest
    a high-value node when it is within three hops, otherwise scan."""

    policy_id = "blue.msn_d"
    reach = 3

    def act(self, obs, rng):
        threat = self._nearest_threat(obs)
        if threat is not None and threat[1] <= self.reach:
            return BlueAction(BLUE_MAKE_SAFE, threat[0])
        return _SCAN


class BlueMsnS(_ThreatAware):
    """Stochastic cleaner; the cleaning probability rises as the nearest
    visible compromise approaches a high-value node."""

    policy_id = "blue.msn_s"
    defensive_kind = BLUE_MAKE_SAFE

    def act(self, obs, rng):
        threat = self._nearest_threat(obs)
        if threat is not None:
            p = _defence_probability(threat[1], self._ctx.cm.diameter)
            if rng.random() < p:
                return self._defensive(obs, rng, threat[0])
        return self._fallback(obs, rng)

    def _defensive(self, obs, rng, node):
        return BlueAction(self.defensive_kind, node)

    def _fallback(self, obs, rng):
        return _SCAN


class BlueRestore(BlueMsnS):
    """As the stochastic cleaner, but restores (clean + vulnerability reset)."""

    policy_id = "blue.restore"
    defensive_kind = BLUE_RESTORE


class BlueMsnRnv(BlueMsnS):
    """Stochastic cleaner that otherwise either scans or hardens the most
    vulnerable node, with equal probability."""

    policy_id = "blue.msn_rnv"

    def _fallback(self, obs, rng):
        if rng.integers(2) == 0:
            return _SCAN
        return BlueAction(BLUE_REDUCE_VULN, int(obs.vulnerability.argmax()))


class BlueMsnRestore(BlueMsnS):
    """Stochastic cleaner choosing uniformly between cleaning and restoring."""

    policy_id = "blue.msn_restore"

    def _defensive(self, obs, rng, node):
        kind = BLUE_MAKE_SAFE if rng.integers(2) == 0 else BLUE_RESTORE
        return BlueAction(kind, node)


class BlueMsnRnvRestore(BlueMsnRnv, BlueMsnRestore):
    """Full defensive repertoire short of isolation: clean or restore when
    acting defensively, scan or harden otherwise."""

    policy_id = "blue.msn_rnv_restore"


# ---------------------------------------------------------------------------
# Red policies
# ---------------------------------------------------------------------------

RED_PROB_ORDER = RED_ACTION_KINDS  # action-probability vectors use this order


@dataclass(frozen=True)
class RedPolicySpec:
    """Which attacker to run and how it is parameterized.

    Exactly one of ``params`` (a fixed simplex vector) or ``alpha`` (a
    species; a fresh member is drawn each episode) must be given. The
    vector is an action-probability vector for most attackers and a
    high-value-node preference vector for the two preference attackers.
    """

    kind: str
    params: tuple[float, ...] | None = None
    alpha: float | None = None
    label: str | None = None

    def __post_init__(self):
        if self.kind not in RED_REGISTRY:
            raise ConfigError(f"unknown red policy {self.kind!r}")
        if (self.params is None) == (self.alpha is None):
            raise ConfigError("specify exactly one of params or alpha")
        if self.alpha is not None:
            _check_alpha(self.alpha)
        if self.params is not None:
            try:
                check_distribution(self.params, red_param_dim(self.kind),
                                   f"{self.kind} params")
            except ValueError as exc:
                raise ConfigError(str(exc)) from None

    @property
    def policy_id(self) -> str:
        if self.label:
            return self.label
        if self.params is not None:
            vec = ":".join(f"{x:.6g}" for x in self.params)
            return f"red.{self.kind}:probs={vec}"
        return f"red.{self.kind}:alpha={self.alpha:g}"


def red_param_dim(kind: str) -> int:
    return 3 if kind in ("hvt_pref", "hvt_pref_sp") else len(RED_PROB_ORDER)


def _attackable(obs: StateObservation, ctx: EpisodeContext) -> np.ndarray:
    return attackable_nodes(
        ctx.net.adjacency, obs.compromised_visible, obs.isolated, obs.is_entry
    )


def _node_attackable(obs: StateObservation, ctx: EpisodeContext, v: int) -> bool:
    """``_attackable(obs, ctx)[v]`` without building the whole mask."""
    return node_attackable(ctx.net.neighbors, v, obs.compromised_visible,
                           obs.isolated, obs.is_entry)


def _move_targets(obs: StateObservation, ctx: EpisodeContext) -> np.ndarray:
    """Nodes a random move may relocate to: non-isolated neighbours of a
    live (compromised, non-isolated) node, read from the live nodes' rows of
    the symmetric base adjacency, gathered by ``take`` on their ids."""
    live = (obs.compromised_visible > obs.isolated).nonzero()[0]
    frontier = np.logical_or.reduce(ctx.net.adjacency.take(live, axis=0), axis=0)
    return (frontier > obs.isolated).nonzero()[0]


def _live_degree(obs: StateObservation, ctx: EpisodeContext,
                 nodes: np.ndarray) -> np.ndarray:
    """Each of ``nodes``' count of live edges (to non-isolated neighbours)."""
    rows = ctx.net.adjacency.take(nodes, axis=0)
    return np.add.reduce(rows > obs.isolated, axis=1)


def _strike_kind(obs: StateObservation) -> str:
    """Zero-day while the budget lasts, otherwise an ordinary attack."""
    return RED_ZERO_DAY if (obs.zero_day_budget or 0) > 0 else RED_BASIC_ATTACK


class _RedBase(_Policy):
    def __init__(self, spec: RedPolicySpec):
        self.spec = spec
        self.policy_id = spec.policy_id

    def begin_episode(self, ctx, rng):
        super().begin_episode(ctx, rng)
        if self.spec.params is not None:
            self._params = np.asarray(self.spec.params, dtype=float)
        else:
            dim = red_param_dim(self.spec.kind)
            self._params = _dirichlet_rows(rng, self.spec.alpha, 1, dim)[0]
        # The inverse cdf that ``Generator.choice(p=params)`` builds on every
        # call, built once: ``bisect_right(cdf, rng.random())`` consumes the
        # same draw and returns the same index.
        cdf = self._params.cumsum()
        cdf /= cdf[-1]
        self._cdf = cdf.tolist()


class RedRandomSimple(_RedBase):
    """Unskilled attacker: actions follow its probability vector, targets
    are uniform over whatever is currently attackable. Happily wastes a
    turn on a zero-day it does not have."""

    # Whether an unavailable zero-day is swapped for an ordinary attack.
    swaps_zero_day = False

    def act(self, obs, rng):
        kind = RED_PROB_ORDER[bisect.bisect_right(self._cdf, rng.random())]
        return self._emit(kind, obs, rng)

    def _emit(self, kind, obs, rng):
        if kind == RED_ZERO_DAY and self.swaps_zero_day:
            kind = _strike_kind(obs)
        if kind in _RED_UNTARGETED:
            return _RED_UNTARGETED[kind]
        if kind == RED_RANDOM_MOVE:
            pool = _move_targets(obs, self._ctx)
            if pool.size == 0:
                return _RED_IDLE
            return RedAction(kind, int(pool[rng.integers(pool.size)]))
        # basic or zero-day attack
        pool = _attackable(obs, self._ctx).nonzero()[0]
        if pool.size == 0:
            return _RED_IDLE
        return RedAction(kind, self._pick_target(pool, obs, rng))

    def _pick_target(self, pool, obs, rng):
        return int(pool[rng.integers(pool.size)])


class RedRandomSmart(RedRandomSimple):
    """As the unskilled attacker, but swaps an unavailable zero-day for an
    ordinary attack instead of wasting the turn."""

    swaps_zero_day = True


class RedTargetConnected(RedRandomSmart):
    """Targets the attackable node with the most live connections."""

    def _pick_target(self, pool, obs, rng):
        deg = _live_degree(obs, self._ctx, pool)
        return int(pool[int(deg.argmax())])


class RedTargetUnconnected(RedRandomSmart):
    """Targets the attackable node with the fewest live connections."""

    def _pick_target(self, pool, obs, rng):
        deg = _live_degree(obs, self._ctx, pool)
        return int(pool[int(deg.argmin())])


class RedTargetVulnerable(RedRandomSmart):
    """Targets the most vulnerable attackable node."""

    def _pick_target(self, pool, obs, rng):
        return int(pool[int(obs.vulnerability[pool].argmax())])


class RedTargetResilient(RedRandomSmart):
    """Targets the least vulnerable attackable node."""

    def _pick_target(self, pool, obs, rng):
        return int(pool[int(obs.vulnerability[pool].argmin())])


class RedHvtSimple(RedRandomSimple):
    """No network knowledge, but recognizes a high-value node the moment one
    becomes attackable and then strikes it deterministically: zero-day if
    available, ordinary attack otherwise."""

    def begin_episode(self, ctx, rng):
        super().begin_episode(ctx, rng)
        self._hvns = sorted(ctx.hvns)

    def act(self, obs, rng):
        for h in self._hvns:
            if _node_attackable(obs, self._ctx, h):
                return RedAction(_strike_kind(obs), h)
        return super().act(obs, rng)


class RedHvtPreferenceSP(_RedBase):
    """Insider attacker: picks one high-value node at episode start by
    weighing its preference vector against entry distance, then walks the
    shortest path to it, zero-daying while the budget lasts.

    If the defence cleans part of the walked path, it resumes from the
    furthest path node still compromised; if the path is severed by
    isolation, it re-plans a shortest path through the surviving graph.
    """

    deviation_prob = 0.0  # probability of an off-path exploratory turn

    def begin_episode(self, ctx, rng):
        super().begin_episode(ctx, rng)
        entry = ctx.entries[0]
        dists = [max(1, int(ctx.cm.dist[entry, h])) for h in ctx.hvns]
        scores = [p / d for p, d in zip(self._params, dists)]
        best = max(scores)
        self._target = min(h for h, s in zip(ctx.hvns, scores) if s == best)
        self._path = shortest_path(ctx.net, entry, self._target)
        # The blocked set under which the entry last failed to reach the
        # target: that search depends on nothing else, so it is not repeated.
        self._entry_cut_off = None

    def act(self, obs, rng):
        if self.deviation_prob > 0.0 and rng.random() < self.deviation_prob:
            return self._deviate(obs, rng)
        return self._path_step(obs)

    def _deviate(self, obs, rng):
        """A sloppy off-path turn: a random move or an outright stall.

        Deviations burn tempo and gain nothing, which is what separates
        this attacker from its always-on-path variant in tournament play.
        """
        if rng.integers(2) == 0:
            pool = _move_targets(obs, self._ctx)
            if pool.size:
                return RedAction(RED_RANDOM_MOVE,
                                   int(pool[rng.integers(pool.size)]))
        return _RED_IDLE

    def _path_step(self, obs):
        nxt = self._next_on_path(obs)
        if nxt is None:
            self._replan(obs)
            nxt = self._next_on_path(obs)
        if nxt is None:
            return _RED_IDLE
        return RedAction(_strike_kind(obs), nxt)

    def _next_on_path(self, obs):
        path = self._path
        if path is None:
            return None
        last = -1
        for idx, node in enumerate(path):
            if obs.compromised_visible[node]:
                last = idx
        if last == len(path) - 1:
            return None  # target already taken
        nxt = path[last + 1]
        return nxt if _node_attackable(obs, self._ctx, nxt) else None

    def _replan(self, obs):
        """Re-route around isolated nodes from the best surviving foothold."""
        blocked = frozenset(obs.isolated.nonzero()[0].tolist())
        sources = [v for v in self._path or []
                   if obs.compromised_visible[v] and not obs.isolated[v]]
        if not sources and blocked == self._entry_cut_off:
            self._path = None
            return
        candidates = list(reversed(sources)) or [self._ctx.entries[0]]
        for src in candidates:
            path = shortest_path(self._ctx.net, src, self._target, blocked=blocked)
            if path is not None:
                self._path = path
                return
        if not sources:
            self._entry_cut_off = blocked
        self._path = None


class RedHvtPreference(RedHvtPreferenceSP):
    """As the shortest-path attacker, but less disciplined: it is likely to
    advance along the path on any given step, and fumbles the rest."""

    deviation_prob = 0.4


BLUE_REGISTRY = {
    "sleep": BlueSleep,
    "random": BlueRandom,
    "random_smart": BlueRandomSmart,
    "isolate": BlueIsolate,
    "msn_d": BlueMsnD,
    "msn_s": BlueMsnS,
    "restore": BlueRestore,
    "msn_rnv": BlueMsnRnv,
    "msn_restore": BlueMsnRestore,
    "msn_rnv_restore": BlueMsnRnvRestore,
}

RED_REGISTRY = {
    "random_simple": RedRandomSimple,
    "random_smart": RedRandomSmart,
    "target_connected": RedTargetConnected,
    "target_unconnected": RedTargetUnconnected,
    "target_vulnerable": RedTargetVulnerable,
    "target_resilient": RedTargetResilient,
    "hvt_simple": RedHvtSimple,
    "hvt_pref": RedHvtPreference,
    "hvt_pref_sp": RedHvtPreferenceSP,
}


def make_blue(name: str):
    key = name.removeprefix("blue.")
    if key not in BLUE_REGISTRY:
        raise ConfigError(
            f"unknown blue policy {name!r}; expected one of "
            + ", ".join(sorted(BLUE_REGISTRY))
        )
    return BLUE_REGISTRY[key]()


def make_red(spec: RedPolicySpec):
    return RED_REGISTRY[spec.kind](spec)


_RED_ID_KEYS = ("alpha", "seed", "index", "probs")


def red_id_args(name: str) -> tuple[str, dict]:
    """The attacker kind a red id names and its checked arguments, read
    by the grammar ``parse_red_id`` documents; no species member is drawn
    and no spec is built. Each argument is converted (``alpha`` a float,
    ``seed`` and ``index`` ints, ``probs`` a tuple of floats)."""
    kind, _, argstr = name.removeprefix("red.").partition(":")
    if kind not in RED_REGISTRY:
        raise ConfigError(
            f"unknown red policy {name!r}; expected one of "
            + ", ".join(sorted(RED_REGISTRY))
        )
    if not argstr:
        raise ConfigError(f"red policy {name!r} needs alpha=... or probs=...")
    kv = {}
    for part in argstr.split(","):
        key, _, value = part.partition("=")
        if not value:
            raise ConfigError(f"malformed agent argument {part!r} in {name!r}")
        key = key.strip()
        if key not in _RED_ID_KEYS:
            raise ConfigError(
                f"unknown agent argument {key!r} in {name!r}; expected one of "
                + ", ".join(_RED_ID_KEYS)
            )
        if key in kv:
            raise ConfigError(f"{name!r}: {key}= is given twice")
        kv[key] = value.strip()
    if "probs" in kv:
        if len(kv) > 1:
            raise ConfigError(f"{name!r}: probs=... takes no other argument")
        return kind, {"probs": tuple(
            _id_number(name, "probs", x, float) for x in kv["probs"].split(":"))}
    if "alpha" not in kv:
        raise ConfigError(f"red policy {name!r} needs alpha=... or probs=...")
    args = {"alpha": _id_number(name, "alpha", kv["alpha"], float)}
    if "seed" in kv:
        args["seed"] = _id_number(name, "seed", kv["seed"], int)
    if "index" in kv:
        if "seed" not in args:
            raise ConfigError(f"{name!r}: index=... requires seed=...")
        args["index"] = _id_number(name, "index", kv["index"], int)
        if not 0 <= args["index"] < MAX_SPECIES_MEMBERS:
            raise ConfigError(f"{name!r}: index must be >= 0 and below "
                              f"{MAX_SPECIES_MEMBERS}, got {args['index']}")
    return kind, args


def parse_red_id(name: str) -> RedPolicySpec:
    """Parse a red agent id string into a spec.

    Grammar: ``red.<kind>[:key=value,...]`` with keys ``alpha``, ``seed``,
    ``index`` and ``probs`` (colon-separated floats), each given at most
    once; the ``red.`` prefix is optional. ``probs`` stands alone; ``alpha``
    alone (or with an integer ``seed``) names the species; adding ``seed``
    and ``index`` pins the index-th member of the seeded draw sequence.
    """
    kind, args = red_id_args(name)
    if "probs" in args:
        return RedPolicySpec(kind=kind, params=args["probs"], label=name)
    if "index" not in args:
        return RedPolicySpec(kind=kind, alpha=args["alpha"], label=name)
    index = args["index"]
    [spec] = _member_specs(kind, args["alpha"], args["seed"], index + 1, [index],
                           label=name)
    return spec


def _id_number(name: str, key: str, text: str, kind):
    try:
        return kind(text)
    except ValueError:
        raise ConfigError(
            f"{name!r}: {key}={text!r} is not a valid {kind.__name__}"
        ) from None


def _member_specs(kind: str, alpha: float, seed: int, count: int, indices,
                  label: str | None = None) -> list[RedPolicySpec]:
    """Specs for members ``indices`` of the first ``count`` of a seeded
    species, labelled ``label`` or else by their own member ids."""
    members = sample_species(
        alpha, count, red_param_dim(kind), derive_seed(seed, "species", kind)
    )
    return [RedPolicySpec(kind=kind, params=tuple(members[i].tolist()), label=label
                          or f"red.{kind}:alpha={alpha:g},seed={seed},index={i}")
            for i in indices]


def species_members(kind: str, alpha: float, count: int, seed: int
                    ) -> list[RedPolicySpec]:
    """Fixed specs for the first ``count`` members of a seeded species."""
    return _member_specs(kind, alpha, seed, count, range(count))
