"""A two-player cyber-defence game on a fixed network topology.

One attacker (red) starts with a foothold on the entry node and tries to
compromise one of three per-episode high-value leaf nodes within the step
cap; one defender (blue) cleans, hardens, and isolates nodes to stop it.
The game is zero-sum and fully deterministic given the episode seed: all
stochasticity flows through the seeded generator created in ``reset``.

Rules fixed by the environment (their values are the module constants
``VULN_LOW`` through ``MAX_STEPS`` below; only the number of entry nodes
varies, per environment):

* Node vulnerabilities are drawn uniformly per episode and set the success
  probability of ordinary attacks against that node.
* Only isolation removes an edge: the live edges are the base edges
  between non-isolated nodes, derived where needed and never stored.
* An attack needs a live launch point: a compromised, non-isolated node
  adjacent to the target, or the entry node itself (red can always try to
  re-enter through a non-isolated entry). Isolated nodes can neither
  launch nor receive attacks, which is what makes the isolation strategy a
  guaranteed (if costly) defence.
* Zero-day attacks always succeed against an attackable target while the
  budget lasts; the budget refills by one every few steps.
* Successful ordinary attacks are hidden from blue half the time, and
  zero-days always; a scan reveals every hidden compromise.
* Blue moves first within a step, so cleaning a node protects it from the
  attack red launches the same step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .graph_core import (
    CostMatrix,
    Network,
    all_pairs_shortest_paths,
    entry_candidates,
    json_int,
    place_high_value_nodes,
    topology,
)
from .seeding import derive_seed, rng_for

BLUE_DO_NOTHING = "do_nothing"
BLUE_SCAN = "scan"
BLUE_MAKE_SAFE = "make_safe_node"
BLUE_REDUCE_VULN = "reduce_node_vulnerability"
BLUE_RESTORE = "restore"
BLUE_ISOLATE = "isolate"
BLUE_RECONNECT = "reconnect"
BLUE_ACTION_KINDS = (
    BLUE_DO_NOTHING, BLUE_SCAN, BLUE_MAKE_SAFE, BLUE_REDUCE_VULN,
    BLUE_RESTORE, BLUE_ISOLATE, BLUE_RECONNECT,
)
_BLUE_TARGETED = frozenset(
    (BLUE_MAKE_SAFE, BLUE_REDUCE_VULN, BLUE_RESTORE, BLUE_ISOLATE, BLUE_RECONNECT)
)

RED_DO_NOTHING = "do_nothing"
RED_BASIC_ATTACK = "basic_attack"
RED_RANDOM_MOVE = "random_move"
RED_ZERO_DAY = "zero_day_attack"
RED_SPREAD = "spread"
RED_INTRUDE = "intrude"
RED_ACTION_KINDS = (
    RED_DO_NOTHING, RED_BASIC_ATTACK, RED_RANDOM_MOVE,
    RED_ZERO_DAY, RED_SPREAD, RED_INTRUDE,
)
_RED_TARGETED = frozenset((RED_BASIC_ATTACK, RED_RANDOM_MOVE, RED_ZERO_DAY))

OBSERVER_BLUE = "blue"
OBSERVER_RED = "red"

RED_WIN = "red_win"
BLUE_WIN = "blue_win"

TRAJECTORY_SCHEMA_VERSION = 3

# Per-node bits of ``EpisodeTrajectory.flags`` and of a step line's flags.
FLAG_VISIBLE = 1  # compromised, seen by blue
FLAG_HIDDEN = 2  # compromised, hidden from blue
FLAG_ISOLATED = 4

VULN_LOW = 0.2  # per-episode vulnerabilities are uniform on [VULN_LOW, VULN_HIGH)
VULN_HIGH = 0.8
HIDDEN_PROB = 0.5  # chance an ordinary successful attack stays hidden from blue
ZERO_DAY_START = 1  # zero-day budget at reset
ZERO_DAY_EVERY = 4  # the budget grows by one every this many steps
REDUCE_VULN_FACTOR = 0.8  # hardening multiplies a vulnerability by this ...
VULN_FLOOR = 0.05  # ... but never below this
COST_COMPROMISED = 1.0  # blue's per-step cost for each compromised node
COST_ISOLATED = 0.5  # blue's per-step cost for each isolated node
RED_WIN_PENALTY = 100.0  # blue's one-off cost when red captures a high-value node
MAX_STEPS = 500  # blue wins when the episode reaches this step


@dataclass(frozen=True)
class BlueAction:
    kind: str
    target: int | None = None


@dataclass(frozen=True)
class RedAction:
    kind: str
    target: int | None = None


@dataclass
class EpisodeState:
    """Mutable per-episode state; written only by its owning environment.

    The per-node arrays are written in place and never rebound: the
    episode's observations are views of them. ``is_entry`` is fixed for the
    episode and write-locked; every observation shares it. ``hvns`` are the
    episode's three high-value nodes and ``target`` the one red captured,
    None until it does.
    """

    vulnerability: np.ndarray
    initial_vulnerability: np.ndarray
    compromised: np.ndarray
    hidden: np.ndarray
    isolated: np.ndarray
    zero_day_budget: int
    step: int
    hvns: tuple[int, int, int]
    entries: tuple[int, ...]
    is_entry: np.ndarray
    rng: np.random.Generator
    done: bool = False
    outcome: str | None = None
    target: int | None = None


@dataclass
class StateObservation:
    """Per-node features for one observer.

    Blue never sees hidden compromises or red's zero-day budget (None in
    its view); red sees its own compromises (hidden included) folded into
    ``compromised_visible``. Neither sees the high-value nodes: the policies
    that may know them read ``EpisodeContext.hvns``.

    Every array is read-only, and one observation per observer serves a
    whole episode (see ``CyberEnv.observe``). It is current only until the
    next step or write to the state: call ``observe`` again before reading
    it then, and copy what must outlive that.
    """

    vulnerability: np.ndarray
    compromised_visible: np.ndarray
    isolated: np.ndarray
    is_entry: np.ndarray
    zero_day_budget: int | None


@dataclass(frozen=True)
class EpisodeContext:
    """What a policy learns at episode start: topology, distances, and the
    episode's three high-value nodes (blue defends those assets; attacking
    agents with insider knowledge read them too)."""

    net: Network
    cm: CostMatrix
    hvns: tuple[int, int, int]
    entries: tuple[int, ...]


@dataclass(frozen=True)
class StepResult:
    blue_reward: float
    red_reward: float
    done: bool
    red_hits: tuple[int, ...]


def attackable_nodes(adjacency: np.ndarray, compromised: np.ndarray,
                     isolated: np.ndarray, is_entry: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes red can currently attack.

    A node is attackable when it is not isolated, not yet compromised, and
    either adjacent to a live (compromised, non-isolated) node or is an
    entry node (red's permanent way back in). ``adjacency`` is the base
    topology: an edge between two non-isolated nodes is live.

    ``adjacency`` must be symmetric, as the base topology and the live-edge
    matrix are: the frontier is the union of the live nodes' rows, which
    are their columns.
    """
    reachable = np.logical_or.reduce(adjacency[compromised > isolated], axis=0)
    reachable |= is_entry
    return reachable > (isolated | compromised)


def node_attackable(neighbors: tuple[tuple[int, ...], ...], v: int,
                    compromised: np.ndarray, isolated: np.ndarray,
                    is_entry: np.ndarray) -> bool:
    """``attackable_nodes(...)[v]`` for the single node ``v``, read from its
    base-topology ``neighbors``: an edge to a non-isolated neighbour is live
    exactly when ``v`` itself is not isolated."""
    if isolated[v] or compromised[v]:
        return False
    if is_entry[v]:
        return True
    return any(compromised[u] and not isolated[u] for u in neighbors[v])


def _read_only(a: np.ndarray) -> np.ndarray:
    """A view of ``a`` that cannot be written through; ``a`` stays writable."""
    view = a.view()
    view.setflags(write=False)
    return view


class CyberEnv:
    """Owns one episode of the game; see the module docstring for rules."""

    def __init__(self, net: Network, cm: CostMatrix | None = None,
                 entry_count: int = 1):
        self.net = net
        self.cm = cm if cm is not None else all_pairs_shortest_paths(net)
        self.entry_count = entry_count
        self.state: EpisodeState | None = None

    def reset(self, seed: int) -> EpisodeState:
        net = self.net
        n = net.node_count
        rng = np.random.default_rng(seed)
        vuln = rng.uniform(VULN_LOW, VULN_HIGH, size=n)
        entries = entry_candidates(net, self.entry_count)
        is_entry = np.zeros(n, dtype=bool)
        is_entry[list(entries)] = True
        is_entry.setflags(write=False)
        s = self.state = EpisodeState(
            vulnerability=vuln,
            initial_vulnerability=vuln.copy(),
            compromised=is_entry.copy(),
            hidden=np.zeros(n, dtype=bool),
            isolated=np.zeros(n, dtype=bool),
            zero_day_budget=ZERO_DAY_START,
            step=0,
            hvns=place_high_value_nodes(net, derive_seed(seed, "hvn"),
                                        exclude=entries),
            entries=entries,
            is_entry=is_entry,
            rng=rng,
        )
        # The observations of this episode, bound once to the state's arrays
        # (which the game only ever writes in place); ``observe`` refreshes
        # blue's compromise buffer and red's budget.
        seen_vuln, seen_isolated = _read_only(s.vulnerability), _read_only(s.isolated)
        self._blue_seen = np.zeros(n, dtype=bool)
        self._blue_obs = StateObservation(
            seen_vuln, _read_only(self._blue_seen), seen_isolated, is_entry,
            zero_day_budget=None)
        self._red_obs = StateObservation(
            seen_vuln, _read_only(s.compromised), seen_isolated, is_entry,
            zero_day_budget=s.zero_day_budget)
        return s

    # -- views ----------------------------------------------------------

    def observe(self, observer: str) -> StateObservation:
        """The episode's observation for ``observer``, brought up to date.

        Each call returns the same object for the same observer until the
        next ``reset``. Its arrays are read-only views, bound at ``reset``,
        of the state's arrays, except blue's ``compromised_visible``, a view
        of a buffer refilled here, as is red's ``zero_day_budget``. So it
        shows the state as of this call only: observe again after any step
        or any write to the state. Raises if the state's arrays were rebound.
        """
        s = self._require_state()
        red = self._red_obs
        if not (red.vulnerability.base is s.vulnerability
                and red.compromised_visible.base is s.compromised
                and red.isolated.base is s.isolated):
            raise RuntimeError("state arrays were rebound; write them in place")
        if observer == OBSERVER_BLUE:
            # On bools, compromised > hidden is compromised & ~hidden.
            np.greater(s.compromised, s.hidden, out=self._blue_seen)
            return self._blue_obs
        if observer == OBSERVER_RED:
            red.zero_day_budget = s.zero_day_budget
            return red
        raise ValueError(f"unknown observer {observer!r}")

    # -- dynamics --------------------------------------------------------

    def apply_blue(self, action: BlueAction) -> EpisodeState:
        s = self._require_state()
        kind, v = action.kind, action.target
        if kind not in BLUE_ACTION_KINDS:
            raise ValueError(f"unknown blue action {kind!r}")
        if kind in _BLUE_TARGETED:
            if v is None or not (0 <= v < self.net.node_count):
                raise ValueError(f"blue action {kind} needs a valid node, got {v!r}")
        if kind == BLUE_SCAN:
            s.hidden[:] = False
        elif kind == BLUE_MAKE_SAFE:
            s.compromised[v] = False
            s.hidden[v] = False
        elif kind == BLUE_REDUCE_VULN:
            s.vulnerability[v] = max(VULN_FLOOR,
                                     s.vulnerability[v] * REDUCE_VULN_FACTOR)
        elif kind == BLUE_RESTORE:
            s.compromised[v] = False
            s.hidden[v] = False
            s.vulnerability[v] = s.initial_vulnerability[v]
        elif kind == BLUE_ISOLATE:
            s.isolated[v] = True
        elif kind == BLUE_RECONNECT:
            # Reconnecting a connected node is a no-op by the rules.
            s.isolated[v] = False
        return s

    def apply_red(self, action: RedAction) -> tuple[int, ...]:
        """Apply a red action; returns the nodes newly compromised by it."""
        s = self._require_state()
        kind, v = action.kind, action.target
        if kind not in RED_ACTION_KINDS:
            raise ValueError(f"unknown red action {kind!r}")
        if kind in _RED_TARGETED:
            if v is None or not (0 <= v < self.net.node_count):
                raise ValueError(f"red action {kind} needs a valid node, got {v!r}")
        if kind in (RED_DO_NOTHING, RED_RANDOM_MOVE):
            # A random move is a turn spent moving: it changes no state.
            return ()
        hits: list[int] = []
        if kind == RED_BASIC_ATTACK:
            if self._can_attack(v):
                self._roll_attack(v, hits)
        elif kind == RED_ZERO_DAY:
            if s.zero_day_budget > 0 and self._can_attack(v):
                s.zero_day_budget -= 1
                s.compromised[v] = True
                s.hidden[v] = True
                hits.append(v)
        elif kind == RED_SPREAD:
            for t in self._attackable_mask().nonzero()[0]:
                self._roll_attack(int(t), hits)
        elif kind == RED_INTRUDE:
            live = s.compromised & ~s.isolated
            if live.any():
                targets = (~s.isolated & ~s.compromised).nonzero()[0]
            else:
                targets = self._attackable_mask().nonzero()[0]
            for t in targets:
                self._roll_attack(int(t), hits)
        return tuple(hits)

    def _can_attack(self, v: int) -> bool:
        s = self.state
        return node_attackable(self.net.neighbors, v, s.compromised,
                               s.isolated, s.is_entry)

    def _attackable_mask(self) -> np.ndarray:
        s = self.state
        return attackable_nodes(self.net.adjacency, s.compromised,
                                s.isolated, s.is_entry)

    def _roll_attack(self, v: int, hits: list[int]) -> None:
        s = self.state
        if s.rng.random() < s.vulnerability[v]:
            s.compromised[v] = True
            s.hidden[v] = s.rng.random() < HIDDEN_PROB
            hits.append(v)

    def step(self, blue_action: BlueAction, red_action: RedAction) -> StepResult:
        s = self._require_state()
        if s.done:
            raise RuntimeError("step() called on a finished episode")
        self.apply_blue(blue_action)
        hits = self.apply_red(red_action)
        s.step += 1
        if s.step % ZERO_DAY_EVERY == 0:
            s.zero_day_budget += 1

        reward = -(
            COST_COMPROMISED * float(np.count_nonzero(s.compromised))
            + COST_ISOLATED * float(np.count_nonzero(s.isolated))
        )
        captured = [h for h in s.hvns if s.compromised[h]]
        if captured:
            s.done = True
            s.outcome = RED_WIN
            s.target = min(captured)
            reward -= RED_WIN_PENALTY
        elif s.step >= MAX_STEPS:
            s.done = True
            s.outcome = BLUE_WIN
        return StepResult(
            blue_reward=reward, red_reward=-reward, done=s.done, red_hits=hits
        )

    def _require_state(self) -> EpisodeState:
        if self.state is None:
            raise RuntimeError("call reset() before interacting with the env")
        return self.state


# ---------------------------------------------------------------------------
# Rollouts and trajectory files
# ---------------------------------------------------------------------------


@dataclass
class TrajectoryStep:
    t: int
    blue_action: BlueAction | None
    red_action: RedAction | None
    red_hits: tuple[int, ...]


@dataclass
class EpisodeTrajectory:
    """One played episode and, when recorded, its full state at every step.

    Only an episode whose ``network`` is a ``TOPOLOGIES`` id can be written.
    ``steps`` holds final_step + 1 entries: one per acted step plus a
    terminal entry with no actions. Row ``t`` of ``vulnerability``
    (float64) and ``flags`` (uint8, ``FLAG_*`` bits), both of shape
    ``(final_step + 1, node_count)``, is the state before step ``t``; the
    last row is the final state. Under ``rollout(..., record=False)``
    ``steps`` is empty and both arrays are None. Two trajectories are
    equal when their arrays match by dtype, shape and values (None only
    equals None) and every other field matches by ``==``.
    """

    episode_id: str
    network: str
    seed: int
    blue_id: str
    red_id: str
    outcome: str
    target_node: int | None
    final_step: int
    hvns: tuple[int, int, int]
    entries: tuple[int, ...]
    total_blue_reward: float
    steps: list[TrajectoryStep] = field(default_factory=list)
    vulnerability: np.ndarray | None = None
    flags: np.ndarray | None = None

    def __eq__(self, other):
        if not isinstance(other, EpisodeTrajectory):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if f.name in ("vulnerability", "flags") and a is not None and b is not None:
                if a.dtype != b.dtype or not np.array_equal(a, b):
                    return False
            elif a is not b and (a is None or b is None or a != b):
                return False
        return True


def _snapshot(s: EpisodeState) -> tuple[np.ndarray, ...]:
    return (s.vulnerability.copy(), s.compromised.copy(), s.hidden.copy(),
            s.isolated.copy())


def rollout(net: Network, blue_policy, red_policy, seed: int,
            cm: CostMatrix | None = None, entry_count: int = 1,
            episode_id: str | None = None,
            record: bool = True) -> EpisodeTrajectory:
    """Play one full episode and record the full state, both actions, and
    the nodes red newly compromised at every step.

    With ``record=False`` the episode plays out identically (the same draws,
    outcome, final step and total reward) but no per-step record is kept:
    the returned trajectory's ``steps`` is empty and its arrays are None.
    """
    env = CyberEnv(net, cm=cm, entry_count=entry_count)
    state = env.reset(seed)
    ctx = EpisodeContext(net=net, cm=env.cm, hvns=state.hvns,
                         entries=state.entries)
    blue_rng = rng_for(seed, "blue")
    red_rng = rng_for(seed, "red")
    blue_policy.begin_episode(ctx, blue_rng)
    red_policy.begin_episode(ctx, red_rng)

    steps: list[TrajectoryStep] = []
    snapshots: list[tuple[np.ndarray, ...]] = []
    total_reward = 0.0
    while not state.done:
        t = state.step
        if record:
            snapshots.append(_snapshot(state))
        blue_action = blue_policy.act(env.observe(OBSERVER_BLUE), blue_rng)
        red_action = red_policy.act(env.observe(OBSERVER_RED), red_rng)
        try:
            result = env.step(blue_action, red_action)
        except ValueError as exc:
            raise RuntimeError(
                f"invalid action at step {t} "
                f"(blue={blue_policy.policy_id}, red={red_policy.policy_id}): {exc}"
            ) from exc
        total_reward += result.blue_reward
        if record:
            steps.append(TrajectoryStep(t, blue_action, red_action, result.red_hits))

    traj = EpisodeTrajectory(
        episode_id=episode_id or f"{net.name}-{seed}",
        network=net.name,
        seed=seed,
        blue_id=blue_policy.policy_id,
        red_id=red_policy.policy_id,
        outcome=state.outcome,
        target_node=state.target,
        final_step=state.step,
        hvns=state.hvns,
        entries=state.entries,
        total_blue_reward=total_reward,
        steps=steps,
    )
    if record:
        snapshots.append(_snapshot(state))
        steps.append(TrajectoryStep(state.step, None, None, ()))
        traj.vulnerability, comp, hidden, iso = map(np.array, zip(*snapshots))
        traj.flags = (FLAG_VISIBLE * (comp & ~hidden) + FLAG_HIDDEN * hidden
                      + FLAG_ISOLATED * iso).astype(np.uint8)
    return traj


_FLAG_LIMIT = (FLAG_VISIBLE | FLAG_HIDDEN | FLAG_ISOLATED) + 1


def trajectory_to_jsonl(traj: EpisodeTrajectory) -> str:
    """Encode a recorded episode as JSONL: a header of the episode's facts,
    which names its topology and copies none of its graph, then per step
    ``t``, both actions, red's hits and ``changed``, a ``[node,
    vulnerability, flags]`` triple for every node whose row of
    ``traj.vulnerability`` or ``traj.flags`` differs from the previous step
    (step 0 lists every node). Missing steps or arrays, a network not in
    ``TOPOLOGIES``, other than ``final_step + 1`` steps, arrays not of shape
    ``(len(steps), node_count)`` or a non-finite vulnerability raise
    ``ValueError`` naming the episode. Step lines are written as ``json``
    with sorted keys would write them."""
    steps, vuln, flags = traj.steps, traj.vulnerability, traj.flags
    try:
        if not steps:
            raise ValueError("no recorded steps to encode")
        if vuln is None or flags is None:
            raise ValueError("no recorded state arrays to encode")
        shape = (len(steps), topology(traj.network)[0].node_count)
        if len(steps) != traj.final_step + 1:
            raise ValueError(f"{len(steps)} steps, expected final_step + 1 = "
                             f"{traj.final_step + 1}")
        if vuln.shape != shape or flags.shape != shape:
            raise ValueError(f"state arrays of shapes {vuln.shape} and {flags.shape}, "
                             f"expected {shape}")
        if not np.isfinite(vuln).all():
            raise ValueError("a vulnerability is not finite")
    except ValueError as exc:
        raise ValueError(f"episode {traj.episode_id}: {exc}") from None
    header = {
        "schema_version": TRAJECTORY_SCHEMA_VERSION,
        "episode_id": traj.episode_id,
        "network": traj.network,
        "seed": traj.seed,
        "agents": {"blue": traj.blue_id, "red": traj.red_id},
        "outcome": {"winner": traj.outcome, "target": traj.target_node},
        "final_step": traj.final_step,
        "hvns": list(traj.hvns),
        "entries": list(traj.entries),
        "total_blue_reward": traj.total_blue_reward,
    }
    differs = np.ones(shape, dtype=bool)
    differs[1:] = (vuln[1:] != vuln[:-1]) | (flags[1:] != flags[:-1])
    rows, nodes = np.nonzero(differs)
    changed = [f"[{v},{x!r},{f}]" for v, x, f in zip(
        nodes.tolist(), vuln[rows, nodes].tolist(), flags[rows, nodes].tolist())]
    bounds = np.searchsorted(rows, np.arange(len(steps) + 1)).tolist()
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for k, step in enumerate(steps):
        blue, red = step.blue_action, step.red_action
        if blue is not None:
            target = "null" if blue.target is None else blue.target
            blue = f'{{"kind":"{blue.kind}","target":{target}}}'
        if red is not None:
            target = "null" if red.target is None else red.target
            hits = ",".join(map(str, step.red_hits))
            red = f'{{"hits":[{hits}],"kind":"{red.kind}","target":{target}}}'
        part = ",".join(changed[bounds[k]:bounds[k + 1]])
        lines.append(f'{{"blue_action":{blue or "null"},"changed":[{part}],'
                     f'"red_action":{red or "null"},"t":{step.t}}}')
    return "\n".join(lines) + "\n"


def write_trajectory(traj: EpisodeTrajectory, path: str | Path) -> None:
    Path(path).write_text(trajectory_to_jsonl(traj), encoding="utf-8")


def _json_object(path, lineno: int, line: str) -> dict:
    try:
        obj = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: not JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{path}:{lineno}: not a JSON object")
    return obj


def _line_error(path, lineno: int, exc: Exception) -> ValueError:
    why = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
    return ValueError(f"{path}:{lineno}: {why}")


def _json_list(v, what: str) -> list:
    if type(v) is not list:
        raise ValueError(f"{what} must be a list, got {v!r}")
    return v


def _node(v, n: int) -> int:
    if type(v) is not int or not 0 <= v < n:
        raise ValueError(f"node {v!r} outside [0, {n})")
    return v


def _action_from_json(cls, kinds: tuple[str, ...], obj: dict | None, n: int):
    if obj is None:
        return None
    if obj["kind"] not in kinds:
        raise ValueError(f"unknown action kind {obj['kind']!r}")
    target = obj["target"]
    return cls(obj["kind"], None if target is None else _node(target, n))


def read_trajectory(path: str | Path) -> EpisodeTrajectory:
    """Decode a file written by ``trajectory_to_jsonl`` into the trajectory
    that was encoded, field for field. The ids must be strings, ``network``
    a ``TOPOLOGIES`` id, ``entries`` its first entry candidates, ``hvns``
    three of its leaves that are not entries, ``seed`` an integer,
    ``final_step`` non-negative, the winner one the game writes, the target
    null or a node, and ``total_blue_reward`` a finite number. Step line
    ``k`` must have ``t == k`` and both actions, the terminal line neither,
    ``changed`` and red's ``hits`` lists, and every changed vulnerability a
    finite float; step 0 changes every node, in ascending order. Malformed
    content raises ``ValueError`` naming the file and line."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.readlines()
    header = _json_object(path, 1, lines[0] if lines else "")
    version = header.get("schema_version")
    if version != TRAJECTORY_SCHEMA_VERSION:
        raise ValueError(f"{path}: unsupported trajectory schema {version!r}")
    try:
        for key, value in (("episode_id", header["episode_id"]),
                           ("network", header["network"]),
                           ("agents.blue", header["agents"]["blue"]),
                           ("agents.red", header["agents"]["red"])):
            if not isinstance(value, str):
                raise ValueError(f"{key} must be a string, got {value!r}")
        net = topology(header["network"])[0]
        n = net.node_count
        winner = header["outcome"]["winner"]
        if winner not in (RED_WIN, BLUE_WIN):
            raise ValueError(f"unknown winner {winner!r}")
        target = header["outcome"]["target"]
        reward = header["total_blue_reward"]
        if type(reward) not in (int, float) or not math.isfinite(reward):
            raise ValueError(f"total_blue_reward {reward!r} is not a finite number")
        final_step = json_int(header["final_step"], "final_step")
        if final_step < 0:
            raise ValueError(f"final_step {final_step} is negative")
        entries = header["entries"]
        if type(entries) is not list or not entries or tuple(
                _node(v, n) for v in entries) != entry_candidates(net, len(entries)):
            raise ValueError(f"entries {entries!r} are not a non-empty list of distinct "
                             f"nodes, the first of {net.name}'s entry candidates")
        hvns = tuple(_node(v, n) for v in header["hvns"])
        if len(hvns) != 3 or len(set(hvns) & (net.leaf_set - set(entries))) != 3:
            raise ValueError(f"hvns {list(hvns)} are not three distinct nodes among "
                             f"{net.name}'s leaves other than the entries")
        traj = EpisodeTrajectory(
            episode_id=header["episode_id"],
            network=header["network"],
            seed=json_int(header["seed"], "seed"),
            blue_id=header["agents"]["blue"],
            red_id=header["agents"]["red"],
            outcome=winner,
            target_node=None if target is None else _node(target, n),
            final_step=final_step,
            hvns=hvns,
            entries=tuple(entries),
            total_blue_reward=float(reward),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise _line_error(path, 1, exc) from None
    if len(lines) - 1 != traj.final_step + 1:
        raise ValueError(f"{path}: {len(lines) - 1} step lines, expected "
                         f"final_step + 1 = {traj.final_step + 1}")

    counts, nodes, vulns, flags = [], [], [], []
    for lineno, line in enumerate(lines[1:], 2):
        rec = _json_object(path, lineno, line)
        try:
            changed = _json_list(rec["changed"], "changed")
            for v, x, f in changed:
                nodes.append(_node(v, n))
                if type(x) is not float:
                    raise ValueError(f"vulnerability {x!r} is not a float")
                if not math.isfinite(x):
                    raise ValueError(f"vulnerability {x!r} is not finite")
                vulns.append(x)
                if type(f) is not int or not 0 <= f < _FLAG_LIMIT:
                    raise ValueError(f"flags {f!r} is not an integer in "
                                     f"[0, {_FLAG_LIMIT})")
                flags.append(f)
            if lineno == 2 and nodes != list(range(n)):
                raise ValueError(f"step 0 does not change nodes 0..{n - 1} in order")
            counts.append(len(changed))
            t = json_int(rec["t"], "t")
            if t != len(traj.steps):
                raise ValueError(f"t {t} is not the line's step index {len(traj.steps)}")
            blue, red = rec["blue_action"], rec["red_action"]
            terminal = t == final_step
            if terminal and (blue is not None or red is not None):
                raise ValueError("the terminal line carries an action")
            if not terminal and (blue is None or red is None):
                raise ValueError("a null action before the terminal line")
            traj.steps.append(TrajectoryStep(
                t=t,
                blue_action=_action_from_json(BlueAction, BLUE_ACTION_KINDS, blue, n),
                red_action=_action_from_json(RedAction, RED_ACTION_KINDS, red, n),
                red_hits=() if red is None else tuple(
                    _node(v, n) for v in _json_list(red["hits"], "hits")),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise _line_error(path, lineno, exc) from None

    # Scatter the changes into per-step rows, then carry each node's value
    # forward from the last step that changed it.
    shape = (final_step + 1, n)
    rows = np.repeat(np.arange(shape[0]), counts)
    cols = np.asarray(nodes, dtype=np.intp)
    vuln, packed, last = (np.zeros(shape, dtype) for dtype in (float, np.uint8, np.intp))
    vuln[rows, cols] = vulns
    packed[rows, cols] = flags
    last[rows, cols] = rows
    np.maximum.accumulate(last, axis=0, out=last)
    traj.vulnerability = vuln[last, np.arange(n)]
    traj.flags = packed[last, np.arange(n)]
    return traj
