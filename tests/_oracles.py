"""Independent reference implementations used only to check the package.

These deliberately use different algorithms from the production code:
exhaustive vertex enumeration instead of the simplex, subtree imbalances
instead of a flow solve on trees, Floyd-Warshall and one single-source
BFS per row (``apsp_per_source``) instead of the bit-parallel search from
every source at once, and central finite differences instead of dual
potentials.
``trajectory_to_jsonl_v1`` is the trajectory encoder of schema 1, which
wrote every step's full observation, rendered here from the trajectory's
vulnerability and flag rows. ``sinkhorn_log_domain`` is the
Sinkhorn loop on log potentials, two n x n log-sum-exps per iteration,
against which the scaling-domain loop with absorption is checked.
``sinkhorn_checked`` is the scaling-domain loop that tests for absorption
on every iteration, and ``network_simplex_doubling`` the exact solver that
keeps its tree in numpy arrays, marks moved subtrees and sums potentials
by pointer doubling; the production loops must match both bit for bit.
``shortest_path_parent_bfs`` is the attacker's path search as a BFS from
the source that records each node's parent and stops at the target, and
``branch_labels_union_find`` finds branches by merging the endpoints of
every edge between non-core nodes. ``attackable_nodes_nn`` and
``move_targets_nn`` read the attack frontier from the n x n
``adjacency & live`` matrix, reduced over each row, which needs no
symmetry; ``live_degree_loop`` counts each node's non-isolated neighbours
one by one from ``Network.neighbors``; ``defence_probability_clip`` clamps
with ``np.clip``.
``observe_snapshot`` is the observation built afresh from copies of the
state, against which the episode's read-only views are checked, and
``active_adjacency`` the live-edge matrix of an episode.
"""

from __future__ import annotations

import collections
import itertools
import json

import numpy as np

from nettom.cyberenv import (
    FLAG_HIDDEN,
    FLAG_ISOLATED,
    FLAG_VISIBLE,
    OBSERVER_BLUE,
    OBSERVER_RED,
    StateObservation,
)
from nettom.graph_core import _hops, topology
from nettom.sinkhorn import (
    _ABSORB_NORM_SQ,
    _CHECK_EVERY,
    SinkhornResult,
    _log_kernel,
    _smooth,
)
from nettom.transport import _MAX_PIVOTS, check_distribution


def brute_force_transport_cost(p, q, C) -> float:
    """Minimum transportation cost by enumerating basic feasible solutions.

    Every vertex of the transportation polytope corresponds to a spanning
    tree of the complete bipartite graph; enumerate all m+n-1 sized
    acyclic arc sets, solve each tree's flows by leaf elimination, and
    keep the cheapest non-negative one. Only viable for tiny supports.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    m, n = len(p), len(q)
    cells = [(i, j) for i in range(m) for j in range(n)]
    n_nodes = m + n
    best = np.inf
    for subset in itertools.combinations(range(len(cells)), n_nodes - 1):
        parent = list(range(n_nodes))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in subset:
            i, j = cells[k]
            ri, rj = find(i), find(m + j)
            if ri == rj:
                acyclic = False
                break
            parent[ri] = rj
        if not acyclic:
            continue

        adj = {x: [] for x in range(n_nodes)}
        for k in subset:
            i, j = cells[k]
            adj[i].append((m + j, (i, j)))
            adj[m + j].append((i, (i, j)))
        balance = np.concatenate([p, q])
        degree = {x: len(adj[x]) for x in range(n_nodes)}
        leaves = [x for x in range(n_nodes) if degree[x] == 1]
        removed = set()
        flows = {}
        feasible = True
        while leaves:
            v = leaves.pop()
            if v in removed:
                continue
            arc_list = [(w, cell) for w, cell in adj[v] if w not in removed]
            if not arc_list:
                removed.add(v)
                continue
            w, cell = arc_list[0]
            flow = balance[v]
            if flow < -1e-12:
                feasible = False
                break
            flows[cell] = max(flow, 0.0)
            balance[w] -= flow
            balance[v] = 0.0
            removed.add(v)
            degree[w] -= 1
            if degree[w] == 1:
                leaves.append(w)
        if not feasible:
            continue
        cost = sum(C[i, j] * f for (i, j), f in flows.items())
        best = min(best, cost)
    return float(best)


def tree_w1(node_count: int, edges, p, q) -> float:
    """Hop-cost Wasserstein distance on a tree, by subtree imbalances.

    Every edge carries exactly the mass imbalance P - Q of the side it cuts
    off, so W1 is the sum of |P(subtree) - Q(subtree)| over the edges
    (Evans & Matsen 2012). Rooted at the last node.
    """
    adj = [[] for _ in range(node_count)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    root = node_count - 1
    parent = {root: None}
    order = [root]
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    if len(order) != node_count or len(edges) != node_count - 1:
        raise ValueError("not a tree")
    imbalance = [float(a) - float(b) for a, b in zip(p, q)]
    total = 0.0
    for x in reversed(order[1:]):
        total += abs(imbalance[x])
        imbalance[parent[x]] += imbalance[x]
    return total


def floyd_warshall(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs shortest hop counts by the classic triple loop."""
    n = adjacency.shape[0]
    dist = np.where(adjacency, 1.0, np.inf)
    np.fill_diagonal(dist, 0.0)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k][:, None] + dist[k][None, :])
    return dist


def apsp_per_source(net) -> np.ndarray:
    """All-pairs hop counts, one breadth-first search (``_hops``) per row."""
    n = net.node_count
    dist = np.empty((n, n), dtype=np.int64)
    for s in range(n):
        dist[s] = _hops(net.neighbors, s)
    return dist


def shortest_path_parent_bfs(net, source: int, target: int,
                             blocked=None) -> list[int] | None:
    """One shortest path by BFS from source with parent pointers.

    Neighbours are expanded in ascending id order, so each level is popped
    in lexicographic order of the tree paths and the path found is the
    lexicographically smallest shortest one. None if an endpoint is
    blocked or target is unreachable.
    """
    if blocked is None:
        blocked = frozenset()
    if source in blocked or target in blocked:
        return None
    parent = {source: None}
    queue = collections.deque([source])
    while queue:
        v = queue.popleft()
        if v == target:
            path = []
            while v is not None:
                path.append(v)
                v = parent[v]
            return path[::-1]
        for w in net.neighbors[v]:
            if w not in parent and w not in blocked:
                parent[w] = v
                queue.append(w)
    return None


def attackable_nodes_nn(adjacency, compromised, isolated, is_entry):
    """Nodes red can attack: not isolated, not compromised, and an entry or
    joined by a row of ``adjacency & live`` to a live node."""
    live = compromised & ~isolated
    reachable = (adjacency & live[None, :]).any(axis=1)
    return ~isolated & ~compromised & (reachable | is_entry)


def move_targets_nn(adjacency, compromised_visible, isolated):
    """Ids of the non-isolated nodes joined to a live node, by the same row
    reduction."""
    live = compromised_visible & ~isolated
    return np.flatnonzero(~isolated & (adjacency & live[None, :]).any(axis=1))


def live_degree_loop(neighbors, isolated, nodes) -> np.ndarray:
    """Each of ``nodes``' count of non-isolated neighbours, node by node."""
    return np.array([sum(not isolated[u] for u in neighbors[v]) for v in nodes],
                    dtype=np.intp)


def observe_snapshot(state, observer: str) -> StateObservation:
    """``observer``'s view of ``state`` with its own copy of every per-node
    array: blue sees ``compromised & ~hidden`` and not the zero-day budget;
    red sees every compromise."""
    if observer not in (OBSERVER_BLUE, OBSERVER_RED):
        raise ValueError(f"unknown observer {observer!r}")
    blue = observer == OBSERVER_BLUE
    return StateObservation(
        vulnerability=state.vulnerability.copy(),
        compromised_visible=(state.compromised & ~state.hidden if blue
                             else state.compromised.copy()),
        isolated=state.isolated.copy(),
        is_entry=state.is_entry,
        zero_day_budget=None if blue else state.zero_day_budget,
    )


def active_adjacency(env) -> np.ndarray:
    """The live edges of ``env``'s episode now: the base edges between
    non-isolated nodes."""
    alive = ~env.state.isolated
    return env.net.adjacency & alive[:, None] & alive[None, :]


def defence_probability_clip(dist_to_hvn: int, diameter: int) -> float:
    return float(np.clip(1.0 - dist_to_hvn / max(diameter, 1), 0.1, 0.95))


def branch_labels_union_find(node_count: int, edges, core) -> tuple[int, ...]:
    """Core nodes -1; every other node the index of its core-free component,
    components numbered in order of their smallest node id."""
    root = list(range(node_count))

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for i, j in edges:
        if i not in core and j not in core:
            root[max(find(i), find(j))] = min(find(i), find(j))
    index: dict[int, int] = {}
    return tuple(-1 if v in core else index.setdefault(find(v), len(index))
                 for v in range(node_count))


def random_connected_graph(rng: np.random.Generator, n: int) -> list[tuple[int, int]]:
    """A random tree plus a few extra edges; always connected."""
    edges = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    extra = int(rng.integers(0, max(1, n // 3)))
    for _ in range(extra):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return sorted(edges)


def dyadic_distribution(rng: np.random.Generator, n: int,
                        support: int | None = None, trials: int = 1 << 14
                        ) -> np.ndarray:
    """A random distribution whose entries sum to exactly 1.0 in floats.

    Multinomial counts over 2**k trials divide exactly in binary floating
    point, so bound checks against 1.0 can be literal.
    """
    x = np.zeros(n)
    if support is None:
        idx = np.arange(n)
    else:
        idx = rng.choice(n, size=min(support, n), replace=False)
    counts = rng.multinomial(trials, np.ones(len(idx)) / len(idx))
    x[idx] = counts / trials
    return x


def normalize(x: np.ndarray) -> np.ndarray:
    """Scale a non-negative vector to sum 1. Rejects all-zero input."""
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ValueError("cannot normalize a vector with negative entries")
    total = x.sum()
    if total <= 0:
        raise ValueError("cannot normalize an all-zero vector")
    return x / total


def _state_to_json_v1(vulnerability, flags, traj) -> dict:
    bits = flags.tolist()
    isolated = [int(bool(f & FLAG_ISOLATED)) for f in bits]
    nodes = range(len(bits))
    return {
        "vulnerability": vulnerability.tolist(),
        "compromised": [int(bool(f & FLAG_VISIBLE)) for f in bits],
        "hidden": [int(bool(f & FLAG_HIDDEN)) for f in bits],
        "isolated": isolated,
        "is_entry": [int(v in traj.entries) for v in nodes],
        "is_hvn": [int(v in traj.hvns) for v in nodes],
        "edges": [[i, j] for i, j in topology(traj.network)[0].edges
                  if not (isolated[i] or isolated[j])],
    }


def _action_to_json_v1(action, hits=None):
    if action is None:
        return None
    out = {"kind": action.kind, "target": action.target}
    if hits is not None:
        out["hits"] = list(hits)
    return out


def trajectory_to_jsonl_v1(traj) -> str:
    """An episode as schema-1 JSONL: the header, then every step's full
    observation (all six per-node vectors and the live-edge list: the base
    edges of the topology ``traj.network`` names, between non-isolated
    nodes)."""
    header = {
        "schema_version": 1,
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
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for step, vulnerability, flags in zip(traj.steps, traj.vulnerability, traj.flags):
        rec = {
            "t": step.t,
            "obs": _state_to_json_v1(vulnerability, flags, traj),
            "blue_action": _action_to_json_v1(step.blue_action),
            "red_action": _action_to_json_v1(step.red_action, step.red_hits),
        }
        lines.append(json.dumps(rec, sort_keys=True, separators=(",", ":")))
    return "\n".join(lines) + "\n"


def _logsumexp_rows(M: np.ndarray) -> np.ndarray:
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


def sinkhorn_log_domain(P: np.ndarray, Q: np.ndarray, cm, params,
                        violation_trace: list[tuple[float, float]] | None = None
                        ) -> SinkhornResult:
    """``sinkhorn.sinkhorn_plan`` iterated on the log scalings
    ``phi = log u``, ``psi = log v``: every update is a row log-sum-exp of
    ``logK + psi`` (or of its transpose plus ``phi``), which cannot
    underflow at any ``lam``, and every check builds the n x n plan. Same
    smoothing, check schedule and result fields (``absorptions`` is
    always 0)."""
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    p = _smooth(P, n)
    q = _smooth(Q, n)
    lam = params.lam
    logp = np.log(p)
    logq = np.log(q)
    logK = -cm.dist.astype(float) / lam
    phi = np.zeros(n)
    psi = np.zeros(n)

    check_every = 1 if violation_trace is not None else _CHECK_EVERY
    iters = 0
    converged = False
    violation = np.inf
    while iters < params.max_iters:
        budget = min(check_every, params.max_iters - iters)
        for _ in range(budget):
            iters += 1
            phi = logp - _logsumexp_rows(logK + psi[None, :])
            psi = logq - _logsumexp_rows(logK.T + phi[None, :])
        M = logK + phi[:, None] + psi[None, :]
        if not np.isfinite(M).all():
            raise RuntimeError("scaling updates produced non-finite potentials")
        plan = np.exp(M)
        row_err = np.abs(plan.sum(axis=1) - p)
        col_err = np.abs(plan.sum(axis=0) - q)
        violation = max(float(row_err.max()), float(col_err.max()))
        if violation_trace is not None:
            violation_trace.append(
                (violation, float(row_err.sum() + col_err.sum()))
            )
        if violation <= params.convergence_tol:
            converged = True
            break

    # max_iters >= 1 and every pass ends with a check, so M and plan hold
    # the final potentials' values.
    cost_term = float((plan * cm.dist).sum())
    entropy = -float((plan * M).sum())  # log(plan) == M, safe at underflow
    value = (cost_term - lam * entropy) / cm.diameter
    return SinkhornResult(
        value=value,
        plan=plan,
        log_u=phi.copy(),
        log_v=psi.copy(),
        iterations_used=iters,
        converged=converged,
        marginal_violation=violation,
        absorptions=0,
    )


def sinkhorn_checked(P: np.ndarray, Q: np.ndarray, cm, params,
                     violation_trace: list[tuple[float, float]] | None = None,
                     iterates: list[tuple[np.ndarray, np.ndarray]] | None = None
                     ) -> SinkhornResult:
    """``sinkhorn.sinkhorn_plan`` with the absorption test
    ``u.u > 1e60 or v.v > 1e60`` on every iteration, whatever the kernel.
    With ``iterates`` supplied, a copy of each iteration's ``(u, v)`` is
    appended before that test."""
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    p = _smooth(P, n)
    q = _smooth(Q, n)
    lam = params.lam
    logK = _log_kernel(cm, lam)
    K = np.exp(logK)
    f = np.zeros(n)
    g = np.zeros(n)
    Kv = K.sum(axis=1)
    absorptions = 0

    check_every = 1 if violation_trace is not None else _CHECK_EVERY
    iters = 0
    converged = False
    violation = np.inf
    while iters < params.max_iters:
        budget = min(check_every, params.max_iters - iters)
        for _ in range(budget):
            iters += 1
            u = p / Kv
            KTu = u.dot(K)
            v = q / KTu
            if iterates is not None:
                iterates.append((u.copy(), v.copy()))
            if u.dot(u) > _ABSORB_NORM_SQ or v.dot(v) > _ABSORB_NORM_SQ:
                f += np.log(u)
                g += np.log(v)
                K = np.exp(logK + f[:, None] + g[None, :])
                u = np.ones(n)
                v = np.ones(n)
                KTu = K.sum(axis=0)
                absorptions += 1
            Kv = K.dot(v)
        row_err = np.abs(u * Kv - p)
        col_err = np.abs(v * KTu - q)
        violation = float(np.maximum(row_err.max(), col_err.max()))
        if not np.isfinite(violation):
            raise RuntimeError("scaling updates produced non-finite potentials")
        if violation_trace is not None:
            violation_trace.append(
                (violation, float(row_err.sum() + col_err.sum()))
            )
        if violation <= params.convergence_tol:
            converged = True
            break

    log_u = f + np.log(u)
    log_v = g + np.log(v)
    M = logK + log_u[:, None] + log_v[None, :]
    plan = np.exp(M)
    cost_term = float((plan * cm.dist).sum())
    entropy = -float((plan * M).sum())
    value = (cost_term - lam * entropy) / cm.diameter
    return SinkhornResult(
        value=value,
        plan=plan,
        log_u=log_u,
        log_v=log_v,
        iterations_used=iters,
        converged=converged,
        marginal_violation=violation,
        absorptions=absorptions,
    )


def network_simplex_doubling(tail, head, parent, arc, flow, bland_after_factor):
    """``transport._network_simplex`` on numpy arrays: the cycle climbs
    ``parent.tolist()`` into a dict, the ratio test and the flow update
    are fancy-indexed, the moved subtree is marked and the starting
    potentials are summed by pointer doubling over all nodes. Same pivot
    rule and tie-breaks; parent, arc and flow are updated in place;
    returns (pot, pivots, bland)."""
    N = len(parent)
    nodes = np.arange(N)
    pot = np.where(tail[arc] == nodes, 1.0, -1.0)
    pot[0] = 0.0
    jump = parent
    for _ in range(N.bit_length()):
        pot += pot[jump]
        jump = jump[jump]

    bland_after = bland_after_factor * N
    pivots = 0
    rc = np.empty(len(tail))
    while True:
        np.subtract(1.0, pot[tail], out=rc)
        rc += pot[head]
        bland = pivots >= bland_after
        k = int((rc < -1e-10).argmax() if bland else rc.argmin())
        if rc[k] >= -1e-10:
            break
        pivots += 1
        if pivots > _MAX_PIVOTS:
            raise RuntimeError("network simplex failed to terminate")
        u, v = int(tail[k]), int(head[k])
        d_enter = float(rc[k])

        up = parent.tolist()
        pa = [u]
        while pa[-1]:
            pa.append(up[pa[-1]])
        height = {x: t for t, x in enumerate(pa)}
        pb = [v]
        while pb[-1] not in height:
            pb.append(up[pb[-1]])
        pa = pa[: height[pb[-1]] + 1]

        cycle = np.array(pb[:-1] + pa[-2::-1])
        gains = tail[arc[cycle]] == cycle
        gains[len(pb) - 1:] ^= True
        losing = np.flatnonzero(~gains)
        s = int(losing[flow[cycle[losing]].argmin()])
        leave = int(cycle[s])
        theta = flow[leave]
        flow[cycle[losing]] -= theta
        flow[cycle[gains]] += theta

        in_sub = nodes == leave
        jump = parent
        for _ in range(N.bit_length()):
            in_sub |= in_sub[jump]
            jump = jump[jump]
        tail_side = s >= len(pb) - 1
        pot[in_sub] += d_enter if tail_side else -d_enter

        if tail_side:
            chain, e_out = cycle[s:][::-1], v
        else:
            chain, e_out = cycle[: s + 1], u
        flow[chain[1:]] = flow[chain[:-1]]
        arc[chain[1:]] = arc[chain[:-1]]
        parent[chain[1:]] = chain[:-1]
        parent[chain[0]] = e_out
        arc[chain[0]] = k
        flow[chain[0]] = theta

    if flow.min() < -1e-9:
        raise RuntimeError("simplex produced a negative flow")
    np.maximum(flow, 0.0, out=flow)
    return pot, pivots, bland
