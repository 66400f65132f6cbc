"""Exact optimal transport over graph cost matrices.

The headline metric divides the exact Wasserstein cost under hop-count
ground distances by the graph diameter, giving a unit-bounded score, and
optionally rescales the input distributions by a composite node-weight
vector so that chosen node features emphasize or de-emphasize regions of
the network.

Distributions are plain numpy vectors indexed by node id. Callers must
pass normalized inputs; nothing here rescales them, so accidental mass loss
in a caller surfaces as an error rather than being papered over.

One primal network simplex solves the exact problem as a min-cost flow
over the graph's own edges, both directions at cost 1 (the Beckmann form
of hop-cost W1), started from the BFS spanning tree with each tree arc
carrying its subtree's imbalance; on a tree that start is the unique
optimum, so :func:`ntd` sums it without calling the solver there. The
solver prices in numpy and keeps the basis tree in Python lists once it
pivots. :func:`ntd` reads the cost off the flow. :func:`wasserstein` splits
the same flow into paths, each a shortest path, to get an optimal plan, and
returns the flow's node potential as its certificate. Solutions are vertex
solutions, so costs are exact up to float rounding on integer hop costs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

SUM_TOL = 1e-9


@dataclass(frozen=True)
class TransportPlan:
    """An optimal transport plan, its cost and the simplex work behind it.

    potential is a dual certificate: it changes by at most 1 across every
    edge and <P - Q, potential> equals cost (Kantorovich-Rubinstein), so
    any plan with that cost is optimal. pivots counts basis exchanges of
    the graph solve; bland tells whether the anti-cycling Bland rule had
    replaced Dantzig pivoting by the end of it.
    """

    plan: np.ndarray
    cost: float
    potential: np.ndarray
    pivots: int
    bland: bool


@dataclass(frozen=True)
class WeightingConfig:
    """Node features and coefficients defining a composite weight vector.

    features: m vectors of per-node reals; coefficients: m reals in [-1, 1];
    floor: the minimum weight any node can receive, in [0, 1].
    """

    features: tuple[np.ndarray, ...]
    coefficients: tuple[float, ...]
    floor: float

    def __post_init__(self):
        if len(self.features) != len(self.coefficients) or not self.features:
            raise ValueError("need equally many features and coefficients (>= 1)")
        if not all(-1.0 <= c <= 1.0 for c in self.coefficients):
            raise ValueError("coefficients must lie in [-1, 1]")
        if not 0.0 <= self.floor <= 1.0:
            raise ValueError("floor must lie in [0, 1]")
        n = len(self.features[0])
        if any(len(x) != n for x in self.features):
            raise ValueError("feature vectors must share one length")


def check_distribution(x: np.ndarray, n: int, name: str = "distribution") -> np.ndarray:
    """x as a float vector of length n, if it is a probability vector: every
    entry finite and non-negative, the total within SUM_TOL of 1.

    An accepted vector costs two reductions: a minimum that compares >= 0
    is not NaN, and then a total near 1 is finite, so no entry is inf. The
    checks that word the error run only on a rejected vector.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"{name} has shape {x.shape}, expected ({n},)")
    if x.size and x.min() >= 0.0 and abs(float(x.sum()) - 1.0) <= SUM_TOL:
        return x
    if not np.isfinite(x).all():
        raise ValueError(f"{name} has non-finite entries")
    if (x < 0).any():
        raise ValueError(f"{name} has negative entries")
    raise ValueError(
        f"{name} sums to {float(x.sum())!r}; normalize explicitly before calling"
    )


# ---------------------------------------------------------------------------
# Network simplex over the graph's arcs
# ---------------------------------------------------------------------------

_BLAND_AFTER_FACTOR = 200
_MAX_PIVOTS = 1_000_000
# Flow or mass below this is rounding residue (about 1e-17 on unit mass); a
# walk that followed it would dead-end.
_EMPTY = 1e-12


def _network_simplex(tail, head, parent, arc, flow, pot):
    """Solve an uncapacitated unit-cost min-cost flow exactly from a
    feasible tree.

    Arc k runs from tail[k] to head[k] at cost 1. The spanning-tree basis
    is rooted at node 0, its own parent; any other node x hangs from
    parent[x] by arc[x], which points up (tail x) or down (head x) and
    carries flow[x] >= 0. pot is the tree's node potential: a tree arc
    u -> v has pot[v] = pot[u] - 1, and pot[0] = 0. The node supplies are
    the ones the starting flows balance. parent, arc, flow and pot are
    updated in place to an optimal tree; returns (pivots, bland).

    A reduced cost is 1 - pot[tail] + pot[head] and the optimal cost is
    the sum of supply times pot. Every potential is an exact integer, so
    tree arcs price at exactly 0. Pricing is Dantzig's (most negative
    reduced cost, first index) until _BLAND_AFTER_FACTOR pivots per node,
    then Bland's (first negative arc) as an anti-cycling safeguard.

    Pricing and the potential stay in numpy; the tree moves to Python
    lists (parents, arcs, flows, arc tails, children and depths) at the
    first pivot, so a start that is already optimal costs one pricing.
    Each pivot climbs the cycle by depth, walks it once for the ratio test
    and once for the flow update, re-roots the moved subtree along the
    chain and walks that subtree once to reset its depths and collect the
    nodes whose potential shifts (Ahuja, Magnanti & Orlin, Network Flows,
    ch. 11).
    """
    N = len(parent)
    bland_after = _BLAND_AFTER_FACTOR * N
    pivots = 0
    rc = np.empty(len(tail))
    up = None  # the tree as lists, from the first pivot on
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
        if up is None:
            up, tree_arc, tree_flow = parent.tolist(), arc.tolist(), flow.tolist()
            arc_tail = tail.tolist()
            children = [[] for _ in range(N)]
            for x in range(1, N):
                children[up[x]].append(x)
            depth = [0] * N
            order = [0]
            for x in order:
                for c in children[x]:
                    depth[c] = depth[x] + 1
                    order.append(c)
        u, v = arc_tail[k], int(head[k])
        d_enter = float(rc[k])

        # Cycle: climb from the tail and the head to their lowest common
        # ancestor, the apex. Tree arcs are named by their child node.
        tail_path, head_path = [], []
        a, b = u, v
        while depth[a] > depth[b]:
            tail_path.append(a)
            a = up[a]
        while depth[b] > depth[a]:
            head_path.append(b)
            b = up[b]
        while a != b:
            tail_path.append(a)
            head_path.append(b)
            a, b = up[a], up[b]
        # The cycle runs from the head up to the apex and down to the tail.
        # An arc pointing the way the cycle runs gains theta, the others
        # lose it; the leaving arc is the first losing arc of least flow in
        # that order, for determinism.
        cycle = head_path + tail_path[::-1]
        split = len(head_path)
        gaining, losing = [], []
        s, theta = -1, math.inf
        for t, x in enumerate(cycle):
            if (arc_tail[tree_arc[x]] == x) == (t < split):
                gaining.append(x)
            else:
                losing.append(x)
                if tree_flow[x] < theta:
                    s, theta = t, tree_flow[x]
        leave = cycle[s]
        for x in gaining:
            tree_flow[x] += theta
        for x in losing:
            tree_flow[x] -= theta

        # The subtree under the leaving arc moves across the entering arc:
        # re-root it at its entering endpoint by reversing the chain from
        # that endpoint up to the leaving node, and hang it from the other
        # endpoint by the entering arc.
        tail_side = s >= split
        if tail_side:
            chain, e_out = cycle[s:][::-1], v
        else:
            chain, e_out = cycle[: s + 1], u
        children[up[leave]].remove(leave)
        for t in range(len(chain) - 1, 0, -1):
            x, y = chain[t], chain[t - 1]
            children[x].remove(y)
            children[y].append(x)
            up[x] = y
            tree_arc[x] = tree_arc[y]
            tree_flow[x] = tree_flow[y]
        top = chain[0]
        up[top], tree_arc[top], tree_flow[top] = e_out, k, theta
        children[e_out].append(top)

        # Its depths change and its potentials shift by the entering arc's
        # reduced cost.
        depth[top] = depth[e_out] + 1
        sub = [top]
        for x in sub:
            below = children[x]
            if below:
                d = depth[x] + 1
                for c in below:
                    depth[c] = d
                sub += below
        # (numpy reads an index array about twice as fast as a list)
        pot[np.array(sub)] += d_enter if tail_side else -d_enter

    if up is not None:
        parent[:] = up
        arc[:] = tree_arc
        flow[:] = tree_flow
    if flow.min() < -1e-9:
        raise RuntimeError("simplex produced a negative flow")
    np.maximum(flow, 0.0, out=flow)
    return pivots, bland


def _subtree_imbalance(P: np.ndarray, Q: np.ndarray, cm) -> list[float]:
    """P - Q summed over each node's subtree of the BFS spanning tree from
    node 0: the flow each tree arc must carry, toward the parent when it
    is positive."""
    up = cm.bfs_parent.tolist()
    s = (P - Q).tolist()
    for x in reversed(cm.bfs_order.tolist()[1:]):
        s[up[x]] += s[x]
    return s


def _bfs_start(P: np.ndarray, Q: np.ndarray, cm):
    """The simplex start for P to Q: (parent, arc, flow, pot) of the BFS
    spanning tree from node 0, each tree arc carrying its subtree's
    imbalance and each node's potential summed down from node 0."""
    s = _subtree_imbalance(P, Q, cm)
    up = cm.bfs_parent.tolist()
    pot = [0.0] * len(s)
    for x in cm.bfs_order.tolist()[1:]:
        pot[x] = pot[up[x]] + (1.0 if s[x] >= 0 else -1.0)
    s = np.array(s)
    arc = np.where(s >= 0, cm.bfs_up_arc, cm.bfs_down_arc)
    return cm.bfs_parent.copy(), arc, np.abs(s), np.array(pot)


def _graph_flow(P: np.ndarray, Q: np.ndarray, cm):
    """Exact hop-cost W1 as a min-cost flow over the graph's own arcs.

    The Beckmann form: both directions of every edge, at cost 1. The start
    is the BFS spanning tree from node 0 in which each tree arc carries its
    subtree's imbalance P - Q, toward the parent when it is positive. On a
    tree that start is already optimal, so the simplex prices once and
    stops. Returns (cost, pot, pivots, bland, arc, flow): pot changes by at
    most 1 across an edge and cost equals <P - Q, pot>, the
    Kantorovich-Rubinstein certificate; each node x > 0 of the optimal tree
    sends flow[x] along arc arc[x], and no other arc carries flow.
    """
    parent, arc, flow, pot = _bfs_start(P, Q, cm)
    pivots, bland = _network_simplex(cm.arc_tail, cm.arc_head,
                                     parent, arc, flow, pot)
    # Every arc costs one hop, so the cost is the total tree flow.
    return float(flow[1:].sum()), pot, pivots, bland, arc, flow


def _plan_from_flow(P: np.ndarray, Q: np.ndarray, cm, arc, flow) -> np.ndarray:
    """Split an optimal flow from P to Q into an optimal plan.

    Mass that stays put, min(P, Q), goes on the diagonal. From each surplus
    node in ascending id order, a walk follows the out-arcs that still
    carry flow, smallest (tail, head) first, until it reaches a node with
    unmet demand; the least of the surplus, the demand and the flows on the
    way is booked to that cell and taken off the path. Flow arcs price at
    zero against a potential that changes by at most 1 per edge, so every
    walk is a shortest path and the plan costs what the flow costs.

    The root, node 0, balances the flow: the start flow sends it the input
    imbalance sum(P) - sum(Q), which check_distribution bounds by
    2 * SUM_TOL, and no arc carries that on. So an imbalance above rounding
    residue is added to the root's demand (or, when negative, its surplus),
    and the plan's marginals then miss P and Q by at most that much.
    """
    n = len(P)
    tail = cm.arc_tail[arc].tolist()
    head = cm.arc_head[arc].tolist()
    left = flow.tolist()
    out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x in (np.argsort(arc[1:]) + 1).tolist():
        if left[x] > _EMPTY:
            out[tail[x]].append((head[x], x))
    excess = (P - Q).tolist()
    spare = float(P.sum() - Q.sum())
    if abs(spare) > _EMPTY:
        excess[0] -= spare
    plan = np.diag(np.minimum(P, Q))
    for a in range(n):
        while excess[a] > _EMPTY:
            path, x = [], a
            while excess[x] >= -_EMPTY:
                step = next(((y, e) for y, e in out[x] if left[e] > _EMPTY), None)
                if step is None:
                    raise RuntimeError(f"flow decomposition dead-ended at node {x}")
                x, e = step
                path.append(e)
            amount = min(excess[a], -excess[x], min(left[e] for e in path))
            plan[a, x] += amount
            excess[a] -= amount
            excess[x] += amount
            for e in path:
                left[e] -= amount
    return plan


def wasserstein(P: np.ndarray, Q: np.ndarray, cm) -> TransportPlan:
    """Exact minimum-cost transport plan between two node distributions.

    The ground cost is ``cm.dist``. Inputs must be normalized; identical
    inputs short-circuit to the diagonal plan with cost 0. The plan is
    split from the flow :func:`ntd` solves, on the same canonical argument
    order, so the cost is exactly symmetric in (P, Q) and
    ``cost / cm.diameter == ntd(P, Q, cm)``.
    """
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    if np.array_equal(P, Q):
        return TransportPlan(plan=np.diag(P), cost=0.0, potential=np.zeros(n),
                             pivots=0, bland=False)
    if Q.tobytes() < P.tobytes():
        flipped = wasserstein(Q, P, cm)
        return replace(flipped, plan=flipped.plan.T.copy(),
                       potential=-flipped.potential)
    cost, pot, pivots, bland, arc, flow = _graph_flow(P, Q, cm)
    return TransportPlan(plan=_plan_from_flow(P, Q, cm, arc, flow), cost=cost,
                         potential=pot, pivots=pivots, bland=bland)


def ntd(P: np.ndarray, Q: np.ndarray, cm) -> float:
    """Unit-bounded transport distance: exact Wasserstein cost / diameter.

    The cost comes from the flow over the graph's arcs, with no plan; on a
    tree it is the start flow, summed without the solver. It is computed on
    the same canonical argument order as :func:`wasserstein`, so
    ``ntd(P, Q, cm) == ntd(Q, P, cm)`` exactly.
    """
    if cm.diameter <= 0:
        raise ValueError("diameter must be positive (single-node graphs unsupported)")
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    if np.array_equal(P, Q):
        return 0.0
    if Q.tobytes() < P.tobytes():
        P, Q = Q, P
    if len(cm.arc_tail) == 2 * (n - 1):
        # A tree: the start flow is the unique optimum, with no pivot to make.
        return float(np.abs(_subtree_imbalance(P, Q, cm))[1:].sum()) / cm.diameter
    return _graph_flow(P, Q, cm)[0] / cm.diameter


def minmax_scale(x: np.ndarray, floor: float) -> np.ndarray:
    """Affine rescale of a vector onto [floor, 1].

    A constant input has no spread to rescale; it maps to the all-ones
    vector so that constant features leave the weighted metric unchanged.
    """
    x = np.asarray(x, dtype=float)
    if x.size == 0:
        raise ValueError("cannot scale an empty vector")
    if not 0.0 <= floor <= 1.0:
        raise ValueError("floor must lie in [0, 1]")
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.ones_like(x)
    return (x - lo) * (1.0 - floor) / (hi - lo) + floor


def combine_weights(config: WeightingConfig) -> np.ndarray:
    """Composite node weights: rescale each feature onto [floor, 1], combine
    linearly with the signed coefficients, and rescale the sum again."""
    f = config.floor
    total = np.zeros(len(config.features[0]), dtype=float)
    for feat, coef in zip(config.features, config.coefficients):
        total = total + coef * minmax_scale(np.asarray(feat, dtype=float), f)
    return minmax_scale(total, f)


def ntd_weighted(P: np.ndarray, Q: np.ndarray, cm, config: WeightingConfig) -> float:
    """Transport distance between feature-reweighted distributions.

    Each input is multiplied elementwise by the composite weight vector and
    renormalized before the exact metric runs. An all-ones weight vector
    (floor 1, or constant/zero-coefficient features) is the identity and
    reproduces the unweighted metric exactly.
    """
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    w = combine_weights(config)
    if len(w) != n:
        raise ValueError("weight vector length does not match the cost matrix")
    if np.all(w == 1.0):
        return ntd(P, Q, cm)
    wp = w * P
    wq = w * Q
    sp, sq = wp.sum(), wq.sum()
    if sp <= 0 or sq <= 0:
        raise ValueError("reweighted distribution lost all mass")
    return ntd(wp / sp, wq / sq, cm)
