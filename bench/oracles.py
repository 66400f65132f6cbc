"""Independent reference computations used to check the program's outputs.

Nothing here calls into nettom: every value is recomputed from the inputs
with plain numpy, so a check compares two implementations, not one.
"""

from __future__ import annotations

import collections

import numpy as np


def hop_distances(node_count: int, edges) -> np.ndarray:
    """All-pairs hop counts by breadth-first search from every node."""
    neighbors = [[] for _ in range(node_count)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    dist = np.full((node_count, node_count), -1, dtype=np.int64)
    for s in range(node_count):
        row = dist[s]
        row[s] = 0
        queue = collections.deque([s])
        while queue:
            v = queue.popleft()
            for w in neighbors[v]:
                if row[w] < 0:
                    row[w] = row[v] + 1
                    queue.append(w)
    return dist


def is_tree(node_count: int, edges) -> bool:
    """A connected graph is a tree exactly when it has n - 1 edges."""
    return len(edges) == node_count - 1


def tree_w1(node_count: int, edges, p: np.ndarray, q: np.ndarray) -> float:
    """Exact W1 under hop costs on a tree: the sum over edges of the absolute
    mass imbalance of the subtree below the edge (Evans & Matsen 2012)."""
    neighbors = [[] for _ in range(node_count)]
    for i, j in edges:
        neighbors[i].append(j)
        neighbors[j].append(i)
    parent = [-1] * node_count
    order = [0]
    seen = [False] * node_count
    seen[0] = True
    for v in order:
        for w in neighbors[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
    sub = np.asarray(p, dtype=float) - np.asarray(q, dtype=float)
    total = 0.0
    for v in reversed(order[1:]):
        total += abs(sub[v])
        sub[parent[v]] += sub[v]
    return total


def dual_lower_bound(dist: np.ndarray, p: np.ndarray, q: np.ndarray) -> float:
    """Kantorovich-Rubinstein lower bound on W1: every distance-to-a-node
    function is 1-Lipschitz, so |<dist[k], p - q>| <= W1 for each k."""
    return float(np.abs(dist.astype(float) @ (np.asarray(p) - np.asarray(q))).max())


def _scale(x: np.ndarray, floor: float) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    if hi == lo:
        return np.ones_like(x)
    return (x - lo) * (1.0 - floor) / (hi - lo) + floor


def remoteness_weights(feature: np.ndarray, coefficient: float,
                       floor: float) -> np.ndarray:
    """Composite weight of a single feature: rescale onto [floor, 1], scale by
    the coefficient, rescale the result onto [floor, 1] again."""
    return _scale(coefficient * _scale(np.asarray(feature, dtype=float), floor),
                  floor)


def weighted_tree_ntd(node_count: int, edges, diameter: int, p, q,
                      weights: np.ndarray) -> float:
    """Feature-weighted transport distance on a tree."""
    if np.all(weights == 1.0):
        return tree_w1(node_count, edges, p, q) / diameter
    wp = weights * p
    wq = weights * q
    return tree_w1(node_count, edges, wp / wp.sum(), wq / wq.sum()) / diameter


def discounted_occupancy(entries, hits_by_step, t: int, gamma: float,
                         node_count: int) -> np.ndarray:
    """Normalized discounted red occupancy from step t, recomputed from the
    hits of each acted step of a read-back episode (entries count at step 0)."""
    raw = np.zeros(node_count, dtype=float)
    if t == 0:
        for e in entries:
            raw[e] += 1.0
    for s, hits in enumerate(hits_by_step):
        if s < t:
            continue
        w = gamma ** (s - t)
        for v in hits:
            raw[v] += w
    return raw / raw.sum()
