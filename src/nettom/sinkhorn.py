"""Entropic-regularized transport loss with analytic gradients.

Replaces the exact metric's linear program with alternating diagonal
scaling against the kernel ``K = exp(-dist/lam)``, which makes the loss
differentiable in the input distributions. The updates are the classic
multiplicative ones,

    u <- P / (K v),    v <- Q / (K' u),

two matrix-vector products per iteration. At small regularization weights
the scalings grow past float range while far kernel entries underflow, so
whenever a scaling passes a threshold its logarithm is absorbed into the
log potentials ``f``, ``g`` and the kernel is rebuilt as
``exp(-dist/lam + f + g')`` with ``u = v = 1`` (Schmitzer, arXiv:1610.06519;
Peyre & Cuturi, arXiv:1803.00567, section 4.4). The dual potentials are
``log u + f`` and ``log v + g``. The threshold test runs only where a bound
on the scalings, from the smallest kernel entry and the node count, cannot
rule it out: not at all at the default lam = 0.05 x diameter on graphs of
up to about 6,500 nodes, on every iteration at lam = 0.01 x diameter.

The loss divides both the transport-cost term and the entropy term by the
graph diameter, mirroring how the exact metric is normalized.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .transport import check_distribution

_SMOOTHING_EPS = 1e-9
_CHECK_EVERY = 10
# Scalings are absorbed into the kernel once the squared norm of u or v
# passes this, that is once an entry passes 1e30 / sqrt(n) (a dot product
# costs half a max reduction). Every kernel is at most 1 entrywise and every
# smoothed marginal at least 1e-9 / n, so u and v stay far inside float
# range on both sides.
_ABSORB_NORM_SQ = 1e60
# ln(_ABSORB_NORM_SQ) less a rounding margin of e^23, about 1e10.
_NEVER_ABSORBS_LOG = math.log(_ABSORB_NORM_SQ) - 23.0


def _check_positive(name: str, x) -> None:
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not 0 < x < math.inf:
        raise ValueError(f"{name} must be a positive finite number, got {x!r}")


@dataclass(frozen=True)
class SinkhornParams:
    """Regularization weight, iteration budget, and marginal tolerance."""

    lam: float
    max_iters: int = 10_000
    convergence_tol: float = 1e-8

    def __post_init__(self):
        _check_positive("lam", self.lam)
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, numbers.Integral)):
            raise ValueError(
                f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters!r}")
        _check_positive("convergence_tol", self.convergence_tol)


@dataclass(frozen=True)
class SinkhornResult:
    """Converged (or truncated) scaling state and the regularized loss.

    ``absorptions`` counts the kernel rebuilds the solve needed.
    """

    value: float
    plan: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray
    iterations_used: int
    converged: bool
    marginal_violation: float
    absorptions: int


def _log_kernel(cm, lam: float) -> np.ndarray:
    return -cm.dist.astype(float) / lam


def _smooth(x: np.ndarray, n: int) -> np.ndarray:
    """Mix with the uniform distribution so every coordinate is positive."""
    out = (1.0 - _SMOOTHING_EPS) * x + _SMOOTHING_EPS / n
    return out / out.sum()


def _never_absorbs(n: int, logK: np.ndarray) -> bool:
    """Whether the scalings provably stay below the absorption threshold.

    Let kappa = exp(logK.min()) be the smallest kernel entry and start, as
    the loop does, from v = 1. The map u -> p / (K (q / (K' u))) is
    monotone and homogeneous of degree 1, so its iterates stay inside any
    order interval [a x, b x] around a fixed point x that contains the
    first one (Sinkhorn's theorem gives x for a positive kernel). The first
    is u_1 = p / (K 1) and x = p / (K y) with y = q / (K' x), so
    u_1 / x = (K y) / (K 1) rowwise: a K-weighted mean of y whose weights
    are all at least kappa / n. Hence b / a <= n / kappa, and with
    u_1 <= p (the diagonal of K is 1) every iterate before an absorption
    satisfies u_k <= (n / kappa) p. From u_k >= (kappa / n) u_1 and
    (K' u_1)_j >= kappa / n also v_k <= (n / kappa)^2 q. So the squared
    norms stay below (n / kappa)^2 and (n / kappa)^4, and the test
    against ``_ABSORB_NORM_SQ`` cannot fire while
    4 ln(n / kappa) <= ln(_ABSORB_NORM_SQ) - 23. The factor e^23 (about
    1e10) covers rounding, which the map does not amplify: it does not
    expand distances in Thompson's metric (Schmitzer, arXiv:1610.06519).
    At the default lam = 0.05 x diameter this holds up to about 6,500
    nodes; at lam = 0.01 x diameter it never does.
    """
    return 4.0 * (math.log(n) - float(logK.min())) <= _NEVER_ABSORBS_LOG


def sinkhorn_plan(P: np.ndarray, Q: np.ndarray, cm,
                  params: SinkhornParams,
                  violation_trace: list[tuple[float, float]] | None = None
                  ) -> SinkhornResult:
    """Run scaling updates until the marginals match within tolerance.

    Zero coordinates are smoothed by an internal 1e-9 uniform mixture, which
    sits below every tolerance used elsewhere. Convergence is judged on the
    worst single marginal error (matching ``convergence_tol``), checked
    every few iterations; with ``violation_trace`` supplied it is checked
    every iteration and ``(max_violation, total_violation)`` pairs are
    appended. The total violation decreases monotonically (the updates are
    alternating information projections); the max can wobble during the
    first few iterations. A check costs no extra product: the row sums of
    the plan are ``u * (K v)``, where ``K v`` feeds the next u-update, and
    the column sums ``v * (K' u)`` come from the last v-update. The
    absorption test runs only where the scalings can reach its threshold
    (see ``_never_absorbs``). The n x n plan is built once, from the final
    potentials.

    Deterministic: identical inputs and params give bit-identical results.
    """
    n = cm.dist.shape[0]
    P = check_distribution(P, n, "P")
    Q = check_distribution(Q, n, "Q")
    p = _smooth(P, n)
    q = _smooth(Q, n)
    logK = _log_kernel(cm, params.lam)
    K = np.exp(logK)
    f = np.zeros(n)
    g = np.zeros(n)
    Kv = K.sum(axis=1)  # K @ v at v = 1
    absorptions = 0
    may_absorb = not _never_absorbs(n, logK)
    # Marginal errors, |u * K v - p| then |v * K'u - q|, refilled in place
    # at every check.
    err = np.empty(2 * n)
    row_err, col_err = err[:n], err[n:]
    pq = np.concatenate([p, q])

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
            if may_absorb and (u.dot(u) > _ABSORB_NORM_SQ
                               or v.dot(v) > _ABSORB_NORM_SQ):
                f += np.log(u)
                g += np.log(v)
                K = np.exp(logK + f[:, None] + g[None, :])
                u = np.ones(n)
                v = np.ones(n)
                KTu = K.sum(axis=0)
                absorptions += 1
            Kv = K.dot(v)
        np.multiply(u, Kv, out=row_err)
        np.multiply(v, KTu, out=col_err)
        err -= pq
        np.abs(err, out=err)
        violation = float(err.max())
        if not math.isfinite(violation):
            raise RuntimeError("scaling updates produced non-finite potentials")
        if violation_trace is not None:
            violation_trace.append(
                (violation, float(row_err.sum() + col_err.sum()))
            )
        if violation <= params.convergence_tol:
            converged = True
            break

    # max_iters >= 1, so u and v hold the last update.
    log_u = f + np.log(u)
    log_v = g + np.log(v)
    M = logK + log_u[:, None] + log_v[None, :]
    plan = np.exp(M)
    cost_term = float((plan * cm.dist).sum())
    entropy = -float((plan * M).sum())  # log(plan) == M, safe at underflow
    value = (cost_term - params.lam * entropy) / cm.diameter
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


def ntd_loss(P: np.ndarray, Q: np.ndarray, cm, params: SinkhornParams) -> float:
    """Diameter-normalized regularized transport loss,
    ``(<plan, dist> - lam * H(plan)) / diameter``."""
    return sinkhorn_plan(P, Q, cm, params).value


def ntd_loss_grad(P: np.ndarray, Q: np.ndarray, cm, params: SinkhornParams) -> np.ndarray:
    """Gradient of the loss in the first argument.

    From the converged dual potentials of :func:`sinkhorn_plan`:
    ``lam * log(u)`` divided by the diameter, centered to sum to zero (the
    loss is defined on the simplex, where gradients are identifiable only
    up to an additive constant).
    """
    result = sinkhorn_plan(P, Q, cm, params)
    if not result.converged:
        raise RuntimeError(
            f"no converged plan after {result.iterations_used} iterations "
            f"(violation {result.marginal_violation:.3e}); the gradient is "
            "defined only at convergence"
        )
    grad = params.lam * result.log_u / cm.diameter
    return grad - grad.mean()
