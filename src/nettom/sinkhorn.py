"""Entropic-regularized transport loss with analytic gradients.

Replaces the exact metric's linear program with alternating diagonal
scaling against the kernel ``K = exp(-dist/lam)``, which makes the loss
differentiable in the input distributions. All iterations run in the log
domain (potentials instead of scalings), so small regularization weights
do not underflow; the classic multiplicative updates

    u <- P / (K v),    v <- Q / (K' u)

are recovered via ``u = exp(f/lam)``, ``v = exp(g/lam)``.

The loss divides both the transport-cost term and the entropy term by the
graph diameter, mirroring how the exact metric is normalized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .transport import check_distribution

_SMOOTHING_EPS = 1e-9
_CHECK_EVERY = 10


@dataclass(frozen=True)
class SinkhornParams:
    """Regularization weight, iteration budget, and marginal tolerance."""

    lam: float
    max_iters: int = 10_000
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")


@dataclass(frozen=True)
class SinkhornResult:
    """Converged (or truncated) scaling state and the regularized loss."""

    value: float
    plan: np.ndarray
    log_u: np.ndarray
    log_v: np.ndarray
    iterations_used: int
    converged: bool
    marginal_violation: float

    @property
    def u(self) -> np.ndarray:
        return np.exp(self.log_u)

    @property
    def v(self) -> np.ndarray:
        return np.exp(self.log_v)


def kernel_matrix(cm, lam: float) -> np.ndarray:
    """Elementwise ``exp(-dist/lam)``; unit diagonal, entries in (0, 1].

    For extreme ``dist/lam`` ratios the far entries underflow to zero in
    float arithmetic; the iteration itself works in the log domain and
    never materializes this matrix.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    return np.exp(-cm.dist.astype(float) / lam)


def _smooth(x: np.ndarray, n: int) -> np.ndarray:
    """Mix with the uniform distribution so every coordinate is positive."""
    out = (1.0 - _SMOOTHING_EPS) * x + _SMOOTHING_EPS / n
    return out / out.sum()


def _logsumexp_rows(M: np.ndarray) -> np.ndarray:
    mx = M.max(axis=1)
    return mx + np.log(np.exp(M - mx[:, None]).sum(axis=1))


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
    first few iterations.

    Deterministic: identical inputs and params give bit-identical results.
    """
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
    )


def ntd_loss(P: np.ndarray, Q: np.ndarray, cm, params: SinkhornParams) -> float:
    """Diameter-normalized regularized transport loss,
    ``(<plan, dist> - lam * H(plan)) / diameter``."""
    return sinkhorn_plan(P, Q, cm, params).value


def ntd_loss_grad(P: np.ndarray, Q: np.ndarray, cm, params: SinkhornParams) -> np.ndarray:
    """Gradient of the loss in the first argument.

    From the converged dual potentials: ``lam * log(u)`` divided by the
    diameter, centered to sum to zero (the loss is defined on the simplex,
    where gradients are identifiable only up to an additive constant).
    """
    res = sinkhorn_plan(P, Q, cm, params)
    if not res.converged:
        raise RuntimeError(
            f"no converged plan after {res.iterations_used} iterations "
            f"(violation {res.marginal_violation:.3e}); the gradient is "
            "defined only at convergence"
        )
    grad = params.lam * res.log_u / cm.diameter
    return grad - grad.mean()
