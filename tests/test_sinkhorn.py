import math

import numpy as np
import pytest

from nettom import graph_core as gc
from nettom import sinkhorn as sk
from nettom import transport as tp

from _oracles import (
    dyadic_distribution,
    normalize,
    random_connected_graph,
    sinkhorn_checked,
    sinkhorn_log_domain,
)
from conftest import delta
from test_fingerprint import _pairs


def _params(cm, lam_mult, **kw):
    defaults = dict(max_iters=200_000, convergence_tol=1e-8)
    defaults.update(kw)
    return sk.SinkhornParams(lam=lam_mult * cm.diameter, **defaults)


class TestKernel:
    """The kernel ``sinkhorn_plan`` starts from: ``exp(-dist/lam)``."""

    def test_unit_diagonal(self, tree30):
        _, cm = tree30
        K = np.exp(sk._log_kernel(cm, lam=0.7))
        assert (K.diagonal() == 1.0).all()
        assert (K > 0).all() and (K <= 1.0).all()

    def test_path_entry(self, path3):
        _, cm = path3
        K = np.exp(sk._log_kernel(cm, lam=1.0))
        assert K[0, 2] == pytest.approx(np.exp(-2.0), rel=1e-15)

    def test_large_lam_limit_is_all_ones(self, tree30):
        _, cm = tree30
        K = np.exp(sk._log_kernel(cm, lam=1e6))
        assert np.abs(K - 1.0).max() < 1e-4

    def test_rejects_nonpositive_lam(self):
        with pytest.raises(ValueError, match="positive"):
            sk.SinkhornParams(lam=0.0)
        with pytest.raises(ValueError, match="positive"):
            sk.SinkhornParams(lam=-1.0)


class TestParams:
    @pytest.mark.parametrize("kw, fragment", [
        (dict(lam=math.inf), "lam must be a positive finite number, got inf"),
        (dict(lam=-math.inf), "lam must be a positive finite number, got -inf"),
        (dict(lam=math.nan), "lam must be a positive finite number, got nan"),
        (dict(lam=True), "lam must be a positive finite number, got True"),
        (dict(lam="1"), "lam must be a positive finite number, got '1'"),
        (dict(lam=1.0, convergence_tol=math.nan),
         "convergence_tol must be a positive finite number, got nan"),
        (dict(lam=1.0, convergence_tol=math.inf),
         "convergence_tol must be a positive finite number, got inf"),
        (dict(lam=1.0, convergence_tol=0.0),
         "convergence_tol must be a positive finite number, got 0.0"),
        (dict(lam=1.0, max_iters=2.5), "max_iters must be an integer, got 2.5"),
        (dict(lam=1.0, max_iters=10.0), "max_iters must be an integer, got 10.0"),
        (dict(lam=1.0, max_iters=True), "max_iters must be an integer, got True"),
        (dict(lam=1.0, max_iters=0), "max_iters must be >= 1, got 0"),
    ], ids=["lam_inf", "lam_minus_inf", "lam_nan", "lam_bool", "lam_string",
            "tol_nan", "tol_inf", "tol_zero", "iters_float", "iters_whole_float",
            "iters_bool", "iters_zero"])
    def test_rejected(self, kw, fragment):
        with pytest.raises(ValueError) as info:
            sk.SinkhornParams(**kw)
        assert str(info.value) == fragment

    def test_numpy_scalars_accepted(self):
        params = sk.SinkhornParams(lam=np.float64(0.5), max_iters=np.int64(7),
                                   convergence_tol=np.float32(1e-6))
        assert params.max_iters == 7


def _centred_gradient(res, cm, lam):
    grad = lam * res.log_u / cm.diameter
    return grad - grad.mean()


class TestLogDomainOracle:
    """The scaling loop against the log-domain loop it replaced
    (``_oracles.sinkhorn_log_domain``), on a sparse and a Dirichlet pair per
    shipped topology. At lam = 0.001 x diameter the far kernel entries
    underflow and the scalings pass float range within a few hundred
    iterations, so only absorption keeps the two in step; the budget there
    is capped because neither converges quickly."""

    @pytest.mark.parametrize("name", gc.TOPOLOGIES)
    def test_matches_log_domain(self, name):
        net, cm = gc.topology(name)
        n = net.node_count
        rng = np.random.default_rng(11)
        pairs = [
            (dyadic_distribution(rng, n, support=4),
             dyadic_distribution(rng, n, support=4)),
            (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))),
        ]
        for mult, max_iters in ((0.05, 10_000), (0.01, 10_000), (0.001, 500)):
            params = _params(cm, mult, max_iters=max_iters)
            for k, (p, q) in enumerate(pairs):
                res = sk.sinkhorn_plan(p, q, cm, params)
                ref = sinkhorn_log_domain(p, q, cm, params)
                case = (mult, k)
                assert res.iterations_used == ref.iterations_used, case
                assert res.converged == ref.converged, case
                assert math.isfinite(res.value), case
                assert abs(res.value - ref.value) <= 1e-12, case
                assert np.abs(res.plan - ref.plan).max() <= 1e-12, case
                assert np.abs(_centred_gradient(res, cm, params.lam)
                              - _centred_gradient(ref, cm, params.lam)
                              ).max() <= 1e-9, case
                if mult == 0.05:
                    assert res.absorptions == 0, case
                if mult == 0.001:
                    assert res.absorptions > 0, case

    def test_violation_trace_matches_log_domain(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(12)
        p = dyadic_distribution(rng, net.node_count, support=5)
        q = dyadic_distribution(rng, net.node_count, support=5)
        params = _params(cm, 0.01, max_iters=1000)
        trace: list[tuple[float, float]] = []
        ref_trace: list[tuple[float, float]] = []
        sk.sinkhorn_plan(p, q, cm, params, violation_trace=trace)
        sinkhorn_log_domain(p, q, cm, params, violation_trace=ref_trace)
        assert len(trace) == len(ref_trace) == 1000
        assert np.abs(np.subtract(trace, ref_trace)).max() <= 1e-12


def _grid_graphs():
    graphs = [gc.topology(name) for name in ("tree30", "forest72", "optical54", "tree90")]
    net = gc.Network.from_edges(random_connected_graph(np.random.default_rng(13), 100))
    return graphs + [(net, gc.all_pairs_shortest_paths(net))]


def _grid_pairs(net, cm, rng):
    """The fingerprint pairs, a sparse dyadic pair and a Dirichlet pair."""
    n = net.node_count
    return _pairs(net, cm) + [
        (dyadic_distribution(rng, n, support=4), dyadic_distribution(rng, n, support=4)),
        (rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))),
    ]


# diameter / lam: the absorption test is skipped at 10 and 20 on every graph
# below and at 25 on tree30 only; 100 absorbs.
_GRID = (10, 20, 25, 30, 40, 100)


class TestAbsorptionCheck:
    """The loop tests for absorption only where ``_never_absorbs`` cannot
    rule it out; ``_oracles.sinkhorn_checked`` tests on every iteration."""

    def test_matches_checked_loop(self):
        rng = np.random.default_rng(14)
        skipped = absorbed = 0
        for net, cm in _grid_graphs():
            for p, q in _grid_pairs(net, cm, rng):
                for ratio in _GRID:
                    params = sk.SinkhornParams(lam=cm.diameter / ratio,
                                               max_iters=3000)
                    case = (net.node_count, ratio)
                    res = sk.sinkhorn_plan(p, q, cm, params)
                    ref = sinkhorn_checked(p, q, cm, params)
                    assert res.value == ref.value, case
                    assert res.iterations_used == ref.iterations_used, case
                    assert res.converged == ref.converged, case
                    assert res.marginal_violation == ref.marginal_violation, case
                    assert res.absorptions == ref.absorptions, case
                    for field in ("log_u", "log_v", "plan"):
                        assert (getattr(res, field).tobytes()
                                == getattr(ref, field).tobytes()), (case, field)
                    if ref.converged:
                        grad = params.lam * ref.log_u / cm.diameter
                        assert (sk.ntd_loss_grad(p, q, cm, params).tobytes()
                                == (grad - grad.mean()).tobytes()), case
                    if ratio in (10, 100):
                        trace, ref_trace = [], []
                        sk.sinkhorn_plan(p, q, cm, params, violation_trace=trace)
                        sinkhorn_checked(p, q, cm, params, violation_trace=ref_trace)
                        assert trace == ref_trace, case
                    skipped += sk._never_absorbs(net.node_count,
                                                 sk._log_kernel(cm, params.lam))
                    absorbed += res.absorptions > 0
        assert skipped > 0 and absorbed > 0

    def test_certified_iterates_stay_under_bounds(self):
        rng = np.random.default_rng(15)
        certified = 0
        for net, cm in _grid_graphs():
            n = net.node_count
            for p, q in _grid_pairs(net, cm, rng):
                for ratio in _GRID:
                    params = sk.SinkhornParams(lam=cm.diameter / ratio,
                                               max_iters=3000)
                    logK = sk._log_kernel(cm, params.lam)
                    if not sk._never_absorbs(n, logK):
                        continue
                    certified += 1
                    bound = n / math.exp(float(logK.min()))
                    ps, qs = sk._smooth(p, n), sk._smooth(q, n)
                    iterates = []
                    res = sinkhorn_checked(p, q, cm, params, iterates=iterates)
                    assert res.absorptions == 0
                    for u, v in iterates:
                        assert u.dot(u) <= bound ** 2
                        assert v.dot(v) <= bound ** 4
                        assert (u <= bound * ps * (1 + 1e-9)).all()
                        assert (v <= bound ** 2 * qs * (1 + 1e-9)).all()
        assert certified > 0

    def test_where_the_check_is_skipped(self):
        # lam = 0.05 x diameter: up to about 6,500 nodes; lam = 0.01 x
        # diameter: never, so small-lam solves still absorb
        assert sk._never_absorbs(6000, np.array([-20.0]))
        assert not sk._never_absorbs(7000, np.array([-20.0]))
        assert not sk._never_absorbs(2, np.array([-100.0]))
        for name in gc.TOPOLOGIES:
            net, cm = gc.topology(name)
            assert sk._never_absorbs(net.node_count,
                                     sk._log_kernel(cm, 0.05 * cm.diameter))


class TestSinkhornPlan:
    def test_uniform_fixed_point(self, path3):
        _, cm = path3
        u = np.ones(3) / 3
        for lam in (0.05, 0.5, 5.0):
            params = sk.SinkhornParams(lam=lam, max_iters=100_000,
                                       convergence_tol=1e-10)
            res = sk.sinkhorn_plan(u, u, cm, params)
            assert res.converged
            assert np.abs(res.plan.sum(axis=1) - u).max() < 1e-9
            assert np.abs(res.plan.sum(axis=0) - u).max() < 1e-9
            # entropy can push the value down to at most lam*log(n) here
            assert res.value >= -lam * np.log(3) - 1e-12

    def test_delta_pair_close_to_exact(self, path3):
        _, cm = path3
        params = _params(cm, 0.01)
        res = sk.sinkhorn_plan(delta(3, 0), delta(3, 2), cm, params)
        assert res.converged
        assert abs(res.value - 1.0) <= 0.02

    def test_plan_factorizes_through_scalings(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(0)
        p = dyadic_distribution(rng, cm.dist.shape[0], support=5)
        q = dyadic_distribution(rng, cm.dist.shape[0], support=5)
        res = sk.sinkhorn_plan(p, q, cm, _params(cm, 0.5))
        logK = sk._log_kernel(cm, 0.5 * cm.diameter)
        rebuilt = np.exp(res.log_u[:, None] + res.log_v[None, :] + logK)
        assert np.abs(rebuilt - res.plan).max() < 1e-9

    def test_plan_strictly_positive(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(1)
        p = dyadic_distribution(rng, cm.dist.shape[0], support=4)
        q = dyadic_distribution(rng, cm.dist.shape[0], support=4)
        res = sk.sinkhorn_plan(p, q, cm, _params(cm, 0.1))
        assert (res.plan > 0).all()

    def test_total_violation_monotone_after_first_iteration(self, tree30):
        # alternating projections shrink the total marginal error every
        # sweep; the max-entry error can wobble in the opening iterations
        net, cm = tree30
        rng = np.random.default_rng(2)
        for case in range(100):
            p = normalize(
                dyadic_distribution(rng, net.node_count,
                                    support=int(rng.integers(2, 8))) + 0.0)
            q = normalize(
                dyadic_distribution(rng, net.node_count,
                                    support=int(rng.integers(2, 8))) + 0.0)
            trace: list[tuple[float, float]] = []
            sk.sinkhorn_plan(p, q, cm, _params(cm, 0.1, max_iters=2000),
                             violation_trace=trace)
            totals = np.array([t[1] for t in trace])
            assert (np.diff(totals) <= 1e-12).all()

    def test_deterministic(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(3)
        p = dyadic_distribution(rng, cm.dist.shape[0], support=6)
        q = dyadic_distribution(rng, cm.dist.shape[0], support=6)
        a = sk.sinkhorn_plan(p, q, cm, _params(cm, 0.05))
        b = sk.sinkhorn_plan(p, q, cm, _params(cm, 0.05))
        assert a.value == b.value
        assert (a.plan == b.plan).all()
        assert a.iterations_used == b.iterations_used

    def test_value_finite_at_small_lam(self, path3):
        _, cm = path3
        params = sk.SinkhornParams(lam=1e-3 * cm.diameter, max_iters=50,
                                   convergence_tol=1e-8)
        res = sk.sinkhorn_plan(delta(3, 0), delta(3, 2), cm, params)
        assert np.isfinite(res.value)

    def test_truncation_reported(self, tree30):
        _, cm = tree30
        rng = np.random.default_rng(4)
        p = dyadic_distribution(rng, cm.dist.shape[0], support=5)
        q = dyadic_distribution(rng, cm.dist.shape[0], support=5)
        res = sk.sinkhorn_plan(p, q, cm,
                               sk.SinkhornParams(lam=0.05 * cm.diameter,
                                                 max_iters=2,
                                                 convergence_tol=1e-14))
        assert not res.converged
        assert res.iterations_used == 2


class TestNtdLoss:
    def test_identical_deltas_small_lam(self, path3):
        _, cm = path3
        d0 = delta(3, 0)
        loss = sk.ntd_loss(d0, d0, cm, _params(cm, 0.001, max_iters=20_000))
        assert abs(loss) < 1e-2

    def test_lam_sweep_converges_to_exact(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(5)
        p = dyadic_distribution(rng, net.node_count, support=5)
        q = dyadic_distribution(rng, net.node_count, support=5)
        exact = tp.ntd(p, q, cm)
        gaps = [
            abs(sk.ntd_loss(p, q, cm, _params(cm, mult)) - exact)
            for mult in (1.0, 0.1, 0.01)
        ]
        assert gaps[0] > gaps[1] > gaps[2]

    def test_cost_term_upper_bounds_exact(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(6)
        for _ in range(10):
            p = dyadic_distribution(rng, net.node_count, support=5)
            q = dyadic_distribution(rng, net.node_count, support=5)
            res = sk.sinkhorn_plan(p, q, cm, _params(cm, 0.05))
            assert res.converged
            cost_term = float((res.plan * cm.dist).sum()) / cm.diameter
            assert cost_term >= tp.ntd(p, q, cm) - 1e-6


class TestGradient:
    def test_zero_on_vertex_transitive_uniform(self):
        # every node looks alike on a triangle, so the centered gradient of
        # the symmetric case has nowhere to point
        net = gc.Network.from_edges([(0, 1), (1, 2), (0, 2)], entry_node=0)
        cm = gc.all_pairs_shortest_paths(net)
        u = np.ones(3) / 3
        params = sk.SinkhornParams(lam=1.0, max_iters=50_000,
                                   convergence_tol=1e-13)
        grad = sk.ntd_loss_grad(u, u, cm, params)
        assert np.abs(grad).max() < 1e-9

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            n = int(rng.integers(5, 11))
            net = gc.Network.from_edges(random_connected_graph(rng, n))
            cm = gc.all_pairs_shortest_paths(net)
            params = sk.SinkhornParams(lam=0.5 * cm.diameter,
                                       max_iters=100_000,
                                       convergence_tol=1e-12)
            p = normalize(rng.uniform(0.05, 1.0, size=n))
            q = normalize(rng.uniform(0.05, 1.0, size=n))
            analytic = sk.ntd_loss_grad(p, q, cm, params)
            h = 1e-5
            fd = np.zeros(n)
            for i in range(n):
                up = p.copy()
                up[i] += h
                down = p.copy()
                down[i] -= h
                fd[i] = (
                    sk.ntd_loss(normalize(up), q, cm, params)
                    - sk.ntd_loss(normalize(down), q, cm, params)
                ) / (2 * h)
            fd -= fd.mean()
            rel = np.linalg.norm(analytic - fd) / np.linalg.norm(fd)
            assert rel <= 1e-4

    def test_centered_to_zero_sum(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(8)
        p = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        q = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        grad = sk.ntd_loss_grad(p, q, cm, _params(cm, 0.5, convergence_tol=1e-12))
        assert abs(grad.sum()) < 1e-9

    def test_invariant_to_constant_potential_shift(self, tree30):
        # duals are defined up to a shared constant; centering removes it
        net, cm = tree30
        rng = np.random.default_rng(9)
        p = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        q = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        params = _params(cm, 0.5, convergence_tol=1e-12)
        res = sk.sinkhorn_plan(p, q, cm, params)
        grad = sk.ntd_loss_grad(p, q, cm, params)
        shifted = params.lam * (res.log_u + 42.0) / cm.diameter
        assert np.allclose(shifted - shifted.mean(), grad, atol=1e-12)

    def test_requires_convergence(self, tree30):
        net, cm = tree30
        rng = np.random.default_rng(10)
        p = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        q = normalize(rng.uniform(0.05, 1.0, size=net.node_count))
        with pytest.raises(RuntimeError, match="converged"):
            sk.ntd_loss_grad(p, q, cm,
                             sk.SinkhornParams(lam=0.01 * cm.diameter,
                                               max_iters=1,
                                               convergence_tol=1e-12))
