from dataclasses import fields, replace

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    Certificate,
    ConeSpec,
    ConicProblem,
    InvariantViolation,
    KktReport,
    L1Term,
    NonnegativeTerm,
    OracleCounters,
    OuterParams,
    SolveTimeout,
    SubproblemOracle,
    ZeroTerm,
    build_al_subproblem,
    instrument_composite,
    kkt_report,
    ppa_unconstrained,
    project_dual,
    prox_al,
    residual_certificate,
)
from proxcert.apg import step_clamp
from proxcert.model import (
    AffineConstraint,
    CallableConstraint,
    CallableSmooth,
    CompositeProblem,
    ConeBlock,
)
from proxcert.outer import OuterTrace, _require_dual
from proxcert.problems import (
    ConstrainedSpec,
    QuarticSpec,
    eq_quadratic_2d,
    gen_constrained,
    gen_quartic,
    ineq_quadratic_1d,
)

from heldout_sweep import PARAMS as SWEEP_PARAMS, sweep_spec
from helpers import (
    al_smooth_gradient,
    al_value,
    check_gradient,
    criterion6_specs,
    multiplier_update,
    ppa_subproblem,
    recorded_iterates,
)


@pytest.fixture
def ineq1d():
    return ineq_quadratic_1d()


class TestAlFunction:
    def test_value_at_infeasible_origin(self, ineq1d):
        # g(0) = 1, dist(1, -K)^2 = 1, so the penalty contributes 1/2
        assert al_value(ineq1d, np.array([0.0]), np.array([0.0]), 1.0) == pytest.approx(0.5)

    def test_value_on_boundary(self, ineq1d):
        assert al_value(ineq1d, np.array([1.0]), np.array([0.0]), 1.0) == pytest.approx(1.0)

    def test_feasible_zero_multiplier_reduces_to_objective(self, ineq1d):
        x = np.array([2.0])  # g(2) = -1 strictly feasible
        assert al_value(ineq1d, x, np.array([0.0]), 1.0) == pytest.approx(4.0)

    def test_gradient_at_origin(self, ineq1d):
        g = al_smooth_gradient(ineq1d, np.array([0.0]), np.array([0.0]), 1.0)
        assert g[0] == pytest.approx(-1.0, abs=1e-15)

    def test_gradient_in_strict_interior(self, ineq1d):
        g = al_smooth_gradient(ineq1d, np.array([2.0]), np.array([0.0]), 1.0)
        assert g[0] == pytest.approx(4.0, abs=1e-15)  # projection term vanishes

    def test_gradient_matches_finite_differences(self, ineq1d):
        x, lam, rho = np.array([0.3]), np.array([0.7]), 2.0
        grad = al_smooth_gradient(ineq1d, x, lam, rho)
        h = 1e-6
        fd = (al_value(ineq1d, x + h, lam, rho) - al_value(ineq1d, x - h, lam, rho)) / (2 * h)
        assert abs(fd - grad[0]) / (1 + abs(grad[0])) <= 1e-6

    def test_rejects_multiplier_outside_dual_cone(self, ineq1d):
        with pytest.raises(ValueError, match="dual cone"):
            al_value(ineq1d, np.array([0.0]), np.array([-1.0]), 1.0)


class TestSubproblems:
    def test_al_subproblem_matches_al_function_at_center(self, ineq1d):
        center, lam, rho = np.array([0.4]), np.array([0.6]), 3.0
        sub = build_al_subproblem(ineq1d, center, lam, rho)
        assert sub.smooth.value(center) == pytest.approx(al_value(ineq1d, center, lam, rho), abs=1e-14)
        assert sub.smooth.gradient(center) == pytest.approx(
            al_smooth_gradient(ineq1d, center, lam, rho), abs=1e-14
        )
        assert sub.mu == ineq1d.base.mu + 1.0 / rho

    def test_al_subproblem_passes_gradient_check(self, ineq1d):
        rng = np.random.default_rng(4)
        sub = build_al_subproblem(ineq1d, np.array([0.2]), np.array([0.5]), 2.0)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.5, 1)
            assert check_gradient(sub.smooth, x, 1e-5) <= 1e-6

    def test_shifted_subproblem_identities(self, quartic_1d):
        center, rho = np.array([0.7]), 5.0
        sub = ppa_subproblem(quartic_1d, center, rho)
        assert sub.mu == 1.0 / rho
        assert sub.smooth.value(center) == quartic_1d.smooth.value(center)
        x = np.array([1.3])
        expected = quartic_1d.smooth.gradient(x) + (x - center) / rho
        assert np.array_equal(sub.smooth.gradient(x), expected)


class TestMultiplierUpdate:
    def test_orthant_clamps_to_zero(self):
        assert multiplier_update(ConeSpec.nonneg(1), [0.0], 2.0, [-1.0])[0] == 0.0

    def test_orthant_ascent(self):
        assert multiplier_update(ConeSpec.nonneg(1), [1.0], 2.0, [0.5])[0] == 2.0

    def test_zero_cone_is_unprojected(self):
        out = multiplier_update(ConeSpec.zeros(1), [1.0], 2.0, [-0.3])
        assert out[0] == pytest.approx(0.4, abs=1e-15)

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_rho_must_be_positive_and_finite(self, rho):
        # rho = inf would turn a zero step into nan
        with pytest.raises(ValueError, match="rho must be positive and finite"):
            multiplier_update(ConeSpec.nonneg(1), [0.0], rho, [0.0])


class TestPpaUnconstrained:
    def test_quartic_residual_identity(self, quartic_1d):
        res = ppa_unconstrained(quartic_1d, OuterParams(epsilon=1e-4), [1.0])
        bound = res.trace.rows[-1].kkt.stationarity_residual
        assert bound <= 1e-4
        # P = 0, so the stationarity witness is exactly grad f at the output
        assert abs(res.x[0] ** 3) <= bound + 1e-14
        assert res.witness[0] == pytest.approx(res.x[0] ** 3, abs=1e-14)

    def test_optimal_init_stops_once_eta_reaches_target(self, quartic_1d):
        # the first certificate at the minimizer has a zero witness and a zero
        # step, so it proves any epsilon; the paper's test waited for
        # eta_k <= eps/2 (k = 2 at eps = 0.5)
        for eps in (2.0, 0.5, 1e-12):
            res = ppa_unconstrained(quartic_1d, OuterParams(epsilon=eps), [0.0])
            assert len(res.trace.rows) == 1
            assert res.trace.rows[0].step_norm == 0.0
            assert res.trace.rows[0].kkt.stationarity_residual == 0.0

    def test_output_bound_assembled_from_last_step(self, quartic_1d):
        res = ppa_unconstrained(quartic_1d, OuterParams(epsilon=1e-5), [1.0])
        last = res.trace.rows[-1]
        s = last.certificate.witness - (last.certificate.x_tilde - last.center) / last.rho_k
        assert np.array_equal(last.kkt.stationarity_witness, s)
        assert np.array_equal(res.witness, s)
        assert last.kkt.stationarity_residual == float(np.linalg.norm(s)) <= 1e-5
        assert last.kkt.complementarity_residual == 0.0

    def test_l1_composite_certificate_recomputation(self):
        problem = gen_quartic(QuarticSpec(n=5, k_terms=3, seed=31, mu_add=0.0, prox=L1Term(5, 0.2)))
        res = ppa_unconstrained(problem, OuterParams(epsilon=1e-5), np.zeros(5))
        assert res.trace.rows[-1].kkt.stationarity_residual <= 1e-5
        cert = res.certificate
        sub = ppa_subproblem(problem, res.center_final, res.rho_final)
        again = residual_certificate(sub, cert.x_pre, cert.x_tilde, cert.gamma_tilde)
        assert np.max(np.abs(again.witness - cert.witness)) <= 1e-12
        s = cert.witness - (res.x - res.center_final) / res.rho_final
        assert np.array_equal(s, res.witness)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_init(self, quartic_1d, bad):
        with pytest.raises(ValueError, match="init must be finite"):
            ppa_unconstrained(quartic_1d, OuterParams(epsilon=1e-4), [bad])

    def test_requires_mu_zero(self):
        problem = gen_quartic(QuarticSpec(n=2, k_terms=2, seed=1, mu_add=1.0))
        with pytest.raises(ValueError, match="mu = 0"):
            ppa_unconstrained(problem, OuterParams(epsilon=1e-4), np.zeros(2))

    def test_timeout_carries_best_bound(self, quartic_1d):
        with pytest.raises(SolveTimeout) as info:
            ppa_unconstrained(quartic_1d, OuterParams(epsilon=1e-9, max_outer=2), [1.0])
        best = info.value.trace.best
        assert best is not None and best.stationarity_residual > 0
        assert len(info.value.trace.rows) == 2

    def test_inner_budget_exhaustion_is_an_outer_timeout(self):
        # the first inner solve runs out before its first certificate check
        problem = gen_quartic(QuarticSpec(n=20, k_terms=5, seed=3, mu_add=0.0))
        params = OuterParams(epsilon=1e-10, max_iters=3)
        with pytest.raises(SolveTimeout) as info:
            ppa_unconstrained(problem, params, np.zeros(20))
        assert isinstance(info.value.trace, OuterTrace) and info.value.trace.rows == []
        assert info.value.trace.best is None


class TestProxAl:
    def test_inequality_instance_reaches_kkt_pair(self, ineq1d):
        res = prox_al(ineq1d, OuterParams(epsilon=1e-4), np.zeros(1), np.zeros(1))
        assert abs(res.x[0] - 1.0) <= 1e-3
        assert abs(res.lam[0] - 2.0) <= 1e-3
        assert res.report.stationarity_residual <= 1e-4
        assert res.report.complementarity_residual <= 1e-4

    def test_equality_qp_reaches_kkt_pair(self):
        conic = eq_quadratic_2d()
        res = prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(2), np.zeros(1))
        assert np.max(np.abs(res.x - 0.5)) <= 1e-3
        assert abs(res.lam[0] + 0.5) <= 1e-3
        assert res.report.stationarity_residual <= 1e-4
        assert res.report.complementarity_residual <= 1e-4

    def test_empty_cone_reduces_to_unconstrained(self):
        base = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=6, mu_add=0.0))
        conic = ConicProblem(
            base=base,
            constraint=AffineConstraint(np.zeros((0, 3)), np.zeros(0)),
            cone=ConeSpec(()),
        )
        res = prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(3), np.zeros(0))
        assert res.report.stationarity_residual <= 1e-4
        assert res.report.complementarity_residual == 0.0
        # the stationarity witness is a certified subgradient of f + P itself
        assert np.linalg.norm(base.smooth.gradient(res.x)) <= 1e-4 + 1e-12
        # the proximal-point solver is this solve, bit for bit, and maps,
        # applies and projects nothing
        ppa = ppa_unconstrained(base, OuterParams(epsilon=1e-4), np.zeros(3))
        assert np.array_equal(ppa.x, res.x)
        assert np.array_equal(ppa.witness, res.report.stationarity_witness)
        assert ppa.trace.rows[-1].kkt.stationarity_residual == res.report.stationarity_residual
        assert [row.rho_k for row in ppa.trace.rows] == [row.rho_k for row in res.trace.rows]
        assert ppa.trace.counters == res.trace.counters
        counters = ppa.trace.counters
        assert (counters.g_evals, counters.adjoint_evals, counters.cone_proj_evals) == (0, 0, 0)

    def test_multipliers_stay_in_dual_cone(self, ineq1d):
        eps = 1e-4
        res = prox_al(ineq1d, OuterParams(epsilon=eps), np.zeros(1), np.zeros(1))
        for row in res.trace.rows:
            assert row.lam_new[0] >= 0.0
            # only a last inner solve that stopped on the outer test may end
            # above eta_k; its KKT residuals must then meet epsilon instead
            bound = row.certificate.residual + float(
                np.linalg.norm(row.certificate.x_tilde - row.center)
            ) / row.rho_k
            stopped = (
                row is res.trace.rows[-1]
                and bound <= eps
                and row.kkt.complementarity_residual <= eps
            )
            if stopped:
                assert row.kkt.stationarity_residual <= eps
            else:
                assert row.certificate.residual <= row.eta_k

    def test_kkt_witnesses_recompute_from_trace(self, ineq1d):
        res = prox_al(ineq1d, OuterParams(epsilon=1e-4), np.zeros(1), np.zeros(1))
        for row in res.trace.rows:
            s = row.certificate.witness - (row.certificate.x_tilde - row.center) / row.rho_k
            assert np.max(np.abs(s - row.kkt.stationarity_witness)) <= 1e-12
            gval = ineq1d.constraint.value(row.certificate.x_tilde)
            w = (row.lam_prev + row.rho_k * gval - row.lam_new) / row.rho_k
            assert np.max(np.abs(w - row.kkt.complementarity_witness)) <= 1e-12

    def test_second_order_cone_projection_problem(self):
        # min ||x - (0, 2, 0)||^2 / 2 over the second-order cone: the
        # solution is the cone projection (1, 1, 0) with boundary
        # multiplier (1, -1, 0) and exact complementarity
        target = np.array([0.0, 2.0, 0.0])
        smooth = CallableSmooth(3, lambda x: 0.5 * float((x - target) @ (x - target)),
                                lambda x: x - target)
        conic = ConicProblem(
            base=CompositeProblem(smooth, ZeroTerm(3), mu=1.0),
            constraint=AffineConstraint(-np.eye(3), np.zeros(3)),
            cone=ConeSpec(((ConeBlock.SOC, 3),)),
        )
        res = prox_al(conic, OuterParams(epsilon=1e-6), np.zeros(3), np.zeros(3))
        assert np.max(np.abs(res.x - [1.0, 1.0, 0.0])) <= 1e-4
        assert np.max(np.abs(res.lam - [1.0, -1.0, 0.0])) <= 1e-4
        assert res.report.stationarity_residual <= 1e-6
        assert res.report.complementarity_residual <= 1e-6

    def test_rho0_validation(self, ineq1d):
        with pytest.raises(ValueError, match="rho0"):
            prox_al(ineq1d, OuterParams(epsilon=1e-4, rho0=0.0), np.zeros(1), np.zeros(1))

    def test_rejects_non_finite_start(self, ineq1d):
        params = OuterParams(epsilon=1e-4)
        with pytest.raises(ValueError, match="init must be finite"):
            prox_al(ineq1d, params, np.array([np.nan]), np.zeros(1))
        for lam in ([np.nan], [np.inf]):
            with pytest.raises(ValueError, match="lam must be finite"):
                prox_al(ineq1d, params, np.zeros(1), np.array(lam))

    @pytest.mark.parametrize("lam", [np.zeros(2), np.zeros((1, 1)), np.zeros(0)])
    def test_rejects_a_multiplier_of_the_wrong_shape(self, ineq1d, lam):
        with pytest.raises(ValueError, match=r"lam has shape .*, expected \(1,\)"):
            prox_al(ineq1d, OuterParams(epsilon=1e-4), np.zeros(1), lam)

    def test_large_projected_multiplier_is_a_valid_start(self):
        # re-projecting a projected multiplier of norm 1.2e7 moves it by
        # 3.7e-9, rounding alone, so the dual-cone check scales with |lam|
        cone = ConeSpec(((ConeBlock.SOC, 3),))
        conic = ConicProblem(
            base=CompositeProblem(
                CallableSmooth(3, lambda x: 0.5 * float(x @ x), lambda x: x.copy()),
                ZeroTerm(3), mu=1.0,
            ),
            constraint=AffineConstraint(-np.eye(3), np.zeros(3)),
            cone=cone,
        )
        lam = project_dual(cone, np.random.default_rng(9).normal(size=3) * 2e7)
        assert np.max(np.abs(lam - project_dual(cone, lam))) > 1e-9
        assert np.array_equal(_require_dual(conic, lam), lam)
        with pytest.raises(ValueError, match="dual cone"):
            _require_dual(conic, lam * np.array([1.0, 1.0, 1.0 + 1e-6]))

    def test_maps_x_new_once_per_outer_step(self, ineq1d):
        # the stopping test maps x_tilde through the counted g, and the
        # multiplier update and kkt_report reuse that value, so every raw
        # call of g is one that g_evals books
        raw_calls = []
        matrix, shift = ineq1d.constraint.matrix, ineq1d.constraint.shift

        def value(x):
            raw_calls.append(1)
            return matrix @ x + shift

        counting = CallableConstraint(1, 1, value, lambda x, v: matrix.T @ v)
        conic = ConicProblem(base=ineq1d.base, constraint=counting, cone=ineq1d.cone)
        res = prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(1), np.zeros(1))
        assert len(res.trace.rows) == 4
        assert res.trace.counters.g_evals == 80
        assert len(raw_calls) == res.trace.counters.g_evals
        last = res.trace.rows[-1]
        again = kkt_report(ineq1d, last.lam_new, last.certificate, last.rho_k, last.center,
                           last.lam_prev)
        assert np.array_equal(again.stationarity_witness, res.report.stationarity_witness)
        assert np.array_equal(again.complementarity_witness, res.report.complementarity_witness)
        assert again.witness_defects == res.report.witness_defects

    def test_timeout_carries_best_report(self, ineq1d):
        with pytest.raises(SolveTimeout) as info:
            prox_al(ineq1d, OuterParams(epsilon=1e-10, max_outer=2), np.zeros(1), np.zeros(1))
        assert info.value.trace.best is not None
        assert info.value.trace.best.stationarity_residual >= 0

    def test_inner_budget_exhaustion_is_an_outer_timeout(self):
        # the timeout carries the outer trace and the best KKT report so far
        base = QuarticSpec(n=20, k_terms=5, seed=3, mu_add=0.0)
        conic = gen_constrained(ConstrainedSpec(base=base, m1=3, m2=1, seed=4)).conic
        params = OuterParams(epsilon=1e-10, max_iters=12)
        with pytest.raises(SolveTimeout) as info:
            prox_al(conic, params, np.zeros(20), np.zeros(4))
        rows = info.value.trace.rows
        assert isinstance(info.value.trace, OuterTrace) and len(rows) == 10
        worst = [max(row.kkt.stationarity_residual, row.kkt.complementarity_residual) for row in rows]
        assert info.value.trace.best is rows[worst.index(min(worst))].kkt


def same_report(a: KktReport, b: KktReport) -> bool:
    """Whether two KKT reports agree bit for bit, field by field."""
    return all(
        np.array_equal(getattr(a, field.name), getattr(b, field.name)) for field in fields(KktReport)
    )


@pytest.fixture(scope="class")
def nonneg_seed13():
    """The held-out sweep's nonneg seed 13 (mu = 0, n = 6) and its prox_al solve.

    With each outer step centred at the last iterate, this solve timed out
    after 84,867 gradients (5.3 s): an inner solve ran out of its 20,000
    iterations.  Extrapolated centers certify it in 2,523.
    """
    conic = gen_constrained(sweep_spec(13, "nonneg")).conic
    res = prox_al(conic, SWEEP_PARAMS, np.zeros(6), np.zeros(3))
    return conic, res


class TestExtrapolatedCenters:
    def test_heldout_nonneg_seed13_certifies(self, nonneg_seed13):
        conic, res = nonneg_seed13
        eps = SWEEP_PARAMS.epsilon
        assert res.report.stationarity_residual <= eps
        assert res.report.complementarity_residual <= eps
        assert res.trace.counters.grad_f_evals < 20_000
        last = res.trace.rows[-1]
        again = kkt_report(conic, last.lam_new, last.certificate, last.rho_k, last.center,
                           last.lam_prev)
        assert same_report(again, res.report)

    def test_centers_follow_the_momentum_and_may_leave_dom_p(self, nonneg_seed13):
        conic, res = nonneg_seed13
        rows = res.trace.rows
        prox = conic.base.nonsmooth
        assert np.array_equal(rows[0].center, np.zeros(6))
        # mu = 0, so q = 0: a_{k+1}^2 = (1 - a_{k+1}) a_k^2 from a_0 = 1, and
        # c_{k+1} = x_{k+1} + beta_k (x_{k+1} - x_k) from x_0 = 0
        # each step's new point x_{k+1} is its certificate's x_tilde
        points = [row.certificate.x_tilde for row in rows]
        a, x_prev = 1.0, np.zeros(6)
        for x_new, row in zip(points, rows[1:]):
            a_next = (np.sqrt(a**4 + 4.0 * a**2) - a**2) / 2.0
            beta = a * (1.0 - a) / (a**2 + a_next)
            assert np.allclose(row.center, x_new + beta * (x_new - x_prev), rtol=1e-12, atol=1e-15)
            a, x_prev = a_next, x_new
        assert any(not np.array_equal(row.center, x_new) for x_new, row in zip(points, rows[1:]))
        assert any(prox.value(row.center) == np.inf for row in rows)
        assert all(prox.value(x_new) == 0.0 for x_new in points)
        for row in rows:
            again = kkt_report(conic, row.lam_new, row.certificate, row.rho_k, row.center,
                               row.lam_prev)
            assert same_report(again, row.kkt)


class TestHeldRelativeStops:
    def test_mu0_nonneg_instance_certifies(self):
        """A feasible mu = 0 instance under a nonnegativity prox, at the sweep's
        settings.  While relative stops grew rho, rho reached 1,280 and the inner
        solve of outer step 17 ran out of its 20,000 iterations with a best
        residual of 2.3e-4 against eta_17 = 1.7e-7.  Holding rho at those stops
        certifies it at rho = 40."""
        spec = ConstrainedSpec(
            QuarticSpec(n=5, k_terms=3, seed=4, mu_add=0.0, prox=NonnegativeTerm(5)),
            m1=2, m2=1, seed=9,
        )
        conic = gen_constrained(spec).conic
        res = prox_al(conic, SWEEP_PARAMS, np.zeros(5), np.zeros(3))
        rows = res.trace.rows
        assert (len(rows), res.trace.counters.grad_f_evals) == (39, 3186)
        assert max(res.report.stationarity_residual, res.report.complementarity_residual) <= 1e-5
        assert "relative" in [row.stop for row in rows[:-1]]
        last = rows[-1]
        assert last.rho_k == 40.0
        again = kkt_report(conic, last.lam_new, last.certificate, last.rho_k, last.center,
                           last.lam_prev)
        assert same_report(again, res.report)


class TestKktReport:
    def test_exact_pair_gives_zero_residuals(self, ineq1d):
        x, lam = np.array([1.0]), np.array([2.0])
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0,
                           witness=np.zeros(1), residual=0.0)
        report = kkt_report(ineq1d, lam, cert, 1.0, x, lam)
        assert report.stationarity_residual == 0.0
        assert report.complementarity_residual == 0.0
        assert report.witness_defects == (0.0, 0.0)

    def test_perturbed_point_measures_gradient_gap(self, ineq1d):
        # x = 1.1 with lam held at 2: the exact subgradient element is
        # grad f + grad g * lam = 2.2 - 2 = 0.2
        x, lam_new, rho = np.array([1.1]), np.array([2.0]), 1.0
        lam_prev = np.array([2.1])  # makes the projected update reproduce lam_new
        assert multiplier_update(ineq1d.cone, lam_prev, rho, ineq1d.constraint.value(x))[0] == pytest.approx(2.0)
        u = np.array([2.0 * 1.1 + (-1.0) * 2.0])  # exact stationarity element, x_prev = x
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=u, residual=abs(u[0]))
        report = kkt_report(ineq1d, lam_new, cert, rho, x, lam_prev)
        assert report.stationarity_residual == pytest.approx(0.2, abs=1e-12)
        assert report.complementarity_residual == pytest.approx(0.1, abs=1e-12)

    def test_identity_projection_makes_witness_vanish(self, ineq1d):
        # lam_prev + rho g(x) already lies in the dual cone, so w = 0 and the
        # complementarity residual equals ||g(x)|| under either formula
        x = np.array([0.75])
        lam_prev, rho = np.array([1.0]), 2.0
        gval = ineq1d.constraint.value(x)  # 0.25
        lam_new = multiplier_update(ineq1d.cone, lam_prev, rho, gval)
        assert lam_new[0] == pytest.approx(1.5)
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(1), residual=0.0)
        report = kkt_report(ineq1d, lam_new, cert, rho, x, lam_prev)
        assert np.array_equal(report.complementarity_witness, np.zeros(1))
        assert report.witness_defects == (0.0, 0.0)
        assert report.complementarity_residual == pytest.approx(float(np.abs(gval[0])), abs=1e-15)

    def test_mismatched_multiplier_raises(self, ineq1d):
        x = np.array([0.75])
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(1), residual=0.0)
        with pytest.raises(AssertionError, match="witness defects"):
            kkt_report(ineq1d, np.array([5.0]), cert, 2.0, x, np.array([1.0]))

    def test_large_multipliers_pass_with_a_rounding_level_defect(self):
        # the scale of an infeasible run's late outer steps: lam_new is the
        # projected update of lam_prev + rho g, so its defect |<lam_new, w>|
        # is rounding alone, about 1e-16 of ||lam_new|| * ||w||, yet above a
        # tolerance of 1e-9 (1 + ||w||) that ignores the multiplier's size
        conic = mixed_cone_conic()
        rng = np.random.default_rng(4)
        rho = 4.2e7
        lam_prev = project_dual(conic.cone, rng.normal(size=9) * 1.5e6)
        gval = rng.normal(size=9) * 0.5
        lam_new = multiplier_update(conic.cone, lam_prev, rho, gval)
        x = np.zeros(5)
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(5), residual=0.0)
        report = kkt_report(conic, lam_new, cert, rho, x, lam_prev, gval)
        w_norm = float(np.linalg.norm(report.complementarity_witness))
        defect = report.witness_defects[1]
        assert np.linalg.norm(lam_new) > 1e7
        assert 1e-9 * (1.0 + w_norm) < defect <= 1e-15 * np.linalg.norm(lam_new) * w_norm

    def test_short_constraint_output_is_a_value_error(self, ineq1d):
        x = np.array([0.75])
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(1), residual=0.0)
        with pytest.raises(ValueError, match="constraint map returned shape"):
            kkt_report(ineq1d, np.array([1.0]), cert, 2.0, x, np.array([1.0]), np.zeros(0))

    @pytest.mark.parametrize("rho", [0.0, -1.0, np.inf, np.nan])
    def test_rho_must_be_positive_and_finite(self, ineq1d, rho):
        # a bad rho would otherwise surface as a multiplier mismatch under a
        # cone, and as a NaN or infinite residual under an empty cone
        x = np.array([0.75])
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(1), residual=0.0)
        empty = ConicProblem.unconstrained(ineq1d.base)
        for conic, lam in ((ineq1d, np.array([1.0])), (empty, np.zeros(0))):
            with pytest.raises(ValueError, match="rho must be positive and finite"):
                kkt_report(conic, lam, cert, rho, x + 1.0, lam)

    def test_mismatched_multiplier_is_an_invariant_violation(self, ineq1d):
        x = np.array([0.75])
        cert = Certificate(x_pre=x, x_tilde=x, gamma_tilde=1.0, witness=np.zeros(1), residual=0.0)
        with pytest.raises(InvariantViolation, match="witness defects"):
            kkt_report(ineq1d, np.array([5.0]), cert, 2.0, x, np.array([1.0]))


class TestOuterParams:
    def test_sigma_zeta_product_constraint(self):
        with pytest.raises(ValueError, match="0 < sigma < 1/zeta"):
            OuterParams(epsilon=1e-4, zeta=2.0, sigma=0.6)

    def test_epsilon_positive(self):
        for eps in (0.0, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                OuterParams(epsilon=eps)

    def test_holds_only_what_a_caller_may_set(self):
        # the loop sets the inner epsilon, gamma0 and alpha0 itself, so of the
        # inner settings only the four it reads sit beside the outer schedule,
        # and ApgParams's own checks reject a bad one at construction
        assert [f.name for f in fields(OuterParams)] == [
            "epsilon", "rho0", "zeta", "sigma", "eta0", "max_outer",
            "delta", "M", "max_iters", "max_backtracks",
        ]
        assert OuterParams(epsilon=1e-4).inner_params() == ApgParams()
        bad = {"delta": (0.0, 1.0), "M": (0, 2.5), "max_iters": (-1, True), "max_backtracks": (0,)}
        for name, values in bad.items():
            for value in values:
                with pytest.raises(ValueError, match=f"^{name} must"):
                    OuterParams(epsilon=1e-4, **{name: value})

    def test_inner_solves_start_at_the_clamp_with_alpha0_one(self):
        # what the loop sets itself: every inner solve's alpha recursion starts
        # at gamma0 = the step clamp of its modulus mu + 1/rho_k and alpha0 = 1
        inst = gen_constrained(criterion6_specs()[19])
        nonneg = gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))
        with recorded_iterates() as rec:
            res = prox_al(inst.conic, OuterParams(epsilon=1e-4), inst.x_feas, np.zeros(8))
            ppa = ppa_unconstrained(nonneg, OuterParams(epsilon=1e-7), np.zeros(8))
        steps = [(inst.conic.base.mu, row) for row in res.trace.rows]
        steps += [(0.0, row) for row in ppa.trace.rows]
        assert len(steps) > 10
        for (mu, row), solve in zip(steps, rec.inner, strict=True):
            assert solve.trace.mu == mu + 1.0 / row.rho_k
            assert (solve.trace.alpha0, solve.trace.gamma0) == (1.0, step_clamp(solve.trace.mu))

    def test_resolved_rho0_defaults(self, quartic_1d, ineq1d):
        params = OuterParams(epsilon=1e-4)
        assert params.resolved(quartic_1d.mu).rho0 == 10.0
        assert params.resolved(ineq1d.base.mu).rho0 == 10.0  # c + 1 = 3.41 for mu = 2
        steep = ConicProblem(
            base=gen_quartic(QuarticSpec(n=2, k_terms=1, seed=0, mu_add=20.0)),
            constraint=eq_quadratic_2d().constraint,
            cone=ConeSpec.zeros(1),
        )
        assert params.resolved(steep.base.mu).rho0 == (20.0 + np.sqrt(404.0)) / 2.0 + 1.0
        assert params.rho0 is None
        assert OuterParams(epsilon=1e-4, rho0=30.0).resolved(steep.base.mu).rho0 == 30.0

    def test_grow_path_needs_only_a_positive_finite_rho0(self, ineq1d):
        # below the critical value 1 + sqrt(2) for mu = 2: the inner step
        # base is the clamp (1 - 1e-9)/mu_k whatever rho_k is
        res = prox_al(ineq1d, OuterParams(epsilon=1e-4, rho0=1.0), np.zeros(1), np.zeros(1))
        assert res.report.stationarity_residual <= 1e-4
        for rho0 in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(ValueError, match="rho0 must be positive and finite"):
                OuterParams(epsilon=1e-4, rho0=rho0).resolved(ineq1d.base.mu)

    @pytest.mark.parametrize("conic", [False, True])
    def test_grow_path_alpha0_checked_against_the_clamp(self, quartic_1d, ineq1d, conic):
        # the first inner step is the clamp, so mu_0 * gamma_0 = 1 - 1e-9 and
        # alpha0 = 1 lies in [sqrt(mu_0 * gamma_0), 1]; the loop keeps it there
        mu = ineq1d.base.mu if conic else quartic_1d.mu
        params = OuterParams(epsilon=1e-4).resolved(mu)
        mu_0 = mu + 1.0 / params.rho0
        assert np.sqrt(mu_0 * step_clamp(mu_0)) <= params.inner_params().alpha0 == 1.0


def mixed_cone_conic():
    """A quartic in 5 variables under 9 affine rows: orthant, zero and SOC blocks."""
    base = gen_quartic(QuarticSpec(n=5, k_terms=4, seed=12, mu_add=0.5))
    rng = np.random.default_rng(6)
    cone = ConeSpec(((ConeBlock.NONNEG, 3), (ConeBlock.ZERO, 2), (ConeBlock.SOC, 4)))
    constraint = AffineConstraint(rng.uniform(-1.0, 1.0, size=(9, 5)), rng.uniform(-1.0, 1.0, 9))
    return ConicProblem(base=base, constraint=constraint, cone=cone)


def grow_decisions(rows, params, has_cone):
    """Check a trace's schedule row by row; return each step's grow decision.

    eta_k is eta0 * sigma**k and rho_k is rho0 * zeta**j, both bit for bit,
    where j counts the grows so far.  A step grows rho when its prox-step
    term ||x_new - center||/rho_k or its complementarity residual exceeds
    its inner residual, recomputed here from the recorded row, except that
    under a non-empty cone a step the relative test ended above eta_k holds
    rho.
    """
    decisions = []
    grows = 0
    for row in rows:
        assert row.eta_k == params.eta0 * params.sigma**row.k
        assert row.rho_k == params.rho0 * params.zeta**grows
        assert row.rho_k <= params.rho0 * params.zeta**row.k
        prox_step = float(np.linalg.norm(row.certificate.x_tilde - row.center)) / row.rho_k
        residual = row.certificate.residual
        relative = row.eta_k < residual <= 0.5 * prox_step
        assert (row.stop == "relative") == relative
        complementarity = row.kkt.complementarity_residual
        held = has_cone and relative
        decisions.append(not held and max(prox_step, complementarity) > residual)
        grows += decisions[-1]
    return decisions


class TestOuterSchedule:
    @pytest.mark.parametrize("loop", ["ppa", "prox-al", "prox-al-relative"])
    def test_schedule_contract(self, loop, quartic_1d):
        if loop == "ppa":
            problem, params = quartic_1d, OuterParams(epsilon=1e-5, rho0=10.0)
            res = ppa_unconstrained(problem, params, [1.0])
        else:
            # criterion-6 instance 2 (mu = 0) both holds and grows rho; instance
            # 14 also holds it after relative stops above eta_k
            inst = gen_constrained(criterion6_specs()[2 if loop == "prox-al" else 14])
            problem, params = inst.conic, OuterParams(epsilon=1e-4)
            res = prox_al(problem, params, inst.x_feas, np.zeros(problem.cone.dim))
        has_cone = loop != "ppa"
        mu = problem.base.mu if has_cone else problem.mu
        rows = res.trace.rows
        decisions = grow_decisions(rows, params.resolved(mu), has_cone)
        if has_cone:
            assert True in decisions[:-1] and False in decisions[:-1]
        if loop == "prox-al-relative":
            assert "relative" in [row.stop for row in rows[:-1]]
            # every inner solve but the last, which may stop on the outer test,
            # meets eta_k or the relative test (grow_decisions checks what rho did)
            for row in rows[:-1]:
                assert row.certificate.residual <= row.eta_k or row.stop == "relative"
        else:
            # only the last inner solve, which stopped on the outer test, may end above eta_k
            for row in rows[:-1]:
                assert row.certificate.residual <= row.eta_k

    def test_infeasible_problem_grows_rho_every_step(self):
        # complementarity binds on every step of an infeasible problem, so
        # rho must never be held
        params = OuterParams(epsilon=1e-3, max_outer=8)
        conic = mixed_cone_conic()
        with pytest.raises(SolveTimeout) as info:
            prox_al(conic, params, np.zeros(5), np.zeros(9))
        rows = info.value.trace.rows
        assert len(rows) == 8
        rho0 = params.resolved(conic.base.mu).rho0
        assert [row.rho_k for row in rows] == [rho0 * 2.0**k for k in range(8)]


class TestFusedSubproblems:
    def test_al_fused_is_bit_identical_and_projects_once(self):
        conic = mixed_cone_conic()
        counters = OracleCounters()
        lam = project_dual(conic.cone, np.linspace(-1.0, 1.0, 9))
        # the raw conic behind the solver's counting wrapper: the wrapper
        # books the gradient, the subproblem oracle the map and projection
        sub = build_al_subproblem(conic, np.full(5, 0.1), lam, 3.0, counters=counters)
        wrapped = instrument_composite(sub, counters).smooth
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=5)
            before = replace(counters)
            f, g = wrapped.value_and_gradient(x)
            assert (
                counters.grad_f_evals - before.grad_f_evals,
                counters.g_evals - before.g_evals,
                counters.cone_proj_evals - before.cone_proj_evals,
            ) == (1, 1, 1)
            assert f == sub.smooth.value(x)
            assert np.array_equal(g, sub.smooth.gradient(x))

    def test_shifted_fused_is_bit_identical(self):
        problem = gen_quartic(QuarticSpec(n=6, k_terms=3, seed=2))
        sub = ppa_subproblem(problem, np.linspace(-0.5, 0.5, 6), 7.0)
        x = np.linspace(1.0, -1.0, 6)
        f, g = sub.smooth.value_and_gradient(x)
        assert f == sub.smooth.value(x)
        assert np.array_equal(g, sub.smooth.gradient(x))


class TestSubproblemOracle:
    """The flat oracle of the outer loop's subproblems."""

    CENTER = np.full(5, 0.1)
    RHO = 3.0

    def _al(self, conic, counters=None):
        lam = project_dual(conic.cone, np.linspace(-1.0, 1.0, conic.cone.dim))
        return build_al_subproblem(conic, self.CENTER, lam, self.RHO, counters=counters), lam

    def test_agrees_with_the_reference_al_on_every_cone_block(self):
        conic = mixed_cone_conic()
        sub, lam = self._al(conic)
        rng = np.random.default_rng(8)
        for _ in range(10):
            x = rng.uniform(-1.5, 1.5, size=5)
            d = x - self.CENTER
            # the reference lacks the proximal term; P = 0 for this base
            value = al_value(conic, x, lam, self.RHO) + float(d @ d) / (2.0 * self.RHO)
            grad = al_smooth_gradient(conic, x, lam, self.RHO) + d / self.RHO
            assert sub.smooth.value(x) == pytest.approx(value, rel=1e-13, abs=1e-13)
            assert np.allclose(sub.smooth.gradient(x), grad, rtol=1e-13, atol=1e-13)

    def test_books_its_own_counts(self):
        conic = mixed_cone_conic()
        counters = OracleCounters()
        sub, _ = self._al(conic, counters)
        assert isinstance(sub.smooth, SubproblemOracle)
        x = np.linspace(-1.0, 1.0, 5)

        def booked(call):
            before = replace(counters)
            call(x)
            return tuple(
                getattr(counters, key) - getattr(before, key)
                for key in ("grad_f_evals", "g_evals", "adjoint_evals", "cone_proj_evals")
            )

        # the oracle books what the solver's counting wrapper cannot see
        assert booked(sub.smooth.value_and_gradient) == (0, 1, 1, 1)
        assert booked(sub.smooth.gradient) == (0, 1, 1, 1)
        assert booked(sub.smooth.value) == (0, 1, 0, 1)
        assert booked(sub.smooth.multiplier) == (0, 1, 0, 1)
        # and the wrapper books the gradients, once each
        wrapped = instrument_composite(sub, counters).smooth
        assert booked(wrapped.value_and_gradient) == (1, 1, 1, 1)
        assert booked(wrapped.gradient) == (1, 1, 1, 1)
        assert booked(wrapped.value) == (0, 1, 0, 1)
        assert counters.prox_evals == 0  # the prox term is not the oracle's to count

    def test_multiplier_is_the_projected_dual_step(self):
        conic = mixed_cone_conic()
        sub, lam = self._al(conic)
        x = np.linspace(-1.0, 1.0, 5)
        gval, lam_new = sub.smooth.multiplier(x)
        assert np.array_equal(gval, conic.constraint.value(x))
        assert np.array_equal(lam_new, multiplier_update(conic.cone, lam, self.RHO, gval))

    def test_wrong_constraint_length_raises(self):
        conic = mixed_cone_conic()
        matrix, shift = conic.constraint.matrix, conic.constraint.shift
        long = CallableConstraint(5, 9, lambda x: np.append(matrix @ x + shift, 0.0),
                                  lambda x, v: matrix.T @ v)
        bad = ConicProblem(base=conic.base, constraint=long, cone=conic.cone)
        sub, _ = self._al(bad)
        x = np.zeros(5)
        for call in (sub.smooth.value, sub.smooth.gradient, sub.smooth.value_and_gradient):
            with pytest.raises(ValueError):
                call(x)

    def test_short_constraint_output_fails_prox_al(self):
        # one row under a two-row cone broadcasts through lam + rho g(x) and
        # passes the projection's shape check, so the subproblem oracle runs;
        # kkt_report, which every outer step's g(x_new) passes through,
        # rejects it
        base = gen_quartic(QuarticSpec(n=2, k_terms=2, seed=1, mu_add=1.0))
        short = CallableConstraint(
            2, 2, lambda x: np.array([x[0] - 1.0]), lambda x, v: np.array([v[0], 0.0])
        )
        conic = ConicProblem(base=base, constraint=short, cone=ConeSpec.nonneg(2))
        with pytest.raises(ValueError, match=r"returned shape \(1,\), expected \(2,\)"):
            prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(2), np.zeros(2))

    @pytest.mark.parametrize("fused", [True, False])
    def test_proximal_point_term_is_the_shifted_formula(self, fused):
        problem = gen_quartic(QuarticSpec(n=6, k_terms=3, seed=2))
        smooth = problem.smooth
        if not fused:  # an oracle without value_and_gradient gets the two calls
            smooth = CallableSmooth(6, smooth.value, smooth.gradient)
            problem = CompositeProblem(smooth, problem.nonsmooth, problem.mu)
        center, rho = np.linspace(-0.5, 0.5, 6), 7.0
        counters = OracleCounters()
        sub = ppa_subproblem(problem, center, rho, counters)
        assert sub.mu == problem.mu + 1.0 / rho
        # behind the solver's counting wrapper, which books the gradients
        wrapped = instrument_composite(sub, counters).smooth
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=6)
            d = x - center
            value = smooth.value(x) + float(d @ d) / (2.0 * rho)
            grad = smooth.gradient(x) + (x - center) / rho
            assert wrapped.value(x) == value
            assert np.array_equal(wrapped.gradient(x), grad)
            f, g = wrapped.value_and_gradient(x)
            assert f == value and np.array_equal(g, grad)
        g_x, lam_new = sub.smooth.multiplier(x)
        assert g_x.shape == lam_new.shape == (0,)
        # values book nothing; no map, adjoint or projection is called
        assert (counters.grad_f_evals, counters.g_evals, counters.adjoint_evals,
                counters.cone_proj_evals) == (20, 0, 0, 0)

    def test_traced_names_see_every_call(self, monkeypatch):
        # tracers rebind these module names to time and count each layer;
        # the flat oracle must still go through them
        from proxcert import apg, outer

        calls = {"trial": 0, "cert": 0, "project": 0}

        def counting(name, fn):
            def shim(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return shim

        monkeypatch.setattr(apg, "trial_step", counting("trial", apg.trial_step))
        monkeypatch.setattr(apg, "certified_prox_step", counting("cert", apg.certified_prox_step))
        monkeypatch.setattr(outer, "project_dual", counting("project", outer.project_dual))
        conic = mixed_cone_conic()
        # shifted so that -g(0) lies inside K: a feasible problem
        inside = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 2.0, 0.5, 0.5, 0.5])
        feasible = AffineConstraint(conic.constraint.matrix, -inside)
        conic = ConicProblem(base=conic.base, constraint=feasible, cone=conic.cone)
        res = prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(5), np.zeros(9))
        counters = res.trace.counters
        assert calls["trial"] > 0 and calls["cert"] > 0
        # one projection per booked one
        assert calls["project"] == counters.cone_proj_evals
        # a trial takes one gradient, a certificate check two
        assert calls["trial"] + 2 * calls["cert"] == counters.grad_f_evals


class TestInvariantViolation:
    @staticmethod
    def _overshooting(monkeypatch):
        import dataclasses

        from proxcert import outer

        solve = outer.apg_terminating

        def overshoot(problem, params, init, **kwargs):
            res = solve(problem, params, init, **kwargs)
            cert = dataclasses.replace(res.certificate, residual=2.0 * params.epsilon)
            return dataclasses.replace(res, certificate=cert)

        monkeypatch.setattr(outer, "apg_terminating", overshoot)

    def test_ppa_inner_residual_above_target(self, quartic_1d, monkeypatch):
        self._overshooting(monkeypatch)
        with pytest.raises(InvariantViolation, match="eta_k"):
            ppa_unconstrained(quartic_1d, OuterParams(epsilon=1e-4), [1.0])

    def test_prox_al_inner_residual_above_target(self, ineq1d, monkeypatch):
        self._overshooting(monkeypatch)
        with pytest.raises(InvariantViolation, match="eta_k"):
            prox_al(ineq1d, OuterParams(epsilon=1e-4), np.zeros(1), np.zeros(1))
