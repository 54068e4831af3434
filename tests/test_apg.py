import math
from dataclasses import replace

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    CallableSmooth,
    CompositeProblem,
    InvariantViolation,
    L1Term,
    LineSearchFailure,
    NonFiniteOracleOutput,
    NonnegativeTerm,
    OracleCounters,
    OuterParams,
    SolveTimeout,
    ZeroTerm,
    apg_iteration,
    apg_run,
    apg_terminating,
    certified_prox_step,
    initial_state,
    instrument_composite,
    ppa_unconstrained,
    prox_al,
    residual_certificate,
    solve_alpha,
    trial_step,
)
from proxcert.problems import IMAGE_MIN_ENTRIES, QuarticSpec, gen_constrained, gen_quartic

from conftest import SeparateOnly, make_quadratic, nan_after
from helpers import (
    accounting_violations,
    check_schedule_violations,
    composite_value,
    criterion6_specs,
    recorded_iterates,
    reference_solve,
    trajectory_invariant_violations,
)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def lying():
    """||x||^2/2 with a wrong-sign gradient.

    No step size passes either line search's curvature test in exact
    arithmetic, so within 20 backtracks no trial is accepted.  In floating
    point, though, both line searches from x = 1 accept trial 51, at gamma
    = 2**-51: the step moves x by rounding alone and the test passes on its
    rounding slack, so under the default budget of 100 backtracks the
    inconsistent gradient goes unreported (see
    ``test_default_budget_reports_the_inconsistent_gradient``).
    """
    return CompositeProblem(
        CallableSmooth(1, lambda x: 0.5 * float(x @ x), lambda x: -x), ZeroTerm(1)
    )


@pytest.mark.parametrize("make, name, bad", [
    (ApgParams, "gamma0", math.inf),
    (ApgParams, "gamma0", math.nan),
    (ApgParams, "gamma0", 0.0),
    (ApgParams, "M", 2.5),
    (ApgParams, "M", True),  # a bool is not an integer here
    (ApgParams, "M", 0),
    (ApgParams, "max_iters", 1e6),
    (ApgParams, "max_backtracks", np.float64(20.0)),
    (ApgParams, "max_backtracks", False),
    (ApgParams, "max_backtracks", 0),
    (OuterParams, "max_outer", 2.5),
    (OuterParams, "max_outer", True),
    (OuterParams, "max_outer", -1),
    (ApgParams, "alpha0", 0.0),
    (ApgParams, "alpha0", 1.5),
    (ApgParams, "delta", 0.0),
    (ApgParams, "delta", 1.0),
    (ApgParams, "delta", 1.5),
    (OuterParams, "zeta", 1.0),
    (OuterParams, "eta0", 0.0),
    (OuterParams, "eta0", 1.5),
    (OuterParams, "rho0", 0.0),
    (OuterParams, "rho0", math.inf),
    (OuterParams, "rho0", math.nan),
])
def test_params_reject_bad_values_at_construction(make, name, bad):
    base = {"epsilon": 1e-4} if make is OuterParams else {}
    with pytest.raises(ValueError, match=f"^{name} must"):
        make(**base, **{name: bad})
    if name in ("M", "max_iters", "max_backtracks", "max_outer"):  # a NumPy integer is an integer
        assert getattr(make(**base, **{name: np.int64(3)}), name) == 3


class TestSolveAlpha:
    def test_golden_ratio_case(self):
        assert solve_alpha(1.0, 1.0, 1.0, 0.0) == pytest.approx(GOLDEN, abs=1e-15)

    def test_strongly_convex_fixed_point(self):
        root = solve_alpha(0.5, 0.5, math.sqrt(0.5), 1.0)
        assert root == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_halved_step(self):
        assert solve_alpha(1.0, 0.5, 1.0, 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_residual_small_on_random_inputs(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            gamma_prev = float(rng.uniform(1e-6, 2.0))
            gamma_t = float(rng.uniform(1e-6, 2.0))
            alpha_prev = float(rng.uniform(1e-3, 1.0))
            mu = float(rng.uniform(0.0, 1.0 / gamma_t))
            alpha = solve_alpha(gamma_prev, gamma_t, alpha_prev, mu)
            assert 0.0 < alpha <= 1.0
            residual = (
                gamma_prev * alpha**2
                - (1 - alpha) * alpha_prev**2 * gamma_t
                - mu * alpha * gamma_t * gamma_prev
            )
            scale = max(gamma_prev, alpha_prev**2 * gamma_t, mu * gamma_t * gamma_prev)
            assert abs(residual) <= 1e-10 * scale

    def test_root_outside_unit_interval_is_an_invariant_violation(self):
        # mu * gamma_t = 3 > 1 puts the positive root above 1
        with pytest.raises(InvariantViolation, match="outside"):
            solve_alpha(1.0, 1.0, 1.0, 3.0)

    @pytest.mark.parametrize("gamma", [1e200, 1e-300], ids=["huge", "tiny"])
    def test_exact_at_any_step_scale(self, gamma):
        # the coefficients are scaled by a power of two, so b*b neither
        # overflows nor underflows and the root is the unit-scale root
        assert solve_alpha(gamma, gamma, 1.0, 0.0) == solve_alpha(1.0, 1.0, 1.0, 0.0)
        assert solve_alpha(gamma, gamma, 1.0, 0.0) == 0.6180339887498948

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            solve_alpha(-1.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            solve_alpha(1.0, 1.0, 1.5, 0.0)


class TestIteration:
    def test_hand_trace_convex_quadratic(self):
        problem = make_quadratic(mu=0.0)
        params = ApgParams(gamma0=1.0, delta=0.5)
        state = initial_state(problem, params, [1.0])
        new_state, trial, n_t = apg_iteration(problem, state, params)
        assert n_t == 0
        assert trial.gamma == 1.0
        assert trial.alpha == pytest.approx(GOLDEN, abs=1e-15)
        assert trial.beta == 0.0
        assert trial.y[0] == 1.0
        assert new_state.z[0] == pytest.approx(-GOLDEN, abs=1e-14)
        # the accelerated step lands on the exact minimizer, an equality
        # case of the acceptance inequality
        assert abs(new_state.x[0]) <= 1e-15
        assert trial.f_new <= 1e-30

    def test_hand_trace_strongly_convex(self):
        problem = make_quadratic(mu=1.0)
        params = ApgParams(gamma0=0.5, alpha0=math.sqrt(0.5), delta=0.5)
        state = initial_state(problem, params, [1.0])
        new_state, trial, n_t = apg_iteration(problem, state, params)
        assert n_t == 0
        assert trial.alpha == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert trial.beta == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert trial.y[0] == pytest.approx(1.0, abs=1e-15)
        assert new_state.z[0] == pytest.approx(1.0 - math.sqrt(0.5), abs=1e-15)
        assert new_state.x[0] == pytest.approx(0.5, abs=1e-15)

    def test_hand_trace_line_search_values(self):
        problem = make_quadratic(mu=1.0)
        state = initial_state(problem, ApgParams(gamma0=0.5, alpha0=math.sqrt(0.5)), [1.0])
        trial = trial_step(problem, state, 0.5)
        assert trial.lhs == pytest.approx(0.125, abs=1e-15)
        assert trial.rhs == pytest.approx(0.25, abs=1e-15)
        assert trial.accepted

    def test_stationary_point_is_fixed(self, quadratic):
        params = ApgParams(gamma0=0.5, alpha0=math.sqrt(0.5))
        state = initial_state(quadratic, params, [0.0])
        new_state, trial, _ = apg_iteration(quadratic, state, params)
        assert trial.y[0] == 0.0
        assert new_state.x[0] == 0.0
        assert new_state.z[0] == 0.0

    def test_gamma_is_exact_power(self, quartic_1d):
        # backtracking halves and growth doubles, so every step stays on the
        # grid gamma0 * delta**k, k >= 0
        params = ApgParams(gamma0=1.0, delta=0.5)
        trace = apg_run(quartic_1d, replace(params, max_iters=40), [1.5])
        for row in trace.rows:
            k = round(-math.log2(row.gamma_t))
            assert k >= 0 and row.gamma_t == 1.0 * 0.5**k

    def test_line_search_failure_on_inconsistent_gradient(self):
        params = ApgParams(max_backtracks=20)
        state = initial_state(lying(), params, [1.0])
        with pytest.raises(LineSearchFailure, match="line search failed"):
            apg_iteration(lying(), state, params)

    # ROADMAP item 1: a curvature test that cannot ratchet into rounding
    # noise.  Remove the marker when it lands.
    @pytest.mark.xfail(
        strict=True, raises=pytest.fail.Exception,  # pytest.raises: DID NOT RAISE
        reason="both line searches accept trial 51 at gamma = 2**-51 under the default budget",
    )
    @pytest.mark.parametrize("search", ["iteration", "certificate"])
    def test_default_budget_reports_the_inconsistent_gradient(self, search):
        params = ApgParams()
        with pytest.raises(LineSearchFailure, match="line search failed"):
            if search == "iteration":
                apg_iteration(lying(), initial_state(lying(), params, [1.0]), params)
            else:
                certified_prox_step(lying(), np.array([1.0]), params.gamma0, params)

    def test_certificate_search_runs_out(self):
        counters = OracleCounters()
        problem = instrument_composite(lying(), counters)
        with pytest.raises(LineSearchFailure, match="line search failed") as info:
            certified_prox_step(problem, np.array([1.0]), 1.0, ApgParams(max_backtracks=20))
        assert info.type is LineSearchFailure  # not its NonFiniteOracleOutput subclass
        assert counters.prox_evals == 21


class TestNonFiniteOracleOutput:
    def test_first_nan_trial_raises(self):
        # iteration 1 and the check after it take the first three gradients
        problem, made = nan_after(3)
        with pytest.raises(NonFiniteOracleOutput, match="iteration 2, backtracking trial 0"):
            apg_terminating(problem, ApgParams(gamma0=0.5, epsilon=1e-8), [1.0])
        assert len(made) == 4  # not the 103 of an exhausted line search

    def test_certificate_step_raises_at_first_trial(self):
        problem, made = nan_after(0)
        with pytest.raises(NonFiniteOracleOutput, match="proximal-gradient trial 0"):
            certified_prox_step(problem, np.array([1.0]), 1.0, ApgParams())
        assert len(made) == 1

    @pytest.mark.parametrize("search", ["iteration", "certificate"])
    def test_an_infinite_trial_is_never_accepted(self, search):
        # at gamma = 1e100 the trial's f overflows to inf, and so does the
        # acceptance test's rounding slack, so inf <= inf would accept it
        problem = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=1))
        params = ApgParams(gamma0=1e100)
        with np.errstate(over="ignore"), pytest.raises(NonFiniteOracleOutput, match="trial 0"):
            if search == "iteration":
                apg_iteration(problem, initial_state(problem, params, np.ones(3)), params)
            else:
                certified_prox_step(problem, np.ones(3), params.gamma0, params)


class TestApgRun:
    def test_single_iteration_reaches_minimum(self):
        problem = make_quadratic(mu=0.0)
        trace = apg_run(problem, ApgParams(gamma0=1.0, max_iters=1), [1.0])
        assert len(trace.rows) == 1
        assert trace.rows[0].F <= 1e-30

    def test_optimal_init_keeps_objective_flat(self, quadratic):
        trace = apg_run(quadratic, ApgParams(gamma0=0.5, max_iters=25), [0.0])
        assert all(row.F == 0.0 for row in trace.rows)

    def test_lambda_prod_is_running_product(self, quartic_1d):
        trace = apg_run(quartic_1d, ApgParams(max_iters=30), [1.0])
        prod = 1.0
        for row in trace.rows:
            prod *= 1.0 - row.alpha_t
            assert row.lambda_prod == pytest.approx(prod, rel=1e-12)

    def test_quartic_inverse_square_envelope(self, quartic_1d):
        """Objective gap decays inside the 1/t^2 envelope built from observed steps."""
        params = ApgParams(gamma0=1.0, delta=0.5)
        trace = apg_run(quartic_1d, replace(params, max_iters=200), [1.0])
        r0_sq = trace.F_init + trace.alpha0**2 / (2.0 * trace.gamma0)  # F* = 0, x* = 0
        gamma_min = min(row.gamma_t for row in trace.rows)
        speed = trace.alpha0 * math.sqrt(min(1.0, params.delta * gamma_min / trace.gamma0))
        for row in trace.rows:
            envelope = 4.0 * r0_sq / (2.0 + (row.t - 1) * speed) ** 2
            assert row.F <= envelope * (1.0 + 1e-9)

    def test_rejects_init_outside_domain(self):
        problem = CompositeProblem(
            make_quadratic().smooth, L1Term(1, 1.0), mu=1.0
        )
        bad = CompositeProblem(
            make_quadratic().smooth,
            type("T", (), {
                "dim": 1,
                "value": staticmethod(lambda x: np.inf),
                "prox": staticmethod(lambda g, z: z),
            })(),
            mu=1.0,
        )
        with pytest.raises(ValueError, match="domain"):
            apg_run(bad, ApgParams(max_iters=1), [1.0])
        apg_run(problem, ApgParams(max_iters=1), [1.0])  # fine


class TestAdaptivePg:
    """The certificate's backtracked proximal-gradient step."""

    def test_quadratic_equality_case(self, quadratic):
        cert, n = certified_prox_step(quadratic, np.array([1.0]), 1.0, ApgParams())
        assert (cert.x_tilde[0], cert.gamma_tilde, n) == (0.0, 1.0, 0)

    def test_quartic_backtracks_twice(self, quartic_1d):
        cert, n = certified_prox_step(quartic_1d, np.array([1.0]), 1.0, ApgParams())
        assert cert.x_tilde[0] == pytest.approx(0.75, abs=1e-15)
        assert cert.gamma_tilde == 0.25
        assert n == 2

    def test_stationary_point(self, quartic_1d):
        cert, n = certified_prox_step(quartic_1d, np.array([0.0]), 1.0, ApgParams())
        assert (cert.x_tilde[0], cert.gamma_tilde, n) == (0.0, 1.0, 0)

    def test_rejects_a_start_outside_the_domain(self):
        problem = CompositeProblem(make_quadratic().smooth, NonnegativeTerm(1), mu=1.0)
        with pytest.raises(ValueError, match="v must lie in the domain"):
            certified_prox_step(problem, np.array([-1.0]), 1.0, ApgParams())

    @pytest.mark.parametrize("v, gamma_start, message", [
        ([math.nan, 0.0, 0.0], 1.0, "v must be finite"),
        ([0.0, 0.0], 1.0, r"v has shape \(2,\), expected \(3,\)"),
        ([1.0, 1.0, 1.0], math.inf, "gamma_start must be positive and finite"),
        ([1.0, 1.0, 1.0], 0.0, "gamma_start must be positive and finite"),
    ], ids=["nan-v", "short-v", "inf-gamma", "zero-gamma"])
    def test_rejects_bad_arguments(self, v, gamma_start, message):
        # the checks initial_state applies, before any oracle call; delta
        # and max_backtracks come from ApgParams, which checked them
        counters = OracleCounters()
        problem = instrument_composite(gen_quartic(QuarticSpec(n=3, k_terms=2, seed=1)), counters)
        with pytest.raises(ValueError, match=message):
            certified_prox_step(problem, np.array(v), gamma_start, ApgParams())
        assert counters.grad_f_evals == counters.prox_evals == 0


class TestCertificate:
    def test_zero_witness_at_solution(self, quadratic):
        cert = residual_certificate(quadratic, np.array([1.0]), np.array([0.0]), 1.0)
        assert cert.residual == 0.0

    def test_quartic_witness_equals_gradient(self, quartic_1d):
        cert = residual_certificate(quartic_1d, np.array([1.0]), np.array([0.75]), 0.25)
        # with no nonsmooth term the witness collapses to the gradient at the output
        assert cert.witness[0] == pytest.approx(0.421875, abs=1e-15)
        assert cert.residual == pytest.approx(0.421875, abs=1e-15)

    def test_fixed_point_witness_vanishes(self, quartic_1d):
        cert = residual_certificate(quartic_1d, np.array([0.3]), np.array([0.3]), 0.5)
        assert cert.residual == 0.0


class TestApgTerminating:
    def test_quadratic_certified(self):
        problem = make_quadratic(mu=1.0)
        params = ApgParams(gamma0=0.5, alpha0=math.sqrt(0.5), M=1, epsilon=1e-6)
        res = apg_terminating(problem, params, [1.0])
        assert res.certificate.residual <= 1e-6
        # with no nonsmooth term the residual is exactly |grad f(x_tilde)| = |x_tilde|
        assert abs(res.x[0]) <= 1e-6

    def test_optimal_init_certifies_immediately(self, quadratic):
        params = ApgParams(gamma0=0.5, M=1, epsilon=1e-10)
        res = apg_terminating(quadratic, params, [0.0])
        assert len(res.trace.rows) == 1
        assert res.certificate.residual == 0.0

    def test_requires_strong_convexity_and_target(self, quartic_1d, quadratic):
        with pytest.raises(ValueError, match="mu > 0"):
            apg_terminating(quartic_1d, ApgParams(epsilon=1e-6), [1.0])
        with pytest.raises(ValueError, match="epsilon"):
            apg_terminating(quadratic, ApgParams(), [1.0])
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            ApgParams(epsilon=math.inf)

    def test_random_quartics_certified_and_recomputable(self):
        rng = np.random.default_rng(88)
        for seed in range(20):
            n = int(rng.integers(2, 10))
            problem = gen_quartic(QuarticSpec(n=n, k_terms=3, seed=seed, mu_add=1.0))
            params = ApgParams(epsilon=1e-8)
            res = apg_terminating(problem, params, np.zeros(n))
            cert = res.certificate
            assert cert.residual <= 1e-8
            again = residual_certificate(problem, cert.x_pre, cert.x_tilde, cert.gamma_tilde)
            assert np.max(np.abs(again.witness - cert.witness)) <= 1e-12
            assert abs(again.residual - cert.residual) <= 1e-12
            refetched = problem.nonsmooth.prox(
                cert.gamma_tilde,
                cert.x_pre - cert.gamma_tilde * problem.smooth.gradient(cert.x_pre),
            )
            assert np.max(np.abs(refetched - cert.x_tilde)) <= 1e-12

    def test_timeout_carries_best_certificate(self, quadratic):
        params = ApgParams(gamma0=0.5, M=1, epsilon=1e-30, max_iters=8)
        with pytest.raises(SolveTimeout) as info:
            apg_terminating(quadratic, params, [1.0])
        assert info.value.trace.best is not None
        assert info.value.trace.best.residual > 0
        assert len(info.value.trace.rows) == 8

    def test_timeout_best_is_the_first_checked_certificate_of_least_residual(self):
        # at the rounding floor the residuals stall and repeat: the least is
        # neither the last nor the only one of its value
        problem = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=5, mu_add=1.0))
        params = ApgParams(M=1, epsilon=1e-300, max_iters=200)
        with pytest.raises(SolveTimeout) as info:
            apg_terminating(problem, params, np.ones(3))
        checked = [row.certificate for row in info.value.trace.rows if row.certificate is not None]
        residuals = [cert.residual for cert in checked]
        first = residuals.index(min(residuals))
        assert first < len(checked) - 1 and residuals.count(residuals[first]) > 1
        assert info.value.trace.best is checked[first]

    def test_certificate_cadence(self, quadratic):
        # checks are due at t = 3, 6, 9 by M, and at t = 1, 3, 5, 8 because
        # lambda_prod fell to a quarter of its value at the previous check
        params = ApgParams(gamma0=0.5, M=3, epsilon=1e-30, max_iters=9)
        with pytest.raises(SolveTimeout) as info:
            apg_terminating(quadratic, params, [1.0])
        rows = info.value.trace.rows
        checked = [row.t for row in rows if row.certificate is not None]
        assert checked == [1, 3, 5, 6, 8, 9]
        assert rows[5].lambda_prod > rows[4].lambda_prod / 4  # t = 6 is due by M alone
        assert check_schedule_violations(info.value.trace, params.M) == []

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_init(self, quadratic, bad):
        with pytest.raises(ValueError, match="init must be finite"):
            apg_terminating(quadratic, ApgParams(epsilon=1e-6), [bad])

    @pytest.mark.parametrize("init", [[1.0, 2.0], [[1.0]], 1.0])
    def test_rejects_init_of_the_wrong_shape(self, quadratic, init):
        with pytest.raises(ValueError, match=r"init has shape .*, expected \(1,\)"):
            initial_state(quadratic, ApgParams(), init)


def test_trajectory_invariants_on_quartic():
    problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=17, mu_add=1.0))
    with recorded_iterates() as rec:
        res = apg_terminating(problem, ApgParams(epsilon=1e-6), np.zeros(6))
    assert trajectory_invariant_violations(problem, res.trace, rec.states) == []


def test_trace_rows_hold_no_iterates():
    # a trace keeps scalars, counts and the checked certificates only; the
    # certificates carry every vector a check needs
    problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=17, mu_add=1.0))
    res = apg_terminating(problem, ApgParams(epsilon=1e-6, M=3), np.zeros(6))
    assert any(row.certificate is not None for row in res.trace.rows)
    for row in res.trace.rows:
        arrays = [name for name, value in row._asdict().items() if isinstance(value, np.ndarray)]
        assert arrays == [], (row.t, arrays)


def test_check_schedule_of_every_certified_solve():
    # a cold start, and the inner solves of both outer loops, which check
    # before their M-th iteration when the warm start makes alpha large
    traces = [apg_terminating(
        gen_quartic(QuarticSpec(n=6, k_terms=4, seed=17, mu_add=1.0)), ApgParams(epsilon=1e-8),
        np.zeros(6),
    ).trace]
    inst = gen_constrained(criterion6_specs()[19])
    nonneg = gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))
    with recorded_iterates() as rec:
        prox_al(inst.conic, OuterParams(epsilon=1e-4), inst.x_feas, np.zeros(inst.conic.cone.dim))
        ppa_unconstrained(nonneg, OuterParams(epsilon=1e-7), np.zeros(8))
    traces += [solve.trace for solve in rec.inner]
    M = ApgParams().M
    for trace in traces:
        assert check_schedule_violations(trace, M) == []
    early = [row.t for trace in traces for row in trace.rows
             if row.certificate is not None and row.t % M]
    assert len(early) > len(rec.inner)


def test_small_alpha_quartic_checks_every_M_th_iteration():
    # alpha stays at most 0.1, so lambda_prod never quarters within M = 10
    # iterations, and the rows are those of a check every M-th iteration only
    problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=17, mu_add=0.01))
    res = apg_terminating(problem, ApgParams(epsilon=1e-6, alpha0=0.1), np.zeros(6))
    rows = res.trace.rows
    assert [row.t for row in rows if row.certificate is not None] == list(range(10, 101, 10))
    assert (rows[-1].grad_evals, rows[-1].prox_evals) == (122, 112)
    assert res.certificate.residual == 4.0047124377390165e-07


def test_underflowed_lambda_prod_leaves_the_checks_to_M():
    # alpha near 0.707 drives lambda_prod to 0 at t = 610; a zero product no
    # longer contracts, so from then on a check comes every M-th iteration only
    problem = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=5, mu_add=4.0))
    with pytest.raises(SolveTimeout) as info:
        apg_terminating(problem, ApgParams(epsilon=1e-300, max_iters=700), np.ones(3))
    trace = info.value.trace
    assert next(row.t for row in trace.rows if row.lambda_prod == 0.0) == 610
    checked = [row.t for row in trace.rows if row.certificate is not None]
    assert [t for t in checked if t > 600] == [602, 604, 606, 608, 609] + list(range(610, 701, 10))
    assert check_schedule_violations(trace, 10) == []


def test_descent_envelope_against_reference():
    for seed, mu in ((1, 1.0), (3, 0.0)):
        problem = gen_quartic(QuarticSpec(n=4, k_terms=3, seed=seed, mu_add=mu))
        x_hat, _ = reference_solve(problem, 1e-10)
        F_hat = composite_value(problem, x_hat)
        init = np.full(4, 0.5)
        trace = apg_run(problem, ApgParams(max_iters=150), init)
        anchor = trace.F_init - F_hat + trace.alpha0**2 / (2 * trace.gamma0) * float(
            (init - x_hat) @ (init - x_hat)
        )
        slack = 1e-9 * (1.0 + abs(trace.F_init))
        for row in trace.rows:
            assert row.F - F_hat <= row.lambda_prod * anchor + slack


def test_operation_accounting_is_exact():
    problem = gen_quartic(QuarticSpec(n=5, k_terms=3, seed=23, mu_add=1.0))
    res = apg_terminating(problem, ApgParams(epsilon=1e-9, M=4), np.zeros(5))
    assert any(row.certificate is not None for row in res.trace.rows)
    assert accounting_violations(res.trace) == []


def test_gamma_clamp_keeps_update_well_defined():
    problem = make_quadratic(mu=2.0)
    params = ApgParams(gamma0=0.5)  # mu * gamma0 = 1 exactly without the clamp
    resolved = params.resolved(problem.mu)
    assert resolved.gamma0 < 0.5
    assert resolved.alpha0 == 1.0
    res = apg_terminating(problem, ApgParams(gamma0=0.5, M=1, epsilon=1e-8), [1.0])
    assert res.certificate.residual <= 1e-8


def test_records_are_immutable(quartic_1d):
    params = ApgParams()
    state = initial_state(quartic_1d, params, [1.0])
    new_state, trial, _ = apg_iteration(quartic_1d, state, params)
    row = apg_run(quartic_1d, replace(params, max_iters=1), [1.0]).rows[0]
    for record, name in ((new_state, "t"), (trial, "accepted"), (row, "F")):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)


def test_alpha0_below_lower_bound_rejected():
    problem = make_quadratic(mu=1.0)
    with pytest.raises(ValueError, match="alpha0"):
        apg_run(problem, ApgParams(gamma0=0.9, alpha0=0.3), [1.0])


@pytest.mark.parametrize(
    "separate",
    [lambda s: CallableSmooth(s.dim, s.value, s.gradient), SeparateOnly],
    ids=["callable-smooth", "no-fused-method"],
)
def test_fused_and_separate_oracles_give_identical_traces(separate):
    fused = gen_quartic(QuarticSpec(n=12, k_terms=6, seed=31, mu_add=0.3, prox=L1Term(12, 0.1)))
    plain = CompositeProblem(separate(fused.smooth), fused.nonsmooth, mu=fused.mu)
    assert hasattr(fused.smooth, "value_and_gradient")
    # below the image gate, so the QuarticOracle keeps the plain path too
    assert fused.smooth.image(np.ones(12)) is None
    params = ApgParams(epsilon=1e-8, M=4)
    a = apg_terminating(fused, params, np.ones(12))
    b = apg_terminating(plain, params, np.ones(12))

    def rows(trace):
        return [(r.t, r.n_t, r.gamma_t, r.alpha_t, r.F, r.grad_evals, r.prox_evals,
                 r.certificate and r.certificate.residual, r.cert_backtracks) for r in trace.rows]

    assert rows(a.trace) == rows(b.trace)
    for name in ("x_pre", "x_tilde", "witness"):
        assert np.array_equal(getattr(a.certificate, name), getattr(b.certificate, name))
    assert (a.certificate.gamma_tilde, a.certificate.residual) == (
        b.certificate.gamma_tilde, b.certificate.residual)


@pytest.mark.parametrize("spec", [
    QuarticSpec(n=8, k_terms=4, seed=7, mu_add=0.1, prox=L1Term(8, 0.1)),  # the plain path
    QuarticSpec(n=300, k_terms=100, seed=2, mu_add=0.1),  # the image path
], ids=["plain", "image"])
def test_certificate_checks_never_move_the_iteration(spec):
    # apg_terminating's checks read the iterates and write only their own
    # rows' certificate fields: apg_run, which checks nothing, takes the
    # same steps for as many iterations
    problem = gen_quartic(spec)
    assert (problem.smooth.image(np.zeros(spec.n)) is None) == (
        spec.n * spec.k_terms < IMAGE_MIN_ENTRIES
    )
    params = ApgParams(epsilon=1e-8, M=4)
    checked = apg_terminating(problem, params, np.ones(spec.n)).trace
    plain = apg_run(problem, replace(params, max_iters=len(checked.rows)), np.ones(spec.n))
    assert any(row.certificate is not None for row in checked.rows[:-1])

    def steps(trace):
        return [
            (r.t, r.n_t, r.gamma_t, r.alpha_t, r.beta_t, r.F, r.lambda_prod) for r in trace.rows
        ]

    assert steps(plain) == steps(checked)
    assert plain.F_init == checked.F_init
