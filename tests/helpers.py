"""Checks shared between the unit suite and the acceptance suite."""

import math
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

from proxcert import (
    ApgParams,
    ConicProblem,
    OuterParams,
    apg_terminating,
    build_al_subproblem,
    dist_polar,
    ppa_unconstrained,
    project_dual,
    trial_step,
)
from proxcert import apg, outer
from proxcert.apg import admits_growth
from proxcert.outer import _require_dual
from proxcert.problems import ConstrainedSpec, QuarticSpec


def criterion6_specs() -> list[ConstrainedSpec]:
    """The 20 fixed instances of acceptance criterion 6 (generator seed 777)."""
    rng = np.random.default_rng(777)
    specs = []
    for i in range(20):
        n = int(rng.integers(2, 31))
        m1 = int(rng.integers(0, 11))
        m2 = int(rng.integers(0, 6))
        k = int(rng.integers(1, 6))
        mu = [1.0, 0.5, 0.0, 1.0][i % 4]
        n = n if mu > 0 else min(n, 12)
        specs.append(
            ConstrainedSpec(
                base=QuarticSpec(n=n, k_terms=k, seed=2000 + i, mu_add=mu),
                m1=m1, m2=m2, seed=3000 + i,
            )
        )
    return specs


def ppa_subproblem(problem, center, rho: float, counters=None):
    """The subproblem of a proximal-point step: prox-AL's under no constraint."""
    conic = ConicProblem.unconstrained(problem)
    return build_al_subproblem(conic, center, np.zeros(0), rho, counters=counters)


def rule_start(gamma0, gamma_prev, may_grow, delta=0.5, cap=math.inf):
    """The first trial step of an iteration, from its inputs.

    may_grow says whether the previous accepted trial passed the grow gate
    (``admits_growth``).  cap bounds the start: the first iteration of a
    solve passes the trace's recorded first_step, which an outer loop may
    set below gamma0.
    """
    if may_grow:
        return min(gamma_prev / delta, gamma0, cap)
    return min(gamma_prev, cap)


class InnerSolve(NamedTuple):
    """One inner solve of an outer loop: its trace and the state before each row."""

    trace: object
    states: list


class Recording(NamedTuple):
    """What ``recorded_iterates`` saw.

    states holds the ApgState every accelerated iteration started from, in
    call order, so a single solve's states pair with its trace rows; inner
    holds an InnerSolve for every inner solve an outer loop returned from,
    in outer-step order.
    """

    states: list
    inner: list


@contextmanager
def recorded_iterates():
    """Record the iterates the solvers' traces do not keep, while the block runs.

    Rebinds the module-level names the solvers call through,
    ``proxcert.apg.apg_iteration`` and ``proxcert.outer.apg_terminating``,
    to wrappers that record their inputs and results, and restores them on
    exit.  Yields the Recording.
    """
    recording = Recording([], [])
    iteration, inner_solve = apg.apg_iteration, outer.apg_terminating

    def recording_iteration(problem, state, *args, **kwargs):
        recording.states.append(state)
        return iteration(problem, state, *args, **kwargs)

    def recording_inner_solve(*args, **kwargs):
        first = len(recording.states)
        res = inner_solve(*args, **kwargs)
        recording.inner.append(InnerSolve(res.trace, recording.states[first:]))
        return res

    apg.apg_iteration, outer.apg_terminating = recording_iteration, recording_inner_solve
    try:
        yield recording
    finally:
        apg.apg_iteration, outer.apg_terminating = iteration, inner_solve


def accepted_trial(problem, row, state):
    """Re-evaluate the accepted trial of a trace row from the state before it."""
    return trial_step(problem, state, row.gamma_t)


def trajectory_invariant_violations(problem, trace, states, delta=0.5, alpha_tol=1e-12):
    """Scan one accelerated-solver trace for violations of the step-scalar laws.

    ``states`` holds the ApgState before each row (see ``recorded_iterates``);
    a list of another length raises ValueError.  Checks, for every accepted
    iteration: that its state carries the previous row's alpha_t and gamma_t
    (the trace's alpha0 and gamma0 on row 1), the extrapolation weight
    bounds sqrt(mu*gamma_t) <= alpha_t <= 1, beta_t in [0, 1], monotonicity
    of alpha_t^2/gamma_t, and the defining quadratic's residual (relative
    1e-10).  It also checks the line search against the start rule (see
    ``rule_start``): gamma_t must equal the start step times delta**n_t,
    and when the step backtracked, the next-larger candidate step must be
    genuinely rejected when re-evaluated.  The grow gate is re-evaluated
    from the previous accepted trial, and the first iteration starts at the
    trace's recorded first_step.
    """
    violations = []
    mu = trace.mu
    prev_ratio = trace.alpha0**2 / trace.gamma0
    alpha_prev, gamma_prev = trace.alpha0, trace.gamma0
    may_grow = False
    for row, state in zip(trace.rows, states, strict=True):
        if (state.t, state.alpha_prev, state.gamma_prev) != (row.t, alpha_prev, gamma_prev):
            violations.append((row.t, "recorded state"))
        if not math.sqrt(mu * row.gamma_t) <= row.alpha_t <= 1.0 + alpha_tol:
            violations.append((row.t, "alpha bounds"))
        if not -alpha_tol <= row.beta_t <= 1.0 + alpha_tol:
            violations.append((row.t, "beta bounds"))
        ratio = row.alpha_t**2 / row.gamma_t
        if not ratio <= prev_ratio + 1e-12:
            violations.append((row.t, "ratio monotonicity"))
        prev_ratio = ratio
        residual = (
            gamma_prev * row.alpha_t**2
            - (1 - row.alpha_t) * alpha_prev**2 * row.gamma_t
            - mu * row.alpha_t * row.gamma_t * gamma_prev
        )
        scale = max(gamma_prev, alpha_prev**2 * row.gamma_t, mu * row.gamma_t * gamma_prev)
        if not abs(residual) <= 1e-10 * scale:
            violations.append((row.t, "alpha equation residual"))
        cap = trace.first_step if row.t == 1 else math.inf
        start = rule_start(trace.gamma0, gamma_prev, may_grow, delta, cap)
        if row.gamma_t != start * delta**row.n_t:
            violations.append((row.t, "start rule"))
        if row.n_t > 0:
            rejected = trial_step(problem, state, start * delta ** (row.n_t - 1))
            if rejected.accepted:
                violations.append((row.t, "line search minimality"))
        may_grow = admits_growth(accepted_trial(problem, row, state), delta)
        alpha_prev, gamma_prev = row.alpha_t, row.gamma_t
    return violations


def check_schedule_violations(trace, M):
    """The t of every row of a certified solve's trace that breaks the check schedule.

    A row carries a certificate exactly when t % M == 0, or when its
    lambda_prod is positive and at most a quarter of the previous checked
    row's (1 before the first check).
    """
    violations = []
    checked_lambda = 1.0
    for row in trace.rows:
        due = row.t % M == 0 or 0.0 < row.lambda_prod <= 0.25 * checked_lambda
        if due != (row.certificate is not None):
            violations.append(row.t)
        if due:
            checked_lambda = row.lambda_prod
    return violations


def counts_before(rows):
    """The cumulative (grad, prox) counts at the start of each outer row's inner solve.

    They are the previous row's cumulative counts, (0, 0) on row 0: nothing
    between two inner solves books a gradient or a prox call.
    """
    return [(0, 0)] + [(row.grad_evals, row.prox_evals) for row in rows[:-1]]


def accounting_violations(trace, start_grad=0, start_prox=0):
    """Exact per-iteration evaluation counts along one trace.

    Every iteration costs n_t + 1 gradients and n_t + 1 prox calls; a
    certificate check adds two gradients (probe and output points) and
    cert_backtracks + 1 prox calls.
    """
    violations = []
    prev_grad, prev_prox = start_grad, start_prox
    for row in trace.rows:
        grad_delta = row.grad_evals - prev_grad
        prox_delta = row.prox_evals - prev_prox
        if row.certificate is None:
            ok = grad_delta == row.n_t + 1 and prox_delta == row.n_t + 1
        else:
            ok = (
                grad_delta == row.n_t + 1 + 2
                and prox_delta == row.n_t + 1 + row.cert_backtracks + 1
            )
        if not ok:
            violations.append((row.t, grad_delta, prox_delta, row.n_t))
        prev_grad, prev_prox = row.grad_evals, row.prox_evals
    return violations


def al_value(conic: ConicProblem, x, lam, rho: float) -> float:
    """Augmented Lagrangian value f(x) + P(x) + (dist(lam + rho g(x), -K)^2 - ||lam||^2) / (2 rho).

    The reference that build_al_subproblem's value is tested against.
    """
    lam = _require_dual(conic, lam)
    if not rho > 0:
        raise ValueError("rho must be positive")
    x = np.asarray(x, dtype=float)
    p = conic.base.nonsmooth.value(x)
    if not p < math.inf:
        return math.inf
    shifted = lam + rho * conic.constraint.value(x)
    d = dist_polar(conic.cone, shifted)
    return conic.base.smooth.value(x) + p + (d * d - float(lam @ lam)) / (2.0 * rho)


def al_smooth_gradient(conic: ConicProblem, x, lam, rho: float):
    """Gradient of the smooth part of the augmented Lagrangian.

    grad f(x) plus the adjoint-Jacobian product with the dual projection of
    lam + rho g(x); the squared distance to a convex set is continuously
    differentiable, so no smoothness is lost.
    """
    lam = _require_dual(conic, lam)
    if not rho > 0:
        raise ValueError("rho must be positive")
    x = np.asarray(x, dtype=float)
    shifted = lam + rho * conic.constraint.value(x)
    multiplier = project_dual(conic.cone, shifted)
    return conic.base.smooth.gradient(x) + conic.constraint.adjoint_apply(x, multiplier)


def multiplier_update(cone, lam, rho: float, gval):
    """Projected dual ascent step: project lam + rho * gval onto K*.

    The reference for the multiplier a prox-AL step takes
    (``SubproblemOracle.multiplier``) and for the KKT tests' multipliers.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    lam = np.asarray(lam, dtype=float)
    gval = np.asarray(gval, dtype=float)
    return project_dual(cone, lam + rho * gval)


def composite_value(problem, x) -> float:
    """F(x) = f(x) + P(x); +inf when x is outside the domain of P."""
    p = problem.nonsmooth.value(x)
    if not p < math.inf:
        return math.inf
    return problem.smooth.value(x) + p


def check_gradient(oracle, x, h: float) -> float:
    """Max relative mismatch between the gradient and central differences.

    Returns max_i |cd_i - g_i| / (1 + |g_i|) with cd the central difference
    of ``oracle.value`` at step h.
    """
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("x must be finite")
    if not 0 < h <= 1e-2:
        raise ValueError(f"h must lie in (0, 1e-2], got {h}")
    grad = np.asarray(oracle.gradient(x), dtype=float)
    if grad.shape != x.shape:
        raise ValueError(f"gradient shape {grad.shape} != point shape {x.shape}")
    worst = 0.0
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        fp = oracle.value(x + step)
        fm = oracle.value(x - step)
        if not (np.isfinite(fp) and np.isfinite(fm) and np.isfinite(grad[i])):
            raise ValueError(f"non-finite oracle output at coordinate {i}")
        cd = (fp - fm) / (2.0 * h)
        worst = max(worst, abs(cd - grad[i]) / (1.0 + abs(grad[i])))
    return worst


def reference_solve(problem, tol: float):
    """High-accuracy solve: (point, certified residual bound <= tol).

    Routes to the certified accelerated solver when mu > 0 and to the
    proximal-point solver otherwise, with generous budgets.  Budget
    exhaustion raises, since that is a failure of the test infrastructure
    rather than a solver verdict.
    """
    if tol < 1e-12:
        raise ValueError("tol must be at least 1e-12")
    init = problem.nonsmooth.prox(1.0, np.zeros(problem.dim))
    budgets = {"M": 5, "max_iters": 2_000_000}
    if problem.mu > 0:
        res = apg_terminating(problem, ApgParams(epsilon=tol, **budgets), init)
        return res.x, res.certificate.residual
    params = OuterParams(epsilon=tol, rho0=10.0, sigma=0.25, max_outer=80, **budgets)
    res = ppa_unconstrained(problem, params, init)
    return res.x, res.trace.rows[-1].kkt.stationarity_residual
