"""Accelerated proximal gradient methods with backtracking and residual certificates.

The iteration keeps an extrapolation triple (x, z, derived y) and per step
backtracks the curvature proxy gamma_t = start * delta**n_t until a local
quadratic upper bound holds, so only local Lipschitz continuity of the
gradient is needed.  The start of each search grows back by 1/delta when
the curvature measured at the last accepted step admits it (see
ApgParams).  Termination is certified by an explicit subgradient
witness whose norm upper-bounds dist(0, dF(x)) and which any independent
checker can recompute from the stored data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from .model import (
    Array,
    CompositeProblem,
    InvariantViolation,
    LineSearchFailure,
    NonFiniteOracleOutput,
    OracleCounters,
    SolveTimeout,
    instrument_composite,
    require_count,
    value_and_gradient,
)

# Line-search acceptance slack: analytic equality cases (e.g. exact
# quadratics at gamma = 1/L) must accept deterministically in binary64.
# The absolute part scales with the magnitudes entering the value
# difference; a fixed absolute slack would admit curvature violations of
# that size on every step, a leak that keeps tiny-step solves orbiting
# above their target.
_ACCEPT_REL = 1e-12
_ACCEPT_EPS = 8.0 * np.finfo(float).eps

# Margin keeping the y-update denominator 1 - mu*gamma away from zero.
_GAMMA_MARGIN = 1e-9

# A certificate check is due once lambda_t, the product of (1 - alpha_i) so
# far, has fallen to this fraction of its value at the previous check.  The
# accelerated iteration has F(x_t) - F* <= lambda_t * const, and a
# proximal-gradient residual scales like the square root of that gap, so a
# quartered lambda_t halves the a-priori residual bound since the last
# check.  Factors from 0.1 to 0.25 gave about the same gradient counts on
# mu = 0 proximal-point solves; 1/2 checked so often that a cold-started
# large quartic took 7% more gradients.
_CHECK_CONTRACTION = 0.25


def step_clamp(mu: float) -> float:
    """The largest step the solvers take at modulus mu > 0: (1 - 1e-9)/mu."""
    return (1.0 - _GAMMA_MARGIN) / mu


def accepts_curvature_bound(lhs: float, rhs: float, gamma: float, value_scale: float) -> bool:
    """Line-search acceptance test with rounding slack.

    ``value_scale`` is the sum of magnitudes whose rounding limits how
    accurately the Bregman difference in ``lhs`` can be evaluated.
    """
    return lhs <= rhs * (1.0 + _ACCEPT_REL) + _ACCEPT_EPS * gamma * value_scale


def admits_growth(trial: TrialStep, delta: float) -> bool:
    """The grow gate: the curvature the accepted ``trial`` measured admits gamma/delta.

    lhs <= delta * rhs must hold with the acceptance test's rounding slack to
    spare: at F's rounding floor lhs is noise, which a bare margin test
    passes, letting the step climb far above the local curvature bound.
    """
    return trial.lhs + _ACCEPT_EPS * trial.gamma * trial.scale <= delta * trial.rhs


@dataclass(frozen=True)
class ApgParams:
    """Tuning knobs shared by the accelerated solvers.

    gamma0 is the first and largest step (clamped to keep mu*gamma0 < 1
    when mu > 0, see ``resolved``); alpha0 the initial extrapolation weight;
    delta the backtracking shrink factor; M the most iterations between two
    certificate checks; epsilon the target residual for the certified solver.

    The certified solver checks a certificate every M-th iteration, and also
    as soon as the product lambda_t of (1 - alpha_i), while positive, has
    fallen to a quarter of its value at the previous check (1 before the
    first): the gap bound F(x_t) - F* <= lambda_t * const then has
    quartered, so the a-priori bound on a proximal-gradient residual, which
    scales like its square root, has halved.

    Each iteration backtracks from a start step that grows back: it is
    min(gamma_prev/delta, gamma0) when the previous accepted trial passed its
    curvature test with margin delta and rounding slack to spare
    (``admits_growth``: the curvature it measured admits the step
    gamma_prev/delta), and gamma_prev otherwise.  The certificate's
    backtracked step starts there too.
    """

    gamma0: float = 1.0
    alpha0: float = 1.0
    delta: float = 0.5
    M: int = 10
    epsilon: float | None = None
    max_iters: int = 1_000_000
    max_backtracks: int = 100

    def __post_init__(self):
        if not 0 < self.gamma0 < math.inf:
            raise ValueError(f"gamma0 must be positive and finite, got {self.gamma0}")
        if not 0 < self.alpha0 <= 1:
            raise ValueError("alpha0 must lie in (0, 1]")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")
        for name in ("M", "max_iters", "max_backtracks"):
            require_count(name, getattr(self, name))
        if self.epsilon is not None and not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")

    def resolved(self, mu: float) -> ApgParams:
        """These params at modulus mu: gamma0 clamped to ``step_clamp(mu)`` when mu > 0,
        alpha0 lifted to sqrt(mu*gamma0) from up to 1e-12 below (further below
        is a ValueError).  Params that need neither are returned as they are.
        """
        gamma0 = min(self.gamma0, step_clamp(mu)) if mu > 0 else self.gamma0
        lower = math.sqrt(mu * gamma0)
        if self.alpha0 < lower - 1e-12:
            raise ValueError(
                f"alpha0 = {self.alpha0} is below sqrt(mu*gamma0) = {lower}"
            )
        alpha0 = min(1.0, max(self.alpha0, lower))
        if gamma0 == self.gamma0 and alpha0 == self.alpha0:
            return self
        return replace(self, gamma0=gamma0, alpha0=alpha0)


# The per-trial and per-iteration records below are NamedTuples: immutable
# like a frozen dataclass, at a fraction of its construction cost, which the
# solver pays once per backtracking trial.  The solver builds them from
# positional arguments in field order: from keywords, construction took two
# to three times as long.


class ApgState(NamedTuple):
    """Iterate pair (x, z) plus the previous step scalars driving the recursion.

    start is the step the next iteration, and a certificate check at this
    state, tries first (see ApgParams), and cap the resolved gamma0, which
    no start grown back exceeds.  rx and rz are the affine images
    A x - b and A z - b when the smooth oracle offers them (see
    SmoothOracle), else None.
    """

    t: int
    x: Array
    z: Array
    alpha_prev: float
    gamma_prev: float
    start: float
    cap: float
    lambda_prod: float = 1.0  # running product of (1 - alpha_i); times the checks
    rx: Array | None = None
    rz: Array | None = None


@dataclass(frozen=True)
class Certificate:
    """Explicit subgradient witness u in dF(x_tilde) with residual = ||u||.

    Recomputable from the stored data:
    x_tilde = prox(gamma_tilde, x_pre - gamma_tilde * grad f(x_pre)) and
    u = (x_pre - x_tilde)/gamma_tilde + grad f(x_tilde) - grad f(x_pre).
    """

    x_pre: Array
    x_tilde: Array
    gamma_tilde: float
    witness: Array
    residual: float


class TrialStep(NamedTuple):
    """One backtracking trial at a fixed gamma.

    A certificate's proximal-gradient trial from v is the accelerated trial
    at alpha = 1, beta = 0: y = v and x_new = z_new.
    """

    gamma: float
    alpha: float
    beta: float
    y: Array
    z_new: Array
    x_new: Array
    f_new: float
    lhs: float
    rhs: float
    scale: float  # the value_scale of accepts_curvature_bound
    accepted: bool
    rx_new: Array | None = None
    rz_new: Array | None = None


class TraceRow(NamedTuple):
    """Per-iteration record: the accepted step's scalars and cumulative counts.

    A checked row also holds its certificate, whose residual the trace CSV's
    cert_residual column reads.  No row holds an iterate: the
    scalars an iteration started from are the previous row's alpha_t and
    gamma_t, or the trace's alpha0 and gamma0 on row 1.
    """

    t: int
    n_t: int
    gamma_t: float
    alpha_t: float
    beta_t: float
    F: float
    lambda_prod: float
    grad_evals: int
    prox_evals: int
    certificate: Certificate | None = None
    cert_backtracks: int | None = None


@dataclass
class ApgTrace:
    """Full record of one accelerated-solver invocation.

    first_step is the step the first iteration tried first: gamma0, or the
    smaller first step passed to ``apg_terminating``.  The alpha recursion
    starts from gamma0 and alpha0 either way.
    """

    rows: list[TraceRow]
    counters: OracleCounters
    F_init: float
    gamma0: float
    alpha0: float
    mu: float
    first_step: float

    @property
    def best(self) -> Certificate | None:
        """The first checked certificate of least residual; None before the first check."""
        checked = (row.certificate for row in self.rows if row.certificate is not None)
        return min(checked, key=attrgetter("residual"), default=None)


@dataclass(frozen=True)
class TerminatingResult:
    x: Array
    certificate: Certificate
    trace: ApgTrace


def solve_alpha(gamma_prev: float, gamma_t: float, alpha_prev: float, mu: float) -> float:
    """Root in (0, 1] of gamma_prev*a^2 = (1-a)*alpha_prev^2*gamma_t + mu*a*gamma_t*gamma_prev.

    Uses the cancellation-safe q-form of the quadratic formula and picks the
    positive root (unique, and <= 1 whenever mu*gamma_t <= 1).
    """
    if not (gamma_prev > 0 and gamma_t > 0):
        raise ValueError("step sizes must be positive")
    if not 0 < alpha_prev <= 1:
        raise ValueError("alpha_prev must lie in (0, 1]")
    a = gamma_prev
    b = alpha_prev * alpha_prev * gamma_t - mu * gamma_t * gamma_prev
    c = -(alpha_prev * alpha_prev) * gamma_t
    if b == 0.0:
        root = math.sqrt(-c / a)
    else:
        q = -0.5 * (b + math.copysign(math.sqrt(b * b - 4.0 * a * c), b))
        r1 = q / a
        root = r1 if r1 > 0 else c / q
    if not 0.0 < root <= 1.0 + 1e-12:
        raise InvariantViolation(
            f"alpha recursion produced root {root} outside (0, 1]; "
            "check mu*gamma <= 1"
        )
    root = min(root, 1.0)
    residual = a * root * root - (1.0 - root) * alpha_prev * alpha_prev * gamma_t \
        - mu * root * gamma_t * gamma_prev
    scale = max(a, alpha_prev * alpha_prev * gamma_t, mu * gamma_t * gamma_prev)
    if abs(residual) > 1e-10 * scale:
        raise InvariantViolation(f"alpha recursion residual {residual} exceeds tolerance")
    return root


def _curvature(gamma, y, f_y, grad_y, x_new, f_new):
    """(lhs, rhs, scale, accepted) of the curvature test of the step y -> x_new.

    Accepted: 2 gamma (f(x_new) - f(y) - <grad f(y), x_new - y>) <= ||x_new - y||^2.
    """
    diff = x_new - y
    cross = float(grad_y @ diff)
    lhs = 2.0 * gamma * (f_new - f_y - cross)
    rhs = float(diff @ diff)
    scale = abs(f_new) + abs(f_y) + abs(cross)
    return lhs, rhs, scale, accepts_curvature_bound(lhs, rhs, gamma, scale)


def _backtrack(evaluate, start, delta, max_backtracks, where):
    """The first accepted TrialStep ``evaluate(start * delta**n)``, n = 0, 1, ..., and its n.

    ``where`` names the search in its errors: NonFiniteOracleOutput at the
    first rejected trial whose curvature test is not finite, and
    LineSearchFailure when all max_backtracks + 1 trials are rejected.
    """
    for n in range(max_backtracks + 1):
        trial = evaluate(start * delta**n)
        if trial.accepted:
            return trial, n
        # only rejected trials are checked: a non-finite test never accepts
        if not (math.isfinite(trial.lhs) and math.isfinite(trial.rhs)):
            raise NonFiniteOracleOutput(
                f"non-finite curvature test (lhs {trial.lhs}, rhs {trial.rhs}) at {where} "
                f"trial {n}: the smooth term returned a non-finite value or gradient"
            )
    raise LineSearchFailure(
        f"line search failed at {where} trial {max_backtracks}, the last of "
        f"{max_backtracks + 1}; the smooth term may be non-convex, its gradient "
        "inconsistent, or the iterates may have escaped to a region of unbounded curvature"
    )


def trial_step(
    problem: CompositeProblem,
    x: Array,
    z: Array,
    alpha_prev: float,
    gamma_prev: float,
    gamma: float,
    rx: Array | None = None,
    rz: Array | None = None,
) -> TrialStep:
    """Evaluate one accelerated step at a fixed gamma and test the curvature bound.

    Costs exactly one gradient and one prox evaluation; f(y) and grad f(y)
    come from one fused oracle call.  Given the affine images rx, rz of x
    and z, the images of y and x_new are formed as the same combinations of
    images (the weights sum to 1, so the offset carries through) and only
    z_new is mapped anew; the trial then returns rx_new and rz_new.
    """
    smooth = problem.smooth
    mu = problem.mu
    alpha = solve_alpha(gamma_prev, gamma, alpha_prev, mu)
    beta = mu * gamma / alpha
    x_part = (1.0 - alpha) * x
    y_den = 1.0 - alpha * beta
    y = (x_part + alpha * (1.0 - beta) * z) / y_den
    if rx is None:
        f_y, grad_y = value_and_gradient(smooth, y)
    else:
        rx_part = (1.0 - alpha) * rx
        f_y, grad_y = smooth.value_and_gradient_at(y, (rx_part + alpha * (1.0 - beta) * rz) / y_den)
    step = gamma / alpha
    z_new = problem.nonsmooth.prox(step, beta * y + (1.0 - beta) * z - step * grad_y)
    x_new = x_part + alpha * z_new
    if rx is None:
        rx_new = rz_new = None
        f_new = smooth.value(x_new)
    else:
        rz_new = smooth.image(z_new)
        rx_new = rx_part + alpha * rz_new
        f_new = smooth.value_at(x_new, rx_new)
    lhs, rhs, scale, accepted = _curvature(gamma, y, f_y, grad_y, x_new, f_new)
    return TrialStep(
        gamma, alpha, beta, y, z_new, x_new, f_new, lhs, rhs, scale, accepted, rx_new, rz_new
    )


def initial_state(
    problem: CompositeProblem, params: ApgParams, init, first_step: float | None = None
) -> ApgState:
    """The state x1 = z1 = init, whose alpha recursion starts at gamma0 and alpha0.

    gamma0, the state's cap, and alpha0 are those of ``params.resolved(problem.mu)``.
    It starts at gamma0, or at min(gamma0, first_step) when first_step is given.
    """
    params = params.resolved(problem.mu)
    gamma0, alpha0 = params.gamma0, params.alpha0
    if first_step is not None and not first_step > 0:
        raise ValueError(f"first_step must be positive, got {first_step}")
    x = np.asarray(init, dtype=float).copy()
    if x.shape != (problem.dim,):
        raise ValueError(f"init has shape {x.shape}, expected ({problem.dim},)")
    if not np.isfinite(x).all():
        raise ValueError("init must be finite")
    if not problem.nonsmooth.value(x) < math.inf:
        raise ValueError("init must lie in the domain of the nonsmooth term")
    image = getattr(problem.smooth, "image", None)
    rx = None if image is None else image(x)
    return ApgState(
        t=1, x=x, z=x.copy(), alpha_prev=alpha0, gamma_prev=gamma0,
        start=gamma0 if first_step is None else min(gamma0, first_step), cap=gamma0,
        lambda_prod=1.0, rx=rx, rz=rx,
    )


def apg_iteration(
    problem: CompositeProblem, state: ApgState, params: ApgParams
) -> tuple[ApgState, TrialStep, int]:
    """One accelerated iteration with backtracking from ``state.start``.

    Tries gamma = state.start * delta**n for n = 0, 1, ... and accepts the
    first n satisfying the local curvature bound; each trial costs one
    gradient and one prox evaluation.  Returns the new state, the accepted
    trial and its n.  The new state starts at min(gamma/delta, state.cap)
    when the trial passes the grow gate (``admits_growth``), else at gamma.
    Of ``params`` it reads only delta and max_backtracks.
    """
    delta = params.delta
    trial, n = _backtrack(
        lambda gamma: trial_step(
            problem, state.x, state.z, state.alpha_prev, state.gamma_prev, gamma,
            state.rx, state.rz,
        ),
        state.start, delta, params.max_backtracks, f"iteration {state.t}, backtracking",
    )
    gamma = trial.gamma
    start = min(gamma / delta, state.cap) if admits_growth(trial, delta) else gamma
    new_state = ApgState(
        state.t + 1,  # t
        trial.x_new,
        trial.z_new,
        trial.alpha,  # alpha_prev
        gamma,  # gamma_prev
        start,
        state.cap,
        state.lambda_prod * (1.0 - trial.alpha),
        trial.rx_new,
        trial.rz_new,
    )
    return new_state, trial, n


def residual_certificate(
    problem: CompositeProblem,
    x_pre: Array,
    x_tilde: Array,
    gamma_tilde: float,
    grad_pre: Array | None = None,
    grad_tilde: Array | None = None,
) -> Certificate:
    """Build the subgradient witness for a backtracked proximal-gradient step.

    With x_tilde = prox(gamma_tilde, x_pre - gamma_tilde * grad f(x_pre)),
    u = (x_pre - x_tilde)/gamma_tilde + grad f(x_tilde) - grad f(x_pre)
    lies in dF(x_tilde), so ||u|| bounds dist(0, dF(x_tilde)) from above.
    ``grad_pre`` and ``grad_tilde`` may pass the gradients at x_pre and
    x_tilde when the caller already holds them; each must be what
    ``gradient`` returns there.
    """
    x_pre = np.asarray(x_pre, dtype=float)
    x_tilde = np.asarray(x_tilde, dtype=float)
    if grad_pre is None:
        grad_pre = problem.smooth.gradient(x_pre)
    if grad_tilde is None:
        grad_tilde = problem.smooth.gradient(x_tilde)
    witness = (x_pre - x_tilde) / gamma_tilde + grad_tilde - grad_pre
    return Certificate(
        x_pre=x_pre,
        x_tilde=x_tilde,
        gamma_tilde=gamma_tilde,
        witness=witness,
        residual=math.sqrt(witness @ witness),
    )


def certified_prox_step(
    problem: CompositeProblem,
    v: Array,
    gamma_start: float,
    delta: float,
    max_backtracks: int = ApgParams.max_backtracks,
) -> tuple[Certificate, int]:
    """Backtracked proximal-gradient step from v plus its residual certificate and n.

    The line search of ``apg_iteration`` tries gamma = gamma_start * delta**n;
    one check costs exactly two gradient and n + 1 prox evaluations.  On the
    image path the gradient at x_tilde comes from the raw image its trial
    already mapped, so a check costs 4 + n products with A instead of 5 + n.
    """
    v = np.asarray(v, dtype=float)
    if not problem.nonsmooth.value(v) < math.inf:
        raise ValueError("v must lie in the domain of the nonsmooth term")
    smooth = problem.smooth
    image = getattr(smooth, "image", None)
    f_v, grad_v = value_and_gradient(smooth, v)

    def pg_trial(gamma):
        x_new = problem.nonsmooth.prox(gamma, v - gamma * grad_v)
        r = None if image is None else image(x_new)
        f_new = smooth.value(x_new) if r is None else smooth.value_at(x_new, r)
        lhs, rhs, scale, accepted = _curvature(gamma, v, f_v, grad_v, x_new, f_new)
        return TrialStep(gamma, 1.0, 0.0, v, x_new, x_new, f_new, lhs, rhs, scale, accepted, r, r)

    trial, n = _backtrack(pg_trial, gamma_start, delta, max_backtracks, "proximal-gradient")
    r = trial.rx_new
    grad_tilde = None if r is None else smooth.value_and_gradient_at(trial.x_new, r)[1]
    return residual_certificate(problem, v, trial.x_new, trial.gamma, grad_v, grad_tilde), n


def _accelerated(problem, params, init, counters, first_step=None, done=None):
    """The accelerated iteration from x1 = z1 = init: its trace, and the certificate it stopped at.

    Without ``done`` it checks nothing and runs all ``params.max_iters``
    iterations.  With it, a certificate is checked on the schedule of
    ``apg_terminating`` and the loop stops at the first one that ``done``
    accepts; the certificate is None when the budget ran out first.
    """
    counters = OracleCounters() if counters is None else counters
    problem = instrument_composite(problem, counters)
    state = initial_state(problem, params, init, first_step)
    # initial_state checked that x lies in the domain of P; on the image
    # path f comes from the start point's raw image
    x, rx = state.x, state.rx
    f_init = problem.smooth.value(x) if rx is None else problem.smooth.value_at(x, rx)
    nonsmooth = problem.nonsmooth
    trace = ApgTrace(
        rows=[],
        counters=counters,
        F_init=f_init + nonsmooth.value(x),
        gamma0=state.gamma_prev,
        alpha0=state.alpha_prev,
        mu=problem.mu,
        first_step=state.start,
    )
    checked_lambda = 1.0  # lambda_prod at the previous check
    while state.t <= params.max_iters:
        # apg_iteration and certified_prox_step are called through this
        # module's names, which tracers rebind
        new_state, trial, n_t = apg_iteration(problem, state, params)
        cert = n_tilde = None
        lambda_t = new_state.lambda_prod
        # a product that has underflowed to 0 no longer contracts: M alone times the checks
        if done is not None and (
            state.t % params.M == 0 or 0.0 < lambda_t <= _CHECK_CONTRACTION * checked_lambda
        ):
            checked_lambda = lambda_t
            cert, n_tilde = certified_prox_step(
                problem, new_state.x, new_state.start, params.delta, params.max_backtracks
            )
        # built after the check, so a checked row's counts include its cost
        trace.rows.append(TraceRow(
            state.t, n_t, trial.gamma, trial.alpha, trial.beta,  # t, n_t, gamma_t, alpha_t, beta_t
            trial.f_new + nonsmooth.value(trial.x_new), lambda_t,  # F, lambda_prod
            counters.grad_f_evals, counters.prox_evals, cert, n_tilde,
        ))
        state = new_state
        if cert is not None and done(cert):
            return trace, cert
    return trace, None


def apg_run(
    problem: CompositeProblem,
    params: ApgParams,
    init,
    counters: OracleCounters | None = None,
) -> ApgTrace:
    """Run the accelerated iteration without a termination criterion.

    Iterates from x1 = z1 = init for ``params.max_iters`` iterations and
    returns the trace.  Every gradient and prox call of the solve is booked
    on ``counters``, or on fresh counters when it is None; the trace holds
    them either way.
    """
    return _accelerated(problem, params, init, counters)[0]


def apg_terminating(
    problem: CompositeProblem,
    params: ApgParams,
    init,
    counters: OracleCounters | None = None,
    done: Callable[[Certificate], bool] | None = None,
    first_step: float | None = None,
) -> TerminatingResult:
    """Accelerated solver with a periodically checked residual certificate.

    Requires mu > 0 and params.epsilon set.  A check takes a backtracked
    proximal-gradient step from the current iterate, starting where the next
    iteration would start, and tests its certificate; the first certificate
    that passes is returned together with its point x_tilde and the full
    trace.  A check is due after every M-th iteration, and after any
    iteration whose lambda_prod is positive and at most a quarter of its
    value at the previous check (1 before the first; see ApgParams).  So an
    inner solve of the outer loop, whose alphas start near 1 when its steps
    stay near the step clamp, checks within its first few iterations, while
    a solve whose alphas stay small checks every M-th iteration only.  The
    test is ``done(certificate)``, asked at every checked certificate, when
    ``done`` is given, and ``residual <= epsilon`` otherwise: a given
    ``done`` is the whole stop test.  The outer loop passes its own
    stopping rule this way.

    ``first_step``, when given, caps the step the first iteration tries
    first (recorded as ``trace.first_step``); the alpha recursion still
    starts from gamma0 and alpha0, and later iterations start as usual.
    The outer loop passes the last step the previous subproblem accepted.
    Every gradient and prox call of the solve is booked on ``counters``, or
    on fresh counters when it is None; the trace holds them either way.

    Raises SolveTimeout, carrying the trace, whose ``best`` is the first
    checked certificate of least residual (None before the first check),
    when the iteration budget runs out, and propagates line-search failures.
    """
    if not problem.mu > 0:
        raise ValueError("the certified solver requires mu > 0")
    if params.epsilon is None:
        raise ValueError("params.epsilon must be set for the certified solver")
    if done is None:
        def done(cert):
            return cert.residual <= params.epsilon
    trace, cert = _accelerated(problem, params, init, counters, first_step, done)
    if cert is not None:
        return TerminatingResult(x=cert.x_tilde, certificate=cert, trace=trace)
    best = trace.best
    raise SolveTimeout(
        f"no point certified at epsilon = {params.epsilon} within "
        f"{params.max_iters} iterations (best residual "
        f"{best.residual if best else math.inf})",
        trace=trace,
    )
