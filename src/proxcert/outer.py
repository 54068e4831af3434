"""The outer loop: the proximal augmented Lagrangian method for conic
constraints, which with an empty cone is the proximal-point method for mu = 0.

It drives the certified accelerated solver with inner residual targets
eta_k = eta0 * sigma**k and proximal weights rho_k = rho0 * zeta**j, where
j counts the outer steps so far after which rho grew (``_grows`` states the
rule and what it implies); the paper grows rho on every step.  Under a
non-empty cone a step that the relative test below ends above eta_k holds
rho, as the hybrid proximal extragradient method takes its steps at a
fixed weight; the proximal-point method grows it there, since degenerate
mu = 0 problems need the growing weight.  The center is extrapolated past the last iterate, as in
Guler's accelerated proximal-point method and Catalyst (Lin, Mairal and
Harchaoui):
c_{k+1} = x_{k+1} + beta_k (x_{k+1} - x_k), where the paper takes
c_{k+1} = x_{k+1}.  A step's witness u - (x_{k+1} - c_k)/rho_k is an outer
subgradient for any center, so every certificate keeps its meaning.  The
loop stops at the first outer step whose KKT residuals are at most the
outer epsilon, and an inner solve at the first certificate that meets
eta_k, or the relative test of the hybrid proximal extragradient method
(``_inner_target``), or already proves them, which the paper's
end-of-step test implies.
An inner solve checks a certificate after every M-th iteration and as soon
as its lambda_prod has quartered since its previous check (see
``apg_terminating``), so within a few iterations while its steps stay near
the step clamp and its alphas near 1.
``ppa_unconstrained`` runs it on a mu = 0 problem under no constraint, the
paper's perturbation scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .apg import ApgParams, Certificate, apg_terminating, step_clamp
from .model import (
    Array,
    CompositeProblem,
    ConicProblem,
    InvariantViolation,
    OracleCounters,
    SolveTimeout,
    fused_method,
    require_count,
)
from .proxcone import normal_cone_gap, project_dual, require_in_dual


@dataclass(frozen=True)
class OuterParams:
    """Schedule of the outer loop and the settings of its inner solves.

    eta_k = eta0 * sigma**k at every outer step.  rho starts at rho0 and
    grows by zeta after the steps ``_grows`` selects, so rho_k <= rho0 *
    zeta**k.  An inner solve ends at ||u|| <= eta_k or at the relative test
    (``_inner_target``), whose factor ``_RELATIVE_STOP`` is fixed, not a
    field; under a non-empty cone a step that the relative test ends above
    eta_k holds rho.
    A set rho0 must be positive and finite; None defaults per problem (see
    ``resolved``).  delta, M, max_iters and max_backtracks are the inner
    solves' ``ApgParams`` fields of those names, with their defaults and
    checks (see ``ApgParams`` for when a solve checks its certificate).  The
    loop sets the other three itself: epsilon is eta_k on every step, gamma0
    the step clamp (1 - 1e-9)/mu_k of the modulus mu_k = mu + 1/rho_k, to
    which the step grows back, and alpha0 stays 1, in the range
    [sqrt(mu_k * gamma0), 1] = [sqrt(1 - 1e-9), 1] that the clamp leaves.
    From outer step 1 on, the first trial of an inner solve is the last
    step the previous inner solve accepted, capped at the clamp, while its
    alpha recursion still starts at the clamp.
    """

    epsilon: float
    rho0: float | None = None
    zeta: float = 2.0
    sigma: float = 0.4
    eta0: float = 1.0
    max_outer: int = 50
    delta: float = ApgParams.delta
    M: int = ApgParams.M
    max_iters: int = ApgParams.max_iters
    max_backtracks: int = ApgParams.max_backtracks

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")
        if self.rho0 is not None and not 0 < self.rho0 < math.inf:
            raise ValueError(f"rho0 must be positive and finite, got {self.rho0}")
        if not self.zeta > 1:
            raise ValueError("zeta must exceed 1")
        if not 0 < self.sigma < 1 / self.zeta:
            raise ValueError(f"sigma must satisfy 0 < sigma < 1/zeta, got {self.sigma}")
        if not 0 < self.eta0 <= 1:
            raise ValueError("eta0 must lie in (0, 1]")
        require_count("max_outer", self.max_outer)
        self.inner_params()  # the inner fields' checks are ApgParams's

    def inner_params(
        self, gamma0: float = ApgParams.gamma0, epsilon: float | None = None
    ) -> ApgParams:
        """The inner solves' settings at the gamma0 and epsilon the loop sets on each step."""
        return ApgParams(
            gamma0=gamma0, delta=self.delta, M=self.M, epsilon=epsilon,
            max_iters=self.max_iters, max_backtracks=self.max_backtracks,
        )

    def resolved(self, mu: float) -> OuterParams:
        """These params with rho0 set for modulus mu; returned as they are if it is set.

        rho0 defaults to max(10, c + 1), where c = (mu + sqrt(mu^2 + 4))/2 (1 when mu = 0).
        """
        if self.rho0 is not None:
            return self
        critical = (mu + math.sqrt(mu * mu + 4.0)) / 2.0
        return replace(self, rho0=max(10.0, critical + 1.0))


@dataclass(frozen=True)
class KktReport:
    """Self-validating first-order optimality witnesses for a pair (x, lam).

    stationarity_witness is an explicit element of grad f(x) + dP(x) +
    adjoint-Jacobian(x) lam; complementarity_witness lies in the normal
    cone of K* at lam up to witness_defects.
    """

    stationarity_witness: Array
    complementarity_witness: Array
    stationarity_residual: float
    complementarity_residual: float
    witness_defects: tuple[float, float]


@dataclass(frozen=True)
class OuterTraceRow:
    """One outer step: its verifiable record and its counts.

    ``kkt_report`` re-derives kkt from certificate, center, rho_k, lam_prev
    and lam_new.  The step's new point x_new is certificate.x_tilde and
    center its proximal center c_k.  grad/prox_evals are cumulative over
    the solve.
    """

    k: int
    rho_k: float
    eta_k: float
    inner_iters: int
    grad_evals: int
    prox_evals: int
    certificate: Certificate
    center: Array
    lam_prev: Array
    lam_new: Array
    kkt: KktReport

    @property
    def step_norm(self) -> float:
        """||(x_new - center, lam_new - lam_prev)||, the step in (x, lam)."""
        x_step = _norm(self.certificate.x_tilde - self.center)
        return math.sqrt(x_step**2 + _norm(self.lam_new - self.lam_prev) ** 2)

    @property
    def prox_term(self) -> float:
        """||x_new - c_k||/rho_k, the prox-step term of the step's witness."""
        return _norm(self.certificate.x_tilde - self.center) / self.rho_k

    @property
    def stop(self) -> str:
        """Why the step's inner solve ended: the target ``_inner_target`` names,
        "eta_k" or "relative", or "outer" (neither, but it proved the outer
        test, whose step then ends the solve)."""
        return _inner_target(self.certificate.residual, self.eta_k, self.prox_term) or "outer"


@dataclass
class OuterTrace:
    """Full record of one outer-loop solve: a row per outer step that ended.

    counters books every oracle call of the solve, its inner solves' included.
    """

    rows: list[OuterTraceRow]
    counters: OracleCounters

    @property
    def best(self) -> KktReport | None:
        """The first KKT report whose larger residual is least; None before a step ends."""
        return min((row.kkt for row in self.rows), key=_worst, default=None)


@dataclass(frozen=True)
class PpaResult:
    """Output of ``ppa_unconstrained``.

    witness = u - (x - center_final)/rho_final lies in dF(x), where u is the
    certificate's witness; its norm, at most epsilon, is the last trace row's
    kkt.stationarity_residual.
    """

    x: Array
    witness: Array
    certificate: Certificate
    rho_final: float
    center_final: Array
    trace: OuterTrace


@dataclass(frozen=True)
class ProxAlResult:
    x: Array
    lam: Array
    report: KktReport
    trace: OuterTrace


class SubproblemOracle:
    """Smooth part of one outer step's subproblem, for ``conic`` at multiplier lam.

    The proximal augmented Lagrangian term f(x) + (dist(lam + rho g(x),
    -K)^2 - ||lam||^2 + ||x - center||^2) / (2 rho); under an empty cone
    (conic.cone.dim == 0) the proximal-point term f(x) + ||x - center||^2 /
    (2 rho), which skips the map, the projection and the adjoint.  Each
    evaluation calls the user's oracles directly and maps and projects once,
    in ``multiplier``: the value uses dist(., -K) = ||project_dual(.)||, the
    gradient the projection itself.  It books on ``counters`` only what the
    solver's counting wrapper cannot see: one g and one cone projection per
    ``multiplier`` call, so per value, gradient or fused call, and one
    adjoint per gradient or fused call.  The solver books the gradients.
    """

    __slots__ = (
        "dim", "_f", "_grad_f", "_fused", "_counters", "_center", "_rho", "_map", "_adjoint",
        "_cone", "_lam", "_lam_sq",
    )

    def __init__(
        self,
        conic: ConicProblem,
        center: Array,
        lam: Array,
        rho: float,
        counters: OracleCounters | None = None,
    ):
        smooth = conic.base.smooth
        self.dim = smooth.dim
        # the callees of every evaluation, looked up once; _map is None under an empty cone
        self._f = smooth.value
        self._grad_f = smooth.gradient
        self._fused = fused_method(smooth)
        constraint = conic.constraint if conic.cone.dim else None
        self._map = None if constraint is None else constraint.value
        self._adjoint = None if constraint is None else constraint.adjoint_apply
        self._counters = OracleCounters() if counters is None else counters
        self._center = np.asarray(center, dtype=float)
        self._rho = rho
        self._cone = conic.cone
        self._lam = np.asarray(lam, dtype=float).copy()
        self._lam_sq = float(self._lam.dot(self._lam))

    def multiplier(self, x: Array) -> tuple[Array, Array]:
        """(g(x), project_dual(lam + rho g(x))): the projected dual ascent step at x.

        Under an empty cone both are empty and nothing is called.
        """
        if self._map is None:
            return self._lam, self._lam
        counters = self._counters
        counters.g_evals += 1
        counters.cone_proj_evals += 1
        gval = self._map(x)
        # project_dual is called through this module's name, which tracers rebind
        return gval, project_dual(self._cone, self._lam + self._rho * gval)

    def value(self, x: Array) -> float:
        return self._value(self._f(x), x - self._center, self.multiplier(x)[1])

    def gradient(self, x: Array) -> Array:
        return self._gradient(x, self._grad_f(x), x - self._center, self.multiplier(x)[1])

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        proj = self.multiplier(x)[1]
        f, g = self._fused(x)
        dx = x - self._center
        return self._value(f, dx, proj), self._gradient(x, g, dx, proj)

    def _value(self, f: float, dx: Array, proj: Array) -> float:
        # an empty product costs more than the rest of a proximal-point value
        d = math.sqrt(float(proj.dot(proj))) if proj.size else 0.0
        return float(f + (d * d - self._lam_sq + float(dx.dot(dx))) / (2.0 * self._rho))

    def _gradient(self, x: Array, g: Array, dx: Array, proj: Array) -> Array:
        if self._adjoint is not None:
            self._counters.adjoint_evals += 1
            g = g + self._adjoint(x, proj)
        return g + dx / self._rho


def build_al_subproblem(
    conic: ConicProblem,
    center: Array,
    lam: Array,
    rho: float,
    counters: OracleCounters | None = None,
) -> CompositeProblem:
    """Proximal augmented Lagrangian subproblem as a CompositeProblem.

    Smooth part: ``SubproblemOracle(conic, center, lam, rho, counters)``,
    which is the proximal-point term under an empty cone; nonsmooth part:
    the original P; convexity modulus mu + 1/rho.  The oracle books its g,
    adjoint and cone-projection calls on ``counters``; the solver books its
    gradients.
    """
    return CompositeProblem(
        smooth=SubproblemOracle(conic, center, lam, rho, counters),
        nonsmooth=conic.base.nonsmooth,
        mu=conic.base.mu + 1.0 / rho,
    )


# theta of the relative inner stop rho_k ||u|| <= theta ||x_tilde - c_k||, the
# hybrid proximal extragradient test (Solodov and Svaiter, Set-Valued Analysis
# 1999; accelerated in Monteiro and Svaiter, SIAM J. Optim. 2013).  At 0.5 the
# criterion-6 prox-AL suite at eps 1e-4 takes 4,848 gradients where eta_k alone
# takes 6,592, and tests/heldout_sweep.py certifies 118 of 120 instances (the
# other two are infeasible); at 0.9 the suite takes 4,108, but the sweep
# certifies 115: nonneg 7 and 14 and box 9 run out of their 50 outer steps.
_RELATIVE_STOP = 0.5


def _inner_target(residual: float, eta_k: float, prox_term: float) -> str | None:
    """The inner target a certificate meets, "eta_k" or "relative", or None.

    residual is ||u|| and prox_term ||x_tilde - c_k||/rho_k, for the step's
    center c_k.  "eta_k" when ||u|| <= eta_k; otherwise "relative" when the
    relative test rho_k ||u|| <= _RELATIVE_STOP ||x_tilde - c_k|| holds.
    """
    if residual <= eta_k:
        return "eta_k"
    if residual <= _RELATIVE_STOP * prox_term:
        return "relative"
    return None


def _norm(v: Array) -> float:
    """||v|| for a vector v: what np.linalg.norm computes, without its overhead."""
    return math.sqrt(v.dot(v))


def kkt_report(
    conic: ConicProblem,
    lam_new: Array,
    inner_certificate: Certificate,
    rho: float,
    center: Array,
    lam_prev: Array,
    gval: Array | None = None,
) -> KktReport:
    """Assemble optimality witnesses from an inner certificate and multiplier step.

    The point x is the certificate's x_tilde, where its witness u lies in
    the subdifferential of the proximal AL subproblem, and lam_new must be
    the same outer step's projected update of lam_prev at x.  Then s = u -
    (x - center)/rho, for the step's proximal center, is an explicit
    stationarity witness, and w = (lam_prev + rho g(x) - lam_new)/rho lies
    in the normal cone of K* at lam_new with ||g(x) - w|| = ||lam_new -
    lam_prev||/rho bounding the complementarity residual.  ``gval`` may pass
    g(x) when the caller has already evaluated it; any shape but the cone's
    is a ValueError, since a shorter g(x) would broadcast through lam + rho
    g(x) and past every later shape check.  The complementarity defect
    |<lam_new, w>| is a sum of products, so its rounding error, and its
    tolerance, scale with ||lam_new|| * ||w||.  Under an empty cone w is
    empty, the complementarity residual and defects are 0, and no cone
    routine is called.  rho must be positive and finite.
    """
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    x = inner_certificate.x_tilde
    center = np.asarray(center, dtype=float)
    lam_new = np.asarray(lam_new, dtype=float)
    lam_prev = np.asarray(lam_prev, dtype=float)
    s = inner_certificate.witness - (x - center) / rho
    gval = np.asarray(conic.constraint.value(x) if gval is None else gval, dtype=float)
    if gval.shape != (conic.cone.dim,):
        raise ValueError(
            f"constraint map returned shape {gval.shape}, expected ({conic.cone.dim},)"
        )
    if not conic.cone.dim:
        # an empty w lies in the normal cone of the empty cone exactly, and
        # lam_new - lam_prev is empty, so nothing is left to compute or test
        return KktReport(
            stationarity_witness=s,
            complementarity_witness=np.zeros(0),
            stationarity_residual=_norm(s),
            complementarity_residual=0.0,
            witness_defects=(0.0, 0.0),
        )
    w = (lam_prev + rho * gval - lam_new) / rho
    defects = normal_cone_gap(conic.cone, lam_new, w)
    membership, complementarity = defects
    tolerance = 1e-9 * (1.0 + _norm(w))
    if not (membership <= tolerance and complementarity <= tolerance * (1.0 + _norm(lam_new))):
        raise InvariantViolation(
            f"normal-cone witness defects {defects} exceed tolerance; the "
            "multiplier does not match the certificate's outer step"
        )
    return KktReport(
        stationarity_witness=s,
        complementarity_witness=w,
        stationarity_residual=_norm(s),
        complementarity_residual=_norm(lam_new - lam_prev) / rho,
        witness_defects=defects,
    )


def _require_dual(conic: ConicProblem, lam) -> Array:
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (conic.cone.dim,):
        raise ValueError(f"lam has shape {lam.shape}, expected ({conic.cone.dim},)")
    if not np.isfinite(lam).all():
        raise ValueError("lam must be finite")
    require_in_dual(conic.cone, lam)
    return lam


def _worst(report: KktReport) -> float:
    """The larger of a KKT report's two residuals."""
    return max(report.stationarity_residual, report.complementarity_residual)


def _grows(row: OuterTraceRow, has_cone: bool) -> bool:
    """Whether rho grows by zeta after an outer step: when a term it controls binds.

    The prox-step term ||x_new - c_k||/rho_k, for the step's center c_k,
    and the complementarity residual ||lam_new - lam_k||/rho_k (0 under an
    empty cone) shrink as rho grows; the inner residual ||u|| does not.
    rho grows when the larger of the first two exceeds ||u|| and is held
    otherwise, so rho_k = rho0 * zeta**j for the j grows so far, at most
    rho0 * zeta**k, and a step held by this test has ||x_new - c_k||/rho_k
    <= ||u|| <= eta_k and a stationarity bound of at most 2 eta_k.

    Under a non-empty cone a step that the relative test ends with ||u|| >
    eta_k (``stop == "relative"``) holds rho too, although its prox-step
    term exceeds ||u||: the hybrid proximal extragradient method takes
    such steps at a fixed weight.  Its stationarity residual is at most
    ||u|| + ||x_new - c_k||/rho_k, and the bound rho_k <= rho0 * zeta**k
    still holds.  Under an empty cone (the proximal-point method) such a
    step still grows rho: criterion 5's near-singular quartic, with mu = 0,
    runs out of its outer budget when rho is held there.
    """
    prox_term, residual = row.prox_term, row.certificate.residual
    if has_cone and row.stop == "relative":
        return False
    return max(prox_term, row.kkt.complementarity_residual) > residual


def prox_al(conic: ConicProblem, params: OuterParams, init_x, init_lam) -> ProxAlResult:
    """First-order proximal augmented Lagrangian method with KKT certification.

    Each outer step solves the proximal AL subproblem centred at c_k with
    the certified accelerated solver (modulus mu_k = mu + 1/rho_k, target
    eta_k, step base the step clamp (1 - 1e-9)/mu_k, first trying the
    previous step's last accepted step) and updates the multiplier by
    projected dual ascent.  c_0 = x_0, and after step k, once rho_{k+1} is
    fixed, c_{k+1} = x_{k+1} + beta_k (x_{k+1} - x_k) with Catalyst's
    beta_k = a_k (1 - a_k)/(a_k^2 + a_{k+1}), where a_0 = 1 and
    a_{k+1}^2 = (1 - a_{k+1}) a_k^2 + q a_{k+1} for q = mu rho_{k+1}/(1 +
    mu rho_{k+1}); with mu = 0 this is Guler's sequence.  An inner solve
    starts at c_k where P is finite, and at x_k otherwise.  rho grows by
    zeta after the steps ``_grows`` selects, and is held otherwise; with a
    non-empty cone it is held after every step that the relative test ends
    above eta_k (``OuterTraceRow.stop``), whose stationarity residual is at
    most ||u|| + ||x_tilde - c_k||/rho_k.  An inner solve checks after every
    M-th iteration and whenever its lambda_prod has quartered since its
    previous check, and ends at the
    first checked certificate that meets its target (``_inner_target``:
    ||u|| <= eta_k or the relative test), or that proves the outer
    stopping rule: ||u|| + ||x_tilde - c_k||/rho_k <=
    epsilon, which costs no oracle call, and then ||lam_new - lam_k||/rho_k
    <= epsilon for the updated multiplier lam_new.  The target tests cost no oracle call either.
    lam_new costs one counted g(x_tilde) and one counted cone projection,
    and is formed once for each certificate that passes the target or the
    bound on ||u||; the accepted certificate's g(x_tilde) and lam_new are
    the step's multiplier update.  The solve returns at the first outer
    step whose KKT report has both residuals at most epsilon.  The paper's
    test (the scaled pair step ||(x, lam) step||/rho_k and eta_k both at
    most epsilon/2) implies the stopping rule.  Under an empty cone the
    subproblem is the proximal-point one, the multiplier update maps and
    projects nothing, and the complementarity residual is 0.

    Raises SolveTimeout, carrying the outer trace, whose ``best`` is the
    KKT report of the first row whose larger residual is least (None before
    the first step ends), when the outer budget or an inner solve's
    iteration budget runs out.
    """
    params = params.resolved(conic.base.mu)

    counters = OracleCounters()
    x = np.asarray(init_x, dtype=float).copy()
    center, start = x, x
    a_k = 1.0  # Catalyst's momentum sequence, from a_0 = 1
    lam = _require_dual(conic, init_lam).copy()
    rows: list[OuterTraceRow] = []
    trace = OuterTrace(rows=rows, counters=counters)
    first_step = None
    grows = 0
    rho_k = params.rho0
    for k in range(params.max_outer):
        eta_k = params.eta0 * params.sigma**k
        sub = build_al_subproblem(conic, center, lam, rho_k, counters=counters)
        accepted = (None, None, None)  # (certificate, g(x_tilde), lam_new)

        def done(cert):
            nonlocal accepted
            prox_term = _norm(cert.x_tilde - center) / rho_k
            at_target = _inner_target(cert.residual, eta_k, prox_term) is not None
            # ||u|| + prox_term bounds the stationarity residual ||u - (x_tilde - c_k)/rho_k||
            if at_target or cert.residual + prox_term <= params.epsilon:
                gval, lam_new = sub.smooth.multiplier(cert.x_tilde)
                if at_target or _norm(lam_new - lam) / rho_k <= params.epsilon:
                    accepted = (cert, gval, lam_new)
            return accepted[0] is cert

        try:
            res = apg_terminating(
                sub,
                params.inner_params(step_clamp(sub.mu), eta_k),
                start,
                counters=counters,
                done=done,
                first_step=first_step,
            )
        except SolveTimeout as exc:  # the outer solve's timeout, carrying its own trace
            raise SolveTimeout(f"inner solve at outer step {k}: {exc}", trace=trace) from exc
        cert, gval, lam_new = accepted
        if res.certificate is not cert:
            raise InvariantViolation(
                f"inner solve at outer step {k} returned a certificate (residual "
                f"{res.certificate.residual}) its stop rule did not accept, at eta_k = {eta_k}"
            )
        x_new = res.x
        report = kkt_report(conic, lam_new, res.certificate, rho_k, center, lam, gval)
        row = OuterTraceRow(
            k=k,
            rho_k=rho_k,
            eta_k=eta_k,
            inner_iters=len(res.trace.rows),
            grad_evals=counters.grad_f_evals,
            prox_evals=counters.prox_evals,
            certificate=res.certificate,
            center=center,
            lam_prev=lam,
            lam_new=lam_new,
            kkt=report,
        )
        rows.append(row)
        if _worst(report) <= params.epsilon:
            return ProxAlResult(x=x_new, lam=lam_new, report=report, trace=trace)
        grows += _grows(row, conic.cone.dim > 0)
        rho_k = params.rho0 * params.zeta**grows
        # Catalyst momentum: a_{k+1}^2 = (1 - a_{k+1}) a_k^2 + q a_{k+1}, with
        # q = mu/(mu + 1/rho_{k+1}); the center is extrapolated past x_new
        mu_rho = conic.base.mu * rho_k
        q = mu_rho / (1.0 + mu_rho)
        b = a_k * a_k - q
        a_next = (math.sqrt(b * b + 4.0 * a_k * a_k) - b) / 2.0
        beta = a_k * (1.0 - a_k) / (a_k * a_k + a_next)
        center = x_new + beta * (x_new - x)
        # the inner solve must start in dom P, which the center may leave
        start = center if conic.base.nonsmooth.value(center) < math.inf else x_new
        x, lam, a_k = x_new, lam_new, a_next
        first_step = res.trace.rows[-1].gamma_t
    raise SolveTimeout(
        f"outer budget of {params.max_outer} exhausted; best KKT residual {_worst(trace.best)}",
        trace=trace,
    )


def ppa_unconstrained(problem: CompositeProblem, params: OuterParams, init) -> PpaResult:
    """Certified solver for mu = 0 via proximal-point perturbations.

    ``prox_al`` on ``problem`` under no constraint: each outer step
    minimizes f + ||x - c_k||^2/(2 rho_k) + P, for the extrapolated center
    c_k, with the certified accelerated solver at target eta_k, and the
    solve returns at the first step whose witness s = u - (x_{k+1} -
    c_k)/rho_k, an element of dF(x_{k+1}), has ||s|| <= epsilon.  An inner
    solve stops early at the first checked certificate with ||u|| +
    ||x_tilde - c_k||/rho_k <= epsilon, which bounds ||s||.  A
    SolveTimeout carries the outer trace, whose ``best`` is the first KKT
    report of least ||s||, as ``prox_al`` gives it, or None if no outer
    step ended.
    """
    if problem.mu != 0:
        raise ValueError("the proximal-point solver requires mu = 0")
    # through the module name, which tracers rebind
    res = prox_al(ConicProblem.unconstrained(problem), params, init, np.zeros(0))
    last = res.trace.rows[-1]
    return PpaResult(
        x=res.x,
        witness=res.report.stationarity_witness,
        certificate=last.certificate,
        rho_final=last.rho_k,
        center_final=last.center,
        trace=res.trace,
    )
