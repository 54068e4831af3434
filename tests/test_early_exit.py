"""The outer loop stops at the first inner certificate that proves epsilon.

At every certificate an inner solve checks, ``apg_terminating`` asks the
outer loop's stop rule (its ``done`` argument), which is its whole stop
test: ||u|| <= eta_k or rho_k ||u|| <= ||x_tilde - c_k||/2, or else
||u|| + ||x_tilde - c_k||/rho_k <= eps and then ||lam_new - lam_k||/rho_k
<= eps for the multiplier updated at x_tilde, which an empty cone (the
proximal-point solver) always passes.  These tests recompute the returned
certificates from the raw oracles, check that no earlier checked
certificate already passed the test, and that every raw call of g is
booked.
"""

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    BoxTerm,
    CallableConstraint,
    ConicProblem,
    L1Term,
    NonnegativeTerm,
    OuterParams,
    SolveTimeout,
    ZeroTerm,
    apg_terminating,
    build_al_subproblem,
    kkt_report,
    ppa_unconstrained,
    project_dual,
    prox_al,
    residual_certificate,
)
from proxcert.problems import QuarticSpec, gen_constrained, gen_quartic, ineq_quadratic_1d

from helpers import criterion6_specs, ppa_subproblem, recorded_iterates

AL_EPS = 1e-4
PPA_EPS = 1e-7


def _checked_certificates(rows, inner):
    """(outer row, certificate) for every certificate the inner solves checked.

    ``inner`` holds the outer steps' inner solves (see ``recorded_iterates``).
    """
    return [
        (row, step.certificate)
        for row, solve in zip(rows, inner, strict=True)
        for step in solve.trace.rows
        if step.certificate is not None
    ]


def _assert_reverifies(sub, cert):
    again = residual_certificate(sub, cert.x_pre, cert.x_tilde, cert.gamma_tilde)
    assert np.array_equal(again.witness, cert.witness)
    assert again.residual == cert.residual
    x_tilde = sub.nonsmooth.prox(
        cert.gamma_tilde, cert.x_pre - cert.gamma_tilde * sub.smooth.gradient(cert.x_pre)
    )
    assert np.array_equal(x_tilde, cert.x_tilde)


def _bound(cert, center, rho):
    return cert.residual + float(np.linalg.norm(cert.x_tilde - center)) / rho


def _at_target(cert, row):
    """The inner target of ``row``'s step: ||u|| <= eta_k, or the relative test
    rho_k ||u|| <= ||x_tilde - c_k||/2."""
    prox_term = float(np.linalg.norm(cert.x_tilde - row.center)) / row.rho_k
    return cert.residual <= row.eta_k or cert.residual <= 0.5 * prox_term


# --- apg_terminating(done=...) ------------------------------------------------


def _quartic():
    return gen_quartic(QuarticSpec(n=6, k_terms=4, seed=1, mu_add=0.3))


def test_done_stops_at_the_first_check_where_it_holds():
    problem, params = _quartic(), ApgParams(epsilon=1e-12, M=3)
    full = apg_terminating(problem, params, np.zeros(6))
    seen = []

    def done(cert):
        seen.append(cert)
        return len(seen) == 3

    res = apg_terminating(problem, params, np.zeros(6), done=done)
    assert len(seen) == 3 and res.certificate is seen[-1]
    assert res.trace.rows[-1].certificate is seen[-1]
    # called exactly at the checks, never between them
    assert [row.certificate for row in res.trace.rows if row.certificate is not None] == seen
    # the run is a prefix of the run without done
    assert len(res.trace.rows) < len(full.trace.rows)
    def facts(row):
        return (row.gamma_t, row.F, row.grad_evals, row.prox_evals,
                row.certificate and row.certificate.residual)

    assert [facts(row) for row in res.trace.rows] == [
        facts(ref) for ref in full.trace.rows[:len(res.trace.rows)]
    ]


def test_done_is_the_whole_stop_test_past_epsilon():
    # every checked certificate meets epsilon, and done, asked at each one,
    # still keeps the solve running until its budget is spent
    seen = []

    def done(cert):
        seen.append(cert)
        return False

    params = ApgParams(epsilon=1e3, M=3, max_iters=9)
    with pytest.raises(SolveTimeout) as info:
        apg_terminating(_quartic(), params, np.zeros(6), done=done)
    rows = info.value.trace.rows
    assert len(rows) == 9
    assert [row.certificate for row in rows if row.certificate is not None] == seen
    assert len(seen) == 3 and all(cert.residual <= params.epsilon for cert in seen)


def test_done_on_the_residual_reproduces_the_default_solve():
    problem, params = _quartic(), ApgParams(epsilon=1e-8, M=3)
    full = apg_terminating(problem, params, np.zeros(6))
    res = apg_terminating(
        problem, params, np.zeros(6), done=lambda cert: cert.residual <= params.epsilon
    )
    assert np.array_equal(res.x, full.x)
    assert np.array_equal(res.certificate.witness, full.certificate.witness)
    # rows compared without their certificates, whose arrays == cannot compare
    rows = [row._replace(certificate=None) for row in res.trace.rows]
    assert rows == [row._replace(certificate=None) for row in full.trace.rows]
    assert res.trace.counters == full.trace.counters


# --- ppa_unconstrained ----------------------------------------------------------

PPA_SHAPES = [
    (3, 1, ZeroTerm(3)),
    (6, 2, L1Term(6, 0.1)),
    (9, 3, NonnegativeTerm(9)),
    (12, 4, BoxTerm(np.full(12, -0.5), np.full(12, 0.5))),
]


@pytest.mark.parametrize("n, k, term", PPA_SHAPES, ids=["zero", "l1", "nonneg", "box"])
def test_ppa_exits_at_the_first_certificate_proving_epsilon(n, k, term):
    problem = gen_quartic(QuarticSpec(n=n, k_terms=k, seed=40 + n, mu_add=0.0, prox=term))
    params = OuterParams(epsilon=PPA_EPS)
    with recorded_iterates() as rec:
        res = ppa_unconstrained(problem, params, np.zeros(n))

    sub = ppa_subproblem(problem, res.center_final, res.rho_final)
    cert = res.certificate
    _assert_reverifies(sub, cert)
    assert np.array_equal(res.x, cert.x_tilde)
    s = cert.witness - (res.x - res.center_final) / res.rho_final
    assert np.array_equal(s, res.witness)
    bound = res.trace.rows[-1].kkt.stationarity_residual
    assert bound == float(np.linalg.norm(res.witness)) <= PPA_EPS

    checked = _checked_certificates(res.trace.rows, rec.inner)
    assert checked[-1][1] is cert
    for row, earlier in checked[:-1]:
        assert not _bound(earlier, row.center, row.rho_k) <= PPA_EPS
        assert earlier is row.certificate or not _at_target(earlier, row)
    for row in res.trace.rows[:-1]:
        assert _at_target(row.certificate, row)
        assert row.kkt.stationarity_residual > PPA_EPS


# --- prox_al --------------------------------------------------------------------


def _counting(conic):
    """conic with a constraint map that records every raw call of g."""
    calls = []
    constraint = conic.constraint

    def value(x):
        calls.append(1)
        return constraint.value(x)

    counting = CallableConstraint(constraint.n, constraint.m, value, constraint.adjoint_apply)
    return ConicProblem(base=conic.base, constraint=counting, cone=conic.cone), calls


def _check_prox_al(conic, params, x0, lam0):
    """Solve with a counting g and check the exit against the raw oracles."""
    counted, calls = _counting(conic)
    eps = params.epsilon
    with recorded_iterates() as rec:
        res = prox_al(counted, params, x0, lam0)
    assert len(calls) == res.trace.counters.g_evals

    last = res.trace.rows[-1]
    cert = last.certificate
    sub = build_al_subproblem(conic, last.center, last.lam_prev, last.rho_k)
    _assert_reverifies(sub, cert)
    assert np.array_equal(res.x, cert.x_tilde)
    lam_new = project_dual(conic.cone, last.lam_prev + last.rho_k * conic.constraint.value(res.x))
    assert np.array_equal(lam_new, res.lam)
    again = kkt_report(conic, res.lam, cert, last.rho_k, last.center, last.lam_prev)
    assert np.array_equal(again.stationarity_witness, res.report.stationarity_witness)
    assert np.array_equal(again.complementarity_witness, res.report.complementarity_witness)
    assert again.stationarity_residual <= eps
    assert again.complementarity_residual <= eps

    checked = _checked_certificates(res.trace.rows, rec.inner)
    assert checked[-1][1] is cert
    held_back = 0  # checks whose stationarity bound passed but multiplier step did not
    for row, earlier in checked[:-1]:
        assert earlier is row.certificate or not _at_target(earlier, row)
        if not _bound(earlier, row.center, row.rho_k) <= eps:
            continue
        shifted = row.lam_prev + row.rho_k * conic.constraint.value(earlier.x_tilde)
        moved = float(np.linalg.norm(project_dual(conic.cone, shifted) - row.lam_prev))
        assert not moved / row.rho_k <= eps
        held_back += 1
    for row in res.trace.rows[:-1]:
        assert _at_target(row.certificate, row)
        assert max(row.kkt.stationarity_residual, row.kkt.complementarity_residual) > eps
    return held_back


@pytest.mark.parametrize("i", [0, 1, 2, 3])  # mu = 1, 0.5, 0, 1
def test_prox_al_exits_at_the_first_certificate_proving_epsilon(i):
    inst = gen_constrained(criterion6_specs()[i])
    params = OuterParams(epsilon=AL_EPS)
    _check_prox_al(inst.conic, params, inst.x_feas, np.zeros(inst.conic.cone.dim))


def test_prox_al_multiplier_test_keeps_the_inner_solve_running():
    # Started on the constraint boundary with lam = 0 and tiny inner
    # targets, the x-part of the test passes long before the multiplier
    # settles, so the second test must hold the inner solve back.
    params = OuterParams(epsilon=0.1, eta0=1e-6)
    held_back = _check_prox_al(ineq_quadratic_1d(), params, np.ones(1), np.zeros(1))
    assert held_back > 0


def test_prox_al_relative_stop_ends_late_inner_solves_early():
    # criterion-6 instance 14 (mu = 0, n = 9, 9 orthant and 1 zero
    # constraint): the inner solves of outer steps 10 and 11 end by the
    # relative test with ||u|| above eta_k.  With eta_k alone the run took
    # (3744, 3554, 7324, 3744, 7324) with inner iterations
    # [10] * 7 + [50, 50, 80, 470, 700, 810].
    inst = gen_constrained(criterion6_specs()[14])
    conic = inst.conic
    res = prox_al(conic, OuterParams(epsilon=AL_EPS), inst.x_feas, np.zeros(conic.cone.dim))
    counters = res.trace.counters
    assert (counters.grad_f_evals, counters.prox_evals, counters.g_evals,
            counters.adjoint_evals, counters.cone_proj_evals) == (2847, 2691, 5564, 2847, 5564)
    rows = res.trace.rows
    assert [row.inner_iters for row in rows] == [10] * 7 + [50, 50, 80, 380, 580, 480]

    relative = [row.k for row in rows[:-1] if row.certificate.residual > row.eta_k]
    assert relative == [10, 11]
    for row, after in zip(rows, rows[1:]):
        assert _at_target(row.certificate, row)
        if row.k in relative:  # ||x_tilde - c_k||/rho_k >= 2 ||u|| > ||u||, so rho grows
            assert after.rho_k == 2.0 * row.rho_k
    for row in rows:
        again = kkt_report(conic, row.lam_new, row.certificate, row.rho_k, row.center, row.lam_prev)
        assert np.array_equal(again.stationarity_witness, row.kkt.stationarity_witness)
        assert np.array_equal(again.complementarity_witness, row.kkt.complementarity_witness)
        assert again.stationarity_residual == row.kkt.stationarity_residual
        assert again.complementarity_residual == row.kkt.complementarity_residual
    assert max(res.report.stationarity_residual, res.report.complementarity_residual) <= AL_EPS
