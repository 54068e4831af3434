"""The grow rule: a step that grows back once per iteration, gated by the curvature.

By default an iteration starts its search at min(gamma_prev/delta, gamma0)
when the previous accepted trial passed its curvature test with margin
delta, and at gamma_prev otherwise; the outer loops start their inner
solves at the step clamp.  These tests check grow path traces from every
solver against that rule, recomputed here from the raw oracles.
"""

import math

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    BoxTerm,
    L1Term,
    NonnegativeTerm,
    OuterParams,
    apg_run,
    apg_terminating,
    build_al_subproblem,
    ppa_unconstrained,
    prox_al,
    residual_certificate,
    shifted_proximal_subproblem,
)
from proxcert.problems import QuarticSpec, gen_constrained, gen_quartic

from helpers import (
    accepted_trial,
    accounting_violations,
    criterion6_specs,
    rule_start,
    trajectory_invariant_violations,
)

DELTA = 0.5


def _apg_traces():
    """(problem, trace, start_grad, start_prox, certificate) from apg_terminating and apg_run."""
    out = []
    for seed, prox in ((1, None), (2, L1Term(6, 0.1)), (3, BoxTerm(-np.ones(6), np.ones(6)))):
        problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=seed, mu_add=0.3, prox=prox))
        res = apg_terminating(problem, ApgParams(epsilon=1e-8, M=3), np.zeros(6))
        out.append((problem, res.trace, 0, 0, res.certificate))
    problem = gen_quartic(QuarticSpec(n=5, k_terms=3, seed=4, prox=NonnegativeTerm(5)))
    trace = apg_run(problem, ApgParams(), np.zeros(5), stop=lambda s, r: s.t > 80)
    out.append((problem, trace, 0, 0, None))
    return out


def _ppa_traces():
    problem = gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))
    res = ppa_unconstrained(problem, OuterParams(epsilon=1e-7), np.zeros(8), record_iterates=True)
    return [
        (
            shifted_proximal_subproblem(problem, row.center, row.rho_k),
            row.inner_trace,
            row.grad_evals - row.inner_grad_evals,
            row.prox_evals - row.inner_prox_evals,
            row.certificate,
        )
        for row in res.trace.rows
    ]


def _prox_al_traces():
    out = []
    for i in (2, 19):  # mu = 0 and mu = 1
        conic = gen_constrained(criterion6_specs()[i])
        res = prox_al(
            conic.conic, OuterParams(epsilon=1e-4), conic.x_feas,
            np.zeros(conic.conic.cone.dim), record_iterates=True,
        )
        for row in res.trace.rows:
            out.append((
                build_al_subproblem(conic.conic, row.center, row.lam_prev, row.rho_k),
                row.inner_trace,
                row.grad_evals - row.inner_grad_evals,
                row.prox_evals - row.inner_prox_evals,
                row.certificate,
            ))
    return out


@pytest.fixture(scope="module", params=["apg", "ppa", "prox-al"])
def grow_traces(request):
    return {"apg": _apg_traces, "ppa": _ppa_traces, "prox-al": _prox_al_traces}[request.param]()


def test_invariants_and_accounting_hold(grow_traces):
    for problem, trace, start_grad, start_prox, _ in grow_traces:
        assert trajectory_invariant_violations(problem, trace, delta=DELTA) == []
        assert accounting_violations(trace, start_grad, start_prox) == []


def test_steps_lie_on_the_grid_below_the_clamp(grow_traces):
    for _, trace, _, _, _ in grow_traces:
        clamp = (1.0 - 1e-9) / trace.mu if trace.mu > 0 else math.inf
        assert trace.gamma0 <= clamp
        for row in trace.rows:
            k = round(math.log2(trace.gamma0 / row.gamma_t))
            assert k >= 0 and row.gamma_t == trace.gamma0 * DELTA**k
            assert trace.mu * row.gamma_t < 1.0


def test_outer_loops_start_inner_solves_at_the_clamp():
    for problem, trace, _, _, _ in _ppa_traces()[:3] + _prox_al_traces()[:3]:
        assert trace.gamma0 == (1.0 - 1e-9) / problem.mu


def test_step_grows_only_after_a_gated_acceptance(grow_traces):
    grew = 0
    for problem, trace, _, _, _ in grow_traces:
        for prev, row in zip(trace.rows, trace.rows[1:]):
            if row.gamma_t <= prev.gamma_t:
                continue
            grew += 1
            trial = accepted_trial(problem, prev)
            assert trial.lhs <= DELTA * trial.rhs, (row.t, trial.lhs, trial.rhs)
            assert row.gamma_t == prev.gamma_t / DELTA and row.n_t == 0
    assert grew > 0


def test_certificate_search_starts_at_the_next_start(grow_traces):
    checked = 0
    for problem, trace, _, _, _ in grow_traces:
        for row in trace.rows:
            if row.certificate is None:
                continue
            checked += 1
            trial = accepted_trial(problem, row)
            start = rule_start("grow", trace.gamma0, row.gamma_t, trial.lhs <= DELTA * trial.rhs)
            assert row.certificate.gamma_tilde == start * DELTA**row.cert_backtracks
    assert checked > 0


def test_certificates_reverify_from_raw_oracles(grow_traces):
    for problem, _, _, _, cert in grow_traces:
        if cert is None:
            continue
        again = residual_certificate(problem, cert.x_pre, cert.x_tilde, cert.gamma_tilde)
        assert np.array_equal(again.witness, cert.witness)
        assert again.residual == cert.residual
        x_tilde = problem.nonsmooth.prox(
            cert.gamma_tilde, cert.x_pre - cert.gamma_tilde * problem.smooth.gradient(cert.x_pre)
        )
        assert np.array_equal(x_tilde, cert.x_tilde)


def test_the_checker_tells_the_two_rules_apart():
    problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=1, mu_add=0.3))
    warm = apg_terminating(problem, ApgParams(epsilon=1e-8, warm_start_gamma=True), np.zeros(6))
    grow = apg_terminating(problem, ApgParams(epsilon=1e-8), np.zeros(6))
    assert trajectory_invariant_violations(problem, warm.trace, rule="warm") == []
    # the rules differ on this problem, so each trace fails the other's check
    assert trajectory_invariant_violations(problem, grow.trace, rule="warm") != []
    assert trajectory_invariant_violations(problem, warm.trace, rule="grow") != []
