"""The grow rule: a step that grows back once per iteration, gated by the curvature.

An iteration starts its search at min(gamma_prev/delta, gamma0) when the
previous accepted trial passed the grow gate (its curvature test with
margin delta and rounding slack to spare), and at gamma_prev otherwise.
The outer loop gives its inner solves the step clamp as gamma0; from
outer step 1 on, an inner solve's first iteration tries the last step the
previous inner solve accepted, capped at the clamp, while its alpha
recursion still starts at the clamp.  These tests check traces from every
solver against that rule, recomputed here from the raw oracles.
"""

import math
from dataclasses import replace

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
    solve_alpha,
)
from proxcert.apg import admits_growth
from proxcert.problems import QuarticSpec, gen_constrained, gen_quartic

from helpers import (
    accepted_trial,
    accounting_violations,
    counts_before,
    criterion6_specs,
    ppa_subproblem,
    recorded_iterates,
    rule_start,
    trajectory_invariant_violations,
)

DELTA = 0.5


def _apg_traces():
    """(problem, trace, states, start_grad, start_prox, certificate) of apg_terminating, apg_run."""
    out = []
    for seed, prox in ((1, None), (2, L1Term(6, 0.1)), (3, BoxTerm(-np.ones(6), np.ones(6)))):
        problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=seed, mu_add=0.3, prox=prox))
        with recorded_iterates() as rec:
            res = apg_terminating(problem, ApgParams(epsilon=1e-8, M=3), np.zeros(6))
        out.append((problem, res.trace, rec.states, 0, 0, res.certificate))
    problem = gen_quartic(QuarticSpec(n=5, k_terms=3, seed=4, prox=NonnegativeTerm(5)))
    with recorded_iterates() as rec:
        trace = apg_run(problem, ApgParams(max_iters=80), np.zeros(5))
    out.append((problem, trace, rec.states, 0, 0, None))
    return out


def _ppa_run():
    """(problem, result, inner solves) of a proximal-point solve."""
    problem = gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))
    with recorded_iterates() as rec:
        res = ppa_unconstrained(problem, OuterParams(epsilon=1e-7), np.zeros(8))
    return problem, res, rec.inner


def _prox_al_runs():
    """(conic, result, inner solves) for criterion-6 instances 2 (mu = 0) and 19 (mu = 1)."""
    out = []
    for i in (2, 19):
        conic = gen_constrained(criterion6_specs()[i])
        with recorded_iterates() as rec:
            res = prox_al(
                conic.conic, OuterParams(epsilon=1e-4), conic.x_feas,
                np.zeros(conic.conic.cone.dim),
            )
        out.append((conic.conic, res, rec.inner))
    return out


def _inner_traces(rows, inner, subproblem):
    """Each outer step's (subproblem, inner trace, states, counts before, certificate)."""
    return [
        (subproblem(row), solve.trace, solve.states, *before, row.certificate)
        for row, solve, before in zip(rows, inner, counts_before(rows), strict=True)
    ]


def _ppa_traces():
    problem, res, inner = _ppa_run()
    return _inner_traces(
        res.trace.rows, inner, lambda row: ppa_subproblem(problem, row.center, row.rho_k)
    )


def _prox_al_traces():
    return [
        trace
        for conic, res, inner in _prox_al_runs()
        for trace in _inner_traces(
            res.trace.rows, inner,
            lambda row: build_al_subproblem(conic, row.center, row.lam_prev, row.rho_k),
        )
    ]


@pytest.fixture(scope="module", params=["apg", "ppa", "prox-al"])
def grow_traces(request):
    return {"apg": _apg_traces, "ppa": _ppa_traces, "prox-al": _prox_al_traces}[request.param]()


def test_invariants_and_accounting_hold(grow_traces):
    for problem, trace, states, start_grad, start_prox, _ in grow_traces:
        assert trajectory_invariant_violations(problem, trace, states, delta=DELTA) == []
        assert accounting_violations(trace, start_grad, start_prox) == []


def _on_grid(step, base):
    return step == base * DELTA ** round(math.log2(base / step))


def test_steps_lie_on_the_grid_below_the_clamp(grow_traces):
    # a search starts at the recorded first step and moves by factors of 2
    # until it grows back to gamma0, after which it lives on gamma0's grid
    for _, trace, _, _, _, _ in grow_traces:
        clamp = (1.0 - 1e-9) / trace.mu if trace.mu > 0 else math.inf
        assert trace.first_step <= trace.gamma0 <= clamp
        for row in trace.rows:
            assert row.gamma_t <= trace.gamma0
            assert _on_grid(row.gamma_t, trace.first_step) or _on_grid(row.gamma_t, trace.gamma0)
            assert trace.mu * row.gamma_t < 1.0


def test_outer_loops_start_inner_solves_at_the_clamp():
    for problem, trace, _, _, _, _ in _ppa_traces()[:3] + _prox_al_traces()[:3]:
        assert trace.gamma0 == (1.0 - 1e-9) / problem.mu


def _outer_runs():
    """The inner solves of the PPA solve and of prox-AL instances 2 and 19, one list per run."""
    return [_ppa_run()[2]] + [inner for _, _, inner in _prox_al_runs()]


def test_outer_steps_first_try_the_previous_accepted_step():
    carried = 0
    for inner in _outer_runs():
        assert inner[0].trace.first_step == inner[0].trace.gamma0
        for prev, solve in zip(inner, inner[1:]):
            trace = solve.trace
            clamp = (1.0 - 1e-9) / trace.mu
            last = prev.trace.rows[-1].gamma_t
            assert trace.gamma0 == clamp
            assert trace.first_step == min(clamp, last)
            first = trace.rows[0]
            assert first.gamma_t == trace.first_step * DELTA**first.n_t
            carried += trace.first_step < trace.gamma0
    assert carried > 0


def test_alpha_recursion_stays_anchored_at_the_clamp():
    # the carried step moves only the first trial: alpha_1 solves the
    # recursion from gamma_prev = clamp and alpha_prev = alpha0, which puts
    # it at its floor sqrt(mu_k * gamma_1)
    for inner in _outer_runs():
        for trace, states in inner:
            first = trace.rows[0]
            assert (states[0].gamma_prev, states[0].alpha_prev) == (trace.gamma0, trace.alpha0)
            assert first.alpha_t == solve_alpha(trace.gamma0, first.gamma_t, trace.alpha0, trace.mu)
            assert math.isclose(first.alpha_t, math.sqrt(trace.mu * first.gamma_t), rel_tol=1e-8)


def test_apg_terminating_starts_at_gamma0_unless_given_a_smaller_first_step():
    problem = gen_quartic(QuarticSpec(n=6, k_terms=4, seed=1, mu_add=0.3))
    params = ApgParams(epsilon=1e-8, M=3)
    plain = apg_terminating(problem, params, np.zeros(6))
    assert plain.trace.first_step == plain.trace.gamma0
    above = apg_terminating(problem, params, np.zeros(6), first_step=2.0 * plain.trace.gamma0)
    assert above.trace.first_step == plain.trace.gamma0

    def scalars(res):
        return [(r.n_t, r.gamma_t, r.alpha_t, r.F, r.grad_evals) for r in res.trace.rows]

    assert scalars(above) == scalars(plain) and np.array_equal(above.x, plain.x)
    small = plain.trace.gamma0 / 64.0
    with recorded_iterates() as rec:
        capped = apg_terminating(problem, params, np.zeros(6), first_step=small)
    assert capped.trace.first_step == small
    first, state = capped.trace.rows[0], rec.states[0]
    assert first.gamma_t == small * DELTA**first.n_t
    assert (state.gamma_prev, state.alpha_prev) == (plain.trace.gamma0, plain.trace.alpha0)
    assert trajectory_invariant_violations(problem, capped.trace, rec.states) == []
    # the first_step checked as the start of row 1, not as gamma0
    moved = replace(capped.trace, first_step=plain.trace.gamma0)
    assert (1, "start rule") in trajectory_invariant_violations(problem, moved, rec.states)
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="first_step"):
            apg_terminating(problem, params, np.zeros(6), first_step=bad)


def test_step_grows_only_after_a_gated_acceptance(grow_traces):
    grew = 0
    for problem, trace, states, _, _, _ in grow_traces:
        for prev, prev_state, row in zip(trace.rows, states, trace.rows[1:]):
            if row.gamma_t <= prev.gamma_t:
                continue
            grew += 1
            trial = accepted_trial(problem, prev, prev_state)
            assert admits_growth(trial, DELTA), (row.t, trial.lhs, trial.rhs, trial.scale)
            assert row.gamma_t == prev.gamma_t / DELTA and row.n_t == 0
    assert grew > 0


def test_certificate_search_starts_at_the_next_start(grow_traces):
    checked = 0
    for problem, trace, states, _, _, _ in grow_traces:
        for row, state in zip(trace.rows, states, strict=True):
            if row.certificate is None:
                continue
            checked += 1
            trial = accepted_trial(problem, row, state)
            start = rule_start(trace.gamma0, row.gamma_t, admits_growth(trial, DELTA))
            assert row.certificate.gamma_tilde == start * DELTA**row.cert_backtracks
    assert checked > 0


def test_certificates_reverify_from_raw_oracles(grow_traces):
    for problem, _, _, _, _, cert in grow_traces:
        if cert is None:
            continue
        again = residual_certificate(problem, cert.x_pre, cert.x_tilde, cert.gamma_tilde)
        assert np.array_equal(again.witness, cert.witness)
        assert again.residual == cert.residual
        x_tilde = problem.nonsmooth.prox(
            cert.gamma_tilde, cert.x_pre - cert.gamma_tilde * problem.smooth.gradient(cert.x_pre)
        )
        assert np.array_equal(x_tilde, cert.x_tilde)
