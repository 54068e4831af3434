"""Acceptance suite: one test per gate criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    BoxTerm,
    ConeBlock,
    ConeSpec,
    L1Term,
    NonnegativeTerm,
    OuterParams,
    ZeroTerm,
    apg_run,
    apg_terminating,
    build_al_subproblem,
    ppa_unconstrained,
    prox_al,
    residual_certificate,
)
from proxcert.problems import (
    ConstrainedSpec,
    QuarticSpec,
    eq_quadratic_2d,
    gen_constrained,
    gen_quartic,
    ineq_quadratic_1d,
)
from proxcert.proxcone import project_dual, project_polar

from helpers import (
    accounting_violations,
    check_gradient,
    composite_value,
    counts_before,
    criterion6_specs,
    ppa_subproblem,
    recorded_iterates,
    reference_solve,
    trajectory_invariant_violations,
)


def report(number, name, violations):
    ok = not violations
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) violations: {violations[:10]}"


@dataclass
class SolveRecord:
    label: str
    mu: float
    epsilon: float
    certificate: object
    residual: float          # the certified bound compared against epsilon
    certified_problem: object  # composite problem the certificate refers to
    traces: list             # (problem, ApgTrace, states, start_grad, start_prox)


@pytest.fixture(scope="module")
def suite1():
    """50 random quartic solves with mixed prox terms and moduli."""
    records = []
    rng = np.random.default_rng(20240)
    for i in range(50):
        mu = [0.0, 0.1, 1.0][i % 3]
        n = int(rng.integers(2, 51))
        k = int(rng.integers(1, 8))
        prox = [
            None,
            L1Term(n, 0.1),
            NonnegativeTerm(n),
            BoxTerm(-np.ones(n), np.ones(n)),
        ][i % 4]
        problem = gen_quartic(QuarticSpec(n=n, k_terms=k, seed=1000 + i, mu_add=mu, prox=prox))
        init = problem.nonsmooth.prox(1.0, np.zeros(n))
        label = f"problem {i} (n={n}, k={k}, mu={mu}, prox={type(problem.nonsmooth).__name__})"
        if mu > 0:
            eps = 1e-6
            with recorded_iterates() as rec:
                res = apg_terminating(problem, ApgParams(epsilon=eps), init)
            records.append(SolveRecord(
                label=label, mu=mu, epsilon=eps,
                certificate=res.certificate, residual=res.certificate.residual,
                certified_problem=problem,
                traces=[(problem, res.trace, rec.states, 0, 0)],
            ))
        else:
            eps = 1e-5
            with recorded_iterates() as rec:
                res = ppa_unconstrained(problem, OuterParams(epsilon=eps), init)
            traces = []
            rows = res.trace.rows
            for row, inner, before in zip(rows, rec.inner, counts_before(rows), strict=True):
                sub = ppa_subproblem(problem, row.center, row.rho_k)
                traces.append((sub, inner.trace, inner.states, *before))
            sub_final = ppa_subproblem(problem, res.center_final, res.rho_final)
            records.append(SolveRecord(
                label=label, mu=mu, epsilon=eps,
                certificate=res.certificate, residual=res.trace.rows[-1].kkt.stationarity_residual,
                certified_problem=sub_final,
                traces=traces,
            ))
    return records


def test_criterion_1_certificate_soundness(suite1):
    violations = []
    for rec in suite1:
        cert = rec.certificate
        again = residual_certificate(
            rec.certified_problem, cert.x_pre, cert.x_tilde, cert.gamma_tilde
        )
        if np.max(np.abs(again.witness - cert.witness)) > 1e-12:
            violations.append((rec.label, "witness recomputation"))
        refetched = rec.certified_problem.nonsmooth.prox(
            cert.gamma_tilde,
            cert.x_pre - cert.gamma_tilde * rec.certified_problem.smooth.gradient(cert.x_pre),
        )
        if np.max(np.abs(refetched - cert.x_tilde)) > 1e-12:
            violations.append((rec.label, "prox point recomputation"))
        if isinstance(rec.certified_problem.nonsmooth, ZeroTerm):
            grad_norm = float(np.linalg.norm(
                rec.certified_problem.smooth.gradient(cert.x_tilde)
            ))
            if abs(cert.residual - grad_norm) > 1e-10:
                violations.append((rec.label, "gradient identity"))
        if rec.residual > rec.epsilon:
            violations.append((rec.label, "residual above target"))
    report(1, "certificate soundness", violations)


def test_criterion_2_trajectory_invariants(suite1):
    violations = []
    for rec in suite1:
        for problem, trace, states, _, _ in rec.traces:
            for v in trajectory_invariant_violations(problem, trace, states, delta=0.5):
                violations.append((rec.label,) + v)
    report(2, "trajectory invariants", violations)


def test_criterion_3_descent_envelope():
    violations = []
    cases = [(s, 1.0) for s in (1, 4, 9)] + [(s, 0.1) for s in (2, 6, 8, 12)] \
        + [(s, 0.0) for s in (3, 4, 8)]
    for seed, mu in cases:
        n = 4 if mu == 0.0 else 8
        problem = gen_quartic(QuarticSpec(n=n, k_terms=3, seed=seed, mu_add=mu))
        x_hat, _ = reference_solve(problem, 1e-10)
        F_hat = composite_value(problem, x_hat)
        init = np.full(n, 0.5)
        trace = apg_run(problem, ApgParams(max_iters=200), init)
        anchor = (
            trace.F_init - F_hat
            + trace.alpha0**2 / (2.0 * trace.gamma0) * float((init - x_hat) @ (init - x_hat))
        )
        slack = 1e-9 * (1.0 + abs(trace.F_init))
        for row in trace.rows:
            if row.F - F_hat > row.lambda_prod * anchor + slack:
                violations.append((seed, mu, row.t))
    report(3, "descent envelope", violations)


def test_criterion_4_linear_rate_scaling():
    problem = gen_quartic(QuarticSpec(n=50, k_terms=8, seed=11, mu_add=1.0))
    init = np.zeros(50)
    evals = {}
    violations = []
    # 1e-10 sits near the objective's rounding floor, where a grow gate
    # without rounding slack let the step climb back far above the local
    # curvature bound (2191 gradients where 1e-4 takes 32)
    for eps in (1e-4, 1e-8, 1e-10):
        res = apg_terminating(problem, ApgParams(epsilon=eps), init)
        if res.certificate.residual > eps:
            violations.append((eps, "not certified"))
        evals[eps] = res.trace.counters.grad_f_evals
    for eps in (1e-8, 1e-10):
        ratio = evals[eps] / evals[1e-4]
        if not ratio <= 3.0:
            violations.append(("ratio", eps, ratio))
    print(f"    grad evals {evals[1e-4]} -> {evals[1e-8]} -> {evals[1e-10]}")
    report(4, "linear-rate scaling", violations)


def test_criterion_5_sublinear_scaling():
    # barely overdetermined quartic: the curvature at the solution is
    # near-singular, so late subproblems genuinely pay the penalty growth
    problem = gen_quartic(QuarticSpec(n=50, k_terms=51, seed=3, mu_add=0.0))
    init = np.zeros(50)
    evals = {}
    violations = []
    for eps in (1e-2, 1e-4):
        res = ppa_unconstrained(problem, OuterParams(epsilon=eps), init)
        if res.trace.rows[-1].kkt.stationarity_residual > eps:
            violations.append((eps, "not certified"))
        evals[eps] = res.trace.counters.grad_f_evals
    ratio = evals[1e-4] / evals[1e-2]
    if not 2.5 <= ratio <= 40.0:
        violations.append(("ratio", ratio))
    print(f"    grad evals {evals[1e-2]} -> {evals[1e-4]}, ratio {ratio:.2f}")
    report(5, "sublinear scaling", violations)


def test_criterion_6_kkt_certification():
    violations = []
    eps = 1e-4

    res = prox_al(ineq_quadratic_1d(), OuterParams(epsilon=eps), np.zeros(1), np.zeros(1))
    if abs(res.x[0] - 1.0) > 1e-3 or abs(res.lam[0] - 2.0) > 1e-3:
        violations.append(("ineq-1d", "pair"))
    if res.report.stationarity_residual > eps or res.report.complementarity_residual > eps:
        violations.append(("ineq-1d", "residuals"))

    res = prox_al(eq_quadratic_2d(), OuterParams(epsilon=eps), np.zeros(2), np.zeros(1))
    if np.max(np.abs(res.x - 0.5)) > 1e-3 or abs(res.lam[0] + 0.5) > 1e-3:
        violations.append(("eq-qp-2d", "pair"))
    if res.report.stationarity_residual > eps or res.report.complementarity_residual > eps:
        violations.append(("eq-qp-2d", "residuals"))

    for i, spec in enumerate(criterion6_specs()):
        inst = gen_constrained(spec)
        res = prox_al(
            inst.conic, OuterParams(epsilon=eps), inst.x_feas,
            np.zeros(inst.conic.cone.dim),
        )
        rep = res.report
        if rep.stationarity_residual > eps or rep.complementarity_residual > eps:
            violations.append((i, "residuals"))
        w_norm = float(np.linalg.norm(rep.complementarity_witness))
        if max(rep.witness_defects) > 1e-9 * (1.0 + w_norm):
            violations.append((i, "witness defects"))
    report(6, "KKT certification", violations)


def test_criterion_7_cone_and_prox_kernel():
    violations = []
    rng = np.random.default_rng(99)
    cones = [
        ConeSpec.nonneg(3),
        ConeSpec.zeros(2),
        ConeSpec(((ConeBlock.SOC, 3),)),
        ConeSpec(((ConeBlock.NONNEG, 2), (ConeBlock.ZERO, 1), (ConeBlock.SOC, 3))),
    ]
    for cone in cones:
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, cone.dim)
            dual = project_dual(cone, u)
            polar = project_polar(cone, u)
            if np.max(np.abs(dual + polar - u)) > 1e-12:
                violations.append((cone.blocks, "moreau identity"))
            if abs(float(dual @ polar)) > 1e-10 * (1.0 + float(u @ u)):
                violations.append((cone.blocks, "orthogonality"))
            if np.max(np.abs(project_polar(cone, polar) - polar)) > 1e-12:
                violations.append((cone.blocks, "idempotence"))
    terms = [
        ZeroTerm(4),
        L1Term(4, 0.3),
        BoxTerm(-np.ones(4), np.ones(4)),
        NonnegativeTerm(4),
    ]
    for term in terms:
        for _ in range(1000):
            a = rng.uniform(-5.0, 5.0, 4)
            b = rng.uniform(-5.0, 5.0, 4)
            gamma = float(rng.uniform(0.05, 3.0))
            gap = np.linalg.norm(term.prox(gamma, a) - term.prox(gamma, b)) - np.linalg.norm(a - b)
            if gap > 1e-12:
                violations.append((type(term).__name__, "nonexpansive"))
    report(7, "cone and prox kernel", violations)


def test_criterion_8_gradient_oracles():
    violations = []
    rng = np.random.default_rng(55)
    oracles = [
        ("ineq-1d", ineq_quadratic_1d().base.smooth),
        ("eq-qp-2d", eq_quadratic_2d().base.smooth),
    ]
    for seed in range(4):
        spec = QuarticSpec(n=int(rng.integers(2, 20)), k_terms=3, seed=seed, mu_add=0.5 * seed)
        oracles.append((f"quartic-{seed}", gen_quartic(spec).smooth))
    for i in range(2):
        spec = ConstrainedSpec(QuarticSpec(n=5, k_terms=3, seed=40 + i), m1=3, m2=2, seed=50 + i)
        conic = gen_constrained(spec).conic
        lam = project_dual(conic.cone, rng.uniform(-1.0, 1.0, conic.cone.dim))
        rho = float(rng.uniform(1.0, 50.0))
        center = rng.uniform(-0.5, 0.5, 5)
        sub = build_al_subproblem(conic, center, lam, rho)
        oracles.append((f"al-subproblem-{i}", sub.smooth))
    for label, oracle in oracles:
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, oracle.dim)
            err = check_gradient(oracle, x, 1e-5)
            if err > 1e-5:
                violations.append((label, err))
    report(8, "gradient oracles", violations)


def test_criterion_9_operation_accounting(suite1):
    violations = []
    for rec in suite1:
        for _, trace, _, start_grad, start_prox in rec.traces:
            for v in accounting_violations(trace, start_grad, start_prox):
                violations.append((rec.label,) + v)
    report(9, "operation accounting", violations)
