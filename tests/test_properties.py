"""Property tests: params resolve once, and certificates recompute from the raw oracle.

Hypothesis runs derandomized and without an example database, so every run
draws the same examples.
"""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from proxcert import (  # noqa: E402
    ApgParams,
    BoxTerm,
    L1Term,
    NonnegativeTerm,
    OuterParams,
    ZeroTerm,
    apg_terminating,
    ppa_unconstrained,
)
from proxcert.problems import QuarticSpec, gen_quartic  # noqa: E402

SETTINGS = hypothesis.settings(
    derandomize=True, database=None, deadline=None, max_examples=50
)

PROX = {
    "zero": ZeroTerm,
    "l1": lambda n: L1Term(n, 0.1),
    "nonneg": NonnegativeTerm,
    "box": lambda n: BoxTerm(np.full(n, -0.5), np.full(n, 0.5)),
}

moduli = st.one_of(st.just(0.0), st.floats(1e-6, 1e6))


@SETTINGS
@hypothesis.given(
    gamma0=st.floats(1e-6, 1e6),
    alpha0=st.floats(1e-6, 1.0),
    mu=moduli,
    at_lower=st.booleans(),
)
def test_apg_params_resolve_once(gamma0, alpha0, mu, at_lower):
    # an alpha0 of 1 is never rejected, so this gamma0 is the clamped one
    step = ApgParams(gamma0=gamma0).resolved(mu).gamma0
    lower = math.sqrt(mu * step)
    if at_lower:  # within the 1e-12 that resolved lifts
        alpha0 = min(1.0, max(lower - 5e-13, 1e-300))
    params = ApgParams(gamma0=gamma0, alpha0=alpha0)
    if alpha0 < lower - 1e-12:
        with pytest.raises(ValueError, match="alpha0"):
            params.resolved(mu)
        return
    resolved = params.resolved(mu)
    assert resolved.resolved(mu) is resolved
    assert resolved.gamma0 == step <= gamma0
    if mu > 0:
        assert mu * resolved.gamma0 < 1.0
        assert math.sqrt(mu * resolved.gamma0) <= resolved.alpha0 <= 1.0


@SETTINGS
@hypothesis.given(rho0=st.one_of(st.none(), st.floats(1e-6, 1e6)), mu=moduli)
def test_outer_params_resolve_once(rho0, mu):
    resolved = OuterParams(epsilon=1e-4, rho0=rho0).resolved(mu)
    assert resolved.resolved(mu) is resolved
    assert 0 < resolved.rho0 < math.inf
    if rho0 is not None:
        assert resolved.rho0 == rho0


# (n, k_terms, seed, prox)
problems = st.tuples(
    st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**16), st.sampled_from(sorted(PROX))
)


@SETTINGS
@hypothesis.given(spec=problems, mu_add=st.floats(0.01, 4.0))
def test_apg_certificate_recomputes_from_the_raw_oracle(spec, mu_add):
    n, k_terms, seed, prox = spec
    problem = gen_quartic(QuarticSpec(n, k_terms, seed, mu_add, PROX[prox](n)))
    cert = apg_terminating(problem, ApgParams(epsilon=1e-6), np.zeros(n)).certificate
    grad = problem.smooth.gradient
    gamma = cert.gamma_tilde
    x_tilde = problem.nonsmooth.prox(gamma, cert.x_pre - gamma * grad(cert.x_pre))
    assert np.array_equal(x_tilde, cert.x_tilde)
    witness = (cert.x_pre - x_tilde) / gamma + grad(x_tilde) - grad(cert.x_pre)
    assert np.array_equal(witness, cert.witness)
    assert cert.residual == math.sqrt(witness @ witness) <= 1e-6


@SETTINGS
@hypothesis.given(spec=problems)
def test_ppa_witness_recomputes_from_the_last_row(spec):
    # s = u - (x_tilde - c)/rho, for the last step's witness u, center c and
    # weight rho, lies in dF(x_tilde) of the mu = 0 problem itself
    n, k_terms, seed, prox = spec
    epsilon = 1e-6
    problem = gen_quartic(QuarticSpec(n, k_terms, seed, 0.0, PROX[prox](n)))
    res = ppa_unconstrained(problem, OuterParams(epsilon=epsilon), np.zeros(n))
    last = res.trace.rows[-1]
    cert = last.certificate
    s = cert.witness - (cert.x_tilde - last.center) / last.rho_k
    assert np.linalg.norm(res.witness - s) <= 1e-2 * epsilon
    assert last.kkt.stationarity_residual <= epsilon
