"""The affine-image path of the accelerated solver against the plain path.

A QuarticOracle at or above IMAGE_MIN_ENTRIES offers images A x - b, and the
solver then carries them in its state.  The plain path is forced by a
CallableSmooth over the same oracle's value, gradient and fused methods,
which offers no images.
"""

from collections import Counter

import numpy as np
import pytest

from proxcert import (
    ApgParams,
    CallableSmooth,
    CompositeProblem,
    L1Term,
    OracleCounters,
    apg_run,
    apg_terminating,
    certified_prox_step,
    initial_state,
    instrument_composite,
)
from proxcert.problems import IMAGE_MIN_ENTRIES, QuarticSpec, gen_quartic

from helpers import (
    accepted_trial,
    accounting_violations,
    recorded_iterates,
    trajectory_invariant_violations,
)

K, N = 60, 500  # just above the gate, small enough for a fast suite


def above_gate(seed=5):
    return gen_quartic(
        QuarticSpec(n=N, k_terms=K, seed=seed, mu_add=0.1, prox=L1Term(N, 0.01))
    )


def plain(problem):
    s = problem.smooth
    smooth = CallableSmooth(s.dim, s.value, s.gradient, s.value_and_gradient)
    return CompositeProblem(smooth, problem.nonsmooth, mu=problem.mu)


@pytest.fixture(scope="module")
def pair():
    problem = above_gate()
    params = ApgParams(epsilon=1e-6, M=5)
    x0 = np.full(N, 0.1)
    with recorded_iterates() as rec:
        images = apg_terminating(problem, params, x0)
    return problem, images, rec.states, apg_terminating(plain(problem), params, x0)


def test_the_gate_selects_from_the_matrix_size():
    assert K * N >= IMAGE_MIN_ENTRIES
    x = np.ones(N)
    oracle = above_gate().smooth
    assert np.array_equal(oracle.image(x), oracle.rows @ x - oracle.offsets)
    small = gen_quartic(QuarticSpec(n=N, k_terms=IMAGE_MIN_ENTRIES // N - 1, seed=5)).smooth
    assert small.image(x) is None
    params = ApgParams(epsilon=1e-6)
    assert initial_state(above_gate(), params, x).rx is not None
    assert initial_state(plain(above_gate()), params, x).rx is None


def test_counts_and_iterates_match_the_plain_path(pair):
    _, images, _, direct = pair
    assert [r.n_t for r in images.trace.rows] == [r.n_t for r in direct.trace.rows]
    assert [r.cert_backtracks for r in images.trace.rows] == [
        r.cert_backtracks for r in direct.trace.rows
    ]
    assert images.trace.counters == direct.trace.counters
    assert np.linalg.norm(images.x - direct.x) <= 1e-10 * np.linalg.norm(direct.x)


def test_accounting_and_trajectory_invariants_hold(pair):
    problem, images, states, _ = pair
    assert any(row.certificate is not None for row in images.trace.rows)
    assert accounting_violations(images.trace) == []
    assert trajectory_invariant_violations(problem, images.trace, states) == []


def test_a_recorded_state_reproduces_its_accepted_trial(pair):
    # the re-evaluated trial reads the state's images, as the solver's did,
    # so it lands on the next state bit for bit
    problem, images, states, _ = pair
    assert states[0].rx is not None
    for row, state, new in zip(images.trace.rows, states, states[1:]):
        trial = accepted_trial(problem, row, state)
        for got, want in zip(
            (trial.x_new, trial.z_new, trial.rx_new, trial.rz_new), (new.x, new.z, new.rx, new.rz)
        ):
            assert np.array_equal(got, want), row.t


def test_certificate_recomputes_bit_for_bit_from_the_raw_oracle(pair):
    problem, images, _, _ = pair
    cert = images.certificate
    grad = problem.smooth.gradient
    x_tilde = problem.nonsmooth.prox(
        cert.gamma_tilde, cert.x_pre - cert.gamma_tilde * grad(cert.x_pre)
    )
    assert np.array_equal(x_tilde, cert.x_tilde)
    witness = (cert.x_pre - x_tilde) / cert.gamma_tilde + grad(x_tilde) - grad(cert.x_pre)
    assert np.array_equal(witness, cert.witness)
    assert cert.residual <= 1e-6


class Tally:
    """Forwards to a smooth oracle and counts the calls of each method."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = Counter()

    def _forward(self, name, *args):
        self.calls[name] += 1
        return getattr(self.inner, name)(*args)

    def value(self, x):
        return self._forward("value", x)

    def gradient(self, x):
        return self._forward("gradient", x)

    def value_and_gradient(self, x):
        return self._forward("value_and_gradient", x)

    def image(self, x):
        return self._forward("image", x)

    def value_at(self, x, r):
        return self._forward("value_at", x, r)

    def value_and_gradient_at(self, x, r):
        return self._forward("value_and_gradient_at", x, r)


def test_a_trial_maps_one_new_point():
    # products with A: one in image(z_new), one (the transpose) in the
    # gradient from an image; value_at and the image combinations need none
    base = above_gate()
    tally = Tally(base.smooth)
    trace = apg_run(
        CompositeProblem(tally, base.nonsmooth, mu=base.mu),
        ApgParams(max_iters=20), np.zeros(N),
    )
    trials = sum(row.n_t + 1 for row in trace.rows)
    assert trials > len(trace.rows)  # some trials backtracked
    assert tally.calls == Counter(
        image=1 + trials,
        value_at=1 + trials,  # F at the start point, from its image
        value_and_gradient_at=trials,
    )


def test_a_certificate_check_maps_each_candidate_once():
    # products with A: two in the probe's fused call, one per candidate in
    # image(), and one (the transpose) in the witness gradient at x_tilde,
    # taken from the accepted candidate's own raw image
    base = above_gate()
    tally = Tally(base.smooth)
    counters = OracleCounters()
    problem = instrument_composite(CompositeProblem(tally, base.nonsmooth, mu=base.mu), counters)
    v = np.full(N, 0.1)
    cert, n_tilde = certified_prox_step(problem, v, 1.0, ApgParams())
    assert n_tilde > 0  # some candidates backtracked
    assert tally.calls == Counter(
        value_and_gradient=1,
        image=n_tilde + 1,
        value_at=n_tilde + 1,
        value_and_gradient_at=1,
    )
    assert (counters.grad_f_evals, counters.prox_evals) == (2, n_tilde + 1)
    direct, n_direct = certified_prox_step(plain(base), v, 1.0, ApgParams())
    assert n_direct == n_tilde
    assert np.array_equal(cert.x_tilde, direct.x_tilde)
    assert np.array_equal(cert.witness, direct.witness)
