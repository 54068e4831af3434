import math

import numpy as np
import pytest

from proxcert import BoxTerm, CompositeProblem
from proxcert.problems import (
    ConstrainedSpec,
    QuarticSpec,
    eq_quadratic_2d,
    gen_constrained,
    gen_quartic,
    ineq_quadratic_1d,
    quartic_from_arrays,
)

from conftest import make_quadratic, make_quartic_1d
from helpers import reference_solve


class TestGenQuartic:
    def test_canonical_atom(self):
        problem = quartic_from_arrays([1.0], [[1.0]], [0.0])
        x = np.array([1.3])
        assert problem.smooth.value(x) == pytest.approx(1.3**4 / 4, abs=1e-15)
        assert problem.smooth.gradient(x)[0] == pytest.approx(1.3**3, abs=1e-15)
        assert problem.mu == 0.0

    def test_deterministic_in_seed(self):
        spec = QuarticSpec(n=3, k_terms=4, seed=7, mu_add=0.3)
        a, b = gen_quartic(spec), gen_quartic(spec)
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, 3)
            assert a.smooth.value(x) == b.smooth.value(x)
            assert np.array_equal(a.smooth.gradient(x), b.smooth.gradient(x))

    def test_mu_matches_spec(self):
        assert gen_quartic(QuarticSpec(n=2, k_terms=1, seed=0, mu_add=0.7)).mu == 0.7

    def test_finite_difference_hessian_is_psd(self):
        problem = gen_quartic(QuarticSpec(n=2, k_terms=3, seed=7))
        rng = np.random.default_rng(7)
        h = 1e-4
        for _ in range(100):
            x = rng.uniform(-1.5, 1.5, 2)
            H = np.empty((2, 2))
            for i in range(2):
                step = np.zeros(2)
                step[i] = h
                H[i] = (problem.smooth.gradient(x + step) - problem.smooth.gradient(x - step)) / (2 * h)
            H = 0.5 * (H + H.T)
            assert np.linalg.eigvalsh(H).min() >= -1e-10

    def test_convexity_probe(self):
        problem = gen_quartic(QuarticSpec(n=4, k_terms=3, seed=11))
        rng = np.random.default_rng(2)
        f = problem.smooth.value
        for _ in range(1000):
            x = rng.uniform(-2.0, 2.0, 4)
            y = rng.uniform(-2.0, 2.0, 4)
            t = float(rng.uniform(0.0, 1.0))
            slack = 1e-9 * (1.0 + abs(f(x)) + abs(f(y)))
            assert f(t * x + (1 - t) * y) <= t * f(x) + (1 - t) * f(y) + slack

    def test_strong_convexity_probe(self):
        mu = 0.4
        problem = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=5, mu_add=mu))
        rng = np.random.default_rng(3)
        f, grad = problem.smooth.value, problem.smooth.gradient
        for _ in range(500):
            x = rng.uniform(-2.0, 2.0, 3)
            y = rng.uniform(-2.0, 2.0, 3)
            lower = f(x) + float(grad(x) @ (y - x)) + 0.5 * mu * float((y - x) @ (y - x))
            assert f(y) >= lower - 1e-9 * (1.0 + abs(f(x)) + abs(f(y)))

    @pytest.mark.parametrize("k", [1, 8, 500])
    @pytest.mark.parametrize("mu_add", [0.0, 0.3])
    def test_powers_match_a_pow_reference(self, k, mu_add):
        # the oracle forms r**4 and r**3 from products of r * r; against libm
        # pow with exactly summed terms it must agree to a few ulps of the
        # sum of the term magnitudes, for |r| from 1e-3 up to 1e3
        eps = np.finfo(float).eps
        n = 7
        rng = np.random.default_rng(k)
        base = gen_quartic(QuarticSpec(n=n, k_terms=k, seed=k)).smooth
        x = rng.uniform(-2.0, 2.0, n)
        target = rng.uniform(-1.0, 1.0, k) * 10.0 ** rng.uniform(-3.0, 3.0, k)
        oracle = quartic_from_arrays(base.coeffs, base.rows, base.rows @ x - target, mu_add).smooth
        r = oracle.rows @ x - oracle.offsets
        assert np.abs(r).max() > 100.0 or k < 500
        quartic = oracle.coeffs * r**4
        ridge = 0.5 * mu_add * math.fsum(x * x)
        scale = 0.25 * math.fsum(np.abs(quartic)) + ridge
        assert abs(oracle.value(x) - (0.25 * math.fsum(quartic) + ridge)) <= 8 * eps * scale
        cubic = oracle.coeffs * r**3
        grad = oracle.gradient(x)
        for i in range(n):
            terms = np.append(oracle.rows[:, i] * cubic, mu_add * x[i])
            assert abs(grad[i] - math.fsum(terms)) <= 8 * eps * math.fsum(np.abs(terms))

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            gen_quartic(QuarticSpec(n=0, k_terms=1, seed=0))


class TestGenConstrained:
    def test_stored_point_is_strictly_feasible(self):
        spec = ConstrainedSpec(QuarticSpec(n=6, k_terms=3, seed=2), m1=4, m2=2, seed=9)
        inst = gen_constrained(spec)
        gval = inst.conic.constraint.value(inst.x_feas)
        assert np.all(gval[:4] < 0)
        assert np.max(np.abs(gval[4:])) <= 1e-12

    def test_adjoint_matches_explicit_transpose(self):
        spec = ConstrainedSpec(QuarticSpec(n=5, k_terms=2, seed=3), m1=3, m2=2, seed=4)
        inst = gen_constrained(spec)
        full = np.vstack([inst.ineq_matrix, inst.eq_matrix])
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.uniform(-1.0, 1.0, 5)
            v = rng.uniform(-1.0, 1.0, full.shape[0])
            out = inst.conic.constraint.adjoint_apply(x, v)
            assert np.max(np.abs(out - full.T @ v)) <= 1e-12

    def test_empty_constraints_equal_base(self):
        spec = ConstrainedSpec(QuarticSpec(n=3, k_terms=2, seed=8), m1=0, m2=0, seed=1)
        inst = gen_constrained(spec)
        assert inst.conic.cone.dim == 0
        assert inst.conic.constraint.m == 0
        x = np.array([0.1, -0.2, 0.5])
        base = gen_quartic(spec.base)
        assert inst.conic.base.smooth.value(x) == base.smooth.value(x)

    @pytest.mark.parametrize("m1, m2", [(0, 2), (3, 0), (0, 0)])
    def test_an_empty_block_takes_the_general_path(self, m1, m2):
        # no block is special-cased: the rows are unit length, the matrix
        # stacks both blocks, and the stored point is feasible
        inst = gen_constrained(ConstrainedSpec(QuarticSpec(n=4, k_terms=2, seed=8), m1, m2, seed=1))
        matrix = inst.conic.constraint.matrix
        assert matrix.shape == (m1 + m2, 4)
        assert np.array_equal(matrix, np.vstack([inst.ineq_matrix, inst.eq_matrix]))
        assert np.allclose(np.linalg.norm(matrix, axis=1), 1.0, rtol=0, atol=1e-15)
        gval = inst.conic.constraint.value(inst.x_feas)
        assert np.all(gval[:m1] < 0) and np.all(np.abs(gval[m1:]) <= 1e-12)

    def test_handcrafted_kkt_algebra(self):
        # stationarity of the 1-D instance at (1, 2): 2x - lam = 0
        ineq = ineq_quadratic_1d()
        x, lam = np.array([1.0]), np.array([2.0])
        s = ineq.base.smooth.gradient(x) + ineq.constraint.adjoint_apply(x, lam)
        assert s[0] == 0.0
        assert ineq.constraint.value(x)[0] == 0.0
        # equality QP at ((0.5, 0.5), -0.5): x + lam * (1, 1) = 0
        eq = eq_quadratic_2d()
        x2, lam2 = np.array([0.5, 0.5]), np.array([-0.5])
        s2 = eq.base.smooth.gradient(x2) + eq.constraint.adjoint_apply(x2, lam2)
        assert np.array_equal(s2, np.zeros(2))
        assert eq.constraint.value(x2)[0] == 0.0


class TestReferenceSolve:
    def test_quadratic_residual_identity(self):
        x, residual = reference_solve(make_quadratic(mu=1.0), 1e-10)
        assert residual <= 1e-10
        assert abs(x[0]) <= 1e-10

    def test_quartic_via_proximal_point(self):
        x, residual = reference_solve(make_quartic_1d(), 1e-9)
        assert residual <= 1e-9
        assert abs(x[0]) ** 3 <= 1e-9

    def test_active_box_constraint(self):
        problem = CompositeProblem(
            make_quadratic().smooth, BoxTerm(np.array([1.0]), np.array([2.0])), mu=1.0
        )
        x, residual = reference_solve(problem, 1e-10)
        assert residual <= 1e-10
        assert abs(x[0] - 1.0) <= 1e-10

    def test_tol_floor(self):
        with pytest.raises(ValueError, match="tol"):
            reference_solve(make_quadratic(), 1e-13)
