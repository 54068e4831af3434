"""Reproducible benchmark generators.

Quartic objectives f(x) = sum_j c_j (<a_j, x> - b_j)^4 / 4 + (mu/2)||x||^2
are convex with a gradient that is locally but not globally Lipschitz, which
is exactly the regime the solvers target.  All randomness comes from
numpy's PCG64 generator seeded per spec, so instances are bit-reproducible
within this package (generator name recorded as GENERATOR_NAME).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    AffineConstraint,
    Array,
    CallableSmooth,
    CompositeProblem,
    ConeSpec,
    ConicProblem,
    ProxTerm,
)
from .proxcone import ZeroTerm

GENERATOR_NAME = "numpy-pcg64"

# Smallest rows.size (k * n) for which QuarticOracle offers affine images.
# A trial on the image path saves one product with the rows, and so does a
# certificate check; each pays a few extra length-k vector operations and
# Python calls.  Timing apg_terminating on both paths (one BLAS thread,
# medians of 7 and of 15 alternating runs over two instances) puts the
# crossover here: 20,000 entries lost 3-6%, 30,000 gained 0.5-4%, 50,000
# about 7%, 200,000 about 22% and 1,000,000 about 29%.  Forming the powers
# without libm pow did not move it.
IMAGE_MIN_ENTRIES = 30_000


@dataclass(frozen=True)
class QuarticSpec:
    n: int
    k_terms: int
    seed: int
    mu_add: float = 0.0
    prox: ProxTerm | None = None


@dataclass(frozen=True)
class ConstrainedSpec:
    base: QuarticSpec
    m1: int
    m2: int
    seed: int


@dataclass(frozen=True, eq=False)
class QuarticOracle:
    """f(x) = sum_j coeffs_j (<rows_j, x> - offsets_j)^4 / 4 + (mu_add/2) ||x||^2.

    Offers affine images r = rows @ x - offsets (see SmoothOracle) when
    rows has at least IMAGE_MIN_ENTRIES entries.  Compared and hashed by
    identity, as field-wise equality over arrays would raise.
    """

    coeffs: Array
    rows: Array
    offsets: Array
    mu_add: float

    @property
    def dim(self) -> int:
        return self.rows.shape[1]

    def value(self, x: Array) -> float:
        return self.value_at(x, self.rows.dot(x) - self.offsets)

    def gradient(self, x: Array) -> Array:
        r = self.rows.dot(x) - self.offsets
        grad = self.rows.T.dot(self.coeffs * ((r * r) * r))
        if self.mu_add:
            grad = grad + self.mu_add * x
        return grad

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        return self.value_and_gradient_at(x, self.rows.dot(x) - self.offsets)

    def image(self, x: Array) -> Array | None:
        if self.rows.size < IMAGE_MIN_ENTRIES:
            return None
        return self.rows.dot(x) - self.offsets

    # The powers are products of r2 = r * r.  A float power in numpy calls
    # libm pow on every element: r**4 on a 500-vector took about 40 us,
    # against about 1 us per product.  Every entry point forms r2 and the
    # powers the same way, in the same order, so all five agree bit for bit.
    # Each forms them inline, not through a shared helper: on a small solve
    # the oracle's cost is mostly calls, and a helper adds one per evaluation.
    def value_at(self, x: Array, r: Array) -> float:
        r2 = r * r
        out = 0.25 * float(self.coeffs.dot(r2 * r2))
        if self.mu_add:
            out += 0.5 * self.mu_add * float(x.dot(x))
        return out

    def value_and_gradient_at(self, x: Array, r: Array) -> tuple[float, Array]:
        r2 = r * r
        out = 0.25 * float(self.coeffs.dot(r2 * r2))
        if self.mu_add:
            out += 0.5 * self.mu_add * float(x.dot(x))
        grad = self.rows.T.dot(self.coeffs * (r2 * r))
        if self.mu_add:
            grad = grad + self.mu_add * x
        return out, grad


def quartic_from_arrays(coeffs, rows, offsets, mu_add=0.0, prox: ProxTerm | None = None) -> CompositeProblem:
    """Composite problem from explicit quartic data (no randomness)."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    oracle = QuarticOracle(
        coeffs=np.asarray(coeffs, dtype=float),
        rows=rows,
        offsets=np.asarray(offsets, dtype=float),
        mu_add=float(mu_add),
    )
    term = prox if prox is not None else ZeroTerm(oracle.dim)
    return CompositeProblem(smooth=oracle, nonsmooth=term, mu=float(mu_add))


def gen_quartic(spec: QuarticSpec) -> CompositeProblem:
    """Random convex quartic composite problem, deterministic in spec.seed.

    Coefficients c_j in [0.5, 1.5], directions a_j with entries in [-1, 1],
    offsets b_j in [-1, 1]; the returned convexity modulus equals mu_add.
    """
    if spec.n < 1 or spec.k_terms < 1:
        raise ValueError("n and k_terms must be positive")
    rng = np.random.default_rng(spec.seed)
    coeffs = rng.uniform(0.5, 1.5, size=spec.k_terms)
    rows = rng.uniform(-1.0, 1.0, size=(spec.k_terms, spec.n))
    offsets = rng.uniform(-1.0, 1.0, size=spec.k_terms)
    return quartic_from_arrays(coeffs, rows, offsets, spec.mu_add, spec.prox)


@dataclass(frozen=True)
class ConstrainedInstance:
    """Generated conic problem plus the data needed by tests.

    x_feas satisfies the inequalities strictly and the equalities exactly;
    the affine pieces are exposed so adjoint products can be checked against
    explicit transposes.
    """

    conic: ConicProblem
    x_feas: Array
    ineq_matrix: Array
    eq_matrix: Array


def gen_constrained(spec: ConstrainedSpec) -> ConstrainedInstance:
    """Affinely constrained quartic with a stored strictly feasible point.

    g(x) = (Bx - d; Cx - e) with K the product of a nonnegative orthant
    (size m1) and a zero cone (size m2); d and e are chosen from a sampled
    interior point so feasibility holds by construction.  Constraint rows
    are normalized to unit length, which keeps the augmented-Lagrangian
    curvature proportional to the penalty weight rather than to m * n.
    """
    base = gen_quartic(spec.base)
    n = base.dim
    rng = np.random.default_rng(spec.seed)
    B = rng.uniform(-1.0, 1.0, size=(spec.m1, n))
    C = rng.uniform(-1.0, 1.0, size=(spec.m2, n))
    B /= np.linalg.norm(B, axis=1, keepdims=True)
    C /= np.linalg.norm(C, axis=1, keepdims=True)
    x_feas = rng.uniform(-0.5, 0.5, size=n)
    slack = rng.uniform(0.2, 1.0, size=spec.m1)
    d = B.dot(x_feas) + slack
    e = C.dot(x_feas)
    constraint = AffineConstraint(matrix=np.vstack([B, C]), shift=-np.concatenate([d, e]))
    cone = ConeSpec.orthant_and_zero(spec.m1, spec.m2)
    conic = ConicProblem(base=base, constraint=constraint, cone=cone)
    gval = constraint.value(x_feas)
    if not np.all(gval[: spec.m1] < 0):
        raise RuntimeError("generation failed: sampled point is not strictly feasible")
    if not np.all(np.abs(gval[spec.m1 :]) <= 1e-12):
        raise RuntimeError("generation failed: equality residual exceeds 1e-12")
    return ConstrainedInstance(conic=conic, x_feas=x_feas, ineq_matrix=B, eq_matrix=C)


def ineq_quadratic_1d() -> ConicProblem:
    """min x^2 subject to 1 - x <= 0; optimal pair is x = 1, lam = 2."""
    smooth = CallableSmooth(
        1, lambda x: float(x[0] ** 2), lambda x: np.array([2.0 * x[0]])
    )
    problem = CompositeProblem(smooth=smooth, nonsmooth=ZeroTerm(1), mu=2.0)
    constraint = AffineConstraint(matrix=np.array([[-1.0]]), shift=np.array([1.0]))
    return ConicProblem(base=problem, constraint=constraint, cone=ConeSpec.nonneg(1))


def eq_quadratic_2d() -> ConicProblem:
    """min ||x||^2/2 subject to x1 + x2 = 1; optimal pair is (0.5, 0.5), lam = -0.5."""
    smooth = CallableSmooth(2, lambda x: 0.5 * float(x.dot(x)), lambda x: x.copy())
    problem = CompositeProblem(smooth=smooth, nonsmooth=ZeroTerm(2), mu=1.0)
    constraint = AffineConstraint(matrix=np.array([[1.0, 1.0]]), shift=np.array([-1.0]))
    return ConicProblem(base=problem, constraint=constraint, cone=ConeSpec.zeros(1))
