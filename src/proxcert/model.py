"""Problem containers, oracle protocols, and evaluation counting.

Oracles are pure functions of x.  Evaluation counting lives in thin wrappers
produced by :func:`instrument_composite`, never in the oracles themselves,
so problems stay immutable and shareable.  Every accelerated solve wraps
the problem it is given, so these wrappers book every gradient and prox
call of every solver, the outer loop's subproblems included; the
subproblem oracle (``outer.SubproblemOracle``) books only the constraint
map, adjoint and cone-projection calls, which the wrappers cannot see.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Protocol, runtime_checkable

import numpy as np

Array = np.ndarray


class LineSearchFailure(RuntimeError):
    """Backtracking exhausted its budget.

    Signals a non-convex oracle, an inconsistent gradient, or iterates
    escaping into a region of unbounded curvature.
    """


class NonFiniteOracleOutput(LineSearchFailure):
    """A backtracking trial met a non-finite value or gradient.

    Raised at the first such trial instead of exhausting the backtracking
    budget; it subclasses LineSearchFailure, so handlers of that still
    catch it.
    """


class InvariantViolation(AssertionError):
    """A solver guarantee failed to hold at run time.

    Raised instead of ``assert`` so that the check survives ``python -O``;
    it signals a defect in the solver or an oracle, not bad input.  It
    subclasses AssertionError, which the bare asserts it replaces raised.
    """


class SolveTimeout(RuntimeError):
    """Iteration budget exhausted before certification.

    Carries the partial trace in ``trace``; its ``best`` is the best
    certificate (accelerated solver) or KKT report (outer loop) seen so far.
    """

    def __init__(self, message: str, *, trace):
        super().__init__(message)
        self.trace = trace


@runtime_checkable
class SmoothOracle(Protocol):
    """Differentiable term: value(x) and gradient(x), both finite on dom(P).

    An oracle may also define ``value_and_gradient(x) -> (value, gradient)``
    to share work between the two at one point (a residual, a projection);
    the solvers call it through :func:`value_and_gradient`, which falls back
    to the two separate calls when it is absent.  It must return exactly
    what ``value(x)`` and ``gradient(x)`` would.

    An oracle of the form f(x) = h(A x - b) + q(x) may also offer three
    methods that let the accelerated solver carry affine images from one
    iteration to the next instead of multiplying by A again:
    ``image(x)`` returns A x - b, or None when caching does not pay (the
    solver then keeps the plain path for the whole solve);
    ``value_at(x, r)`` and ``value_and_gradient_at(x, r)`` return what
    ``value(x)`` and ``value_and_gradient(x)`` would, given r = A x - b.
    Given r = image(x) they must agree bit for bit: certificate checks
    value their candidates and take the witness gradient from raw images.
    Within an iteration the solver forms images of combinations of points
    as the same combinations of images, which agree with ``image`` to
    rounding.
    """

    dim: int

    def value(self, x: Array) -> float: ...

    def gradient(self, x: Array) -> Array: ...


@runtime_checkable
class ProxTerm(Protocol):
    """Possibly nonsmooth term with an exactly computable proximal map.

    ``value`` may return +inf outside the domain; ``prox(gamma, z)`` is the
    unique minimizer of gamma*P(x) + 0.5*||x - z||^2 and always lands in the
    domain.
    """

    dim: int

    def value(self, x: Array) -> float: ...

    def prox(self, gamma: float, z: Array) -> Array: ...


def value_and_gradient(oracle: SmoothOracle, x: Array) -> tuple[float, Array]:
    """(value(x), gradient(x)) in one fused call when the oracle offers one."""
    return fused_method(oracle)(x)


def fused_method(oracle: SmoothOracle) -> Callable[[Array], tuple[float, Array]]:
    """What :func:`value_and_gradient` calls on ``oracle``, looked up once.

    A wrapper that evaluates one oracle on every trial resolves it at
    construction instead of on every call.
    """
    fused = getattr(oracle, "value_and_gradient", None)
    if fused is not None:
        return fused
    value, gradient = oracle.value, oracle.gradient
    return lambda x: (value(x), gradient(x))


@dataclass(frozen=True)
class CallableSmooth:
    """Smooth oracle assembled from plain callables.

    ``value_and_gradient_fn``, when given, returns both outputs at once and
    must agree with the separate callables.
    """

    dim: int
    value_fn: Callable[[Array], float]
    gradient_fn: Callable[[Array], Array]
    value_and_gradient_fn: Callable[[Array], tuple[float, Array]] | None = None

    def value(self, x: Array) -> float:
        return float(self.value_fn(x))

    def gradient(self, x: Array) -> Array:
        return np.asarray(self.gradient_fn(x), dtype=float)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        if self.value_and_gradient_fn is None:
            return self.value(x), self.gradient(x)
        f, g = self.value_and_gradient_fn(x)
        return float(f), np.asarray(g, dtype=float)


@dataclass(frozen=True)
class CompositeProblem:
    """min f(x) + P(x) with smooth f (finite convexity modulus mu >= 0) and prox-capable P."""

    smooth: SmoothOracle
    nonsmooth: ProxTerm
    mu: float = 0.0

    def __post_init__(self):
        for part in ("smooth", "nonsmooth"):
            require_count(f"{part} dim", getattr(self, part).dim)
        if self.smooth.dim != self.nonsmooth.dim:
            raise ValueError(
                f"dimension mismatch: smooth dim {self.smooth.dim} != "
                f"nonsmooth dim {self.nonsmooth.dim}"
            )
        if not 0 <= self.mu < math.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {self.mu}")

    @property
    def dim(self) -> int:
        return self.smooth.dim


@runtime_checkable
class ConstraintMap(Protocol):
    """Constraint map g with matrix-free adjoint Jacobian products.

    ``adjoint_apply(x, v)`` computes the action of the transposed Jacobian of
    g at x on v, i.e. the gradient of x -> <v, g(x)>.
    """

    n: int
    m: int

    def value(self, x: Array) -> Array: ...

    def adjoint_apply(self, x: Array, v: Array) -> Array: ...


@dataclass(frozen=True, eq=False)
class AffineConstraint:
    """g(x) = matrix @ x + shift.

    Compared and hashed by identity (``eq=False``): generated field-wise
    equality would compare the arrays elementwise and raise.
    """

    matrix: Array
    shift: Array

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "shift", np.asarray(self.shift, dtype=float))
        if self.matrix.ndim != 2 or self.shift.shape != (self.matrix.shape[0],):
            raise ValueError("matrix must be (m, n) with shift of length m")
        for name in ("matrix", "shift"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")

    @property
    def n(self) -> int:
        return self.matrix.shape[1]

    @property
    def m(self) -> int:
        return self.matrix.shape[0]

    def value(self, x: Array) -> Array:
        return self.matrix @ x + self.shift

    def adjoint_apply(self, x: Array, v: Array) -> Array:
        return self.matrix.T @ v


@dataclass(frozen=True)
class CallableConstraint:
    """Matrix-free constraint map from callables."""

    n: int
    m: int
    value_fn: Callable[[Array], Array]
    adjoint_fn: Callable[[Array, Array], Array]

    def value(self, x: Array) -> Array:
        return np.asarray(self.value_fn(x), dtype=float)

    def adjoint_apply(self, x: Array, v: Array) -> Array:
        return np.asarray(self.adjoint_fn(x, v), dtype=float)


class ConeBlock(Enum):
    NONNEG = "nonneg"
    ZERO = "zero"
    SOC = "soc"


@dataclass(frozen=True)
class ConeSpec:
    """Product cone: ordered blocks of nonnegative-orthant, zero, and second-order cones.

    Second-order blocks store the scalar coordinate first: (t, xbar) with
    ||xbar|| <= t.  ``dim``, ``has_soc``, ``zero_slices`` (the coordinates
    of each zero block) and ``dual_floor`` are derived from the blocks once,
    at construction.  For a cone with no SOC block, ``dual_floor`` is the
    read-only vector that is 0 on orthant and -inf on zero-block coordinates,
    so that the projection onto K* is ``np.maximum(u, dual_floor)``; with an
    SOC block it is None.
    """

    blocks: tuple[tuple[ConeBlock, int], ...]
    dim: int = field(init=False, repr=False, compare=False)
    has_soc: bool = field(init=False, repr=False, compare=False)
    zero_slices: tuple[slice, ...] = field(init=False, repr=False, compare=False)
    dual_floor: Array | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for kind, size in self.blocks:
            require_count(f"{ConeBlock(kind).value} block size", size)
        blocks = tuple((ConeBlock(kind), int(size)) for kind, size in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        zero_slices = []
        start = 0
        for kind, size in blocks:
            if kind is ConeBlock.ZERO:
                zero_slices.append(slice(start, start + size))
            start += size
        has_soc = any(kind is ConeBlock.SOC for kind, _ in blocks)
        floor = None
        if not has_soc:
            floor = np.zeros(start)
            for zero in zero_slices:
                floor[zero] = -np.inf
            floor.flags.writeable = False
        object.__setattr__(self, "dim", start)
        object.__setattr__(self, "has_soc", has_soc)
        object.__setattr__(self, "zero_slices", tuple(zero_slices))
        object.__setattr__(self, "dual_floor", floor)

    @classmethod
    def nonneg(cls, m: int) -> "ConeSpec":
        return cls(((ConeBlock.NONNEG, m),)) if m else cls(())

    @classmethod
    def zeros(cls, m: int) -> "ConeSpec":
        return cls(((ConeBlock.ZERO, m),)) if m else cls(())

    @classmethod
    def orthant_and_zero(cls, m1: int, m2: int) -> "ConeSpec":
        blocks = []
        if m1:
            blocks.append((ConeBlock.NONNEG, m1))
        if m2:
            blocks.append((ConeBlock.ZERO, m2))
        return cls(tuple(blocks))


@dataclass(frozen=True)
class ConicProblem:
    """CompositeProblem subject to -g(x) in K for a product cone K."""

    base: CompositeProblem
    constraint: ConstraintMap
    cone: ConeSpec

    def __post_init__(self):
        if self.constraint.n != self.base.dim:
            raise ValueError(
                f"constraint input dim {self.constraint.n} != problem dim {self.base.dim}"
            )
        if self.cone.dim != self.constraint.m:
            raise ValueError(
                f"cone dim {self.cone.dim} != constraint output dim {self.constraint.m}"
            )

    @classmethod
    def unconstrained(cls, base: CompositeProblem) -> "ConicProblem":
        """``base`` under no constraint: an empty affine map into the empty cone."""
        return cls(base, AffineConstraint(np.zeros((0, base.dim)), np.zeros(0)), ConeSpec(()))


@dataclass
class OracleCounters:
    """Evaluation tallies for one solver invocation (single writer)."""

    grad_f_evals: int = 0
    prox_evals: int = 0
    g_evals: int = 0
    adjoint_evals: int = 0
    cone_proj_evals: int = 0


class _CountingSmooth:
    # Real methods, not __getattr__ forwarding: the image methods run once
    # per backtracking trial.  An image or a value from an image books
    # nothing, like value(); a gradient from an image books one.
    def __init__(self, inner: SmoothOracle, counters: OracleCounters):
        self._inner = inner
        self._counters = counters
        self._image = getattr(inner, "image", None)
        self._fused = fused_method(inner)
        self.dim = inner.dim

    def image(self, x: Array) -> Array | None:
        return None if self._image is None else self._image(x)

    def value_at(self, x: Array, r: Array) -> float:
        return self._inner.value_at(x, r)

    def value_and_gradient_at(self, x: Array, r: Array) -> tuple[float, Array]:
        self._counters.grad_f_evals += 1
        return self._inner.value_and_gradient_at(x, r)

    def value(self, x: Array) -> float:
        return self._inner.value(x)

    def gradient(self, x: Array) -> Array:
        self._counters.grad_f_evals += 1
        return self._inner.gradient(x)

    def value_and_gradient(self, x: Array) -> tuple[float, Array]:
        self._counters.grad_f_evals += 1
        return self._fused(x)


class _CountingProx:
    def __init__(self, inner: ProxTerm, counters: OracleCounters):
        self._inner = inner
        self._counters = counters
        self.dim = inner.dim

    def value(self, x: Array) -> float:
        return self._inner.value(x)

    def prox(self, gamma: float, z: Array) -> Array:
        self._counters.prox_evals += 1
        return self._inner.prox(gamma, z)


def instrument_composite(problem: CompositeProblem, counters: OracleCounters) -> CompositeProblem:
    """Wrap a problem so gradient/prox calls bump the given counters."""
    return CompositeProblem(
        smooth=_CountingSmooth(problem.smooth, counters),
        nonsmooth=_CountingProx(problem.nonsmooth, counters),
        mu=problem.mu,
    )


def require_count(name: str, value) -> None:
    """Raise ValueError unless ``value`` is an integer of at least 1; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
