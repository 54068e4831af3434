"""Closed-form proximal operators and product-cone projections.

All functions here are stateless and safe for concurrent use.  Projections
follow the Moreau decomposition: for any u, u = project_dual(u) +
project_polar(u) with the two parts orthogonal; project_polar maps onto -K
and project_dual onto the dual cone K*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Array, ConeBlock, ConeSpec

# Slack for indicator-domain membership: absorbs last-ulp rounding when
# convex combinations of in-domain points are formed in binary64.
_EDGE = 16.0 * np.finfo(float).eps


def _as_vector(z, dim: int, name: str) -> Array:
    z = np.asarray(z, dtype=float)
    if z.shape != (dim,):
        raise ValueError(f"{name} has shape {z.shape}, expected ({dim},)")
    return z


def _check_gamma(gamma: float) -> float:
    if not gamma > 0:
        raise ValueError(f"gamma must be positive, got {gamma}")
    return float(gamma)


@dataclass(frozen=True)
class ZeroTerm:
    """P = 0; prox is the identity."""

    dim: int

    def value(self, x: Array) -> float:
        return 0.0

    def prox(self, gamma: float, z: Array) -> Array:
        _check_gamma(gamma)
        return _as_vector(z, self.dim, "z").copy()


@dataclass(frozen=True)
class L1Term:
    """P = weight * ||x||_1; prox is componentwise soft thresholding."""

    dim: int
    weight: float

    def __post_init__(self):
        if not 0 < self.weight < math.inf:
            raise ValueError(f"weight must be positive and finite, got {self.weight}")

    def value(self, x: Array) -> float:
        return self.weight * float(np.abs(x).sum())

    def prox(self, gamma: float, z: Array) -> Array:
        gamma = _check_gamma(gamma)
        z = _as_vector(z, self.dim, "z")
        t = gamma * self.weight
        # z minus its clip to [-t, t]: +0.0 inside, z - t above, z + t below
        return z - np.minimum(np.maximum(z, -t), t)


@dataclass(frozen=True, eq=False)
class BoxTerm:
    """Indicator of the box [lower, upper]; prox clips, independent of gamma.

    Compared and hashed by identity, as field-wise equality over arrays
    would raise.
    """

    lower: Array
    upper: Array
    # the bounds widened by the domain slack, fixed at construction
    _lower_edge: Array = field(init=False, repr=False)
    _upper_edge: Array = field(init=False, repr=False)

    def __post_init__(self):
        # private read-only copies, so the edges below cannot go stale
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        if lower.shape != upper.shape or lower.ndim != 1:
            raise ValueError("lower/upper must be 1-d arrays of equal length")
        # an infinite bound is valid on its open side only; NaN fails both tests
        if not (lower < math.inf).all():
            raise ValueError(f"lower must be below +inf and not NaN, got {lower}")
        if not (upper > -math.inf).all():
            raise ValueError(f"upper must be above -inf and not NaN, got {upper}")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "_lower_edge", lower - _EDGE * (1.0 + np.abs(lower)))
        object.__setattr__(self, "_upper_edge", upper + _EDGE * (1.0 + np.abs(upper)))

    @property
    def dim(self) -> int:
        return self.lower.size

    def value(self, x: Array) -> float:
        x = _as_vector(x, self.dim, "x")
        inside = (x >= self._lower_edge).all() and (x <= self._upper_edge).all()
        return 0.0 if inside else np.inf

    def prox(self, gamma: float, z: Array) -> Array:
        _check_gamma(gamma)
        z = _as_vector(z, self.dim, "z")
        return np.minimum(np.maximum(z, self.lower), self.upper)


@dataclass(frozen=True)
class NonnegativeTerm:
    """Indicator of the nonnegative orthant; prox is the positive part."""

    dim: int

    def value(self, x: Array) -> float:
        x = _as_vector(x, self.dim, "x")
        return 0.0 if (x >= -_EDGE * (1.0 + np.abs(x))).all() else np.inf

    def prox(self, gamma: float, z: Array) -> Array:
        _check_gamma(gamma)
        z = _as_vector(z, self.dim, "z")
        return np.maximum(z, 0.0)


@dataclass(frozen=True, eq=False)
class SquaredL2Term:
    """P = (coef/2) * ||x - center||^2 with closed-form prox.

    Compared and hashed by identity, as field-wise equality over arrays
    would raise.
    """

    coef: float
    center: Array

    def __post_init__(self):
        if not 0 < self.coef < math.inf:
            raise ValueError(f"coef must be positive and finite, got {self.coef}")
        center = np.asarray(self.center, dtype=float)
        if center.ndim != 1 or not np.isfinite(center).all():
            raise ValueError(f"center must be a finite 1-d array, got {center}")
        object.__setattr__(self, "center", center)

    @property
    def dim(self) -> int:
        return self.center.size

    def value(self, x: Array) -> float:
        x = _as_vector(x, self.dim, "x")
        d = x - self.center
        return 0.5 * self.coef * float(d.dot(d))

    def prox(self, gamma: float, z: Array) -> Array:
        gamma = _check_gamma(gamma)
        z = _as_vector(z, self.dim, "z")
        t = gamma * self.coef
        return (z + t * self.center) / (1.0 + t)


def project_second_order(u: Array) -> Array:
    """Projection onto {(t, xbar) : ||xbar|| <= t}, scalar coordinate first."""
    t = u[0]
    tail = u[1:]
    r = float(np.linalg.norm(tail))
    if r <= t:
        return u.copy()
    if r <= -t:
        return np.zeros_like(u)
    out = np.empty_like(u)
    s = 0.5 * (t + r)
    out[0] = s
    out[1:] = (s / r) * tail
    return out


def project_polar(cone: ConeSpec, u) -> Array:
    """Euclidean projection onto -K."""
    return _polar(cone, _as_vector(u, cone.dim, "u"))


def _polar(cone: ConeSpec, u: Array) -> Array:
    """project_polar for a vector already checked against cone.dim."""
    # np.minimum on orthant coordinates, +0.0 on zero-cone coordinates; SOC
    # coordinates are overwritten below.
    out = np.minimum(u, 0.0)
    for zero in cone.zero_slices:
        out[zero] = 0.0
    if cone.dual_floor is None:  # an SOC block
        start = 0
        for kind, size in cone.blocks:
            stop = start + size
            if kind is ConeBlock.SOC:
                # SOC is self-dual, so -K projection is the negated projection of -u
                out[start:stop] = -project_second_order(-u[start:stop])
            start = stop
    return out


def project_dual(cone: ConeSpec, u) -> Array:
    """Euclidean projection onto the dual cone K* (Moreau complement of -K).

    Without an SOC block it is one np.maximum against ``cone.dual_floor``, which
    agrees with u - project_polar(cone, u) up to the sign of a zero, passes a
    NaN on, and maps -inf on an orthant coordinate to 0.
    """
    u = _as_vector(u, cone.dim, "u")
    if cone.dual_floor is not None:
        return np.maximum(u, cone.dual_floor)
    return u - _polar(cone, u)


def dist_polar(cone: ConeSpec, u) -> float:
    """Distance from u to -K, equal to ||project_dual(cone, u)||."""
    dual = project_dual(cone, u)
    return math.sqrt(float(dual.dot(dual)))


def require_in_dual(cone: ConeSpec, lam: Array) -> None:
    """Raise ValueError unless lam, of length cone.dim, lies in K*.

    Membership holds to 1e-9 per coordinate, relative to 1 + max |lam_i|:
    projecting a multiplier of size 1e7 again moves it by rounding alone.
    """
    if not cone.dim:
        return
    drift = float(np.max(np.abs(lam - project_dual(cone, lam))))
    if drift > 1e-9 * (1.0 + float(np.max(np.abs(lam)))):
        raise ValueError(f"lam must lie in the dual cone (max coordinate drift {drift:.3e})")


def normal_cone_gap(cone: ConeSpec, lam, w) -> tuple[float, float]:
    """Defects of w as a normal-cone element at lam in K*.

    Returns (membership_defect, complementarity_defect) where the first is
    dist(w, -K) and the second is |<w, lam>|.  Both vanish exactly when w
    lies in the normal cone of K* at lam.  Requires lam in K* as
    ``require_in_dual`` tests it.
    """
    lam = _as_vector(lam, cone.dim, "lam")
    w = _as_vector(w, cone.dim, "w")
    require_in_dual(cone, lam)
    membership = dist_polar(cone, w)
    complementarity = abs(float(lam.dot(w)))
    return membership, complementarity
