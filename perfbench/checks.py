"""Independent re-verification of returned certificates.

Every check recomputes its witness from the raw, uninstrumented oracles of
the instance (``value``, ``gradient``, ``constraint.value`` and
``adjoint_apply``) and does the rest of the arithmetic here, in numpy; none
of proxcert's own prox, cone or certificate helpers is called.  A reported
witness must also match the recomputed one, so a tampered certificate fails
even where its norm alone would pass.
"""

from __future__ import annotations

import numpy as np

# A reported witness may differ from its recomputation by rounding only.
WITNESS_MATCH = 1e-2  # as a share of the target epsilon
POINT_MATCH = 1e-9  # relative, for recomputed prox points


def prox(kind: str, param, gamma: float, z: np.ndarray) -> np.ndarray:
    """Proximal map of the nonsmooth terms the workloads generate."""
    if kind == "zero":
        return z.copy()
    if kind == "l1":
        return np.sign(z) * np.maximum(np.abs(z) - gamma * param, 0.0)
    if kind == "nonneg":
        return np.maximum(z, 0.0)
    if kind == "box":
        lower, upper = param
        return np.minimum(np.maximum(z, lower), upper)
    raise ValueError(f"unknown prox kind {kind!r}")


def _close(a, b, tol: float) -> bool:
    return bool(np.all(np.isfinite(a)) and np.linalg.norm(a - b) <= tol)


def prox_step_witness(smooth, prox_kind, prox_param, cert, center=None, rho=None):
    """Recompute (x_tilde, u) of a backtracked prox-gradient certificate.

    The step is taken on phi = f + ||x - center||^2 / (2 rho) when a center
    is given, else on f: x_tilde = prox(gamma, x_pre - gamma grad phi(x_pre))
    and u = (x_pre - x_tilde)/gamma + grad phi(x_tilde) - grad phi(x_pre),
    an element of the subdifferential of phi + P at x_tilde.
    """
    x_pre = np.asarray(cert.x_pre, dtype=float)
    gamma = float(cert.gamma_tilde)

    def grad_phi(x):
        g = np.asarray(smooth.gradient(x), dtype=float)
        return g if center is None else g + (x - center) / rho

    grad_pre = grad_phi(x_pre)
    x_tilde = prox(prox_kind, prox_param, gamma, x_pre - gamma * grad_pre)
    return x_tilde, (x_pre - x_tilde) / gamma + grad_phi(x_tilde) - grad_pre


def apg_certificate_ok(problem, prox_kind, prox_param, result, eps: float) -> bool:
    """README recipe for apg_terminating: recompute x_tilde and the witness."""
    cert = result.certificate
    x_tilde, u = prox_step_witness(problem.smooth, prox_kind, prox_param, cert)
    scale = 1.0 + float(np.linalg.norm(x_tilde))
    return (
        _close(x_tilde, cert.x_tilde, POINT_MATCH * scale)
        and np.array_equal(result.x, cert.x_tilde)
        and _close(u, cert.witness, WITNESS_MATCH * eps)
        and float(np.linalg.norm(u)) <= eps
    )


def ppa_certificate_ok(problem, prox_kind, prox_param, result, eps: float) -> bool:
    """Recompute the last proximal-point step and its witness for F = f + P.

    With u from the final prox step on f + ||x - c||^2/(2 rho), the vector
    s = u - (x_tilde - c)/rho lies in dF(x_tilde); ||s|| must be at most eps
    and s must match the reported witness.
    """
    cert = result.certificate
    center = np.asarray(result.center_final, dtype=float)
    rho = float(result.rho_final)
    x_tilde, u = prox_step_witness(
        problem.smooth, prox_kind, prox_param, cert, center=center, rho=rho
    )
    s = u - (x_tilde - center) / rho
    scale = 1.0 + float(np.linalg.norm(x_tilde))
    return (
        _close(x_tilde, cert.x_tilde, POINT_MATCH * scale)
        and np.array_equal(result.x, cert.x_tilde)
        and _close(s, result.witness, WITNESS_MATCH * eps)
        and float(np.linalg.norm(s)) <= eps
    )


def kkt_ok(conic, m1: int, x, lam, reported_stationarity, eps: float) -> bool:
    """KKT check for P = 0 and K = (nonnegative orthant of size m1) x (zero cone).

    Stationarity: ||grad f(x) + J(x)^T lam|| <= eps, matching the reported
    witness.  Complementarity: ||lam - proj_{K*}(lam + g(x))|| <= eps, where
    K* is the nonnegative orthant times the whole space; lam must lie in K*.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(lam))):
        return False
    s = np.asarray(conic.base.smooth.gradient(x), dtype=float) + np.asarray(
        conic.constraint.adjoint_apply(x, lam), dtype=float
    )
    shifted = lam + np.asarray(conic.constraint.value(x), dtype=float)
    projected = shifted.copy()
    projected[:m1] = np.maximum(shifted[:m1], 0.0)
    return (
        bool(np.all(lam[:m1] >= 0.0))
        and float(np.linalg.norm(s)) <= eps
        and _close(s, reported_stationarity, WITNESS_MATCH * eps)
        and float(np.linalg.norm(lam - projected)) <= eps
    )
