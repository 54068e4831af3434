import numpy as np
import pytest

from proxcert import CallableSmooth, CompositeProblem, ZeroTerm


def make_quadratic(mu=1.0):
    """f(x) = ||x||^2 / 2 in one dimension."""
    return CompositeProblem(
        CallableSmooth(1, lambda x: 0.5 * float(x @ x), lambda x: x.copy()),
        ZeroTerm(1),
        mu=mu,
    )


def make_quartic_1d():
    """f(x) = x^4 / 4, convex with locally Lipschitz gradient only."""
    return CompositeProblem(
        CallableSmooth(1, lambda x: 0.25 * float(x[0] ** 4), lambda x: x**3),
        ZeroTerm(1),
        mu=0.0,
    )


def nan_after(calls, dim=1):
    """||x||^2/2 whose gradient turns NaN after ``calls`` gradient calls.

    Returns the problem (mu = 1) and the list of points the gradient saw.
    """
    seen = []

    def gradient(x):
        seen.append(x)
        return x.copy() if len(seen) <= calls else np.full_like(x, np.nan)

    smooth = CallableSmooth(dim, lambda x: 0.5 * float(x @ x), gradient)
    return CompositeProblem(smooth, ZeroTerm(dim), mu=1.0), seen


class SeparateOnly:
    """Smooth oracle with value and gradient but no fused value_and_gradient."""

    def __init__(self, inner):
        self.dim = inner.dim
        self.value = inner.value
        self.gradient = inner.gradient


@pytest.fixture
def quadratic():
    return make_quadratic()


@pytest.fixture
def quartic_1d():
    return make_quartic_1d()
