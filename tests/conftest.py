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
