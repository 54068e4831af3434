import numpy as np
import pytest

from proxcert import (
    ApgParams,
    BoxTerm,
    CallableSmooth,
    CompositeProblem,
    ConeBlock,
    ConeSpec,
    ConicProblem,
    L1Term,
    NonnegativeTerm,
    OracleCounters,
    OuterParams,
    SquaredL2Term,
    ZeroTerm,
    apg_run,
    apg_terminating,
    instrument_composite,
    ppa_unconstrained,
    prox_al,
    value_and_gradient,
)
from proxcert.model import AffineConstraint, require_count
from proxcert.problems import (
    IMAGE_MIN_ENTRIES,
    QuarticSpec,
    eq_quadratic_2d,
    gen_constrained,
    gen_quartic,
    ineq_quadratic_1d,
)

from conftest import SeparateOnly, make_quadratic, make_quartic_1d
from helpers import criterion6_specs, recorded_iterates
from helpers import check_gradient, composite_value


class TestCheckGradient:
    def test_zero_oracle(self):
        zero = CallableSmooth(3, lambda x: 0.0, lambda x: np.zeros(3))
        assert check_gradient(zero, np.array([1.0, -2.0, 0.3]), 1e-5) == 0.0

    def test_quadratic_is_exact_up_to_rounding(self, quadratic):
        assert check_gradient(quadratic.smooth, np.array([3.0]), 1e-5) <= 1e-9

    def test_quartic_truncation_bound(self, quartic_1d):
        assert check_gradient(quartic_1d.smooth, np.array([1.0]), 1e-4) <= 1e-7

    @pytest.mark.parametrize("h", [0.0, -1e-5, 0.02])
    def test_h_out_of_range(self, quadratic, h):
        with pytest.raises(ValueError):
            check_gradient(quadratic.smooth, np.array([1.0]), h)

    def test_nonfinite_point_rejected(self, quadratic):
        with pytest.raises(ValueError):
            check_gradient(quadratic.smooth, np.array([np.inf]), 1e-5)

    def test_nonfinite_oracle_names_coordinate(self):
        bad = CallableSmooth(
            2,
            lambda x: float("nan") if x[1] > 0.5 else float(x @ x),
            lambda x: 2.0 * x,
        )
        with pytest.raises(ValueError, match="coordinate 1"):
            check_gradient(bad, np.array([0.0, 0.5]), 1e-2)


class TestCompositeValue:
    def test_plain_quadratic(self, quadratic):
        assert composite_value(quadratic, np.array([2.0])) == 2.0

    def test_outside_indicator_domain(self):
        problem = CompositeProblem(
            make_quadratic().smooth, BoxTerm(np.array([1.0]), np.array([2.0])), mu=1.0
        )
        assert composite_value(problem, np.array([0.0])) == np.inf

    def test_quartic_plus_l1(self):
        problem = CompositeProblem(make_quartic_1d().smooth, L1Term(1, 1.0))
        assert composite_value(problem, np.array([1.0])) == pytest.approx(1.25, abs=1e-15)


class TestProblemValidation:
    def test_dim_mismatch(self, quadratic):
        with pytest.raises(ValueError, match="dimension mismatch"):
            CompositeProblem(quadratic.smooth, ZeroTerm(2))

    @pytest.mark.parametrize("make, message", [
        (lambda smooth: CompositeProblem(smooth(-1), ZeroTerm(-1)), "smooth dim .* got -1"),
        (lambda smooth: CompositeProblem(smooth(0), NonnegativeTerm(0)), "smooth dim .* got 0"),
        (lambda smooth: CompositeProblem(smooth(2), ZeroTerm(2.5)), "nonsmooth dim .* got 2.5"),
        (lambda smooth: CompositeProblem(smooth(1), L1Term(True, 1.0)), "nonsmooth dim .* got True"),
        # a 2-D center would report dim 4 and fail at its first prox
        (lambda smooth: SquaredL2Term(1.0, np.ones((2, 2))), "center must be a finite 1-d array"),
    ], ids=["negative", "zero", "fractional", "bool", "l2-center-2d"])
    def test_dims_must_be_positive_integers(self, make, message):
        def smooth(dim):
            return CallableSmooth(dim, lambda x: 0.5 * float(x @ x), lambda x: x.copy())

        with pytest.raises(ValueError, match=f"^{message}"):
            make(smooth)

    def test_negative_mu(self, quadratic):
        with pytest.raises(ValueError, match="mu"):
            CompositeProblem(quadratic.smooth, ZeroTerm(1), mu=-0.1)

    @pytest.mark.parametrize("mu", [np.nan, np.inf])
    def test_non_finite_mu(self, quadratic, mu):
        with pytest.raises(ValueError, match="mu must be nonnegative and finite"):
            CompositeProblem(quadratic.smooth, ZeroTerm(1), mu=mu)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["matrix", "shift"])
    def test_affine_constraint_rejects_non_finite_data(self, name, bad):
        # a NaN entry used to surface only inside prox_al, as a non-finite
        # smooth term at the first iteration
        data = {"matrix": np.ones((2, 3)), "shift": np.zeros(2)}
        data[name][-1] = bad
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            AffineConstraint(**data)

    @pytest.mark.parametrize("matrix, shift", [
        (np.ones(3), np.zeros(3)),  # not 2-D
        (np.ones((1, 2, 3)), np.zeros(1)),
        (np.ones((2, 3)), np.zeros(3)),  # shift of the wrong length
        (np.ones((2, 3)), np.zeros((2, 1))),
    ])
    def test_affine_constraint_rejects_bad_shapes(self, matrix, shift):
        with pytest.raises(ValueError, match=r"^matrix must be \(m, n\) with shift of length m"):
            AffineConstraint(matrix, shift)

    def test_conic_dims(self, quadratic):
        constraint = AffineConstraint(np.ones((2, 1)), np.zeros(2))
        with pytest.raises(ValueError, match="cone dim"):
            ConicProblem(quadratic, constraint, ConeSpec.nonneg(1))
        wide = AffineConstraint(np.ones((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="constraint input dim 3 != problem dim 1"):
            ConicProblem(quadratic, wide, ConeSpec.nonneg(2))


class TestRequireCount:
    # the exact-int fast path neither widens nor narrows the accepted set
    @pytest.mark.parametrize("value", [1, 7, np.int64(3)], ids=repr)
    def test_accepts_positive_integers(self, value):
        require_count("count", value)

    @pytest.mark.parametrize(
        "value", [0, -2, True, False, 1.0, np.float64(2.0), "3"], ids=repr
    )
    def test_rejects_everything_else(self, value):
        with pytest.raises(ValueError, match=r"^count must be a positive integer, got "):
            require_count("count", value)


def test_bundled_oracles_pass_gradient_check():
    rng = np.random.default_rng(42)
    oracles = [
        ineq_quadratic_1d().base.smooth,
        eq_quadratic_2d().base.smooth,
    ]
    for seed in range(5):
        spec = QuarticSpec(n=int(rng.integers(2, 12)), k_terms=3, seed=seed, mu_add=0.5 * seed)
        oracles.append(gen_quartic(spec).smooth)
    for oracle in oracles:
        for _ in range(100):
            x = rng.uniform(-1.0, 1.0, size=oracle.dim)
            assert check_gradient(oracle, x, 1e-5) <= 1e-5


def test_counters_match_external_instrumentation():
    """Reported counters equal what an independent wrapper measures."""
    base = gen_quartic(QuarticSpec(n=4, k_terms=3, seed=9, mu_add=1.0))
    outside = {"grad": 0, "prox": 0}

    def value(x):
        return base.smooth.value(x)

    def gradient(x):
        outside["grad"] += 1
        return base.smooth.gradient(x)

    class CountingProx:
        dim = 4

        def value(self, x):
            return base.nonsmooth.value(x)

        def prox(self, gamma, z):
            outside["prox"] += 1
            return base.nonsmooth.prox(gamma, z)

    wrapped = CompositeProblem(CallableSmooth(4, value, gradient), CountingProx(), mu=1.0)
    res = apg_terminating(wrapped, ApgParams(epsilon=1e-6), np.zeros(4))
    counters = res.trace.counters
    assert counters.grad_f_evals == outside["grad"]
    assert counters.prox_evals == outside["prox"]


def test_instrument_composite_counts_only_oracle_calls():
    counters = OracleCounters()
    problem = instrument_composite(make_quadratic(), counters)
    x = np.array([1.0])
    problem.smooth.value(x)
    assert (counters.grad_f_evals, counters.f_evals) == (0, 1)
    problem.smooth.gradient(x)
    problem.nonsmooth.prox(1.0, x)
    assert (counters.grad_f_evals, counters.prox_evals, counters.f_evals) == (1, 1, 1)


def _f_values(trace):
    """The f values an accelerated solve with ``trace`` asks for on their own.

    One per backtracking trial of an iteration and one per trial of a
    certificate check, none at the start; a fused value comes with its
    gradient.
    """
    trials = sum(row.n_t + 1 for row in trace.rows)
    checks = sum(row.cert_backtracks + 1 for row in trace.rows if row.certificate is not None)
    return trials + checks


class TestFValueCount:
    @pytest.mark.parametrize("n, k_terms", [(6, 4), (100, IMAGE_MIN_ENTRIES // 100)])
    def test_accelerated_solves(self, n, k_terms):
        # below and at the image gate: a value from an image books one too
        problem = gen_quartic(QuarticSpec(n=n, k_terms=k_terms, seed=6, mu_add=0.5))
        res = apg_terminating(problem, ApgParams(epsilon=1e-6), np.zeros(n))
        counters = res.trace.counters
        assert any(row.certificate is not None for row in res.trace.rows)
        assert counters.f_evals == _f_values(res.trace)
        # each trial costs one prox as well
        assert counters.f_evals == counters.prox_evals
        trace = apg_run(problem, ApgParams(max_iters=25), np.zeros(n))
        assert trace.counters.f_evals == _f_values(trace) == trace.counters.prox_evals

    def test_outer_solves(self):
        # only the inner solves' trials book f values; nothing between two
        # inner solves, and no cone or multiplier call, books one
        quartic = gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))
        conic = gen_constrained(criterion6_specs()[2]).conic
        solves = [
            lambda: ppa_unconstrained(quartic, OuterParams(epsilon=1e-7), np.zeros(8)),
            lambda: prox_al(conic, OuterParams(epsilon=1e-4), np.zeros(conic.base.dim),
                            np.zeros(conic.cone.dim)),
        ]
        for solve in solves:
            with recorded_iterates() as recording:
                res = solve()
            counters = res.trace.counters
            assert len(recording.inner) == len(res.trace.rows) > 1
            assert counters.f_evals == sum(_f_values(inner.trace) for inner in recording.inner)
            assert counters.f_evals == counters.prox_evals


class TestValueAndGradient:
    @pytest.mark.parametrize("mu_add", [0.0, 0.7])
    def test_quartic_fused_is_bit_identical(self, mu_add):
        # value, gradient, the fused call and the two methods taking an
        # image, below and at the image gate
        rng = np.random.default_rng(1)
        for n, k_terms in [(9, 5), (500, IMAGE_MIN_ENTRIES // 500)]:
            oracle = gen_quartic(QuarticSpec(n=n, k_terms=k_terms, seed=3, mu_add=mu_add)).smooth
            for _ in range(20):
                x = rng.uniform(-2.0, 2.0, size=n)
                r = oracle.rows @ x - oracle.offsets
                image = oracle.image(x)
                assert image is None if n == 9 else np.array_equal(image, r)
                f, g = oracle.value(x), oracle.gradient(x)
                f_fused, g_fused = oracle.value_and_gradient(x)
                f_at, g_at = oracle.value_and_gradient_at(x, r)
                assert f_fused == f and f_at == f and oracle.value_at(x, r) == f
                assert np.array_equal(g_fused, g) and np.array_equal(g_at, g)

    def test_fallback_without_fused_method(self):
        oracle = gen_quartic(QuarticSpec(n=4, k_terms=3, seed=8, mu_add=0.5)).smooth
        plain = SeparateOnly(oracle)
        x = np.array([0.3, -1.0, 0.2, 0.9])
        f, g = value_and_gradient(plain, x)
        assert f == oracle.value(x)
        assert np.array_equal(g, oracle.gradient(x))

    def test_callable_smooth_with_and_without_fused_callable(self):
        calls = []

        def fused(x):
            calls.append(x)
            return 0.5 * float(x @ x), x.copy()

        two = CallableSmooth(2, lambda x: 0.5 * float(x @ x), lambda x: x.copy())
        three = CallableSmooth(2, two.value_fn, two.gradient_fn, fused)
        x = np.array([1.5, -2.0])
        for oracle in (two, three):
            f, g = value_and_gradient(oracle, x)
            assert (f, g.tolist()) == (3.125, [1.5, -2.0])
        assert len(calls) == 1

    @pytest.mark.parametrize("wrap", [lambda s: s, SeparateOnly])
    def test_fused_call_books_one_gradient(self, wrap):
        base = gen_quartic(QuarticSpec(n=3, k_terms=2, seed=4, mu_add=1.0))
        counters = OracleCounters()
        problem = instrument_composite(
            CompositeProblem(wrap(base.smooth), base.nonsmooth, mu=1.0), counters
        )
        value_and_gradient(problem.smooth, np.ones(3))
        assert (counters.grad_f_evals, counters.prox_evals, counters.f_evals) == (1, 0, 0)


    def test_image_calls_book_a_gradient_only_with_the_gradient(self):
        n = 100
        base = gen_quartic(QuarticSpec(n=n, k_terms=IMAGE_MIN_ENTRIES // n, seed=2, mu_add=0.5))
        counters = OracleCounters()
        smooth = instrument_composite(base, counters).smooth
        x = np.linspace(-1.0, 1.0, n)
        r = smooth.image(x)
        assert smooth.value_at(x, r) == base.smooth.value(x)
        assert (counters.grad_f_evals, counters.f_evals) == (0, 1)
        f, g = smooth.value_and_gradient_at(x, r)
        assert (f, g.tolist()) == (base.smooth.value(x), base.smooth.gradient(x).tolist())
        assert (counters.grad_f_evals, counters.prox_evals, counters.f_evals) == (1, 0, 1)

    def test_counting_wrapper_offers_no_image_for_plain_oracles(self):
        smooth = instrument_composite(make_quadratic(), OracleCounters()).smooth
        assert smooth.image(np.ones(1)) is None


def _holders():
    """(term, a problem holding it) for each frozen dataclass with array fields."""
    quartic = gen_quartic(QuarticSpec(n=2, k_terms=1, seed=1, mu_add=1.0))
    box = BoxTerm(np.zeros(2), np.ones(2))
    sq = SquaredL2Term(1.0, np.zeros(2))
    affine = AffineConstraint(np.eye(2), np.zeros(2))
    return {
        "box": (box, CompositeProblem(quartic.smooth, box, mu=1.0)),
        "squared_l2": (sq, CompositeProblem(quartic.smooth, sq, mu=1.0)),
        "quartic": (quartic.smooth, quartic),
        "affine": (affine, ConicProblem(quartic, affine, ConeSpec.nonneg(2))),
    }


@pytest.mark.parametrize("name", ["box", "squared_l2", "quartic", "affine"])
def test_array_holding_terms_compare_and_hash_by_identity(name):
    term, holder = _holders()[name]
    twin, twin_holder = _holders()[name]
    assert term == term and term != twin
    assert len({term, twin, term}) == 2
    assert holder == holder and holder != twin_holder
    assert len({holder, twin_holder, holder}) == 2


def test_cone_dim_is_fixed_at_construction():
    cone = ConeSpec(((ConeBlock.NONNEG, 2), (ConeBlock.SOC, 3), (ConeBlock.ZERO, 1)))
    assert cone.dim == 6
    assert ConeSpec.nonneg(0).dim == 0
    assert cone == ConeSpec((("nonneg", 2), ("soc", 3), ("zero", 1)))
    assert "dim" not in repr(cone)
