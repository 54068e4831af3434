import dataclasses

import numpy as np
import pytest

from proxcert import (
    BoxTerm,
    ConeBlock,
    ConeSpec,
    L1Term,
    NonnegativeTerm,
    SquaredL2Term,
    ZeroTerm,
    dist_polar,
    normal_cone_gap,
    project_dual,
    project_polar,
    project_second_order,
)
from proxcert.proxcone import _EDGE

ORTHANT2 = ConeSpec.nonneg(2)
ZERO1 = ConeSpec.zeros(1)
ZERO2 = ConeSpec.zeros(2)
SOC2 = ConeSpec(((ConeBlock.SOC, 2),))
MIXED = ConeSpec(((ConeBlock.NONNEG, 3), (ConeBlock.ZERO, 2), (ConeBlock.SOC, 3)))


def bundled_terms():
    rng = np.random.default_rng(7)
    return [
        ZeroTerm(4),
        L1Term(4, 0.3),
        BoxTerm(-np.ones(4), rng.uniform(0.0, 2.0, 4)),
        NonnegativeTerm(4),
        SquaredL2Term(0.7, rng.uniform(-1.0, 1.0, 4)),
    ]


def blockwise_polar(cone, u):
    """Reference projection onto -K, one block at a time."""
    out = np.empty_like(u)
    start = 0
    for kind, size in cone.blocks:
        block = u[start:start + size]
        if kind is ConeBlock.NONNEG:
            out[start:start + size] = np.minimum(block, 0.0)
        elif kind is ConeBlock.ZERO:
            out[start:start + size] = 0.0
        else:
            out[start:start + size] = -project_second_order(-block)
        start += size
    return out


def random_cone(rng, kinds):
    blocks = tuple((kinds[int(rng.integers(len(kinds)))], int(rng.integers(1, 6)))
                   for _ in range(int(rng.integers(0, 5))))
    return ConeSpec(blocks)


SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.5, -1.5, 5e-324, -5e-324])


class TestProx:
    def test_zero_is_identity(self):
        z = np.array([3.0, -2.0])
        assert np.array_equal(ZeroTerm(2).prox(1.0, z), z)

    def test_l1_soft_threshold(self):
        term = L1Term(1, 1.0)
        assert term.prox(1.0, np.array([2.0]))[0] == pytest.approx(1.0, abs=1e-15)
        assert term.prox(1.0, np.array([-0.5]))[0] == 0.0

    def test_box_clamps(self):
        term = BoxTerm(np.array([1.0]), np.array([2.0]))
        assert term.prox(0.7, np.array([0.0]))[0] == 1.0

    def test_squared_l2_closed_form(self):
        term = SquaredL2Term(0.7, np.array([0.3]))
        # frozen from a bounded scalar minimization of the prox objective
        assert term.prox(1.3, np.array([2.0]))[0] == pytest.approx(1.1900523560209426, abs=1e-12)

    def test_indicator_prox_ignores_gamma(self):
        rng = np.random.default_rng(0)
        for term in (BoxTerm(-np.ones(4), np.ones(4)), NonnegativeTerm(4)):
            for _ in range(50):
                z = rng.uniform(-3.0, 3.0, 4)
                out = term.prox(1.0, z)
                for gamma in (1e-3, 0.7, 42.0):
                    assert np.array_equal(term.prox(gamma, z), out)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="gamma"):
            ZeroTerm(1).prox(0.0, np.array([1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            L1Term(2, 1.0).prox(1.0, np.array([1.0]))

    @pytest.mark.parametrize("term", bundled_terms(), ids=lambda t: type(t).__name__)
    def test_nonexpansive(self, term):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = rng.uniform(-5.0, 5.0, term.dim)
            b = rng.uniform(-5.0, 5.0, term.dim)
            gamma = float(rng.uniform(0.05, 3.0))
            lhs = np.linalg.norm(term.prox(gamma, a) - term.prox(gamma, b))
            assert lhs <= np.linalg.norm(a - b) + 1e-12

    @pytest.mark.parametrize("term", bundled_terms(), ids=lambda t: type(t).__name__)
    def test_prox_lands_in_domain(self, term):
        rng = np.random.default_rng(13)
        for _ in range(200):
            z = rng.uniform(-4.0, 4.0, term.dim)
            assert term.value(term.prox(float(rng.uniform(0.1, 2.0)), z)) < np.inf

    def test_prox_optimality_subgradients(self):
        """(z - prox)/gamma must be a subgradient of P at the prox output."""
        rng = np.random.default_rng(5)
        tol = 1e-10
        for _ in range(200):
            z = rng.uniform(-3.0, 3.0, 4)
            gamma = float(rng.uniform(0.1, 2.0))

            term = L1Term(4, 0.3)
            p = term.prox(gamma, z)
            r = (z - p) / gamma
            for pi, ri in zip(p, r):
                if pi > 0:
                    assert abs(ri - 0.3) <= tol
                elif pi < 0:
                    assert abs(ri + 0.3) <= tol
                else:
                    assert abs(ri) <= 0.3 + tol

            box = BoxTerm(-np.ones(4), np.ones(4))
            p = box.prox(gamma, z)
            r = (z - p) / gamma
            for pi, ri in zip(p, r):
                if -1 < pi < 1:
                    assert abs(ri) <= tol
                elif pi == 1:
                    assert ri >= -tol
                else:
                    assert ri <= tol

            sq = SquaredL2Term(0.7, np.zeros(4))
            p = sq.prox(gamma, z)
            assert np.allclose((z - p) / gamma, 0.7 * p, atol=1e-10)


class TestProjections:
    def test_polar_orthant(self):
        assert np.array_equal(project_polar(ORTHANT2, [1.0, -2.0]), [0.0, -2.0])

    def test_polar_zero_cone(self):
        assert np.array_equal(project_polar(ZERO1, [0.3]), [0.0])

    def test_polar_soc(self):
        out = project_polar(SOC2, [0.0, 1.0])
        assert out == pytest.approx([-0.5, 0.5], abs=1e-15)

    def test_dual_orthant(self):
        assert np.array_equal(project_dual(ORTHANT2, [1.0, -2.0]), [1.0, 0.0])

    def test_dual_zero_cone_is_identity(self):
        assert np.array_equal(project_dual(ZERO1, [0.3]), [0.3])

    def test_dual_soc(self):
        assert project_dual(SOC2, [0.0, 1.0]) == pytest.approx([0.5, 0.5], abs=1e-15)

    def test_dist_orthant(self):
        assert dist_polar(ORTHANT2, [1.0, -2.0]) == 1.0

    def test_dist_zero_cone(self):
        assert dist_polar(ZERO2, [3.0, 4.0]) == 5.0

    def test_dist_soc(self):
        assert dist_polar(SOC2, [0.0, 1.0]) == pytest.approx(np.sqrt(0.5), abs=1e-15)

    @pytest.mark.parametrize("cone", [ORTHANT2, ZERO2, SOC2, MIXED], ids=["orthant", "zero", "soc", "mixed"])
    def test_moreau_properties(self, cone):
        rng = np.random.default_rng(21)
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, cone.dim)
            dual = project_dual(cone, u)
            polar = project_polar(cone, u)
            assert np.max(np.abs(dual + polar - u)) <= 1e-12
            assert abs(float(dual @ polar)) <= 1e-10 * (1.0 + float(u @ u))
            assert np.max(np.abs(project_polar(cone, polar) - polar)) <= 1e-12

    def test_orthant_zero_fast_path_is_bit_identical(self):
        rng = np.random.default_rng(23)
        cones = [ConeSpec(())] + [
            random_cone(rng, (ConeBlock.NONNEG, ConeBlock.ZERO)) for _ in range(300)
        ]
        for cone in cones:
            assert cone.dual_floor is not None
            u = np.where(rng.random(cone.dim) < 0.5, rng.choice(SPECIAL, cone.dim),
                         rng.uniform(-3.0, 3.0, cone.dim))
            polar = blockwise_polar(cone, u)
            assert project_polar(cone, u).tobytes() == polar.tobytes()
            # the dual is one np.maximum: the Moreau complement up to the sign
            # of a zero, except that -inf on an orthant coordinate, where the
            # complement is inf - inf, projects to 0
            with np.errstate(invalid="ignore"):
                complement = u - polar
            orthant = np.repeat(np.array([kind is ConeBlock.NONNEG for kind, _ in cone.blocks],
                                         dtype=bool), [size for _, size in cone.blocks])
            complement[orthant & (u == -np.inf)] = 0.0
            assert np.array_equal(project_dual(cone, u), complement, equal_nan=True)

    def test_soc_cones_match_the_blockwise_reference(self):
        rng = np.random.default_rng(24)
        kinds = (ConeBlock.NONNEG, ConeBlock.ZERO, ConeBlock.SOC)
        for _ in range(300):
            cone = ConeSpec(random_cone(rng, kinds).blocks + ((ConeBlock.SOC, 3),))
            assert cone.dual_floor is None
            u = rng.uniform(-3.0, 3.0, cone.dim)
            soc = np.repeat([kind is ConeBlock.SOC for kind, _ in cone.blocks],
                            [size for _, size in cone.blocks])
            special = ~soc & (rng.random(cone.dim) < 0.5)
            u_special = u.copy()
            u_special[special] = rng.choice(SPECIAL, int(special.sum()))
            assert (project_polar(cone, u_special).tobytes()
                    == blockwise_polar(cone, u_special).tobytes())
            polar = project_polar(cone, u)
            dual = project_dual(cone, u)
            assert polar.tobytes() == blockwise_polar(cone, u).tobytes()
            assert np.max(np.abs(dual + polar - u)) <= 1e-12
            assert abs(float(dual @ polar)) <= 1e-10 * (1.0 + float(u @ u))

    def test_dual_output_in_dual_cone(self):
        rng = np.random.default_rng(22)
        for _ in range(1000):
            u = rng.uniform(-5.0, 5.0, MIXED.dim)
            dual = project_dual(MIXED, u)
            assert np.all(dual[:3] >= 0.0)
            assert np.linalg.norm(dual[5 + 1 :]) <= dual[5] + 1e-12


class TestNormalConeGap:
    def test_interior_zero(self):
        assert normal_cone_gap(ConeSpec.nonneg(1), [2.0], [0.0]) == (0.0, 0.0)

    def test_complementarity_defect(self):
        membership, complementarity = normal_cone_gap(ConeSpec.nonneg(1), [2.0], [-0.1])
        assert membership == 0.0
        assert complementarity == pytest.approx(0.2, abs=1e-15)

    def test_membership_defect(self):
        membership, complementarity = normal_cone_gap(ConeSpec.nonneg(1), [0.0], [0.3])
        assert membership == pytest.approx(0.3, abs=1e-15)
        assert complementarity == 0.0

    def test_rejects_multiplier_outside_dual_cone(self):
        with pytest.raises(ValueError, match="dual cone"):
            normal_cone_gap(ConeSpec.nonneg(1), [-1.0], [0.0])

    def test_large_projected_multiplier_is_in_the_dual_cone(self):
        # a projected multiplier of norm 1.2e7 moves by a few ulps when
        # projected again, so the membership check scales with |lam|
        cone = ConeSpec(((ConeBlock.SOC, 3),))
        lam = project_dual(cone, np.random.default_rng(9).normal(size=3) * 2e7)
        assert np.max(np.abs(lam - project_dual(cone, lam))) > 1e-9
        assert normal_cone_gap(cone, lam, np.zeros(3)) == (0.0, 0.0)
        with pytest.raises(ValueError, match="dual cone"):
            normal_cone_gap(cone, lam * np.array([1.0, 1.0, 1.0 + 1e-6]), np.zeros(3))


def test_cone_spec_validation():
    with pytest.raises(ValueError, match="size"):
        ConeSpec(((ConeBlock.SOC, 0),))
    assert MIXED.dim == 8


@pytest.mark.parametrize("size", [-1, 2.5, 2.0, True, "2", None])
def test_cone_block_sizes_must_be_counts(size):
    # 2.5 was truncated to 2 and True read as 1
    with pytest.raises(ValueError, match="soc block size must be a positive integer"):
        ConeSpec((("soc", size),))


def test_cone_spec_cached_fields_stay_out_of_repr_and_equality():
    assert repr(ORTHANT2) == "ConeSpec(blocks=((<ConeBlock.NONNEG: 'nonneg'>, 2),))"
    assert [f.name for f in dataclasses.fields(MIXED) if f.repr or f.compare] == ["blocks"]
    same = ConeSpec(((ConeBlock.NONNEG, 2),))
    assert same == ORTHANT2 and hash(same) == hash(ORTHANT2)
    assert ORTHANT2 != ZERO2
    assert MIXED.zero_slices == (slice(3, 5),)
    assert ConeSpec(((ConeBlock.ZERO, 2), (ConeBlock.SOC, 3), (ConeBlock.ZERO, 1))).zero_slices == (
        slice(0, 2), slice(5, 6)
    )
    # project_dual's floor: polyhedral cones only, and read-only
    assert MIXED.dual_floor is None
    floor = ConeSpec(((ConeBlock.NONNEG, 2), (ConeBlock.ZERO, 1))).dual_floor
    assert np.array_equal(floor, [0.0, 0.0, -np.inf])
    with pytest.raises(ValueError, match="read-only"):
        floor[0] = 1.0


def reference_box_value(box, x):
    slack_lo = _EDGE * (1.0 + np.abs(box.lower))
    slack_hi = _EDGE * (1.0 + np.abs(box.upper))
    inside = np.all(x >= box.lower - slack_lo) and np.all(x <= box.upper + slack_hi)
    return 0.0 if inside else np.inf


def test_box_value_at_slack_edge():
    lower = np.array([-2.0, 0.0, 1e-300, -3e8])
    upper = np.array([-1.0, 0.0, 1.0, 7e10])
    box = BoxTerm(lower, upper)
    for i in range(lower.size):
        lo_edge = lower[i] - _EDGE * (1.0 + abs(lower[i]))
        hi_edge = upper[i] + _EDGE * (1.0 + abs(upper[i]))
        for point, expected in ((lo_edge, 0.0), (np.nextafter(lo_edge, -np.inf), np.inf),
                                (hi_edge, 0.0), (np.nextafter(hi_edge, np.inf), np.inf)):
            x = 0.5 * (lower + upper)
            x[i] = point
            assert box.value(x) == reference_box_value(box, x) == expected


def test_box_keeps_its_own_bounds():
    lower = np.array([-1.0, 0.0])
    upper = np.array([1.0, 2.0])
    box = BoxTerm(lower, upper)
    lower[0] = 0.5
    upper[1] = 0.1
    assert box.value(np.array([-1.0, 2.0])) == 0.0
    assert box.prox(1.0, np.array([-5.0, 5.0])).tolist() == [-1.0, 2.0]
    with pytest.raises(ValueError):
        box.lower[0] = 0.5


@pytest.mark.parametrize("make, name", [
    (lambda: BoxTerm([np.nan, 0.0], [1.0, 1.0]), "lower"),
    (lambda: BoxTerm([0.0, np.inf], [1.0, np.inf]), "lower"),
    (lambda: BoxTerm([0.0, 0.0], [1.0, np.nan]), "upper"),
    (lambda: BoxTerm([-np.inf, 0.0], [-np.inf, 1.0]), "upper"),
    (lambda: L1Term(2, np.inf), "weight"),
    (lambda: L1Term(2, np.nan), "weight"),
    (lambda: SquaredL2Term(np.inf, np.zeros(2)), "coef"),
    (lambda: SquaredL2Term(np.nan, np.zeros(2)), "coef"),
    (lambda: SquaredL2Term(1.0, [0.0, np.nan]), "center"),
    (lambda: SquaredL2Term(1.0, [np.inf, 0.0]), "center"),
], ids=[
    "box-lower-nan", "box-lower-inf", "box-upper-nan", "box-upper-minus-inf",
    "l1-weight-inf", "l1-weight-nan", "l2-coef-inf", "l2-coef-nan",
    "l2-center-nan", "l2-center-inf",
])
def test_non_finite_parameters_are_rejected_by_name(make, name):
    with pytest.raises(ValueError, match=f"^{name} must"):
        make()


@pytest.mark.parametrize("lower, upper, message", [
    ([0.0, 0.0], [1.0], "lower/upper must be 1-d arrays of equal length"),
    ([[0.0]], [[1.0]], "lower/upper must be 1-d arrays of equal length"),
    ([0.0, 2.0], [1.0, 1.0], "box requires lower <= upper componentwise"),
])
def test_box_rejects_unequal_shapes_and_crossed_bounds(lower, upper, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        BoxTerm(lower, upper)


def test_box_bounds_may_be_infinite_on_their_open_side():
    box = BoxTerm([-np.inf, 0.0], [1.0, np.inf])
    assert box.value(np.array([-1e300, 1e300])) == 0.0
    assert box.value(np.array([2.0, 1.0])) == np.inf
    assert box.prox(1.0, np.array([-5.0, 5.0])).tolist() == [-5.0, 5.0]


def test_nonneg_value_at_slack_edge():
    term = NonnegativeTerm(1)

    def reference(x):
        return 0.0 if np.all(x >= -_EDGE * (1.0 + np.abs(x))) else np.inf

    edge = -_EDGE
    while reference(np.array([np.nextafter(edge, -np.inf)])) == 0.0:
        edge = np.nextafter(edge, -np.inf)
    for point, expected in ((edge, 0.0), (np.nextafter(edge, -np.inf), np.inf), (-0.0, 0.0)):
        x = np.array([point])
        assert term.value(x) == reference(x) == expected
