"""Exact oracle-call totals and iteration counts of a few fixed solves.

Overhead cuts in the solver loop must leave every floating-point operation
as it is, so they leave these numbers as they are.  A change that moves an
iterate by one rounding moves a line-search decision sooner or later, and
then one of these counts.  A change meant to move them must update them
and say why.

The step grows back, and every inner solve gets the step clamp as its
gamma0; from outer step 1 on, an inner solve first tries the last step the
previous one accepted, while its alpha recursion starts at the clamp.

The outer loop stops at the first inner certificate that proves the
epsilon bound, and grows rho only after a step whose prox-step or
complementarity term exceeds its inner residual; otherwise it holds it.
Each step's proximal center, and its inner start where P is finite there,
is extrapolated past the last iterate by the Catalyst momentum.
With rho held, a run leaves the paper-rule run (rho_k = rho0 * zeta**k,
stopped by the paper's end-of-step test) at its first held step, so it is
no longer a prefix of that run.  The totals of the paper-rule run are kept
beside each pin as a ceiling that a change of schedule must stay under.

An inner solve checks a certificate every M-th iteration, and also as soon
as its lambda_prod has quartered since the previous check.
"""

import numpy as np
import pytest

from proxcert import NonnegativeTerm, OuterParams, ppa_unconstrained, prox_al
from proxcert.problems import QuarticSpec, gen_constrained, gen_quartic

from helpers import criterion6_specs

COUNTER_KEYS = ("grad_f_evals", "prox_evals", "g_evals", "adjoint_evals", "cone_proj_evals")


def check_totals(counters, expected, paper_rule):
    got = tuple(getattr(counters, key) for key in COUNTER_KEYS)
    assert got == expected
    assert all(a <= b for a, b in zip(got, paper_rule))


def _nonneg_quartic():
    return gen_quartic(QuarticSpec(n=8, k_terms=3, seed=5, prox=NonnegativeTerm(8)))


# totals of the same solves under the paper's schedule and end-of-step test
PAPER_RULE_TOTALS = {2: (4301, 4105, 8430, 4301, 8430), 19: (669, 642, 1335, 669, 1335)}


@pytest.mark.parametrize(
    "i, expected_totals, expected_inner",
    [
        # mu = 0, n = 11, 2 orthant and 1 zero constraint.  ||u|| binds
        # on most steps, so rho_k is 10 at k = 0-1 and 20 from k = 2 on; the
        # run with rho grown on every step reached 20480 at its last step,
        # k = 11.  Was (424, 402, 852, 424, 852) with inner iterations
        # [10] * 8 + [20, 10, 30, 60, 40] and the center at the last
        # iterate, and (2565, 2443, 5032, 2565, 5032) with rho grown on
        # every step.
        (2, (167, 157, 334, 167, 334), [10] * 10),
        # mu = 1, n = 4, 3 orthant and 5 zero constraints.  rho_k is 40
        # from k = 2 and 80 from k = 8 on.  Was (135, 127, 278, 135, 278)
        # over 8 outer steps of 10 inner iterations with checks every M-th
        # iteration only: the first two inner solves now stop at iterations
        # 7 and 9, and the run takes two more steps.  Was (187, 177, 386,
        # 187, 386) with inner iterations [10] * 11 and the center at the
        # last iterate, and (286, 271, 577, 286, 577) with rho grown on
        # every step.
        (19, (182, 171, 363, 182, 363), [7, 9] + [10] * 7 + [20]),
    ],
)
def test_criterion6_instance_counts(i, expected_totals, expected_inner):
    inst = gen_constrained(criterion6_specs()[i])
    res = prox_al(
        inst.conic, OuterParams(epsilon=1e-4), inst.x_feas, np.zeros(inst.conic.cone.dim)
    )
    check_totals(res.trace.counters, expected_totals, PAPER_RULE_TOTALS[i])
    assert [row.inner_iters for row in res.trace.rows] == expected_inner


def test_ppa_nonneg_counts():
    # was (167, 155, 0, 0, 0) over 12 outer steps of 10 inner iterations
    # with checks every M-th iteration only, and (197, 184, 0, 0, 0) over 14
    # outer steps with the center at the last iterate
    res = ppa_unconstrained(_nonneg_quartic(), OuterParams(epsilon=1e-7), np.zeros(8))
    check_totals(res.trace.counters, (79, 67, 0, 0, 0), (327, 308, 0, 0, 0))
    assert [row.inner_iters for row in res.trace.rows] == [8, 6, 4] + [3] * 9
