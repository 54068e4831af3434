"""Held-out sweep: 120 mu = 0 constrained quartics solved by ``prox_al``.

Generator seeds 1-40 crossed with the prox kinds ``nonneg``, ``zero`` and
``box`` (the box [-1, 1]); ``n = 5 + seed % 4``, ``k_terms = 3``, ``m1 = 2``,
``m2 = 1`` and constraint seed ``seed + 100``.  Each instance is solved at
eps 1e-5 from zeros with the inner ``max_iters`` capped at 20,000.  None of
the benchmark's workloads has this class of problem.  Two instances,
``nonneg`` seeds 20 and 25, are infeasible (``scipy.optimize.linprog`` finds
no point of the constraints in the orthant), so no solve can certify them.

It prints one line per instance (prox kind, seed, status, outer steps,
gradients, wall seconds), then the totals.  A timed-out instance also gets
a line naming where it stopped: for an inner timeout, the outer step, the
best inner residual against that step's eta_k, and the accepted step gamma
at the start of the inner solve, at iteration 15,000 and at its end, which
tells a line-search collapse from a slow run.

    PYTHONPATH=src python tests/heldout_sweep.py
    PYTHONPATH=src python tests/heldout_sweep.py --seeds 13 36 --kinds nonneg box

Tier-1 does not collect this file; ``tests/test_outer.py`` imports its
instance generator, and ``tests/test_heldout_sweep.py`` runs one instance
through ``main`` and one capped solve through ``diagnose``.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from proxcert import BoxTerm, NonnegativeTerm, OuterParams, SolveTimeout, ZeroTerm, prox_al
from proxcert.problems import ConstrainedSpec, QuarticSpec, gen_constrained

KINDS = ("nonneg", "zero", "box")
SEEDS = tuple(range(1, 41))
PARAMS = OuterParams(epsilon=1e-5, max_iters=20_000)


def sweep_spec(seed: int, kind: str) -> ConstrainedSpec:
    """The sweep's instance for a generator seed and a prox kind."""
    n = 5 + seed % 4
    prox = {
        "nonneg": NonnegativeTerm(n), "zero": ZeroTerm(n), "box": BoxTerm(-np.ones(n), np.ones(n)),
    }[kind]
    return ConstrainedSpec(
        QuarticSpec(n=n, k_terms=3, seed=seed, mu_add=0.0, prox=prox), m1=2, m2=1, seed=seed + 100
    )


def solve(seed: int, kind: str):
    """(status, outer steps, gradients, seconds, diagnosis or None) of one instance."""
    conic = gen_constrained(sweep_spec(seed, kind)).conic
    start = time.perf_counter()
    try:
        res = prox_al(conic, PARAMS, np.zeros(conic.base.dim), np.zeros(conic.cone.dim))
    except SolveTimeout as exc:
        wall = time.perf_counter() - start
        trace = exc.trace
        return "timeout", len(trace.rows), trace.counters.grad_f_evals, wall, diagnose(exc)
    except Exception as exc:  # reported, so that one failure does not end the sweep
        return type(exc).__name__, 0, 0, time.perf_counter() - start, str(exc)
    wall = time.perf_counter() - start
    trace = res.trace
    return "certified", len(trace.rows), trace.counters.grad_f_evals, wall, None


def diagnose(exc: SolveTimeout) -> str:
    inner = exc.__cause__
    if not isinstance(inner, SolveTimeout):
        return f"outer budget of {PARAMS.max_outer} steps exhausted; best KKT report {exc.trace.best}"
    k = len(exc.trace.rows)
    eta_k = PARAMS.eta0 * PARAMS.sigma**k
    gammas = [row.gamma_t for row in inner.trace.rows]
    t_mid = min(15_000, len(gammas))
    best = inner.trace.best.residual if inner.trace.best is not None else float("inf")
    return (
        f"inner solve at outer step {k}: best residual {best:.2g} against eta_k {eta_k:.2g}; "
        f"gamma {gammas[0]:.2g} at t = 1, {gammas[t_mid - 1]:.2g} at t = {t_mid}, "
        f"{gammas[-1]:.2g} at t = {len(gammas)}"
    )


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=SEEDS)
    parser.add_argument("--kinds", nargs="+", choices=KINDS, default=KINDS)
    args = parser.parse_args(argv)
    certified = timeouts = 0
    grads_certified = grads_all = 0
    wall_all = 0.0
    print("kind     seed  status     outer    grads    wall_s")
    for kind in args.kinds:
        for seed in args.seeds:
            status, outer, grads, wall, note = solve(seed, kind)
            print(f"{kind:<8} {seed:>4}  {status:<9} {outer:>6} {grads:>8} {wall:>9.3f}", flush=True)
            if note is not None:
                print(f"    {note}", flush=True)
            certified += status == "certified"
            timeouts += status == "timeout"
            grads_certified += grads if status == "certified" else 0
            grads_all += grads
            wall_all += wall
    print(
        f"total: {certified} certified, {timeouts} timed out; "
        f"{grads_certified} gradients over the certified, {grads_all} over all; {wall_all:.1f} s"
    )


if __name__ == "__main__":
    main()
