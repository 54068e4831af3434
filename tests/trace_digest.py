"""Bit-identity digests: one SHA-256 per solve over everything the solve returns.

A change meant to leave every floating-point operation as it is (an
overhead cut) must leave these digests as they are.  Run the script on two
trees and compare the outputs: equal lines mean equal bits in every trace
row, every certificate array (its bytes), every KKT report and every
counter of that solve.  The solves are

- ``al_00`` to ``al_19``: ``prox_al`` at eps 1e-4 on the 20 instances of
  acceptance criterion 6, from their stored feasible points;
- ``ppa_0`` to ``ppa_7``: ``ppa_unconstrained`` at eps 1e-7 on the first
  8 mu = 0 quartics of the benchmark's ``ppa_mu0`` pass at seed 1, which
  cycle the zero, L1, nonnegative and box terms;
- ``image``: ``apg_terminating`` at eps 1e-6 on a quartic with 30,000
  matrix entries, so on the affine-image path.

An ``al_*`` or ``ppa_*`` digest also covers the ``ApgTrace`` of every inner
solve of the outer loop (its gamma0, alpha0, mu, first_step and rows),
recorded by ``helpers.recorded_iterates``, since code that only inner
solves run, such as an inner solve's start, leaves no other mark on the
outer result.

The counters digested are the gradient, prox, g, adjoint and cone
projection totals.  ``f_evals`` is left out: it equals ``prox_evals``
(``tests/test_model.py``), so it adds nothing, and without it trees from
before the counter compare too.

    PYTHONPATH=src python tests/trace_digest.py
    PYTHONPATH=src python tests/trace_digest.py --only al_02 image

Tier-1 does not collect this file; ``tests/test_trace_digest.py`` runs one
solve through ``main`` twice.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import struct

import numpy as np

from proxcert import (
    ApgParams,
    BoxTerm,
    L1Term,
    NonnegativeTerm,
    OracleCounters,
    OuterParams,
    ZeroTerm,
    apg_terminating,
    ppa_unconstrained,
    prox_al,
)
from proxcert.problems import QuarticSpec, gen_constrained, gen_quartic

from helpers import criterion6_specs, recorded_iterates

COUNTER_KEYS = ("grad_f_evals", "prox_evals", "g_evals", "adjoint_evals", "cone_proj_evals")

PPA_SEED = 1
PPA_COUNT = 40  # the pass the shapes are stratified over
PPA_SOLVES = 8


def _feed(h, obj) -> None:
    """Add ``obj`` to the hash ``h``, tagged with its type so structure counts too."""
    if isinstance(obj, OracleCounters):
        h.update(b"counters")
        for key in COUNTER_KEYS:
            _feed(h, getattr(obj, key))
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            h.update(f.name.encode())
            _feed(h, getattr(obj, f.name))
    elif isinstance(obj, np.ndarray):
        h.update(f"array {obj.dtype.str} {obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(f"{type(obj).__name__} {len(obj)}".encode())
        for item in obj:
            _feed(h, item)
    elif obj is None or isinstance(obj, int):  # bool is an int
        h.update(repr(obj).encode())
    elif isinstance(obj, float):
        h.update(b"float" + struct.pack("<d", obj))
    else:
        raise TypeError(f"no digest for {type(obj).__name__}")


def digest(result) -> str:
    """SHA-256 of a solver result, its trace included."""
    h = hashlib.sha256()
    _feed(h, result)
    return h.hexdigest()


@dataclasses.dataclass
class OuterSolve:
    """An outer-loop result and the ApgTrace of each of its inner solves, in step order."""

    result: object
    inner: list


def _with_inner_traces(solve) -> OuterSolve:
    with recorded_iterates() as recording:
        result = solve()
    return OuterSolve(result, [inner.trace for inner in recording.inner])


def _ppa_problems():
    """The first PPA_SOLVES problems of a ppa_mu0 pass, as the benchmark draws them."""
    rng = np.random.default_rng(PPA_SEED)
    problems = []
    for i in range(PPA_SOLVES):
        n = 2 + (48 * i) // (PPA_COUNT - 1)
        k = 1 + (i // 4) % 8
        term = (
            ZeroTerm(n), L1Term(n, 0.1), NonnegativeTerm(n),
            BoxTerm(np.full(n, -0.5), np.full(n, 0.5)),
        )[i % 4]
        spec = QuarticSpec(n=n, k_terms=k, seed=int(rng.integers(0, 2**31)), mu_add=0.0, prox=term)
        problems.append(gen_quartic(spec))
    return problems


def solves() -> dict:
    """Name -> a call that runs the solve and returns what is digested.

    That is the result for ``image`` and an OuterSolve for the others.
    """
    out = {}
    for i, spec in enumerate(criterion6_specs()):
        inst = gen_constrained(spec)
        out[f"al_{i:02d}"] = lambda inst=inst: _with_inner_traces(lambda: prox_al(
            inst.conic, OuterParams(epsilon=1e-4), inst.x_feas, np.zeros(inst.conic.cone.dim)
        ))
    for i, problem in enumerate(_ppa_problems()):
        out[f"ppa_{i}"] = lambda problem=problem: _with_inner_traces(lambda: ppa_unconstrained(
            problem, OuterParams(epsilon=1e-7), np.zeros(problem.dim)
        ))
    image = gen_quartic(QuarticSpec(n=200, k_terms=150, seed=31, mu_add=0.1))
    out["image"] = lambda: apg_terminating(image, ApgParams(epsilon=1e-6), np.zeros(200))
    return out


def main(argv=None) -> None:
    table = solves()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", nargs="+", choices=sorted(table), default=list(table))
    args = parser.parse_args(argv)
    for name in args.only:
        print(f"{name:<7} {digest(table[name]())}", flush=True)


if __name__ == "__main__":
    main()
