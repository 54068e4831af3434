"""The benchmark's workloads: inputs made from a seed, one solve per case, checks.

Each workload function returns the cases of one pass.  A case's ``solve``
is the timed call into proxcert's public entry points; its ``review`` runs
afterwards, untimed, and returns whether the result re-verified, the
solver's own oracle-call totals, and any per-layer figures only the result
carries.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
import yaml

import checks

COUNTER_KEYS = ("grad_f_evals", "prox_evals", "g_evals", "adjoint_evals", "cone_proj_evals")

AL_EPS = 1e-4
QUARTIC_EPS = 1e-6
PPA_EPS = 1e-7


@dataclass
class Review:
    ok: bool
    counts: dict
    layer: dict = field(default_factory=dict)


def counter_totals(counters) -> dict:
    return {key: int(getattr(counters, key)) for key in COUNTER_KEYS}


def _prox_term(pc, kind: str, n: int):
    """A nonsmooth term of the given kind and the parameter checks.prox needs."""
    if kind == "zero":
        return pc.proxcone.ZeroTerm(n), None
    if kind == "l1":
        return pc.proxcone.L1Term(n, 0.1), 0.1
    if kind == "nonneg":
        return pc.proxcone.NonnegativeTerm(n), None
    lower, upper = np.full(n, -0.5), np.full(n, 0.5)
    return pc.proxcone.BoxTerm(lower, upper), (lower, upper)


# --- al_suite ---------------------------------------------------------------


class AlCase:
    def __init__(self, instance, m1: int):
        self.conic = instance.conic
        self.x0 = instance.x_feas
        self.m1 = m1

    def solve(self, pc, wrap):
        params = pc.outer.OuterParams(epsilon=AL_EPS)
        lam0 = np.zeros(self.conic.cone.dim)
        return pc.outer.prox_al(wrap(self.conic), params, self.x0, lam0)

    def review(self, res) -> Review:
        ok = checks.kkt_ok(
            self.conic, self.m1, res.x, res.lam, res.report.stationarity_witness, AL_EPS
        )
        return Review(ok, counter_totals(res.trace.counters), {"outer.steps": len(res.trace.rows)})


# The criterion-6 generator's seed.  The suite does not follow the run's seed:
# with the generator seeded by 777 and by 1 to 16, the pass's gradient total
# ranged from 68k to 137k, because the five mu = 0 instances take 3k to 36k
# gradients each and decide it; no bound of at most a quarter holds that.
AL_SUITE_SEED = 777


def al_suite(pc, seed: int, tiny: bool, workdir: str):
    """The 20-instance prox-AL suite of acceptance criterion 6."""
    problems = pc.problems
    rng = np.random.default_rng(AL_SUITE_SEED)
    cases = []
    for i in range(3 if tiny else 20):
        n = int(rng.integers(2, 31))
        m1 = int(rng.integers(0, 11))
        m2 = int(rng.integers(0, 6))
        k = int(rng.integers(1, 6))
        mu = (1.0, 0.5, 0.0, 1.0)[i % 4]
        n = n if mu > 0 else min(n, 12)
        spec = problems.ConstrainedSpec(
            base=problems.QuarticSpec(n=n, k_terms=k, seed=2000 + i, mu_add=mu),
            m1=m1, m2=m2, seed=3000 + i,
        )
        cases.append(AlCase(problems.gen_constrained(spec), m1))
    return cases


# --- quartic_large ----------------------------------------------------------


class QuarticCase:
    def __init__(self, problem):
        self.problem = problem

    def solve(self, pc, wrap):
        params = pc.apg.ApgParams(epsilon=QUARTIC_EPS)
        return pc.apg.apg_terminating(wrap(self.problem), params, np.zeros(self.problem.dim))

    def review(self, res) -> Review:
        ok = checks.apg_certificate_ok(self.problem, "zero", None, res, QUARTIC_EPS)
        return Review(ok, counter_totals(res.trace.counters))


def quartic_large(pc, seed: int, tiny: bool, workdir: str):
    """Large strongly convex quartics, where the user's f dominates."""
    problems = pc.problems
    n, k, count = (200, 50, 1) if tiny else (2000, 500, 4)
    rng = np.random.default_rng(seed)
    return [
        QuarticCase(problems.gen_quartic(
            problems.QuarticSpec(n=n, k_terms=k, seed=int(s), mu_add=0.1)
        ))
        for s in rng.integers(0, 2**31, size=count)
    ]


# --- ppa_mu0 ----------------------------------------------------------------

PPA_PROX_CYCLE = ("zero", "l1", "nonneg", "box")
PPA_COUNT = 40


class PpaCase:
    def __init__(self, problem, kind: str, param):
        self.problem = problem
        self.kind = kind
        self.param = param

    def solve(self, pc, wrap):
        params = pc.outer.OuterParams(epsilon=PPA_EPS)
        return pc.outer.ppa_unconstrained(wrap(self.problem), params, np.zeros(self.problem.dim))

    def review(self, res) -> Review:
        ok = checks.ppa_certificate_ok(self.problem, self.kind, self.param, res, PPA_EPS)
        return Review(ok, counter_totals(res.trace.counters), {"outer.steps": len(res.trace.rows)})


def ppa_mu0(pc, seed: int, tiny: bool, workdir: str):
    """mu = 0 quartics solved by the proximal-point loop.

    The shapes are stratified, n over [2, 50] and k over [1, 8] with the prox
    kinds in turn, and the seed draws the data.  Drawing the shapes too made
    the pass totals spread by about a quarter from seed to seed.
    """
    problems = pc.problems
    count = 4 if tiny else PPA_COUNT
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        n = 2 + (48 * i) // (count - 1)
        k = 1 + (i // 4) % 8
        kind = PPA_PROX_CYCLE[i % 4]
        term, param = _prox_term(pc, kind, n)
        spec = problems.QuarticSpec(
            n=n, k_terms=k, seed=int(rng.integers(0, 2**31)), mu_add=0.0, prox=term
        )
        cases.append(PpaCase(problems.gen_quartic(spec), kind, param))
    return cases


# --- cli_mix ----------------------------------------------------------------

CLI_SOLVERS = ("apg", "apg-cert", "ppa", "prox-al")
SWEEP_EPS = (1e-2, 1e-4, 1e-6)


@dataclass
class CliRun:
    code: int
    wall: float


def _trace_rows(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


class CliSolve:
    def __init__(self, solver: str, spec: dict, stem: str):
        self.solver = solver
        self.spec = spec
        self.spec_path = stem + ".yaml"
        self.trace_path = stem + ".trace.csv"
        self.summary_path = stem + ".summary.json"
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec, fh)

    def solve(self, pc, wrap):
        start = perf_counter()
        code = pc.cli.main([
            "solve", "--spec", self.spec_path,
            "--trace", self.trace_path, "--summary", self.summary_path,
        ])
        return CliRun(code, perf_counter() - start)

    def review(self, run: CliRun) -> Review:
        outputs = (self.trace_path, self.summary_path)
        if run.code != 0 or not all(os.path.exists(p) for p in outputs):
            return Review(False, {})
        with open(self.summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = _trace_rows(self.trace_path)
        layer = {
            "cli.overhead_s": run.wall - summary["wall_time_s"],
            "cli.output_bytes": sum(os.path.getsize(p) for p in outputs),
            "outer.steps": summary.get("outer_iterations", 0),
        }
        for path in outputs:
            os.unlink(path)
        return Review(self._summary_ok(summary, rows), summary["totals"], layer)

    def _summary_ok(self, summary: dict, rows: int) -> bool:
        eps = self.spec.get("epsilon")
        if self.solver == "apg":
            budget = self.spec["params"]["max_iters"]
            return summary["termination"] == "iteration-budget" and summary["iterations"] == rows == budget
        if summary["termination"] != "certified":
            return False
        if self.solver == "apg-cert":
            return summary["residual_bound"] <= eps and summary["iterations"] == rows
        if self.solver == "ppa":
            return summary["residual_bound"] <= eps and summary["outer_iterations"] == rows
        kkt = summary["kkt"]
        return max(kkt["stationarity"], kkt["complementarity"]) <= eps and summary["outer_iterations"] == rows


class CliSweep:
    def __init__(self, spec: dict, stem: str):
        self.spec_path = stem + ".yaml"
        self.out_path = stem + ".table.csv"
        with open(self.spec_path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec, fh)

    def solve(self, pc, wrap):
        eps = ",".join(repr(e) for e in SWEEP_EPS)
        code = pc.cli.main(["sweep", "--spec", self.spec_path, "--eps", eps, "--out", self.out_path])
        return CliRun(code, 0.0)

    def review(self, run: CliRun) -> Review:
        if run.code != 0 or not os.path.exists(self.out_path):
            return Review(False, {})
        with open(self.out_path, newline="", encoding="utf-8") as fh:
            table = list(csv.DictReader(fh))
        size = os.path.getsize(self.out_path)
        os.unlink(self.out_path)
        grads = [int(row["grad_evals"]) for row in table]
        counts = {"grad_f_evals": sum(grads), "prox_evals": sum(int(row["prox_evals"]) for row in table)}
        ok = [float(row["epsilon"]) for row in table] == list(SWEEP_EPS) and all(
            0 < a <= b for a, b in zip(grads, grads[1:])
        )
        return Review(ok, counts, {"cli.output_bytes": size})


def _quartic(n, k, seed, mu_add, **extra):
    return {"kind": "quartic", "n": n, "k_terms": k, "seed": seed, "mu_add": mu_add, **extra}


def _cli_spec(solver: str, j: int, seed: int) -> dict:
    """Spec j of a solver's short solves; the seed only draws the data."""
    spec = {"version": 1, "solver": solver}
    if solver == "apg":
        spec["problem"] = _quartic(10 + 5 * j, 4, seed, 0.5)
        spec["params"] = {"max_iters": 100}
    elif solver == "apg-cert":
        spec["epsilon"] = 1e-6
        spec["problem"] = _quartic(10 + 5 * j, 4, seed, 1.0, prox={"kind": "l1", "weight": 0.1})
    elif solver == "ppa":
        spec["epsilon"] = 1e-4
        spec["problem"] = _quartic(3 + j, 2, seed, 0.0, prox={"kind": "box", "lower": -1.0, "upper": 1.0})
    else:
        spec["epsilon"] = 1e-3
        spec["problem"] = dict(_quartic(4 + 2 * j, 3, seed, 1.0, kind="constrained"), m1=3, m2=1)
    return spec


def cli_mix(pc, seed: int, tiny: bool, workdir: str):
    """Short in-process CLI solves for all four solvers plus one sweep."""
    rng = np.random.default_rng(seed)
    cases = []
    per_solver = 1 if tiny else 20
    for solver in CLI_SOLVERS:
        for j in range(per_solver):
            spec = _cli_spec(solver, j, int(rng.integers(0, 2**31)))
            cases.append(CliSolve(solver, spec, os.path.join(workdir, f"{solver}-{j}")))
    sweep = {
        "version": 1, "solver": "apg-cert", "epsilon": SWEEP_EPS[0],
        "problem": _quartic(20, 5, int(rng.integers(0, 2**31)), 0.5),
    }
    cases.append(CliSweep(sweep, os.path.join(workdir, "sweep")))
    return cases


WORKLOADS = {
    "al_suite": al_suite,
    "quartic_large": quartic_large,
    "ppa_mu0": ppa_mu0,
    "cli_mix": cli_mix,
}

# The speed probe's kernel for each workload (see speed.py): the one whose
# slowdown follows the workload's.  quartic_large spends about 90% of its time
# in products with its 8 MB matrix, which slow less than interpreted Python
# when the host drifts; scaled by the Python kernel, its times moved 29%
# between a fast and a slow stretch, against 19% raw.
PROBE_KERNEL = {
    "al_suite": "python",
    "quartic_large": "blas",
    "ppa_mu0": "python",
    "cli_mix": "python",
}
