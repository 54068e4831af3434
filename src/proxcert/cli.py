"""Command-line harness: run a solver on a spec file, emit traces and a summary.

Spec files are YAML with an explicit ``version: 1`` and fail loudly on
unknown keys.  Exit codes: 0 certified success, 1 spec/validation error,
2 timeout or solve failure (partial outputs still written).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import sys
import time
import types
import typing
from dataclasses import dataclass

import numpy as np
import yaml

from . import problems
from .apg import ApgParams, ApgTrace, apg_run, apg_terminating
from .model import ConicProblem, LineSearchFailure, SolveTimeout
from .outer import OuterParams, OuterTrace, ppa_unconstrained, prox_al
from .proxcone import BoxTerm, L1Term, NonnegativeTerm, SquaredL2Term, ZeroTerm

SOLVERS = ("apg", "apg-cert", "ppa", "prox-al")

# libyaml's loader when PyYAML was built with it: the same documents as the
# pure-Python SafeLoader, parsed several times faster.
SPEC_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_TOP_KEYS = {"version", "solver", "epsilon", "problem", "params", "init"}
# The params: keys each solver reads are the fields of its params classes,
# bar epsilon (a top-level key) and the composed inner params.  The outer
# loop sets the inner gamma0 itself (see OuterParams).
_INNER_KEYS = {f.name for f in dataclasses.fields(ApgParams)} - {"epsilon"}
_OUTER_KEYS = {f.name for f in dataclasses.fields(OuterParams)} - {"epsilon", "inner"}
_OUTER_SOLVER_KEYS = _OUTER_KEYS | (_INNER_KEYS - {"gamma0"})
_SOLVER_KEYS = {
    "apg": _INNER_KEYS,
    "apg-cert": _INNER_KEYS,
    "ppa": _OUTER_SOLVER_KEYS,
    "prox-al": _OUTER_SOLVER_KEYS,
}
_KEY_TYPES = typing.get_type_hints(ApgParams) | typing.get_type_hints(OuterParams)
_PROBLEM_TYPES = {
    "n": int, "k_terms": int, "seed": int, "mu_add": float,
    "m1": int, "m2": int, "constraint_seed": int,
}
_QUARTIC_KEYS = {"kind", "n", "k_terms", "seed", "mu_add", "prox"}
_CONSTRAINED_KEYS = _QUARTIC_KEYS | {"m1", "m2", "constraint_seed"}
_NAMED_KEYS = {"kind", "name"}
_PROX_KEYS = {
    "zero": {"kind"},
    "l1": {"kind", "weight"},
    "box": {"kind", "lower", "upper"},
    "nonneg": {"kind"},
    "squared_l2": {"kind", "coef", "center"},
}

INNER_COLUMNS = (
    "t", "n_t", "gamma_t", "alpha_t", "beta_t", "F", "lambda_prod",
    "grad_evals", "prox_evals", "cert_residual",
)
OUTER_COLUMNS = (
    "k", "rho_k", "eta_k", "inner_iters", "grad_evals", "prox_evals",
    "step_norm", "stat_res", "comp_res",
)


class SpecError(ValueError):
    """Invalid run specification."""


@dataclass
class RunSpec:
    solver: str
    epsilon: float | None
    problem: dict
    params: dict
    init: list | None


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _check_keys(mapping: dict, allowed: set, where: str):
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise SpecError(f"unknown key(s) {unknown} in {where}")


def _typed(key: str, value, kind=None, where: str = "params"):
    """A spec value as its field's type; SpecError unless it converts exactly.

    ``kind`` defaults to the type of the params: field ``key``.  Numbers may
    be written as strings (PyYAML reads 1e3 as one), int fields take only
    integral values, and a YAML boolean is not a number.
    """
    kind = _KEY_TYPES[key] if kind is None else kind
    if isinstance(kind, types.UnionType):  # optional: null keeps the default
        if value is None:
            return None
        (kind,) = set(typing.get_args(kind)) - {type(None)}
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if kind is float:
                return number
            if number.is_integer():
                return value if isinstance(value, int) else int(number)
    raise SpecError(f"{where}.{key} must be {kind.__name__}, got {value!r}")


def load_run_spec(path: str) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=SPEC_LOADER)
        except yaml.YAMLError as exc:
            # one line, like every other spec error
            raise SpecError(f"spec file is not valid YAML: {' '.join(str(exc).split())}") from None
    if not isinstance(doc, dict):
        raise SpecError("spec file must contain a mapping")
    _check_keys(doc, _TOP_KEYS, "spec")
    if doc.get("version") != 1:
        raise SpecError("spec must declare version: 1")
    solver = doc.get("solver")
    if solver not in SOLVERS:
        raise SpecError(f"solver must be one of {SOLVERS}, got {solver!r}")
    problem = doc.get("problem")
    if not isinstance(problem, dict):
        raise SpecError("problem must be a mapping")
    kind = problem.get("kind")
    if kind == "quartic":
        _check_keys(problem, _QUARTIC_KEYS, "problem")
    elif kind == "constrained":
        _check_keys(problem, _CONSTRAINED_KEYS, "problem")
    elif kind == "named":
        _check_keys(problem, _NAMED_KEYS, "problem")
    else:
        raise SpecError(f"problem.kind must be quartic, constrained, or named, got {kind!r}")
    params = doc.get("params") or {}
    if not isinstance(params, dict):
        raise SpecError("params must be a mapping")
    _check_keys(params, _SOLVER_KEYS[solver], f"params of solver {solver}")
    params = {key: _typed(key, value) for key, value in params.items()}
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _typed("epsilon", epsilon, float, "spec")
        if not 0 < epsilon < math.inf:
            raise SpecError(f"spec.epsilon must be finite and positive, got {epsilon!r}")
    if solver != "apg" and epsilon is None:
        raise SpecError(f"solver {solver} requires epsilon")
    init = doc.get("init")
    if init is not None and not isinstance(init, list):
        raise SpecError("init must be a list of numbers")
    return RunSpec(solver=solver, epsilon=epsilon, problem=problem, params=params, init=init)


def _build_prox(node, n: int):
    if node is None:
        return None
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError("prox must be a mapping with a kind")
    kind = node["kind"]
    if kind not in _PROX_KEYS:
        raise SpecError(f"unknown prox kind {kind!r}")
    _check_keys(node, _PROX_KEYS[kind], "prox")
    if kind == "zero":
        return ZeroTerm(n)
    if kind == "l1":
        return L1Term(n, float(node["weight"]))
    if kind == "nonneg":
        return NonnegativeTerm(n)
    if kind == "box":
        lower = np.broadcast_to(np.asarray(node["lower"], dtype=float), (n,)).copy()
        upper = np.broadcast_to(np.asarray(node["upper"], dtype=float), (n,)).copy()
        return BoxTerm(lower, upper)
    center = np.broadcast_to(np.asarray(node["center"], dtype=float), (n,)).copy()
    return SquaredL2Term(float(node["coef"]), center)


def build_problem(spec: RunSpec):
    """Instantiate the problem object and its metadata block."""
    node = spec.problem
    kind = node["kind"]
    if kind == "named":
        name = node.get("name")
        if name == "ineq-1d":
            return problems.ineq_quadratic_1d(), {"kind": "named", "name": name}
        if name == "eq-qp-2d":
            return problems.eq_quadratic_2d(), {"kind": "named", "name": name}
        raise SpecError(f"unknown named instance {name!r}")
    sizes = {
        key: _typed(key, node[key], kind, "problem")
        for key, kind in _PROBLEM_TYPES.items() if key in node
    }
    n = sizes.get("n", 1)
    qspec = problems.QuarticSpec(
        n=n,
        k_terms=sizes.get("k_terms", 1),
        seed=sizes.get("seed", 0),
        mu_add=sizes.get("mu_add", 0.0),
        prox=_build_prox(node.get("prox"), n),
    )
    meta = {
        "kind": kind,
        "n": qspec.n,
        "k_terms": qspec.k_terms,
        "seed": qspec.seed,
        "mu_add": qspec.mu_add,
        "generator": problems.GENERATOR_NAME,
    }
    if kind == "quartic":
        return problems.gen_quartic(qspec), meta
    cspec = problems.ConstrainedSpec(
        base=qspec,
        m1=sizes.get("m1", 0),
        m2=sizes.get("m2", 0),
        seed=sizes.get("constraint_seed", qspec.seed + 1),
    )
    meta.update({"m1": cspec.m1, "m2": cspec.m2, "constraint_seed": cspec.seed})
    return problems.gen_constrained(cspec).conic, meta


def _solver_params(spec: RunSpec, epsilon) -> ApgParams | OuterParams:
    """The params object of the spec's solver: dataclass defaults plus its params:."""
    inner = {key: value for key, value in spec.params.items() if key in _INNER_KEYS}
    if spec.solver == "apg":
        inner.setdefault("max_iters", 1000)  # no termination test, so a modest budget
    if spec.solver in ("apg", "apg-cert"):
        return ApgParams(epsilon=epsilon, **inner)
    outer = {key: value for key, value in spec.params.items() if key in _OUTER_KEYS}
    return OuterParams(epsilon=epsilon, inner=ApgParams(**inner), **outer)


def _params_block(params: ApgParams | OuterParams, solver: str) -> dict:
    """Every setting the solver reads, under its params: key, so it can be fed back."""
    values = vars(params)
    if isinstance(params, OuterParams):
        values = vars(params.inner) | values
    return {key: values[key] for key in _SOLVER_KEYS[solver]}


def _default_init(problem, spec: RunSpec):
    if spec.init is not None:
        return np.asarray(spec.init, dtype=float)
    return problem.nonsmooth.prox(1.0, np.zeros(problem.dim))


def _counter_totals(counters) -> dict:
    return {
        "grad_f_evals": counters.grad_f_evals,
        "prox_evals": counters.prox_evals,
        "g_evals": counters.g_evals,
        "adjoint_evals": counters.adjoint_evals,
        "cone_proj_evals": counters.cone_proj_evals,
    }


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict
    inner_trace: ApgTrace | None = None
    outer_trace: OuterTrace | None = None


def execute(spec: RunSpec, epsilon: float | None = None) -> RunOutcome:
    """Run the configured solver; never raises on timeout (exit code 2 instead)."""
    epsilon = spec.epsilon if epsilon is None else epsilon
    built, meta = build_problem(spec)
    if isinstance(built, ConicProblem) != (spec.solver == "prox-al"):
        kind = "a constrained" if spec.solver == "prox-al" else "an unconstrained"
        raise SpecError(f"solver {spec.solver} requires {kind} problem")
    started = time.perf_counter()
    summary: dict = {"version": 1, "solver": spec.solver, "epsilon": epsilon, "problem": meta}

    def finish(code, termination, extra, inner=None, outer=None, counters=None):
        summary["termination"] = termination
        summary.update(extra)
        if counters is not None:
            summary["totals"] = _counter_totals(counters)
        summary["wall_time_s"] = time.perf_counter() - started
        return RunOutcome(exit_code=code, summary=summary, inner_trace=inner, outer_trace=outer)

    params = _solver_params(spec, epsilon)
    if isinstance(params, OuterParams):
        conic = built if spec.solver == "prox-al" else ConicProblem.unconstrained(built)
        params = params.resolved(conic)
    summary["params"] = _params_block(params, spec.solver)

    if spec.solver in ("apg", "apg-cert"):
        summary["params"]["gamma0"], summary["params"]["alpha0"] = params.effective(built.mu)
        init = _default_init(built, spec)
        if spec.solver == "apg":
            trace = apg_run(built, params, init, record_iterates=False)
            return finish(
                0, "iteration-budget",
                {"iterations": len(trace.rows), "residual_bound": None, "F_final": trace.rows[-1].F},
                inner=trace, counters=trace.counters,
            )
        try:
            res = apg_terminating(built, params, init, record_iterates=False)
        except SolveTimeout as exc:
            best = exc.best.residual if exc.best is not None else None
            return finish(
                2, "timeout",
                {"iterations": len(exc.trace.rows), "residual_bound": best},
                inner=exc.trace, counters=exc.trace.counters,
            )
        return finish(
            0, "certified",
            {"iterations": len(res.trace.rows), "residual_bound": res.certificate.residual},
            inner=res.trace, counters=res.trace.counters,
        )

    if spec.solver == "ppa":
        init = _default_init(built, spec)
        try:
            res = ppa_unconstrained(built, params, init)
        except SolveTimeout as exc:
            return finish(
                2, "timeout",
                {"outer_iterations": len(exc.trace.rows), "residual_bound": exc.best},
                outer=exc.trace, counters=exc.trace.counters,
            )
        return finish(
            0, "certified",
            {"outer_iterations": len(res.trace.rows), "residual_bound": res.residual_bound},
            outer=res.trace, counters=res.trace.counters,
        )

    # prox-al
    init_x = _default_init(built.base, spec)
    init_lam = np.zeros(built.cone.dim)
    try:
        res = prox_al(built, params, init_x, init_lam)
    except SolveTimeout as exc:
        best = exc.best
        kkt = None
        if best is not None:
            kkt = {
                "stationarity": best.stationarity_residual,
                "complementarity": best.complementarity_residual,
            }
        return finish(
            2, "timeout",
            {"outer_iterations": len(exc.trace.rows), "kkt": kkt},
            outer=exc.trace, counters=exc.trace.counters,
        )
    return finish(
        0, "certified",
        {
            "outer_iterations": len(res.trace.rows),
            "kkt": {
                "stationarity": res.report.stationarity_residual,
                "complementarity": res.report.complementarity_residual,
            },
        },
        outer=res.trace, counters=res.trace.counters,
    )


def write_inner_trace(trace: ApgTrace, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(INNER_COLUMNS)
        for row in trace.rows:
            writer.writerow([
                row.t, row.n_t, _fmt(row.gamma_t), _fmt(row.alpha_t), _fmt(row.beta_t),
                _fmt(row.F), _fmt(row.lambda_prod), row.grad_evals, row.prox_evals,
                _fmt(row.cert_residual),
            ])


def write_outer_trace(trace: OuterTrace, path: str):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(OUTER_COLUMNS)
        for row in trace.rows:
            writer.writerow([
                row.k, _fmt(row.rho_k), _fmt(row.eta_k), row.inner_iters,
                row.grad_evals, row.prox_evals, _fmt(row.step_norm),
                _fmt(row.kkt.stationarity_residual), _fmt(row.kkt.complementarity_residual),
            ])


def _write_outputs(outcome: RunOutcome, trace_path, summary_path):
    if trace_path:
        if outcome.inner_trace is not None:
            write_inner_trace(outcome.inner_trace, trace_path)
        elif outcome.outer_trace is not None:
            write_outer_trace(outcome.outer_trace, trace_path)
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(outcome.summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


def run(spec_path: str, trace_path=None, summary_path=None) -> int:
    """Solve a spec file; writes trace/summary when paths are given."""
    try:
        spec = load_run_spec(spec_path)
        outcome = execute(spec)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LineSearchFailure as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2
    _write_outputs(outcome, trace_path, summary_path)
    if outcome.exit_code != 0:
        print(f"not certified: {outcome.summary.get('termination')}", file=sys.stderr)
    return outcome.exit_code


def sweep(spec_path: str, epsilons: list[float], out_path: str) -> int:
    """Run one spec at several targets and tabulate evaluation scaling.

    Requires at least two strictly decreasing epsilons; the table lists
    epsilon, total gradient/prox evaluations, and the log-log slope of the
    gradient count between consecutive targets.
    """
    try:
        if len(epsilons) < 2:
            raise SpecError("sweep needs at least two epsilons")
        if not all(0 < eps < math.inf for eps in epsilons):
            raise SpecError("sweep epsilons must be finite and positive")
        if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
            raise SpecError("sweep epsilons must be strictly decreasing")
        spec = load_run_spec(spec_path)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = False
    rows = []
    prev = None
    for eps in epsilons:
        try:
            outcome = execute(spec, epsilon=eps)
        except (SpecError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except LineSearchFailure:
            outcome = None
        if outcome is None or outcome.exit_code != 0:
            failed = True
            break
        totals = outcome.summary["totals"]
        grad, prox = totals["grad_f_evals"], totals["prox_evals"]
        slope = None
        if prev is not None:
            eps_prev, grad_prev = prev
            slope = math.log(grad / grad_prev) / math.log(eps_prev / eps)
        rows.append((eps, grad, prox, slope))
        prev = (eps, grad)

    with open(out_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(("epsilon", "grad_evals", "prox_evals", "slope"))
        for eps, grad, prox, slope in rows:
            writer.writerow((_fmt(eps), grad, prox, _fmt(slope)))
    if failed:
        print("sweep aborted: a run did not certify; partial table written", file=sys.stderr)
        return 2
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: main may run many times."""
    parser = argparse.ArgumentParser(prog="proxcert", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run one solver on a spec file")
    p_solve.add_argument("--spec", required=True)
    p_solve.add_argument("--trace", default=None, help="per-iteration CSV output path")
    p_solve.add_argument("--summary", default=None, help="JSON summary output path")

    p_sweep = sub.add_parser("sweep", help="run one spec at several epsilons")
    p_sweep.add_argument("--spec", required=True)
    p_sweep.add_argument("--eps", required=True, help="comma-separated decreasing targets")
    p_sweep.add_argument("--out", required=True, help="scaling table CSV path")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "solve":
        return run(args.spec, trace_path=args.trace, summary_path=args.summary)
    try:
        epsilons = [float(tok) for tok in args.eps.split(",") if tok]
    except ValueError:
        print("error: --eps must be a comma-separated list of numbers", file=sys.stderr)
        return 1
    return sweep(args.spec, epsilons, args.out)


if __name__ == "__main__":
    sys.exit(main())
