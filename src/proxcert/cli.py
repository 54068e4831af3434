"""Command-line harness: run a solver on a spec file, emit traces and a summary.

Spec files are YAML with an explicit ``version: 1`` and fail loudly on
unknown or repeated keys.  Exit codes: 0 certified success, 1 spec/validation
error or bad output path (found before any solve), 2 timeout (partial outputs
still written) or solve failure (no outputs).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
import types
import typing
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

import numpy as np
import yaml

from . import problems
from .apg import ApgParams, ApgTrace, apg_run, apg_terminating
from .model import Array, ConicProblem, LineSearchFailure, SolveTimeout
from .outer import OuterParams, OuterTrace, ppa_unconstrained, prox_al
from .proxcone import BoxTerm, L1Term, NonnegativeTerm, SquaredL2Term, ZeroTerm

# libyaml's loader when PyYAML was built with it: the same documents as the
# pure-Python SafeLoader, parsed several times faster.
SPEC_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader

_TOP_KEYS = {"version", "solver", "epsilon", "problem", "params", "init"}
# The params: keys each solver reads are the fields of its params class bar
# epsilon, a top-level key; apg, which checks no certificate, reads no M.
_APG_KEYS = {f.name for f in dataclasses.fields(ApgParams)} - {"epsilon"}
_OUTER_KEYS = {f.name for f in dataclasses.fields(OuterParams)} - {"epsilon"}
_KEY_TYPES = typing.get_type_hints(ApgParams) | typing.get_type_hints(OuterParams)
# The problem: keys and their types, bar kind and prox, are the fields of the
# generators' specs; ConstrainedSpec.seed is written constraint_seed.
_QUARTIC_TYPES = typing.get_type_hints(problems.QuarticSpec)
_CONSTRAINT_TYPES = typing.get_type_hints(problems.ConstrainedSpec)
_CONSTRAINT_TYPES["constraint_seed"] = _CONSTRAINT_TYPES.pop("seed")
del _QUARTIC_TYPES["prox"], _CONSTRAINT_TYPES["base"]
# Spec values are looked up in tuple(table), as YAML lists are unhashable.
_PROBLEM_KEYS = {
    "quartic": {"kind", "prox", *_QUARTIC_TYPES},
    "constrained": {"kind", "prox", *_QUARTIC_TYPES, *_CONSTRAINT_TYPES},
    "named": {"kind", "name"},
}
_NAMED = {"ineq-1d": problems.ineq_quadratic_1d, "eq-qp-2d": problems.eq_quadratic_2d}
# A prox: block's keys are kind and its term's init fields bar dim, which is n.
_PROX_TERMS = {
    "zero": ZeroTerm,
    "l1": L1Term,
    "box": BoxTerm,
    "nonneg": NonnegativeTerm,
    "squared_l2": SquaredL2Term,
}

INNER_COLUMNS = (
    "t", "n_t", "gamma_t", "alpha_t", "beta_t", "F", "lambda_prod",
    "grad_evals", "prox_evals", "cert_residual",
)
OUTER_COLUMNS = (
    "k", "rho_k", "eta_k", "inner_iters", "grad_evals", "prox_evals",
    "step_norm", "stat_res", "comp_res",
)
_INNER_FIELDS = attrgetter(*INNER_COLUMNS[:-1])


def _inner_cells(row) -> tuple:
    """An inner row's CSV cells: its fields, then its certificate's residual (empty if none)."""
    return (*_INNER_FIELDS(row), None if row.certificate is None else row.certificate.residual)


# Each trace type's CSV columns, and the cells of a row under them.
_TRACE_CSV = {
    ApgTrace: (INNER_COLUMNS, _inner_cells),
    OuterTrace: (OUTER_COLUMNS, attrgetter(
        *OUTER_COLUMNS[:-2], "kkt.stationarity_residual", "kkt.complementarity_residual",
    )),
}


class SpecError(ValueError):
    """Invalid run specification."""


class _SpecLoader(SPEC_LOADER):
    """SPEC_LOADER, except that a mapping may not repeat a key, at any depth."""

    def construct_mapping(self, node, deep=False):
        mapping = super().construct_mapping(node, deep=deep)  # rejects unhashable keys
        if len(mapping) < len(node.value):  # some key repeats: name the first repeat
            keys = [self.construct_object(key, deep=deep) for key, _ in node.value]
            i = next(i for i, key in enumerate(keys) if key in keys[:i])
            line = node.value[i][0].start_mark.line + 1
            raise SpecError(f"duplicate key {keys[i]!r} at line {line} of the spec file")
        return mapping


@dataclass(frozen=True)
class _Solver:
    """What ``execute`` needs of one solver.

    ``entry`` names its entry point, looked up in this module at call time,
    since tracers rebind those names.  ``keys`` are the params: keys it
    reads, and its summary block's.  ``block`` makes the summary fields from
    the solve's trace: its length and its ``best`` (None if it has none; the
    last row on a certified return), or apg's last F.  ``budget`` is set for
    the solver with no termination test: its default max_iters.
    """

    entry: str
    params: type
    keys: set
    block: Callable
    conic: bool = False
    budget: int | None = None


def _kkt(report) -> dict | None:
    if report is None:
        return None
    return {
        "stationarity": report.stationarity_residual,
        "complementarity": report.complementarity_residual,
    }


# getattr(best, name, None) is None when the trace has no best
_SOLVERS = {
    "apg": _Solver(
        "apg_run", ApgParams, _APG_KEYS - {"M"},
        lambda t: {"iterations": len(t.rows), "residual_bound": None, "F_final": t.rows[-1].F},
        budget=1000,
    ),
    "apg-cert": _Solver(
        "apg_terminating", ApgParams, _APG_KEYS,
        lambda t: {"iterations": len(t.rows), "residual_bound": getattr(t.best, "residual", None)},
    ),
    "ppa": _Solver(
        "ppa_unconstrained", OuterParams, _OUTER_KEYS,
        lambda t: {
            "outer_iterations": len(t.rows),
            "residual_bound": getattr(t.best, "stationarity_residual", None),
        },
    ),
    "prox-al": _Solver(
        "prox_al", OuterParams, _OUTER_KEYS,
        lambda t: {"outer_iterations": len(t.rows), "kkt": _kkt(t.best)}, conic=True,
    ),
}
SOLVERS = tuple(_SOLVERS)


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


def _vector(key: str, value, n: int, where: str) -> Array:
    """A number, or a list of 1 or n numbers, as a float vector of length n."""
    items = value if isinstance(value, list) else [value]
    if len(items) not in (1, n):
        raise SpecError(f"{where}.{key} must be a number or a list of {n} numbers, got {value!r}")
    vector = np.array([_typed(key, item, float, where) for item in items])
    return np.broadcast_to(vector, (n,)).copy()


def load_run_spec(path: str) -> RunSpec:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=_SpecLoader)
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
    if kind not in tuple(_PROBLEM_KEYS):
        raise SpecError(f"problem.kind must be quartic, constrained, or named, got {kind!r}")
    _check_keys(problem, _PROBLEM_KEYS[kind], "problem")
    params = {} if doc.get("params") is None else doc["params"]  # only missing or null means none
    if not isinstance(params, dict):
        raise SpecError("params must be a mapping")
    _check_keys(params, _SOLVERS[solver].keys, f"params of solver {solver}")
    params = {key: _typed(key, value) for key, value in params.items()}
    epsilon = doc.get("epsilon")
    if epsilon is not None:
        epsilon = _typed("epsilon", epsilon, float, "spec")
        if not 0 < epsilon < math.inf:
            raise SpecError(f"spec.epsilon must be finite and positive, got {epsilon!r}")
    if _SOLVERS[solver].budget is None and epsilon is None:
        raise SpecError(f"solver {solver} requires epsilon")
    init = doc.get("init")
    if init is not None:
        if not isinstance(init, list):
            raise SpecError("init must be a list of numbers")
        init = [_typed("init", value, float, "spec") for value in init]
    return RunSpec(solver=solver, epsilon=epsilon, problem=problem, params=params, init=init)


def _build_prox(node, n: int):
    if node is None:
        return None
    if not isinstance(node, dict) or "kind" not in node:
        raise SpecError("prox must be a mapping with a kind")
    kind = node["kind"]
    if kind not in tuple(_PROX_TERMS):
        raise SpecError(f"unknown prox kind {kind!r}")
    term = _PROX_TERMS[kind]
    hints = typing.get_type_hints(term)
    fields = {f.name: hints[f.name] for f in dataclasses.fields(term) if f.init}
    _check_keys(node, {"kind", *fields} - {"dim"}, "prox")
    args = {}
    for key, field_type in fields.items():
        if key == "dim":
            args[key] = n
        elif key not in node:
            raise SpecError(f"prox.{key} must be given for prox kind {kind}")
        elif field_type is Array:
            args[key] = _vector(key, node[key], n, "prox")
        else:
            args[key] = _typed(key, node[key], field_type, "prox")
    return term(**args)


def build_problem(spec: RunSpec):
    """Instantiate the problem object and its metadata block."""
    node = spec.problem
    kind = node["kind"]
    if kind == "named":
        name = node.get("name")
        if name not in tuple(_NAMED):
            raise SpecError(f"unknown named instance {name!r}")
        return _NAMED[name](), {"kind": "named", "name": name}
    sizes = {
        key: _typed(key, node[key], key_type, "problem")
        for key, key_type in (_QUARTIC_TYPES | _CONSTRAINT_TYPES).items() if key in node
    }
    quartic = {"n": 1, "k_terms": 1, "seed": 0} | {k: v for k, v in sizes.items() if k in _QUARTIC_TYPES}
    qspec = problems.QuarticSpec(**quartic, prox=_build_prox(node.get("prox"), quartic["n"]))
    meta = {"kind": kind, **{key: getattr(qspec, key) for key in _QUARTIC_TYPES}}
    meta["generator"] = problems.GENERATOR_NAME
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


def _solver_params(solver: _Solver, spec: RunSpec, epsilon, mu: float):
    """The solver's params (dataclass defaults plus the spec's params:),
    resolved for modulus mu, and its summary block.

    The block holds every setting the solver reads, under its params: key,
    with the value it uses, so it can be fed back.
    """
    budget = {} if solver.budget is None else {"max_iters": solver.budget}
    params = solver.params(epsilon=epsilon, **(budget | spec.params)).resolved(mu)
    return params, {key: getattr(params, key) for key in solver.keys}


@dataclass
class RunOutcome:
    exit_code: int
    summary: dict
    trace: ApgTrace | OuterTrace


def execute(spec: RunSpec, epsilon: float | None = None) -> RunOutcome:
    """Run the configured solver; never raises on timeout (exit code 2 instead)."""
    epsilon = spec.epsilon if epsilon is None else epsilon
    solver = _SOLVERS[spec.solver]
    built, meta = build_problem(spec)
    if isinstance(built, ConicProblem) != solver.conic:
        kind = "a constrained" if solver.conic else "an unconstrained"
        raise SpecError(f"solver {spec.solver} requires {kind} problem")
    started = time.perf_counter()
    base = built.base if solver.conic else built
    params, block = _solver_params(solver, spec, epsilon, base.mu)
    x0 = base.nonsmooth.prox(1.0, np.zeros(base.dim)) if spec.init is None else np.array(spec.init)
    init = (x0, np.zeros(built.cone.dim)) if solver.conic else (x0,)
    code, termination = 0, "certified" if solver.budget is None else "iteration-budget"
    try:
        result = globals()[solver.entry](built, params, *init)
        trace = result if isinstance(result, ApgTrace) else result.trace
    except SolveTimeout as exc:
        code, termination, trace = 2, "timeout", exc.trace
    summary = {
        "version": 1, "solver": spec.solver, "epsilon": epsilon, "problem": meta,
        "params": block, "termination": termination, **solver.block(trace),
        "totals": dataclasses.asdict(trace.counters),
        "wall_time_s": time.perf_counter() - started,
    }
    return RunOutcome(exit_code=code, summary=summary, trace=trace)


def _write_csv(path: str, columns, rows):
    """Write a CSV file: the header ``columns``, then each row's cells through ``_fmt``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows([_fmt(value) for value in row] for row in rows)


def write_trace(trace: ApgTrace | OuterTrace, path: str):
    columns, cells = _TRACE_CSV[type(trace)]
    _write_csv(path, columns, map(cells, trace.rows))


def _check_output_paths(*paths):
    """SpecError unless each given path names a non-directory in a directory that exists."""
    for path in filter(None, paths):
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise SpecError(f"output path {path} is a directory or in a missing one")


def run(spec_path: str, trace_path=None, summary_path=None) -> int:
    """Solve a spec file; writes trace/summary when paths are given.

    Returns 0, or 2 on a timeout; raises its errors and solve failures to ``main``.
    """
    _check_output_paths(trace_path, summary_path)
    outcome = execute(load_run_spec(spec_path))
    if trace_path:
        write_trace(outcome.trace, trace_path)
    if summary_path:
        with open(summary_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(outcome.summary, indent=2, sort_keys=True) + "\n")
    if outcome.exit_code != 0:
        print(f"not certified: {outcome.summary.get('termination')}", file=sys.stderr)
    return outcome.exit_code


def sweep(spec_path: str, epsilons: list[float], out_path: str) -> int:
    """Run one spec at several targets and tabulate evaluation scaling.

    Requires at least two strictly decreasing epsilons and a solver that
    stops at epsilon, so not apg, which runs a fixed budget; the table lists
    epsilon, total gradient/prox evaluations, and the log-log slope of the
    gradient count between consecutive targets.  Returns 0, or 2 when a
    run did not certify, after writing the rows before it; raises as ``run``.
    """
    _check_output_paths(out_path)
    if len(epsilons) < 2:
        raise SpecError("sweep needs at least two epsilons")
    if not all(0 < eps < math.inf for eps in epsilons):
        raise SpecError("sweep epsilons must be finite and positive")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise SpecError("sweep epsilons must be strictly decreasing")
    spec = load_run_spec(spec_path)
    if _SOLVERS[spec.solver].budget is not None:
        raise SpecError(
            f"sweep needs a solver that stops at epsilon; {spec.solver} runs a fixed budget"
        )
    rows = []
    for eps in epsilons:
        try:
            outcome = execute(spec, epsilon=eps)
        except LineSearchFailure as exc:
            print(f"solve failed: {exc}", file=sys.stderr)
            break
        if outcome.exit_code != 0:
            break
        totals = outcome.summary["totals"]
        grad, prox = totals["grad_f_evals"], totals["prox_evals"]
        slope = None
        if rows:
            eps_prev, grad_prev = rows[-1][:2]
            slope = math.log(grad / grad_prev) / math.log(eps_prev / eps)
        rows.append((eps, grad, prox, slope))
    _write_csv(out_path, ("epsilon", "grad_evals", "prox_evals", "slope"), rows)
    if len(rows) < len(epsilons):
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
    """Run one subcommand and give each failure its line and exit code: an error
    prints ``error: ...`` and returns 1, a solve failure ``solve failed: ...`` and 2."""
    args = _parser().parse_args(argv)
    try:
        if args.command == "solve":
            return run(args.spec, trace_path=args.trace, summary_path=args.summary)
        try:
            epsilons = [float(tok) for tok in args.eps.split(",")]
        except ValueError:
            raise SpecError("--eps must be a comma-separated list of numbers") from None
        return sweep(args.spec, epsilons, args.out)
    except (SpecError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except LineSearchFailure as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
