"""Outside-in per-layer tracing of a proxcert solve.

Nothing under ``src/`` is edited.  The tracer wraps the oracles a solver
receives, and for the length of a traced pass it rebinds module-level names
that proxcert's modules call one another through (``outer.apg_terminating``,
``outer.project_dual``, ...).  A name missing from a later version of the
library is skipped, so its time folds into its caller's self time instead
of failing the run.

Spans are aggregated in memory as they close: per span name, the number of
calls, the total seconds and the self seconds (total minus the time of the
spans opened inside it).
"""

from __future__ import annotations

import dataclasses
from collections import defaultdict
from time import perf_counter

# (proxcert submodule, global name, span).  Calls made through these names
# are timed as a span of the named layer.
SPANS = (
    ("apg", "apg_terminating", "apg"),
    ("apg", "apg_run", "apg"),
    ("outer", "apg_terminating", "apg"),
    ("outer", "ppa_unconstrained", "outer"),
    ("outer", "prox_al", "outer"),
    ("outer", "project_dual", "proxcone.cone"),
    ("outer", "dist_polar", "proxcone.cone"),
    ("outer", "normal_cone_gap", "proxcone.cone"),
    ("cli", "apg_terminating", "apg"),
    ("cli", "apg_run", "apg"),
    ("cli", "ppa_unconstrained", "outer"),
    ("cli", "prox_al", "outer"),
)

# Calls through these names are only counted; their time stays in the caller.
COUNTS = (
    ("apg", "apg_iteration", "apg.iterations"),
    ("apg", "trial_step", "apg.trials"),
    ("apg", "certified_prox_step", "apg.cert_checks"),
)

# Generators whose problems are wrapped, for workloads whose problems are
# built inside the library (the CLI builds them from spec files).
GENERATORS = ("gen_quartic", "gen_constrained")

# (oracle method, span, matrix-vector products the generated oracles spend).
SMOOTH_METHODS = (("value", "oracle.f_value", 1), ("gradient", "oracle.f_grad", 2))
PROX_METHODS = (("value", "proxcone.p_value", 0), ("prox", "proxcone.prox", 0))
CONSTRAINT_METHODS = (("value", "oracle.g_value", 1), ("adjoint_apply", "oracle.g_adjoint", 1))


class Tracer:
    """Span aggregates for one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.matvecs = 0
        self.bytes_computed = 0
        self._stack: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, matvecs: int = 0, matrix_bytes: int = 0):
        """Return ``fn`` wrapped so that each call records a span called ``name``."""
        stack = self._stack

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                inner = stack.pop()
                self.calls[name] += 1
                self.seconds[name] += elapsed
                self.self_seconds[name] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if matvecs:
                    self.matvecs += matvecs
                    self.bytes_computed += matvecs * matrix_bytes

        return timed

    def count(self, name: str, fn):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrap(self, problem):
        """Copy of a CompositeProblem or ConicProblem whose oracles are timed."""
        if hasattr(problem, "constraint"):
            return dataclasses.replace(
                problem,
                base=self.wrap(problem.base),
                constraint=_Timed(problem.constraint, self, CONSTRAINT_METHODS, "matrix"),
            )
        return dataclasses.replace(
            problem,
            smooth=_Timed(problem.smooth, self, SMOOTH_METHODS, "rows"),
            nonsmooth=_Timed(problem.nonsmooth, self, PROX_METHODS, None),
        )

    def install(self, pc):
        """Rebind the traced names in the modules of ``pc`` until ``uninstall``."""
        for module_name, attr, span in SPANS:
            self._rebind(getattr(pc, module_name), attr, lambda fn, s=span: self.span(s, fn))
        for module_name, attr, name in COUNTS:
            self._rebind(getattr(pc, module_name), attr, lambda fn, n=name: self.count(n, fn))
        for attr in GENERATORS:
            self._rebind(pc.problems, attr, self._wrapping_generator)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _rebind(self, module, attr, make):
        original = vars(module).get(attr)
        if original is None:
            return
        setattr(module, attr, make(original))
        self._undo.append((module, attr, original))

    def _wrapping_generator(self, generate):
        def generate_traced(*args, **kwargs):
            made = generate(*args, **kwargs)
            if hasattr(made, "conic"):  # ConstrainedInstance: its base is already wrapped
                conic = made.conic
                timed = _Timed(conic.constraint, self, CONSTRAINT_METHODS, "matrix")
                return dataclasses.replace(made, conic=dataclasses.replace(conic, constraint=timed))
            return self.wrap(made)

        return generate_traced


class _Timed:
    """Oracle proxy that times the listed methods.

    Every other attribute, including optional oracle methods a later version
    of the library may look for, is read from the wrapped oracle.
    """

    def __init__(self, inner, tracer: Tracer, methods, matrix_attr):
        self._inner = inner
        matrix = getattr(inner, matrix_attr, None) if matrix_attr else None
        matrix_bytes = int(getattr(matrix, "nbytes", 0))
        for method, span, matvecs in methods:
            fn = getattr(inner, method)
            setattr(self, method, tracer.span(span, fn, matvecs if matrix_bytes else 0, matrix_bytes))

    def __getattr__(self, name):
        return getattr(self._inner, name)


def layer_metrics(tracer: Tracer, extras: dict, counters: dict) -> dict:
    """Per-layer metric values from one traced pass."""
    out = {}
    for name in ("oracle.f_value", "oracle.f_grad", "oracle.g_value", "oracle.g_adjoint",
                 "proxcone.cone", "proxcone.prox", "proxcone.p_value"):
        out[f"{name}.calls"] = tracer.calls[name]
        out[f"{name}.s"] = tracer.seconds[name]
    out["oracle.matvecs"] = tracer.matvecs
    out["oracle.bytes_computed"] = tracer.bytes_computed
    iterations = tracer.calls["apg.iterations"]
    trials = tracer.calls["apg.trials"]
    out["apg.self_s"] = tracer.self_seconds["apg"]
    out["apg.iterations"] = iterations
    out["apg.trials"] = trials
    out["apg.accept_ratio"] = iterations / trials if trials else 0.0
    out["apg.cert_checks"] = tracer.calls["apg.cert_checks"]
    out["outer.self_s"] = tracer.self_seconds["outer"]
    out["outer.steps"] = extras.get("outer.steps", 0)
    out["cli.overhead_s"] = extras.get("cli.overhead_s", 0.0)
    out["cli.output_bytes"] = extras.get("cli.output_bytes", 0)
    for key in ("g_evals", "adjoint_evals", "cone_proj_evals"):
        out[f"counters.{key}"] = counters.get(key, 0)
    return out
