"""Set-up, closed-loop passes and metric assembly for one workload run."""

from __future__ import annotations

import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy

from speed import Probe
from tracer import Tracer, layer_metrics
from workloads import PROBE_KERNEL, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("model", "proxcone", "apg", "outer", "problems", "cli")

# Set-ups sampled in every timed run; their median is reported.
SETUPS = 31


def declared_units(kind: str) -> dict:
    """Metric names and units of one list ("end_to_end" or "per_layer") of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class SourceMissing(RuntimeError):
    """The checkout holds no proxcert sources to benchmark."""


def load_proxcert() -> SimpleNamespace:
    """Import proxcert from this checkout's ``src`` directory."""
    if not (SRC / "proxcert" / "__init__.py").is_file():
        raise SourceMissing(f"no proxcert package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return import_fresh()


def import_fresh() -> SimpleNamespace:
    """Drop every loaded proxcert module and import them again."""
    for name in [m for m in sys.modules if m == "proxcert" or m.startswith("proxcert.")]:
        del sys.modules[name]
    pc = SimpleNamespace(**{m: importlib.import_module(f"proxcert.{m}") for m in MODULES})
    if not Path(pc.model.__file__).resolve().is_relative_to(SRC):
        raise SourceMissing(f"proxcert was imported from {pc.model.__file__}, not {SRC}")
    return pc


@dataclass
class Pass:
    spans: list = field(default_factory=list)  # (start, end) of each solve
    times: list = field(default_factory=list)  # seconds of each solve
    case_counts: list = field(default_factory=list)
    layer: Counter = field(default_factory=Counter)
    failed: int = 0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def counts(self) -> Counter:
        total = Counter()
        for counts in self.case_counts:
            total.update(counts)
        return total


def run_pass(pc, cases, wrap, between=None) -> Pass:
    """Solve every case back to back; only the solve calls are timed.

    ``between``, if given, is called before each solve, outside its timing.
    """
    out = Pass()
    for case in cases:
        if between is not None:
            between()
        start = perf_counter()
        try:
            result = case.solve(pc, wrap)
        except Exception:  # a solve that raises counts as failed
            out.failed += 1
            traceback.print_exc()
            continue
        finally:
            end = perf_counter()
            out.spans.append((start, end))
            out.times.append(end - start)
        try:
            review = case.review(result)
        except Exception:
            out.failed += 1
            traceback.print_exc()
            continue
        out.failed += not review.ok
        out.case_counts.append(review.counts)
        out.layer.update(review.layer)
    return out


def _identity(problem):
    return problem


def blas_threads():
    """Thread count OpenBLAS reports in this process, or None if unknown."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    return int(fn())
    return None


def environment() -> dict:
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run(workload: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """One benchmark run: set-up, a warm-up solve, then timed or traced passes.

    Call ``load_proxcert`` first, so that proxcert is found.
    """
    build = WORKLOADS[workload]
    workdir = ROOT / ".perfbench" / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def set_up():
        start = perf_counter()
        pc = import_fresh()
        cases = build(pc, seed, tiny, str(workdir))
        return pc, cases, (start, perf_counter())

    try:
        if traced:
            pc, cases, _ = set_up()
            result = _traced(pc, cases, run_pass(pc, cases[:1], _identity))
        else:
            result = _timed(set_up, seconds, PROBE_KERNEL[workload])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    result["environment"] = environment()
    return result


def _repeats(warm: Pass, passes) -> bool:
    """The solver is deterministic: every pass, and the warm-up solve, spend the same oracle calls."""
    first = passes[0].case_counts
    return warm.case_counts == first[:1] and all(p.case_counts == first for p in passes)


def _timed(set_up, seconds: float, kernel: str) -> dict:
    # Every set-up and solve runs under the speed probe, and is reported in
    # seconds at its reference speed (see speed.py).  Set-up is sampled at
    # evenly spaced moments of the run, between solves, so that its median
    # sees the same machine as the solves do.
    setups, passes = [], []
    spacing = seconds / SETUPS

    def take_setup():
        setups.append(set_up()[2])
        gc.collect()  # the replaced modules' cycles, so no solve pays for them

    def setup_when_due():
        if len(setups) < SETUPS and perf_counter() - start >= spacing * len(setups):
            take_setup()

    with Probe(kernel) as probe:
        pc, cases, span = set_up()
        setups.append(span)
        warm = run_pass(pc, cases[:1], _identity)  # not reported
        start = perf_counter()
        while True:
            passes.append(run_pass(pc, cases, _identity, between=setup_when_due))
            elapsed = perf_counter() - start
            if elapsed + elapsed / len(passes) > seconds:
                break
        while len(setups) < SETUPS:
            take_setup()
    unscaled = {
        "setup_s": statistics.median(end - start for start, end in setups),
        "solve_wall_s": statistics.median(p.wall for p in passes),
        "probe_speed": probe.speed(),
    }
    for p in passes:
        p.times = [probe.seconds(*span) for span in p.spans]
    values = {
        "setup_s": statistics.median(probe.seconds(*span) for span in setups),
        "solve_wall_s": statistics.median(p.wall for p in passes),
        "solve_p50_s": statistics.median(t for p in passes for t in p.times),
        "grad_evals": passes[0].counts["grad_f_evals"],
        "prox_evals": passes[0].counts["prox_evals"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    result = _result(passes, _repeats(warm, passes), values, "end_to_end")
    result["unscaled"] = unscaled
    return result


def _traced(pc, cases, warm: Pass) -> dict:
    plain = run_pass(pc, cases, _identity)
    tracer = Tracer()
    tracer.install(pc)
    try:
        traced = run_pass(pc, cases, tracer.wrap)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer, traced.layer, traced.counts)
    values["bench.trace_overhead"] = traced.wall / plain.wall
    # Tracing must not change what the solver does.
    return _result([plain, traced], _repeats(warm, [plain, traced]), values, "per_layer")


def _result(passes, repeatable: bool, values: dict, kind: str) -> dict:
    units = declared_units(kind)
    if set(values) != set(units):
        raise ValueError(f"metrics {sorted(set(values) ^ set(units))} differ from BENCHMARK.json {kind}")
    failed = sum(p.failed for p in passes)
    return {
        "correct": failed == 0 and repeatable,
        "attempted": sum(len(p.times) for p in passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
