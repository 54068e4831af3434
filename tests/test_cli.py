import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from proxcert import OuterParams, cli, problems
from proxcert.cli import SPEC_LOADER, main

from conftest import nan_after

QUARTIC_PPA = {
    "version": 1,
    "solver": "ppa",
    "epsilon": 1e-4,
    "problem": {"kind": "quartic", "n": 1, "k_terms": 1, "seed": 3, "mu_add": 0.0},
}


def write_spec(path, doc):
    """Write ``doc``, a mapping to dump or the spec's text, and return its path."""
    path.write_text(doc if isinstance(doc, str) else yaml.safe_dump(doc))
    return str(path)


# QUARTIC_PPA's text at epsilon 1e-6, whose cases below repeat one key each
QUARTIC_PPA_TEXT = """\
version: 1
solver: ppa
epsilon: 1.0e-6
problem:
  kind: quartic
  n: 1
  k_terms: 1
  seed: 3
  mu_add: 0.0
"""

NAMED_PROX_AL = {
    "version": 1,
    "solver": "prox-al",
    "epsilon": 1e-4,
    "problem": {"kind": "named", "name": "ineq-1d"},
}
APG_CERT = {
    "version": 1,
    "solver": "apg-cert",
    "epsilon": 1e-6,
    "problem": {"kind": "quartic", "n": 4, "k_terms": 3, "seed": 5, "mu_add": 1.0},
}
TIMEOUT_APG_CERT = {  # runs out of its 5 iterations
    "version": 1, "solver": "apg-cert", "epsilon": 1e-14,
    "problem": {"kind": "quartic", "n": 3, "k_terms": 2, "seed": 5, "mu_add": 1.0},
    "params": {"max_iters": 5, "M": 2},
}


README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"


INNER_HEADER = ["t", "n_t", "gamma_t", "alpha_t", "beta_t", "F", "lambda_prod",
                "grad_evals", "prox_evals", "cert_residual"]
OUTER_HEADER = ["k", "rho_k", "eta_k", "inner_iters", "grad_evals", "prox_evals",
                "step_norm", "stat_res", "comp_res", "stop"]


def run_solve(tmp_path, doc, name="spec.yaml"):
    spec = write_spec(tmp_path / name, doc)
    trace = tmp_path / "trace.csv"
    summary = tmp_path / "summary.json"
    code = main(["solve", "--spec", spec, "--trace", str(trace), "--summary", str(summary)])
    summary_doc = json.loads(summary.read_text()) if summary.exists() else None
    rows = None
    if trace.exists():
        with trace.open() as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        assert reader.fieldnames in (INNER_HEADER, OUTER_HEADER)
    return code, summary_doc, rows


def best_in_csv(solver, rows):
    """The summary's result fields as a solve's trace CSV gives them.

    residual_bound is the least cert_residual of an inner trace, or the
    stat_res of an outer trace's best row, its first of least max(stat_res,
    comp_res), of which kkt holds both; each is None when the CSV has no such
    row.  F_final, for apg, is the last F.
    """
    if solver == "apg":
        return {"residual_bound": None, "F_final": float(rows[-1]["F"])}
    if solver == "apg-cert":
        residuals = [float(row["cert_residual"]) for row in rows if row["cert_residual"]]
        return {"residual_bound": min(residuals, default=None)}
    if not rows:
        return {"residual_bound": None} if solver == "ppa" else {"kkt": None}
    worst = [max(float(row["stat_res"]), float(row["comp_res"])) for row in rows]
    best = rows[worst.index(min(worst))]
    if solver == "ppa":
        return {"residual_bound": float(best["stat_res"])}
    stationarity, complementarity = float(best["stat_res"]), float(best["comp_res"])
    return {"kkt": {"stationarity": stationarity, "complementarity": complementarity}}


class TestSolve:
    def test_quartic_ppa_certifies(self, tmp_path):
        code, summary, rows = run_solve(tmp_path, QUARTIC_PPA)
        assert code == 0
        assert summary["termination"] == "certified"
        assert summary["residual_bound"] <= 1e-4
        assert summary["problem"]["generator"] == "numpy-pcg64"

    def test_sigma_zeta_violation_is_validation_error(self, tmp_path, capsys):
        doc = dict(QUARTIC_PPA, params={"sigma": 0.6, "zeta": 2.0})
        code, summary, rows = run_solve(tmp_path, doc)
        assert code == 1
        assert "0 < sigma < 1/zeta" in capsys.readouterr().err
        assert summary is None

    def test_unknown_key_rejected(self, tmp_path, capsys):
        doc = dict(QUARTIC_PPA)
        doc["solvr"] = "ppa"
        code, _, _ = run_solve(tmp_path, doc)
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_missing_version_rejected(self, tmp_path):
        doc = dict(QUARTIC_PPA)
        del doc["version"]
        code, _, _ = run_solve(tmp_path, doc)
        assert code == 1

    @pytest.mark.parametrize("text", ["version: 1\nsolver: [apg\n", "problem: {kind: quartic\n",
                                      "version: 1\n  solver: ppa\n\tepsilon: 1\n"])
    def test_malformed_yaml_is_one_error_line(self, tmp_path, capsys, text):
        spec = tmp_path / "bad.yaml"
        spec.write_text(text, encoding="utf-8")
        summary = tmp_path / "summary.json"
        assert main(["solve", "--spec", str(spec), "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec file is not valid YAML") and err.count("\n") == 1
        assert not summary.exists()

    @pytest.mark.parametrize("text", ["true", ".inf", "-.inf", ".nan", "0", "-1.0e-4", "[1]", "tiny"])
    def test_epsilon_must_be_a_finite_positive_number(self, tmp_path, capsys, text):
        doc = {key: value for key, value in QUARTIC_PPA.items() if key != "epsilon"}
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"{yaml.safe_dump(doc)}epsilon: {text}\n", encoding="utf-8")
        summary = tmp_path / "summary.json"
        assert main(["solve", "--spec", str(spec), "--summary", str(summary)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec.epsilon must be") and err.count("\n") == 1
        assert not summary.exists()

    @pytest.mark.parametrize("prox, name", [
        ({"kind": "box", "lower": math.nan, "upper": 1.0}, "lower"),
        ({"kind": "box", "lower": -1.0, "upper": -math.inf}, "upper"),
        ({"kind": "squared_l2", "coef": 1.0, "center": math.nan}, "center"),
        ({"kind": "squared_l2", "coef": math.inf, "center": 0.0}, "coef"),
        ({"kind": "l1", "weight": math.inf}, "weight"),
    ], ids=["box-lower-nan", "box-upper-minus-inf", "l2-center-nan", "l2-coef-inf",
            "l1-weight-inf"])
    def test_non_finite_prox_parameter_is_one_error_line(self, tmp_path, capsys, prox, name):
        # each used to fail later, at the start point, without naming the field
        doc = dict(APG_CERT, problem={
            "kind": "quartic", "n": 3, "k_terms": 2, "seed": 1, "mu_add": 1.0, "prox": prox,
        })
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, summary, _ = run_solve(tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must") and err.count("\n") == 1
        assert summary is None

    @pytest.mark.parametrize("solver", ["apg", "apg-cert", "ppa", "prox-al"])
    @pytest.mark.parametrize("mu_add", [math.nan, math.inf])
    def test_non_finite_mu_is_one_error_line(self, tmp_path, capsys, solver, mu_add):
        kind = "constrained" if solver == "prox-al" else "quartic"
        doc = {
            "version": 1, "solver": solver, "epsilon": 1e-4,
            "problem": {"kind": kind, "n": 3, "k_terms": 2, "seed": 1, "mu_add": mu_add},
        }
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: mu must be nonnegative and finite") and err.count("\n") == 1
        assert summary is None

    @pytest.mark.parametrize("doc, message", [
        ([1, 2], "spec file must contain a mapping"),
        (dict(QUARTIC_PPA, solver="pga"), "solver must be one of"),
        (dict(QUARTIC_PPA, problem=[1]), "problem must be a mapping"),
        (dict(QUARTIC_PPA, problem={"kind": "cubic"}), "problem.kind must be quartic"),
        # only a missing or null params: means none; all of these but [1]
        # once solved with the defaults
        *[(dict(QUARTIC_PPA, params=bad), "params must be a mapping")
          for bad in ([1], [], 0, False, "")],
        *[
            ({key: value for key, value in dict(QUARTIC_PPA, solver=solver).items()
              if key != "epsilon"}, f"solver {solver} requires epsilon")
            for solver in ("apg-cert", "ppa", "prox-al")
        ],
        (dict(QUARTIC_PPA, init=1.0), "init must be a list of numbers"),
        (dict(QUARTIC_PPA, problem=dict(QUARTIC_PPA["problem"], prox={"weight": 1.0})),
         "prox must be a mapping with a kind"),
        (dict(NAMED_PROX_AL, problem={"kind": "named", "name": "eq-qp-3d"}),
         "unknown named instance 'eq-qp-3d'"),
        # a repeated key, at any depth, once took its last value: the first
        # of these specs solved at 1e-2
        (QUARTIC_PPA_TEXT.replace("1.0e-6\n", "1.0e-6\nepsilon: 1.0e-2\n"),
         "duplicate key 'epsilon' at line 4 of the spec file"),
        (QUARTIC_PPA_TEXT.replace("seed: 3\n", "seed: 3\n  seed: 4\n"),
         "duplicate key 'seed' at line 9 of the spec file"),
        (QUARTIC_PPA_TEXT + "  prox: {kind: l1, weight: 1.0, weight: 2.0}\n",
         "duplicate key 'weight' at line 10 of the spec file"),
    ], ids=[
        "document", "solver", "problem", "problem-kind", "params", "params-empty-list",
        "params-zero", "params-false", "params-empty-string", "apg-cert-epsilon",
        "ppa-epsilon", "prox-al-epsilon", "init", "prox-kind", "named-instance",
        "duplicate-top", "duplicate-problem", "duplicate-prox",
    ])
    def test_malformed_spec_is_one_error_line(self, tmp_path, capsys, doc, message):
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert summary is None

    @pytest.mark.parametrize("params", [{}, None], ids=["empty", "null"])
    def test_empty_or_null_params_solve_with_the_defaults(self, tmp_path, params):
        code, summary, _ = run_solve(tmp_path, dict(QUARTIC_PPA, params=params))
        assert code == 0
        assert summary["params"] == run_solve(tmp_path, QUARTIC_PPA, "plain.yaml")[1]["params"]

    @pytest.mark.parametrize("flag", ["--trace", "--summary"])
    def test_unwritable_output_path_is_one_error_line(self, tmp_path, capsys, monkeypatch, flag):
        # checked before the solve: no solve runs and the other output is not
        # written, where the trace was once written before the summary failed
        calls = []
        monkeypatch.setattr(cli, "ppa_unconstrained", lambda *args: calls.append(args))
        spec = write_spec(tmp_path / "spec.yaml", QUARTIC_PPA)
        other_flag = {"--trace": "--summary", "--summary": "--trace"}[flag]
        other = tmp_path / "other"
        for bad in (tmp_path / "missing" / "out", tmp_path):  # no such directory; a directory
            assert main(["solve", "--spec", spec, flag, str(bad), other_flag, str(other)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: output path ") and str(bad) in err
            assert err.count("\n") == 1
            assert not other.exists()
        assert calls == []

    def test_named_instance_prox_al(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "prox-al",
            "epsilon": 1e-4,
            "problem": {"kind": "named", "name": "ineq-1d"},
        }
        code, summary, rows = run_solve(tmp_path, doc)
        assert code == 0
        assert summary["kkt"]["stationarity"] <= 1e-4
        assert summary["kkt"]["complementarity"] <= 1e-4
        assert summary["outer_iterations"] == len(rows)
        assert {row["stop"] for row in rows} <= {"eta_k", "relative", "outer"}

    def test_nan_gradient_is_a_solve_failure(self, tmp_path, capsys, monkeypatch):
        # iteration 1 takes one gradient and the check after it two, with
        # which the solve certifies; with the third a NaN, the check fails
        # and the first trial of iteration 2 meets the NaN path
        nan_problem, calls = nan_after(2, dim=2)
        monkeypatch.setattr(problems, "gen_quartic", lambda spec: nan_problem)
        doc = {
            "version": 1,
            "solver": "apg-cert",
            "epsilon": 1e-6,
            "problem": {"kind": "quartic", "n": 2, "k_terms": 1, "seed": 0, "mu_add": 1.0},
            "init": [1.0, 1.0],
        }
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed: non-finite") and err.count("\n") == 1
        assert len(calls) == 4

    def test_an_overflowing_first_step_is_a_solve_failure(self, tmp_path, capsys):
        # the alpha recursion is exact at gamma0 = 1e200, and the first
        # trial's curvature test overflows, which the solve reports as its one
        # line: the CLI solves with NumPy's overflow warnings off, so none
        # escapes (under this suite's filterwarnings, one would fail the test)
        doc = {
            "version": 1,
            "solver": "apg",
            "problem": {"kind": "quartic", "n": 3, "k_terms": 2, "seed": 1},
            "params": {"gamma0": 1.0e200},
        }
        code, _, _ = run_solve(tmp_path, doc)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("solve failed: non-finite curvature test") and err.count("\n") == 1

    def test_solver_problem_compatibility(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "prox-al",
            "epsilon": 1e-4,
            "problem": {"kind": "quartic", "n": 1, "k_terms": 1, "seed": 0},
        }
        code, _, _ = run_solve(tmp_path, doc)
        assert code == 1
        doc2 = dict(QUARTIC_PPA, solver="apg-cert")  # mu = 0 is incompatible
        assert run_solve(tmp_path, doc2, "s2.yaml")[0] == 1

    def test_trace_counts_match_summary(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "apg-cert",
            "epsilon": 1e-6,
            "problem": {"kind": "quartic", "n": 4, "k_terms": 3, "seed": 5, "mu_add": 1.0},
        }
        code, summary, rows = run_solve(tmp_path, doc)
        assert code == 0
        assert summary["iterations"] == len(rows)
        last = rows[-1]
        assert int(last["grad_evals"]) == summary["totals"]["grad_f_evals"]
        assert int(last["prox_evals"]) == summary["totals"]["prox_evals"]
        # one f value per trial, each with its prox
        assert summary["totals"]["f_evals"] == summary["totals"]["prox_evals"]
        unchecked = [r for r in rows if r["cert_residual"] == ""]
        assert len(unchecked) < len(rows)

    def test_outer_trace_counts_match_summary(self, tmp_path):
        code, summary, rows = run_solve(tmp_path, QUARTIC_PPA)
        assert code == 0
        assert summary["outer_iterations"] == len(rows)
        last = rows[-1]
        assert int(last["grad_evals"]) == summary["totals"]["grad_f_evals"]
        assert int(last["prox_evals"]) == summary["totals"]["prox_evals"]
        assert summary["totals"]["f_evals"] == summary["totals"]["prox_evals"]
        assert float(last["stat_res"]) == summary["residual_bound"]

    def test_rerun_is_deterministic(self, tmp_path):
        code1, s1, rows1 = run_solve(tmp_path, QUARTIC_PPA, "a.yaml")
        code2, s2, rows2 = run_solve(tmp_path, QUARTIC_PPA, "b.yaml")
        assert code1 == code2 == 0
        s1.pop("wall_time_s")
        s2.pop("wall_time_s")
        assert s1 == s2
        assert rows1 == rows2

    def test_timeout_exit_code_and_partial_outputs(self, tmp_path):
        quartic = {"kind": "quartic", "n": 20, "k_terms": 5, "seed": 3, "mu_add": 0}
        cases = [  # (spec, trace rows); the ppa and last prox-al ones run out of inner iterations
            (TIMEOUT_APG_CERT, 5),
            ({
                "version": 1, "solver": "ppa", "epsilon": 1e-10, "problem": quartic,
                "params": {"max_iters": 3},
            }, 0),
            ({
                "version": 1, "solver": "prox-al", "epsilon": 1e-10,
                "problem": dict(quartic, kind="constrained", m1=3, m2=1),
                "params": {"max_iters": 12},
            }, 10),
            (dict(NAMED_PROX_AL, params={"max_iters": 1}), 0),
        ]
        certified = [  # apg certifies nothing: it runs its budget
            {"version": 1, "solver": "apg", "problem": TIMEOUT_APG_CERT["problem"],
             "params": {"max_iters": 20}},
            APG_CERT, QUARTIC_PPA, NAMED_PROX_AL,
        ]
        for doc, steps in cases + [(doc, None) for doc in certified]:
            code, summary, rows = run_solve(tmp_path, doc)
            # each summary's result is its own trace CSV's best row
            keys = {"residual_bound", "kkt", "F_final"} & set(summary)
            assert {key: summary[key] for key in keys} == best_in_csv(doc["solver"], rows)
            assert summary.get("outer_iterations", summary.get("iterations")) == len(rows)
            if steps is None:
                assert code == 0
                continue
            assert code == 2
            assert summary["termination"] == "timeout"
            assert len(rows) == steps
            # the best so far: None before the first outer step ends
            best = summary.get("kkt", summary.get("residual_bound"))
            assert (best is None) == (steps == 0)

    def test_plain_apg_runs_its_budget(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "apg",
            "problem": {"kind": "quartic", "n": 2, "k_terms": 2, "seed": 4},
            "params": {"max_iters": 20},
        }
        code, summary, rows = run_solve(tmp_path, doc)
        assert code == 0
        assert summary["termination"] == "iteration-budget"
        assert len(rows) == 20

    def test_init_override_and_prox_config(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "ppa",
            "epsilon": 1e-4,
            "problem": {
                "kind": "quartic", "n": 2, "k_terms": 2, "seed": 6,
                "prox": {"kind": "box", "lower": -1, "upper": 1},
            },
            "init": [0.5, -0.5],
        }
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 0
        assert summary["residual_bound"] <= 1e-4


# The params blocks the CLI wrote for these specs when each solver's block
# was written out by hand; deriving the block from the params dataclasses
# added keys but must keep every one of these values.  ppa's block holds no
# gamma0 or alpha0, since the loop sets the inner step and weight itself, and
# apg's holds no M, since it checks no certificate.
# The ppa and prox-al keys: OuterParams's fields bar epsilon, a top-level key.
OUTER_KEYS = {f.name for f in dataclasses.fields(OuterParams)} - {"epsilon"}
PPA_BLOCK = {
    "rho0": 10.0, "zeta": 2.0, "sigma": 0.4, "eta0": 1.0,
    "delta": 0.5, "M": 10, "max_outer": 50, "max_iters": 1000000,
}
APG_BLOCK = {"gamma0": 1.0, "alpha0": 1.0, "delta": 0.5, "max_backtracks": 100}
PPA_BOX = dict(QUARTIC_PPA, init=[0.5, -0.5], problem={
    "kind": "quartic", "n": 2, "k_terms": 2, "seed": 6,
    "prox": {"kind": "box", "lower": -1, "upper": 1},
})
APG_DEFAULT_BUDGET = {
    "version": 1,
    "solver": "apg",
    "problem": {"kind": "quartic", "n": 3, "k_terms": 2, "seed": 4, "mu_add": 0.5},
}
PINNED_BLOCKS = [
    (QUARTIC_PPA, PPA_BLOCK),
    (PPA_BOX, PPA_BLOCK),
    (NAMED_PROX_AL, PPA_BLOCK),
    (APG_CERT, dict(APG_BLOCK, gamma0=0.999999999, M=10, max_iters=1000000)),
    (
        dict(APG_CERT, epsilon=1e-14, params={"max_iters": 5, "M": 2}, problem={
            "kind": "quartic", "n": 3, "k_terms": 2, "seed": 5, "mu_add": 1.0,
        }),
        dict(APG_BLOCK, gamma0=0.999999999, M=2, max_iters=5),
    ),
    (
        {"version": 1, "solver": "apg", "params": {"max_iters": 20},
         "problem": {"kind": "quartic", "n": 2, "k_terms": 2, "seed": 4}},
        dict(APG_BLOCK, max_iters=20),
    ),
    (APG_DEFAULT_BUDGET, dict(APG_BLOCK, max_iters=1000)),
]
FEED_BACK = {
    "apg": APG_DEFAULT_BUDGET,
    "apg-cert": APG_CERT,
    "ppa": PPA_BOX,
    "prox-al": {
        "version": 1, "solver": "prox-al", "epsilon": 1e-4,
        "problem": {
            "kind": "constrained", "n": 4, "k_terms": 3, "seed": 2, "mu_add": 0.0,
            "m1": 2, "m2": 1,
        },
    },
}


ENTRY_POINTS = {
    "apg": "apg_run",
    "apg-cert": "apg_terminating",
    "ppa": "ppa_unconstrained",
    "prox-al": "prox_al",
}


class TestProcess:
    """``python -m proxcert.cli solve`` run as its own process, as a shell runs it."""

    @pytest.mark.parametrize("doc, code, err", [
        (QUARTIC_PPA, 0, ""),
        (dict(QUARTIC_PPA, solver="pga"), 1, "error: solver must be one of"),
        (TIMEOUT_APG_CERT, 2, "not certified: timeout"),
    ], ids=["certified", "error", "timeout"])
    def test_exit_code_and_outputs(self, tmp_path, doc, code, err):
        spec = write_spec(tmp_path / "spec.yaml", doc)
        trace, summary = tmp_path / "trace.csv", tmp_path / "summary.json"
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "proxcert.cli", "solve", "--spec", spec,
             "--trace", str(trace), "--summary", str(summary)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert done.returncode == code
        assert done.stdout == ""
        assert done.stderr.startswith(err) and done.stderr.count("\n") == (code != 0)
        if code == 1:  # an error writes nothing
            assert not trace.exists() and not summary.exists()
            return
        # a timeout writes its partial outputs: a header, then a row a step
        doc = json.loads(summary.read_text())
        assert doc["termination"] == ("timeout" if code == 2 else "certified")
        steps = doc.get("outer_iterations", doc.get("iterations"))
        assert steps > 0 and len(trace.read_text().splitlines()) == steps + 1


class TestEntryPoints:
    @pytest.mark.parametrize("solver", sorted(ENTRY_POINTS))
    def test_solve_calls_its_entry_point_through_the_module_name(
        self, tmp_path, monkeypatch, solver
    ):
        # tracers time a solve by rebinding these names in the cli module
        calls = []

        def counting(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return counted

        for name in ENTRY_POINTS.values():
            monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
        code, _, _ = run_solve(tmp_path, FEED_BACK[solver])
        assert code == 0
        assert calls == [ENTRY_POINTS[solver]]


class TestSpecLoader:
    SPELLINGS = """\
version: 1
solver: prox-al
epsilon: 1.0e-4
problem: {kind: constrained, n: 8, k_terms: "4", seed: 12, mu_add: 1, m1: 3, m2: 2}
params:
  max_iters: 1e3
  rho0: null
  sigma: .4
init: [0, -1.5, 2.5e-3, .inf, -.inf]
"""

    def test_loader_is_libyaml_when_built_with_it(self):
        expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
        assert SPEC_LOADER is expected

    @pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
    def test_libyaml_and_python_loaders_agree(self):
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        texts = [section.split("```yaml\n", 1)[1].split("```", 1)[0], self.SPELLINGS]
        texts += [yaml.safe_dump(doc) for doc in (QUARTIC_PPA, NAMED_PROX_AL, APG_CERT)]
        for text in texts:
            # repr tells apart what == does not, such as 1 and 1.0 at any depth
            fast = yaml.load(text, Loader=yaml.CSafeLoader)
            assert repr(fast) == repr(yaml.load(text, Loader=yaml.SafeLoader))


class TestParams:
    @pytest.mark.parametrize("doc", [QUARTIC_PPA, PPA_BOX, NAMED_PROX_AL])
    def test_outer_block_keys_are_the_outer_params_fields(self, tmp_path, doc):
        _, summary, _ = run_solve(tmp_path, doc)
        assert set(summary["params"]) == OUTER_KEYS
        assert len(OUTER_KEYS) == 9 and not {"gamma0", "alpha0", "inner"} & OUTER_KEYS

    @pytest.mark.parametrize("doc, block", PINNED_BLOCKS)
    def test_block_keeps_pinned_values(self, tmp_path, doc, block):
        _, summary, _ = run_solve(tmp_path, doc)
        got = {key: summary["params"][key] for key in block}
        assert repr(sorted(got.items())) == repr(sorted(block.items()))

    @pytest.mark.parametrize("solver", sorted(FEED_BACK))
    def test_block_fed_back_reproduces_the_run(self, tmp_path, solver):
        doc = FEED_BACK[solver]
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 0
        trace = (tmp_path / "trace.csv").read_bytes()
        code, again, _ = run_solve(tmp_path, dict(doc, params=summary["params"]), "again.yaml")
        assert code == 0
        assert (tmp_path / "trace.csv").read_bytes() == trace
        assert again["totals"] == summary["totals"]
        assert again["params"] == summary["params"]

    @pytest.mark.parametrize("doc, params", [
        (NAMED_PROX_AL, {"gamma0": 1000}),  # no OuterParams field: the loop sets it
        (APG_CERT, {"rho0": 20.0, "zeta": 3.0}),
        (QUARTIC_PPA, {"gamma0": 2.0}),  # so does ppa
        (QUARTIC_PPA, {"warm_start_gamma": True}),  # a removed key
        (APG_CERT, {"warm_start_gamma": False}),
        (NAMED_PROX_AL, {"alpha0": 1.0}),  # nor is the inner alpha0
        (QUARTIC_PPA, {"alpha0": 1.0}),
        (APG_DEFAULT_BUDGET, {"M": 3}),  # apg checks no certificate
    ])
    def test_key_the_solver_does_not_read_rejected(self, tmp_path, capsys, doc, params):
        code, summary, _ = run_solve(tmp_path, dict(doc, params=params))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key") and err.count("\n") == 1
        assert f"params of solver {doc['solver']}" in err
        assert summary is None

    @pytest.mark.parametrize("params, read", [
        ({"rho0": "1e3"}, {"rho0": 1000.0}),  # PyYAML reads an unquoted 1e3 as this string
        ({"M": 5.0, "max_outer": "60", "zeta": 2}, {"M": 5, "max_outer": 60, "zeta": 2.0}),
        ({"eta0": "1"}, {"eta0": 1.0}),
        ({"rho0": None}, {"rho0": 10.0}),
        ({"M": 2.7}, "M"),
        ({"M": True}, "M"),  # a YAML boolean is not a number
        ({"sigma": False}, "sigma"),
        ({"max_iters": True}, "max_iters"),
        ({"zeta": "two"}, "zeta"),
        ({"sigma": [0.4]}, "sigma"),
        ({"max_outer": None}, "max_outer"),
    ])
    def test_values_convert_exactly_or_fail(self, tmp_path, capsys, params, read):
        code, summary, _ = run_solve(tmp_path, dict(QUARTIC_PPA, params=params))
        if isinstance(read, str):
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: params.{read} must be") and err.count("\n") == 1
            assert summary is None
        else:
            assert code == 0
            got = {key: summary["params"][key] for key in read}
            assert repr(sorted(got.items())) == repr(sorted(read.items()))

    @pytest.mark.parametrize("problem, key", [
        ({"kind": "quartic", "n": 2.7, "k_terms": 1.9, "seed": 3.5, "mu_add": 1.0}, "n"),
        ({"kind": "quartic", "n": 2, "k_terms": 1, "seed": 3.5}, "seed"),
        ({"kind": "quartic", "n": 2, "k_terms": 1, "mu_add": "one"}, "mu_add"),
        ({"kind": "quartic", "n": True, "k_terms": 1}, "n"),
        ({"kind": "constrained", "n": 2, "k_terms": 1, "m1": 1.5}, "m1"),
        ({"kind": "constrained", "n": 2, "k_terms": 1, "m2": None}, "m2"),
        ({"kind": "constrained", "n": 2, "k_terms": 1, "constraint_seed": "7.5"},
         "constraint_seed"),
        # the prox: block's keys are read the same way, and each is required
        ({"kind": "quartic", "n": 2, "k_terms": 1, "prox": {"kind": "l1"}}, "prox.weight"),
        ({"kind": "quartic", "n": 2, "k_terms": 1, "prox": {"kind": "l1", "weight": True}},
         "prox.weight"),
        ({"kind": "quartic", "n": 2, "k_terms": 1, "prox": {"kind": "box", "lower": -1}},
         "prox.upper"),
        ({"kind": "quartic", "n": 2, "k_terms": 1,
          "prox": {"kind": "box", "lower": True, "upper": 1}}, "prox.lower"),
        ({"kind": "quartic", "n": 2, "k_terms": 1,
          "prox": {"kind": "box", "lower": [-1, False], "upper": 1}}, "prox.lower"),
        ({"kind": "quartic", "n": 2, "k_terms": 1,
          "prox": {"kind": "box", "lower": -1, "upper": [1, 2, 3]}}, "prox.upper"),
        ({"kind": "quartic", "n": 2, "k_terms": 1,
          "prox": {"kind": "squared_l2", "center": 0}}, "prox.coef"),
        ({"kind": "quartic", "n": 2, "k_terms": 1,
          "prox": {"kind": "squared_l2", "coef": 1, "center": None}}, "prox.center"),
    ])
    def test_problem_keys_convert_exactly_or_fail(self, tmp_path, capsys, problem, key):
        solver = "prox-al" if problem["kind"] == "constrained" else "ppa"
        doc = dict(QUARTIC_PPA, solver=solver, problem=problem)
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 1
        err = capsys.readouterr().err
        where = key if key.startswith("prox.") else f"problem.{key}"
        assert err.startswith(f"error: {where} must be") and err.count("\n") == 1
        assert summary is None

    @pytest.mark.parametrize("init", [[True, False], [0.5, "half"], [[0.5], 0.5], [None, 0.5]])
    def test_init_entries_convert_exactly_or_fail(self, tmp_path, capsys, init):
        code, summary, _ = run_solve(tmp_path, dict(PPA_BOX, init=init))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec.init must be float") and err.count("\n") == 1
        assert summary is None

    def test_integral_problem_keys_accepted(self, tmp_path):
        doc = dict(QUARTIC_PPA, problem={
            "kind": "quartic", "n": 2.0, "k_terms": "2", "seed": 6, "mu_add": "0",
        })
        code, summary, _ = run_solve(tmp_path, doc)
        assert code == 0
        meta = summary["problem"]
        assert (meta["n"], meta["k_terms"], meta["seed"], meta["mu_add"]) == (2, 2, 6, 0.0)
        assert repr(meta["n"]) == "2" and repr(meta["mu_add"]) == "0.0"

    def test_readme_spec_solves(self, tmp_path):
        section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
        block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
        spec = tmp_path / "readme.yaml"
        spec.write_text(block, encoding="utf-8")
        assert main(["solve", "--spec", str(spec)]) == 0


class TestSweep:
    def _sweep(self, tmp_path, doc, eps):
        spec = write_spec(tmp_path / "spec.yaml", doc)
        out = tmp_path / "table.csv"
        code = main(["sweep", "--spec", spec, "--eps", eps, "--out", str(out)])
        rows = None
        if out.exists():
            with out.open() as fh:
                rows = list(csv.DictReader(fh))
        return code, rows

    def test_scaling_table(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "apg-cert",
            "epsilon": 1e-4,
            "problem": {"kind": "quartic", "n": 5, "k_terms": 3, "seed": 9, "mu_add": 1.0},
        }
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-4,1e-6")
        assert code == 0
        assert [r["epsilon"] for r in rows] == ["0.01", "0.0001", "9.9999999999999995e-07"]
        assert rows[0]["slope"] == ""
        assert all(float(r["slope"]) >= 0 for r in rows[1:])
        grads = [int(r["grad_evals"]) for r in rows]
        assert grads == sorted(grads)

    def test_single_epsilon_rejected(self, tmp_path, capsys):
        code, rows = self._sweep(tmp_path, QUARTIC_PPA, "1e-4")
        assert code == 1
        assert "two epsilons" in capsys.readouterr().err

    def test_non_decreasing_epsilons_rejected(self, tmp_path):
        code, rows = self._sweep(tmp_path, QUARTIC_PPA, "1e-4,1e-2")
        assert code == 1

    @pytest.mark.parametrize("eps", ["inf,1e-4", "1e-2,-1e-4", "nan,1e-4"])
    def test_epsilons_must_be_finite_and_positive(self, tmp_path, capsys, eps):
        code, rows = self._sweep(tmp_path, QUARTIC_PPA, eps)
        assert code == 1
        assert rows is None
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize("eps", ["1e-2,,1e-4", "1e-2,1e-4,", "1e-2,tiny"])
    def test_eps_must_be_a_list_of_numbers(self, tmp_path, capsys, eps):
        code, rows = self._sweep(tmp_path, QUARTIC_PPA, eps)
        assert code == 1
        assert rows is None
        assert capsys.readouterr().err == "error: --eps must be a comma-separated list of numbers\n"

    def test_unwritable_table_path_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "ppa_unconstrained", lambda *args: calls.append(args))
        spec = write_spec(tmp_path / "spec.yaml", QUARTIC_PPA)
        out = tmp_path / "missing" / "table.csv"
        assert main(["sweep", "--spec", spec, "--eps", "1e-2,1e-3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1
        assert calls == []  # checked before the first solve

    def test_line_search_failure_is_reported_before_the_abort(self, tmp_path, capsys):
        doc = {
            "version": 1, "solver": "apg-cert", "epsilon": 1e-4,
            "problem": {"kind": "quartic", "n": 4, "k_terms": 3, "seed": 1, "mu_add": 1.0},
            "params": {"max_backtracks": 1}, "init": [30, -30, 30, -30],
        }
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-4")
        assert code == 2
        assert rows == []  # the header alone
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("solve failed: line search failed at iteration 1")
        assert err[1].startswith("sweep aborted: a run did not certify")

    def test_failed_run_writes_partial_table(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "apg-cert",
            "epsilon": 1e-4,
            "problem": {"kind": "quartic", "n": 3, "k_terms": 2, "seed": 5, "mu_add": 1.0},
            "params": {"max_iters": 40},
        }
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-13")
        assert code == 2
        assert len(rows) == 1

    @pytest.mark.parametrize("doc", [
        dict(QUARTIC_PPA, solver="apg-cert"),  # mu = 0
        dict(QUARTIC_PPA, solver="prox-al"),  # no constraints
        dict(QUARTIC_PPA, problem=dict(QUARTIC_PPA["problem"], prox={"kind": ["l1"]})),
        {  # a step base that ApgParams rejects
            "version": 1, "solver": "apg-cert", "epsilon": 1e-4, "params": {"gamma0": math.inf},
            "problem": {"kind": "quartic", "n": 3, "k_terms": 2, "seed": 1, "mu_add": 1.0},
        },
        {  # a fixed budget, which ignores epsilon
            "version": 1, "solver": "apg",
            "problem": {"kind": "quartic", "n": 5, "k_terms": 2, "seed": 1, "mu_add": 0.5},
        },
    ])
    def test_spec_rejected_by_solve_is_one_error_line(self, tmp_path, capsys, doc):
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-4")
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert rows is None

    def test_malformed_yaml_is_one_error_line(self, tmp_path, capsys):
        spec = tmp_path / "bad.yaml"
        spec.write_text("version: 1\nsolver: [apg\n", encoding="utf-8")
        out = tmp_path / "table.csv"
        assert main(["sweep", "--spec", str(spec), "--eps", "1e-2,1e-4", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: spec file is not valid YAML") and err.count("\n") == 1
        assert not out.exists()

    def test_scaling_band_strongly_convex(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "apg-cert",
            "epsilon": 1e-4,
            "problem": {"kind": "quartic", "n": 50, "k_terms": 8, "seed": 11, "mu_add": 1.0},
        }
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-4,1e-6,1e-8")
        assert code == 0
        grads = [int(r["grad_evals"]) for r in rows]
        # logarithmic growth in 1/epsilon: tightening by 1e4 costs at most 3x
        assert grads[3] <= 3 * grads[1]

    def test_scaling_band_proximal_point(self, tmp_path):
        doc = {
            "version": 1,
            "solver": "ppa",
            "epsilon": 1e-2,
            "problem": {"kind": "quartic", "n": 50, "k_terms": 51, "seed": 3, "mu_add": 0.0},
        }
        code, rows = self._sweep(tmp_path, doc, "1e-2,1e-4")
        assert code == 0
        grads = [int(r["grad_evals"]) for r in rows]
        assert 2.5 <= grads[1] / grads[0] <= 40.0
