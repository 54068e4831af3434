"""Smoke tests of ``trace_digest.py``: its report is repeatable and sees one ulp."""

import dataclasses
import re

import numpy as np

import trace_digest


def test_two_runs_print_the_same_digest(capsys):
    trace_digest.main(["--only", "al_02"])
    trace_digest.main(["--only", "al_02"])
    first, second = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"al_02 +[0-9a-f]{64}", first), first
    assert first == second


def test_one_ulp_anywhere_moves_the_digest():
    solve = trace_digest.solves()["ppa_0"]()
    res = solve.result
    row = res.trace.rows[-1]
    nudged_x = dataclasses.replace(res, x=np.nextafter(res.x, np.inf))
    nudged_rho = dataclasses.replace(row, rho_k=np.nextafter(row.rho_k, np.inf))
    nudged_trace = dataclasses.replace(res.trace, rows=res.trace.rows[:-1] + [nudged_rho])
    # an inner solve's first step, which the outer result does not hold
    first = solve.inner[0]
    nudged_start = dataclasses.replace(first, first_step=np.nextafter(first.first_step, np.inf))
    assert len(solve.inner) == len(res.trace.rows)
    digests = {
        trace_digest.digest(solve),
        trace_digest.digest(dataclasses.replace(solve, result=nudged_x)),
        trace_digest.digest(
            dataclasses.replace(solve, result=dataclasses.replace(res, trace=nudged_trace))
        ),
        trace_digest.digest(dataclasses.replace(solve, inner=[nudged_start] + solve.inner[1:])),
    }
    assert len(digests) == 4
