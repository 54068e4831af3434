"""Smoke tests of ``heldout_sweep.py``: its report, and its diagnosis of a timeout."""

import re
from dataclasses import replace

import heldout_sweep


def test_main_reports_each_instance_and_the_totals(capsys):
    heldout_sweep.main(["--seeds", "13", "--kinds", "nonneg"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["kind", "seed", "status", "outer", "grads", "wall_s"]
    assert lines[1].split()[:3] == ["nonneg", "13", "certified"]
    assert lines[2].startswith("total: 1 certified, 0 timed out;")
    assert len(lines) == 3


def test_an_inner_timeout_names_the_outer_step_and_the_steps(monkeypatch):
    capped = replace(heldout_sweep.PARAMS, max_iters=50)
    monkeypatch.setattr(heldout_sweep, "PARAMS", capped)
    status, outer, _, _, note = heldout_sweep.solve(13, "nonneg")
    assert status == "timeout"
    number = r"\S+"
    assert re.fullmatch(
        rf"inner solve at outer step {outer}: best residual {number} against eta_k {number}; "
        rf"gamma {number} at t = 1, {number} at t = 50, {number} at t = 50",
        note,
    ), note
