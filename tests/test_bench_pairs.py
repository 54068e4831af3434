"""Checks of ``bench_pairs.py``'s pairing order and summary, on synthetic runs."""

import json

import pytest

import bench_pairs


def _run(correct=True, failed=0, **values):
    return {"correct": correct, "failed": failed,
            "metrics": {name: {"value": value, "unit": "s"} for name, value in values.items()}}


DECLARED = {
    "solve_wall_s": {"name": "solve_wall_s", "unit": "s", "better": "lower"},
    "accept_ratio": {"name": "accept_ratio", "unit": "ratio", "better": "higher"},
}


def test_parent_runs_first_on_odd_seeds():
    calls = []

    def runner(root, workload, seed, seconds):
        calls.append((root, seed))
        return _run(solve_wall_s=float(seed))

    pairs = list(bench_pairs.run_pairs("parent", "change", "w", range(1, 5), 1.0, runner))
    assert calls == [
        ("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
        ("parent", 3), ("change", 3), ("change", 4), ("parent", 4),
    ]
    assert len(pairs) == 4


def test_summary_of_four_pairs():
    parent = [1.0, 2.0, 3.0, 4.0]
    change = [0.9, 2.1, 2.5, 3.0]
    pairs = [
        (_run(solve_wall_s=p, accept_ratio=p), _run(solve_wall_s=c, accept_ratio=c))
        for p, c in zip(parent, change)
    ]
    summary = bench_pairs.summarize(pairs, DECLARED)
    assert summary["pairs"] == 4 and summary["all_correct_no_failures"]
    wall = summary["metrics"]["solve_wall_s"]
    assert wall["parent_median"] == 2.5
    assert wall["change_median"] == pytest.approx(2.3)
    # linear interpolation: the quartiles of 1, 2, 3, 4 are 1.75 and 3.25
    assert wall["parent_quartiles"] == [1.75, 3.25]
    assert wall["parent_iqr"] == 1.5
    assert wall["change_wins"] == 3
    assert wall["per_pair"] == [[p, c] for p, c in zip(parent, change)]
    # where higher is better, the change wins the one pair it reads higher
    assert summary["metrics"]["accept_ratio"]["change_wins"] == 1
    json.dumps(summary)  # the summary is plain JSON


def test_one_failed_run_marks_the_workload():
    pairs = [(_run(solve_wall_s=1.0), _run(failed=1, solve_wall_s=1.0))]
    summary = bench_pairs.summarize(pairs, {"solve_wall_s": DECLARED["solve_wall_s"]})
    assert not summary["all_correct_no_failures"]
    assert summary["metrics"]["solve_wall_s"]["parent_iqr"] == 0.0
    assert summary["metrics"]["solve_wall_s"]["change_wins"] == 0


def test_declared_metrics_are_the_benchmarks_end_to_end_list():
    declared = bench_pairs.declared_metrics()
    assert {"solve_wall_s", "solve_p50_s", "grad_evals"} <= set(declared)
    assert all(spec["better"] in ("lower", "higher") for spec in declared.values())
