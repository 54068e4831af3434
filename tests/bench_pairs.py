"""Paired benchmark runs of a parent checkout against this tree, written as BENCH_<pr>.json.

For each workload, ``perfbench/run.py --workload W --seed I --seconds S
--trace 0`` runs once in the parent checkout and once in this tree for each
seed I = 1, 2, ..., alternately: the parent first on odd seeds and this
tree first on even seeds, so that a drift of the machine's speed within a
pair favours neither side.  Both sides run in the same session, since
seconds measured in different sessions do not compare.  The output is the
shared BENCH format: per workload, the pair count, whether every run was
correct with no failed solve, and per end-to-end metric of
``BENCHMARK.json`` both medians, both sides' quartiles, ``parent_iqr`` (the
distance between the parent's quartiles, linearly interpolated),
``change_wins`` (the pairs in which this tree reads better, in the
direction the metric declares) and every pair's two values.

    python tests/bench_pairs.py --parent ../parent --pairs ppa_mu0=10 al_suite=4 \\
        --seconds 25 --out BENCH_34.json --change "what changed" --claim "ppa_mu0 solve_p50_s"

The file is rewritten after every pair, so an interrupted session keeps
the pairs it finished.  Tier-1 does not collect this file;
``tests/test_bench_pairs.py`` checks its summary on synthetic runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def declared_metrics() -> dict:
    """End-to-end metric name -> its declaration ("unit", "better", ...) in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m for m in json.load(fh)["end_to_end"]}


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One timed run of ``perfbench/run.py`` in the checkout at ``root``.

    Returns its result object (the last line of its output) with the
    environment line it printed first under "environment".
    """
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=root, capture_output=True, text=True, check=True)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["environment"] = json.loads(lines[0])
    return result


def run_pairs(parent: Path, change: Path, workload: str, seeds, seconds: float, runner=run_once):
    """Yield a (parent result, change result) pair per seed, the parent first on odd seeds."""
    for seed in seeds:
        sides = [(parent, "parent"), (change, "change")]
        if seed % 2 == 0:
            sides.reverse()
        results = {name: runner(root, workload, seed, seconds) for root, name in sides}
        yield results["parent"], results["change"]


def _quartiles(values: list) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: list, declared: dict) -> dict:
    """The BENCH summary of one workload's (parent result, change result) pairs."""
    metrics = {}
    for name, spec in declared.items():
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        parent_q1, parent_q3 = _quartiles(parent)
        change_q1, change_q3 = _quartiles(change)
        metrics[name] = {
            "unit": spec["unit"],
            "parent_median": statistics.median(parent),
            "change_median": statistics.median(change),
            "parent_quartiles": [parent_q1, parent_q3],
            "change_quartiles": [change_q1, change_q3],
            "parent_iqr": parent_q3 - parent_q1,
            "change_wins": sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            "per_pair": [[p, c] for p, c in zip(parent, change)],
        }
    return {
        "pairs": len(pairs),
        "all_correct_no_failures": all(
            r["correct"] and r["failed"] == 0 for pair in pairs for r in pair
        ),
        "metrics": metrics,
    }


def _pair_counts(items: list) -> dict:
    counts = {}
    for item in items:
        workload, _, count = item.partition("=")
        counts[workload] = int(count)
    return counts


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--change", default="", help="one line on what the change does")
    parser.add_argument("--claim", default=None, help='the claimed "workload metric", if any')
    args = parser.parse_args(argv)
    declared = declared_metrics()
    report = {
        "change": args.change,
        "command": (
            f"python3 perfbench/run.py --workload W --seed I --seconds {args.seconds:g} "
            "--trace 0, run from a checkout of each side"
        ),
        "protocol": (
            "alternating pairs on seeds 1..N, parent first on odd seeds and change first on "
            "even seeds; medians of the runs' reported values; quartiles by linear "
            "interpolation; parent_iqr is the distance between the parent's quartiles; "
            "change_wins counts pairs in which the change read better; written by "
            "tests/bench_pairs.py"
        ),
        "environment": None,
        "claim": args.claim,
        "workloads": {},
    }
    for workload, count in _pair_counts(args.pairs).items():
        pairs = []
        seeds = range(1, count + 1)
        for pair in run_pairs(args.parent, ROOT, workload, seeds, args.seconds):
            pairs.append(pair)
            report["environment"] = pair[1]["environment"]
            summary = summarize(pairs, declared)
            summary["seconds_per_run"] = args.seconds
            report["workloads"][workload] = summary
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            wall = summary["metrics"]["solve_wall_s"]["per_pair"][-1]
            p50 = summary["metrics"]["solve_p50_s"]["per_pair"][-1]
            print(
                f"{workload} pair {len(pairs)}: solve_wall_s {wall[0]:.5g} -> {wall[1]:.5g}, "
                f"solve_p50_s {p50[0]:.5g} -> {p50[1]:.5g}",
                flush=True,
            )


if __name__ == "__main__":
    main()
