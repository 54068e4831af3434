"""Self-test of the benchmark.

Run from the root of a proxcert checkout:

    python3 perfbench/selftest.py

It runs every workload at tiny size, untraced and traced, and checks that
the printed metric names and units match BENCHMARK.json and that nothing
failed.  It tampers with a witness or a multiplier taken from a real solve
and checks that the pass counts the solve as failed.  It runs the command
line once and checks its last line, and runs it once more in a directory
that holds only BENCHMARK.json and the benchmark, where it must fail
without printing a result.  Exits 0 when every check passes.
"""

import run  # noqa: F401  (pins the BLAS threads before numpy loads)

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import harness
import workloads

SEED = 777
failures = []


def expect(ok: bool, what: str):
    print(f"[selftest] {'PASS' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def printed(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


class Replay:
    """A case whose solve returns a given result; review is the real case's."""

    def __init__(self, case, result):
        self.case = case
        self.result = result

    def solve(self, pc, wrap):
        return self.result

    def review(self, result):
        return self.case.review(result)


def bump(vector, eps):
    out = np.array(vector, dtype=float)
    out[0] += eps
    return out


def tampered(workload, result):
    """The result with its multiplier or witness moved by epsilon in one coordinate."""
    if workload == "al_suite":
        return dataclasses.replace(result, lam=bump(result.lam, workloads.AL_EPS)), "multiplier"
    if workload == "ppa_mu0":
        return dataclasses.replace(result, witness=bump(result.witness, workloads.PPA_EPS)), "witness"
    cert = result.certificate
    cert = dataclasses.replace(cert, witness=bump(cert.witness, workloads.QUARTIC_EPS))
    return dataclasses.replace(result, certificate=cert), "certificate witness"


def check_tampering(pc, workload):
    cases = workloads.WORKLOADS[workload](pc, SEED, True, "")
    if workload == "al_suite":  # a multiplier needs a nonempty cone
        cases = [c for c in cases if c.conic.cone.dim]
    case = cases[0]
    result = case.solve(pc, lambda p: p)
    honest = harness.run_pass(pc, [Replay(case, result)], lambda p: p)
    bad, what = tampered(workload, result)
    counted = harness.run_pass(pc, [Replay(case, bad)], lambda p: p)
    expect(honest.failed == 0 and counted.failed == 1,
           f"{workload}: a perturbed {what} from a real solve counts as failed")


def check_command():
    cmd = [sys.executable, "perfbench/run.py", "--workload", "cli_mix",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=harness.ROOT, capture_output=True, text=True, timeout=180)
    last = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else {}
    expect(sorted(last) == ["attempted", "correct", "failed", "metrics"] and last["correct"],
           "the command line prints one result object as its last line")

    bare = harness.ROOT / ".perfbench" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(harness.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without proxcert sources the command fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass


def main() -> int:
    harness.load_proxcert()
    for workload in workloads.WORKLOADS:
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            result = harness.run(workload, SEED, 0.0, traced, tiny=True)
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} (trace {int(traced)}): every tiny solve re-verifies")
            expect(printed(result) == harness.declared_units(kind),
                   f"{workload} (trace {int(traced)}): metric names and units match BENCHMARK.json {kind}")
    pc = harness.import_fresh()
    for workload in ("al_suite", "ppa_mu0", "quartic_large"):
        check_tampering(pc, workload)
    check_command()
    print(f"[selftest] {'all checks passed' if not failures else f'{len(failures)} failed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
