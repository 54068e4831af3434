"""Run one proxcert benchmark workload and print its metrics.

Usage, from the root of a proxcert checkout:

    python3 perfbench/run.py --workload al_suite --seed 777 --seconds 15 --trace 0

The workload runs in this process as a closed loop: one caller solves the
pass's instances back to back and re-verifies every returned certificate
from the raw oracles.  With ``--trace 0`` the pass is repeated for about
``--seconds`` seconds and the end-to-end metrics are printed; with
``--trace 1`` one untraced and one traced pass run and the per-layer
metrics are printed.  End-to-end times are seconds at a reference machine
speed, measured alongside the run by ``speed.Probe``.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import os
import sys

# Pinned before numpy loads: OpenBLAS reads these once, at library load.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402

import harness  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        harness.load_proxcert()
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result["environment"], sort_keys=True))
    if "unscaled" in result:
        print(json.dumps({"unscaled": result["unscaled"]}, sort_keys=True))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
