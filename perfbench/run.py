"""Run one workload of the enzres benchmark and print its result.

Usage, from the root of a source checkout (the package is imported from
./src, nothing needs installing):

    python3 perfbench/run.py --workload series-h02 --seed 1 --seconds 15 \
        --trace 0

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.  The
line before it records the run environment, sample counts and the reason
for every failed case.  Exit code 2 means the checkout has no package to
benchmark.
"""

import argparse
import json
import os
import sys

BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def single_threaded_blas():
    """Pin BLAS to one thread; must run before NumPy is first imported.

    SuperLU is sequential, and a second BLAS thread only spin-waits (on 2
    CPUs it doubled the CPU time of a design case for a 3% shorter wall
    time), which makes wall times depend on whatever else the machine runs.
    """
    for var in BLAS_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "enzres", "__init__.py")):
        print(f"error: no enzres package under {src}; run from the root of "
              "a source checkout", file=sys.stderr)
        return 2
    single_threaded_blas()
    sys.path.insert(0, src)

    import bench

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(bench.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result, info = bench.run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    info["env"]["blas_threads"] = {v: os.environ[v] for v in BLAS_VARS}
    for reason in info["failures"]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
