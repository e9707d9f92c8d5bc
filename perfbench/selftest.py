"""Self-test of the benchmark at tiny sizes; takes well under a minute.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

For every workload it makes one untraced and two traced runs at the `TINY`
sizes and checks that every case passes its oracle checks, that every
metric named in BENCHMARK.json is emitted with its unit, that the exact
counts of the two traced runs agree, and that the tracer leaves no wrapper
behind.  Exit code 0 means all checks held.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: counts that must repeat exactly between two traced runs; every other
#: count- or byte-valued metric is compared too
EXACT = ("scipy.splu_calls", "scipy.lu_nnz", "perturbation.residual_evals",
         "dispersion.newton_iters", "eigensolver.iterations",
         "design.saddle_iters")
SEED = 7


def _units(result):
    return {k: v["unit"] for k, v in result["metrics"].items()}


def main() -> int:
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    sys.path.insert(0, HERE)
    from run import single_threaded_blas

    single_threaded_blas()
    import bench
    import enzres.fem
    import scipy.sparse.linalg as spla

    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    expect([w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS),
           "BENCHMARK.json workloads differ from bench.WORKLOADS")
    expect(set(EXACT) <= {k for k, u in layer.items() if u == "count"},
           "an exact count is not a count metric in BENCHMARK.json")
    for name in bench.WORKLOADS:
        res, info = bench.run_workload(name, SEED, 0.0, False, bench.TINY)
        expect(res["correct"], f"{name}: failed cases {info['failures']}")
        expect(_units(res) == e2e, f"{name}: end-to-end metrics or units "
                                   f"differ: {_units(res)}")
        runs = []
        for _ in range(2):
            res, info = bench.run_workload(name, SEED, 0.0, True, bench.TINY)
            expect(res["correct"], f"{name}: failed traced cases "
                                   f"{info['failures']}")
            expect(_units(res) == layer, f"{name}: per-layer metrics or "
                                         f"units differ: {_units(res)}")
            runs.append(res["metrics"])
        for key, unit in layer.items():
            if unit in ("count", "bytes"):
                a, b = runs[0][key]["value"], runs[1][key]["value"]
                expect(a == b, f"{name}: {key} differs between traced runs "
                               f"({a} != {b})")
        expect(not hasattr(enzres.fem.linear_solve, "__wrapped__")
               and not hasattr(spla.splu, "__wrapped__")
               and "open" not in vars(bench.cli),
               f"{name}: tracer left a wrapper installed")
        print(f"{name}: " + ", ".join(
            f"{k}={runs[0][k]['value']:g}" for k in EXACT))
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
