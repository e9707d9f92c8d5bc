"""Workloads, oracle checks and metrics of the enzres benchmark.

Every workload is a closed loop with one caller: the next case starts when
the previous one has ended.  A case gets fresh inputs (a new `Mesh` object,
or new files for the CLI sweep) built outside its timed span, so a per-mesh
cache can help within a case but never across cases.  Every case is checked
against the closed-form Bessel oracle (`enzres.bessel_oracle`) outside its
timed span.

See README.md in this directory for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import numpy as np
import scipy

# program calls go through module attributes so that the tracer's wrappers
# see them; the oracle is the checker and is never traced
from enzres import cli, design, eigensolver, perturbation
from enzres import mesh as mesh_mod
from enzres.bessel_oracle import annulus_lambda1, disk_case

import tracer as tracing

#: cases whose traced spans give the per-layer metrics, per workload
TRACED_CASES = {"series-h02": 1, "design-h04": 1, "sweep-h08": 16}
#: search interval of the lambda0 root-find (no nonzero-mean core pole
#: lies inside it for targets in (5.8, 14.6))
BRACKET = (6.0, 14.0)
R_D, R_B = 1.0, 2.0
#: finite-delta probe of criterion 2
DELTA = 0.01 * cmath.exp(1j * math.pi / 4)
#: SiC-like Lorentz shell used by the sweep's `resonate`
LORENTZ = ("--eps-inf", "6.7", "--omega-p", "0.7", "--omega-0", "1.0",
           "--gamma-max", "0.006")

END_TO_END_UNITS = {
    "setup_s": "s", "case_s_p50": "s", "case_s_tail": "s",
    "peak_rss_mb": "MB", "pass_frac": "frac",
    "lambda0_rel_err": "1", "lambda1_rel_err": "1",
}


@dataclass(frozen=True)
class Sizes:
    """Problem sizes and set-up repeats (the median set-up is reported);
    the self-test runs the same code at `TINY`."""

    series_h: float = 0.02
    design_h: float = 0.04
    sweep_h: float = 0.08
    sweep_steps: int = 200
    setup_repeats: int = 3


FULL = Sizes()
TINY = Sizes(series_h=0.08, design_h=0.16, sweep_h=0.16, sweep_steps=20,
             setup_repeats=1)


def lambda0_tol(h: float) -> float:
    """Relative lambda0 error allowed on a mesh of size h.

    P1 elements converge at O(h^2); the measured constant over targets in
    [7, 12] with r_b = 2 is at most 0.5 (3.1e-3 at h = 0.08, lambda0 = 12),
    so h^2 leaves a factor of two.
    """
    return h * h


def lambda1_tol(h: float) -> float:
    """Relative lambda1 error allowed on a mesh of size h near lambda0 = 9
    (measured 6.0e-3 at h = 0.08, 1.4e-3 at 0.04 and 4.2e-4 at 0.02, so
    0.9 to 1.1 h^2)."""
    return 2.0 * h * h


def out_dir() -> str:
    """Where runs leave spans and scratch files (ignored by git)."""
    path = os.path.join(os.getcwd(), "perfbench", "out")
    os.makedirs(path, exist_ok=True)
    return path


class CaseFailure(Exception):
    """An oracle or acceptance check failed; the message names it."""


def _require(ok: bool, what: str):
    if not ok:
        raise CaseFailure(what)


def _rel(value, exact) -> float:
    return abs(value - exact) / abs(exact)


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One workload.  `setup` runs once per set-up repeat and returns the
    node count; `prepare` builds a case's fresh inputs; `run` makes the
    timed calls; `check` compares the outputs with the oracle, raising
    `CaseFailure`, and returns the relative errors."""

    MIN_CASES = 1

    def close(self):
        pass


class DiskWorkload(Workload):
    """A fresh mesh of one disk geometry (r_d = 1, r0, r_b = 2) per case."""

    def prepare(self, i: int):
        return mesh_mod.build_concentric_mesh(R_D, self.case.r0, self.h,
                                              r_b=R_B)


class SeriesH02(DiskWorkload):
    """Disk geometry at h = 0.02: lambda0 root-find, order-4 series and the
    finite-delta check at delta and delta/2 (criteria 1 and 2)."""

    def __init__(self, seed: int, sizes: Sizes):
        rng = np.random.default_rng(seed)
        self.h = sizes.series_h
        self.case = disk_case(9.0 + rng.uniform(-0.05, 0.05))
        self.lam1_exact = annulus_lambda1(self.case)

    def setup(self) -> int:
        return self.prepare(0).n_nodes

    def run(self, mesh):
        lam0 = perturbation.find_lambda0(mesh, BRACKET)
        series = perturbation.expand_series(mesh, lam0, order=4)
        pairs = [eigensolver.resonance_near(
            mesh, d, perturbation.eval_lambda(series, d), series.psi_d)
            for d in (DELTA, DELTA / 2)]
        return series, pairs

    def check(self, mesh, out) -> dict:
        series, pairs = out
        err0 = _rel(series.lambda0, self.case.lambda0)
        err1 = _rel(series.lambda_coeffs[0], self.lam1_exact)
        _require(err0 <= lambda0_tol(self.h),
                 f"lambda0 rel err {err0:.3e} > {lambda0_tol(self.h):.3e}")
        _require(err1 <= lambda1_tol(self.h),
                 f"lambda1 rel err {err1:.3e} > {lambda1_tol(self.h):.3e}")
        for n in (1, 2):
            rem = [abs(p.lam - series.lambda0 - sum(
                c * p.delta ** (k + 1)
                for k, c in enumerate(series.lambda_coeffs[:n])))
                for p in pairs]
            ratio = rem[0] / rem[1]
            _require(2.0 ** n <= ratio <= 2.0 ** (n + 2),
                     f"E_{n} remainder ratio {ratio:.3f} outside "
                     f"[{2 ** n}, {2 ** (n + 2)}]")
        return {"lambda0_rel_err": err0, "lambda1_rel_err": err1}


class DesignH04(DiskWorkload):
    """Criterion-5 design on the disk geometry at h = 0.04: dual Newton,
    bathtub recovery and the saddle cross-check.

    The geometry is pinned to lambda0 = 9, the acceptance gate's case, and
    the seed draws nothing: the dual's stalled beta stages (ROADMAP item 2)
    happen there, while targets a few hundredths away converge without
    stalling, so a seed-drawn geometry would hide the stall on most seeds
    and make case time bimodal.
    """

    def __init__(self, seed: int, sizes: Sizes):
        self.h = sizes.design_h
        self.case = disk_case(9.0)
        self.lam1_exact = annulus_lambda1(self.case)

    def setup(self) -> int:
        mesh = self.prepare(0)
        self.lambda0 = perturbation.find_lambda0(mesh, BRACKET)
        return mesh.n_nodes


    def run(self, mesh):
        prob = design.make_disk_problem(mesh, self.lambda0)
        state = design.recover_design(prob, design.minimize_dual(prob))
        return prob, state, design.saddle_solve(prob)

    def check(self, mesh, out) -> dict:
        prob, state, saddle = out
        # state.converged is not evidence: recover_design hard-codes it
        cent = mesh.nodes[mesh.triangles[prob.elements]].mean(axis=1)
        rc = np.linalg.norm(cent, axis=1)
        chi = ((rc >= R_D) & (rc <= self.case.r0)).astype(float)
        symdiff = float((np.abs(state.theta - chi) * prob.areas).sum())
        _require(symdiff <= 0.05 * prob.A0,
                 f"symdiff {symdiff:.3e} > 5% A0 = {0.05 * prob.A0:.3e}")
        dual = design.dual_objective(state.w, prob)
        gap = abs(state.value - dual)
        _require(gap <= 1e-6 * abs(dual),
                 f"duality gap {gap:.3e} > 1e-6 |dual| = "
                 f"{1e-6 * abs(dual):.3e}")
        lam1 = design.lambda1_of_design(state, prob)
        err1 = _rel(abs(lam1), abs(self.lam1_exact))
        _require(err1 < 2e-2, f"|lambda1| rel err {err1:.3e} >= 2e-2")
        _require(all(p <= d + 1e-9 * abs(d) for p, d in saddle.history),
                 "weak duality violated in the saddle history")
        agree = _rel(saddle.value, state.value)
        _require(agree <= 1e-6,
                 f"saddle value differs from dual by {agree:.3e} (> 1e-6)")
        return {"lambda0_rel_err": _rel(self.lambda0, self.case.lambda0),
                "lambda1_rel_err": err1}


class SweepH08(Workload):
    """Many small cold problems through `enzres.cli.main`: mesh, expand and
    resonate, with files written and re-read between the commands.

    Targets are stratified over [7, 12]: case i falls in stratum i mod 16
    at a seed-drawn offset, so every run covers the whole range and the
    worst-case errors, set by the top stratum, stay steady across seeds.
    """

    STRATA = 16
    MIN_CASES = STRATA
    LO, HI = 7.0, 12.0

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.h = sizes.sweep_h
        self.steps = sizes.sweep_steps
        self.workdir = None

    def setup(self) -> int:
        if self.workdir is None:
            self.workdir = tempfile.mkdtemp(prefix="sweep-", dir=out_dir())
        return mesh_mod.build_concentric_mesh(R_D, disk_case(9.0).r0, self.h,
                                              r_b=R_B).n_nodes

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def prepare(self, i: int):
        offset = np.random.default_rng([self.seed, i]).uniform()
        width = (self.HI - self.LO) / self.STRATA
        case = disk_case(self.LO + width * (i % self.STRATA + offset))
        d = tempfile.mkdtemp(prefix=f"case{i}-", dir=self.workdir)
        return case, {k: os.path.join(d, k) for k in ("mesh", "series", "csv")}

    def run(self, inp):
        case, f = inp
        h = repr(self.h)
        commands = [
            ["mesh", "--kind", "concentric", "--rd", repr(R_D),
             "--r0", repr(case.r0), "--rb", repr(R_B), "--h", h,
             "-o", f["mesh"]],
            ["expand", "--mesh", f["mesh"], "--lo", repr(BRACKET[0]),
             "--hi", repr(BRACKET[1]), "--order", "3",
             "-o", f["series"]],
            ["resonate", "--series", f["series"], *LORENTZ,
             "--steps", str(self.steps), "-o", f["csv"]],
        ]
        results = []
        for argv in commands:
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            results.append((argv[0], code, stdout.getvalue(),
                            stderr.getvalue()))
        return results

    def check(self, inp, out) -> dict:
        case, files = inp
        for name, code, _stdout, stderr in out:
            _require(code == 0,
                     f"`enzres {name}` exited {code}: {stderr.strip()}")
        expand = json.loads(out[1][2])
        resonate = json.loads(out[2][2])
        err0 = _rel(expand["lambda0"], case.lambda0)
        _require(err0 <= lambda0_tol(self.h),
                 f"lambda0 rel err {err0:.3e} > {lambda0_tol(self.h):.3e} "
                 f"(target {case.lambda0:.6f})")
        im = resonate["omega_prime0"][1]
        _require(im < 0, f"Im omega'(0) = {im:.3e} is not negative")
        shutil.rmtree(os.path.dirname(files["mesh"]))
        return {"lambda0_rel_err": err0,
                "lambda1_rel_err": _rel(expand["lambda"][0],
                                        annulus_lambda1(case))}


WORKLOADS = {"series-h02": SeriesH02, "design-h04": DesignH04,
             "sweep-h08": SweepH08}


# ---------------------------------------------------------------------------
# measurement

def _import_seconds() -> float:
    """Time to import the package in a fresh interpreter (the part of
    set-up that a long-lived process cannot repeat)."""
    code = ("import time; t = time.perf_counter(); "
            "import enzres.cli, enzres.design, enzres.eigensolver; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.getcwd(), "src")
    res = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    return float(res.stdout.strip().splitlines()[-1])


def _tail(times):
    """(value, percentile, samples beyond) of the highest percentile of
    `times` with at least ten samples beyond it.  Below 21 samples every
    such percentile lies under the median, so the maximum is reported, with
    no samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 20:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an exported tree with no .git at all)."""
    git = os.path.join(os.getcwd(), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (no .git in the working directory)"


def environment(name: str, seed: int, nodes: int) -> dict:
    return {"git_commit": _git_commit(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "workload": name, "seed": seed, "nodes": nodes}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL):
    """Run one workload for `seconds` and return (result, info).

    `result` is the benchmark's final JSON object; `info` carries the
    environment, sample counts and every failure reason.
    """
    wl = WORKLOADS[name](seed, sizes)
    setups, nodes = [], None
    for _ in range(sizes.setup_repeats):
        t0 = time.perf_counter()
        nodes = wl.setup()
        setups.append(_import_seconds() + time.perf_counter() - t0)

    tr = tracing.Tracer() if trace else None
    plain, traced, errors, failures = [], [], [], []
    attempted = 0

    def run_case(i, with_trace):
        nonlocal attempted
        inp = wl.prepare(i)
        attempted += 1
        if with_trace:
            tr.case, tr.active = i, True
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = wl.run(inp)
            dt = time.perf_counter() - t0
            cpu = time.process_time() - c0
        except Exception as exc:  # a program fault counts as a failed case
            failures.append(f"case {i}: {type(exc).__name__}: {exc}")
            return
        finally:
            if with_trace:
                tr.active = False
        (traced if with_trace else plain).append((i, dt, cpu))
        try:
            errors.append(wl.check(inp, out))
        except CaseFailure as exc:
            failures.append(f"case {i}: {exc}")

    start = time.perf_counter()
    try:
        if tr is not None:
            tr.install()
        i = 0
        while (time.perf_counter() - start < seconds
               or i < wl.MIN_CASES
               or (tr is not None and i < TRACED_CASES[name])):
            run_case(i, False)
            if tr is not None:
                # each traced case repeats an untraced one, so the overhead
                # compares like with like
                run_case(i, True)
            i += 1
    finally:
        if tr is not None:
            tr.uninstall()
        wl.close()
    if not errors or (tr is not None and not traced):
        raise SystemExit(f"{name}: no case passed: {failures}")

    info = {"env": environment(name, seed, nodes), "attempted": attempted,
            "failed": len(failures), "failed_frac": len(failures) / attempted,
            "failures": failures, "setup_s_samples": setups}
    times = [dt for _, dt, _ in plain]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    # CPU time and preemptions tell waiting on a shared machine from work
    info["case_cpu_s_p50"] = statistics.median(c for _, _, c in plain)
    info["involuntary_switches"] = usage.ru_nivcsw
    if tr is not None:
        keep = [c for c, _, _ in traced[:TRACED_CASES[name]]]
        metrics = tracing.layer_metrics(tr, keep)
        metrics["trace.overhead_s"] = (
            statistics.median(dt for _, dt, _ in traced)
            - statistics.median(times))
        units = tracing.metric_units()
        info["traced_cases"] = keep
        info["traced_case_s_p50"] = statistics.median(
            dt for _, dt, _ in traced)
        info["untraced_case_s_p50"] = statistics.median(times)
        path = os.path.join(out_dir(), f"spans-{name}-seed{seed}.json")
        info["spans_file"] = os.path.relpath(path)
        tr.dump(path, info)
    else:
        tail, pct, beyond = _tail(times)
        info["case_s_tail"] = {"percentile": pct, "samples": len(times),
                               "beyond": beyond}
        metrics = {
            "setup_s": statistics.median(setups),
            "case_s_p50": statistics.median(times),
            "case_s_tail": tail,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "pass_frac": 1.0 - len(failures) / attempted,
            "lambda0_rel_err": max(e["lambda0_rel_err"] for e in errors),
            "lambda1_rel_err": max(e["lambda1_rel_err"] for e in errors),
        }
        units = END_TO_END_UNITS
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in units}}
    return result, info
