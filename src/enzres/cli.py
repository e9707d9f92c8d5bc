"""Command-line front end: mesh, lambda0, expand, resonate, optimize,
validate-disk.

All commands emit machine-readable output (JSON to stdout, files via -o),
are deterministic given their flags, and use exit codes 0 (success),
1 (numerical/internal failure, or a stdout closed early by its reader),
2 (invalid input).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from enzres import design as design_mod
from enzres import dispersion as disp
from enzres import perturbation as pert
from enzres.bessel_oracle import annulus_lambda1, disk_case, disk_psi_d
from enzres.errors import EnzresError, InputError
from enzres.fem import region_operator, weak_normal_flux
from enzres.mesh import (CORE, build_concentric_mesh, load_mesh, mesh_metrics,
                         save_mesh)

SCHEMA_VERSION = 1


def _finite_float(text: str) -> float:
    """argparse type: a finite float (nan and inf exit 2 as bad usage)."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return val


def _emit(doc: dict, path: str | None = None):
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    text = json.dumps(doc, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _read_mesh(path: str):
    try:
        with open(path) as fh:
            return load_mesh(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read mesh file {path}: {exc}")


def _resolve_lambda0(mesh, args) -> float:
    if args.lambda0 is not None:
        return float(args.lambda0)
    if args.lo is None or args.hi is None:
        raise InputError("provide either --lambda0 or both --lo and --hi")
    return pert.find_lambda0(mesh, (args.lo, args.hi))


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh(args) -> int:
    if args.kind == "concentric":
        if args.rd is None or args.r0 is None or args.h is None:
            raise InputError("concentric mesh needs --rd, --r0 and --h")
        mesh = build_concentric_mesh(args.rd, args.r0, args.h, r_b=args.rb)
    else:
        if args.infile is None:
            raise InputError("--kind file needs --in")
        mesh = _read_mesh(args.infile)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(save_mesh(mesh))
    _emit({"metrics": mesh_metrics(mesh), "output": args.out})
    return 0


def cmd_lambda0(args) -> int:
    mesh = _read_mesh(args.mesh)
    lam0 = pert.find_lambda0(mesh, (args.lo, args.hi))
    _emit({"lambda0": lam0, "interval": [args.lo, args.hi]}, args.out)
    return 0


def cmd_expand(args) -> int:
    mesh = _read_mesh(args.mesh)
    lam0 = _resolve_lambda0(mesh, args)
    series = pert.expand_series(mesh, lam0, order=args.order)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(pert.series_to_json(series))
    _emit({"lambda0": series.lambda0, "lambda": series.lambda_coeffs,
           "e": series.constants, "norm_const": series.norm_const,
           "order": series.order, "output": args.out})
    return 0


def cmd_resonate(args) -> int:
    try:
        with open(args.series) as fh:
            series = pert.series_from_json(fh.read())
    except OSError as exc:
        raise InputError(f"cannot read series file {args.series}: {exc}")
    p = disp.LorentzParams(eps_inf=args.eps_inf, omega_p=args.omega_p,
                           omega_0=args.omega_0)
    d = disp.CoreDielectric(eps_d=args.eps_d)
    # calibrate: a uniform geometric rescale maps lambda0 -> lambda* exactly
    lam_star = disp.lambda_star(p, d)
    t = disp.calibrate_scale(series.lambda0, lam_star)
    scale = lam_star / series.lambda0
    series.lambda_coeffs = [c * scale for c in series.lambda_coeffs]
    series.lambda0 = lam_star
    trace = disp.trace_resonance(series, p, d, gamma_max=args.gamma_max,
                                 steps=args.steps)
    csv_text = disp.trace_to_csv(trace)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    _emit({"omega_star": trace.omega_star,
           "omega_prime0": [trace.omega_prime0.real, trace.omega_prime0.imag],
           "calibration_scale_t": t,
           "rows": len(trace.gammas), "output": args.out})
    return 0


def cmd_optimize(args) -> int:
    mesh = _read_mesh(args.mesh)
    lam0 = _resolve_lambda0(mesh, args)
    prob = design_mod.make_disk_problem(mesh, lam0)
    if args.method == "dual":
        w = design_mod.minimize_dual(prob)
        state = design_mod.recover_design(prob, w)
    else:
        state = design_mod.saddle_solve(prob)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(design_mod.design_to_json(state, prob))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(design_mod.design_to_csv(state, prob))
    _emit({"lambda0": lam0, "A0": prob.A0,
           "lambda1": design_mod.lambda1_of_design(state, prob),
           "value": state.value, "converged": state.converged,
           "fractional_mass": state.fractional_mass,
           "output": args.out})
    return 0


def cmd_validate_disk(args) -> int:
    """Oracle comparison suite on the radially symmetric geometry."""
    lam_exact = 9.0
    case = disk_case(lam_exact)
    h = args.h
    checks = []

    lam_h = {}
    mesh_h = {}
    for hh in (4 * h, 2 * h, h):
        mesh_h[hh] = build_concentric_mesh(1.0, case.r0, hh)
        lam_h[hh] = pert.find_lambda0(mesh_h[hh], (6.0, 14.0))
    rel = abs(lam_h[h] - lam_exact) / lam_exact
    checks.append(("lambda0 within 0.5% at h", rel, rel <= 5e-3))
    e1, e2 = abs(lam_h[4 * h] - lam_exact), abs(lam_h[2 * h] - lam_exact)
    e3 = abs(lam_h[h] - lam_exact)
    order = 0.5 * (math.log2(e1 / e2) + math.log2(e2 / e3))
    checks.append(("lambda0 convergence order >= 1.8", order, order >= 1.8))

    mesh = mesh_h[h]
    series = pert.expand_series(mesh, lam_h[h], order=2)
    lam1_rel = abs(series.lambda_coeffs[0] - annulus_lambda1(case)) \
        / abs(annulus_lambda1(case))
    checks.append(("lambda1 within 1% of oracle", lam1_rel, lam1_rel <= 1e-2))

    r = np.linalg.norm(mesh.nodes, axis=1)
    core_nodes = mesh.region_nodes(CORE)
    psi_err = max(abs(series.psi_d.values[i]
                      - disk_psi_d(case, min(r[i], 1.0)))
                  for i in core_nodes)
    checks.append(("psi_d max nodal error small (O(h^2))", psi_err,
                   psi_err <= 50 * h * h))

    flux = weak_normal_flux(series.psi_d, lam_h[h])
    m_core = region_operator(mesh, CORE).m
    ident = abs(flux.total() + lam_h[h] * (m_core @ series.psi_d.values))
    checks.append(("flux mass identity <= 1e-10 relative",
                   ident / abs(flux.total()),
                   ident <= 1e-10 * abs(flux.total())))

    ok = all(c[2] for c in checks)
    for name, value, passed in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {value:.6g}")
    _emit({"h": h, "lambda0": lam_h[h], "order": order,
           "lambda1": series.lambda_coeffs[0], "all_passed": ok})
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="enzres",
        description="ENZ core-shell resonance toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="build or convert a mesh")
    p.add_argument("--kind", choices=["concentric", "file"],
                   default="concentric")
    p.add_argument("--rd", type=_finite_float)
    p.add_argument("--r0", type=_finite_float)
    p.add_argument("--rb", type=_finite_float, default=None)
    p.add_argument("--h", type=_finite_float)
    p.add_argument("--in", dest="infile")
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_mesh)

    p = sub.add_parser("lambda0", help="find the permissible leading "
                                       "eigenvalue on a bracket")
    p.add_argument("--mesh", required=True)
    p.add_argument("--lo", type=_finite_float, required=True)
    p.add_argument("--hi", type=_finite_float, required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_lambda0)

    p = sub.add_parser("expand", help="compute the perturbation series")
    p.add_argument("--mesh", required=True)
    p.add_argument("--order", type=int, default=4)
    p.add_argument("--lambda0", type=_finite_float, default=None)
    p.add_argument("--lo", type=_finite_float, default=None)
    p.add_argument("--hi", type=_finite_float, default=None)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("resonate", help="trace the lossy resonance omega("
                                        "gamma) from a stored series")
    p.add_argument("--series", required=True)
    p.add_argument("--eps-inf", type=_finite_float, required=True)
    p.add_argument("--omega-p", type=_finite_float, required=True)
    p.add_argument("--omega-0", type=_finite_float, required=True)
    p.add_argument("--eps-d", type=_finite_float, default=1.0)
    p.add_argument("--gamma-max", type=_finite_float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("-o", "--out")
    p.set_defaults(func=cmd_resonate)

    p = sub.add_parser("optimize", help="optimal shell design")
    p.add_argument("--mesh", required=True)
    p.add_argument("--lambda0", type=_finite_float, default=None)
    p.add_argument("--lo", type=_finite_float, default=None)
    p.add_argument("--hi", type=_finite_float, default=None)
    p.add_argument("--method", choices=["dual", "saddle"], default="dual")
    p.add_argument("-o", "--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("validate-disk", help="closed-form oracle comparison "
                                             "suite")
    p.add_argument("--h", type=_finite_float, default=0.02)
    p.set_defaults(func=cmd_validate_disk)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # stdout's reader left early (``enzres ... | head``), which is not
        # a fault; the null device takes what is left unflushed, so the
        # interpreter's final flush cannot fail a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except EnzresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
