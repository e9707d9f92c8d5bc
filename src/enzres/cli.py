"""Command-line front end: mesh, lambda0, expand, resonate, optimize,
validate-disk.

All commands emit machine-readable output (JSON to stdout, files via -o),
are deterministic given their flags, and use exit codes 0 (success),
1 (numerical/internal failure, or a stdout closed early by its reader),
2 (invalid input).  Commands that solve on a mesh import the solver
modules when they run, so `resonate` loads no SciPy.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import sys

import numpy as np

from enzres import dispersion as disp
from enzres.errors import EnzresError, InputError
from enzres.mesh import (CORE, build_concentric_mesh, load_mesh, mesh_metrics,
                         save_mesh)


def _finite_float(text: str) -> float:
    """argparse type: a finite float (nan and inf exit 2 as bad usage)."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return val


def _read_text(path: str, what: str) -> str:
    """The text of `path`; an unreadable or undecodable file is an input
    error naming it as `what`."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}")


def _write_text(path: str, text: str):
    """Write `text` to `path`; an unwritable path is an input error."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}")


def _check_writable(path: str):
    """Refuse, before any work, an output path whose directory is missing
    or not writable; `_write_text` still refuses whatever this misses."""
    directory = os.path.dirname(os.path.abspath(path))
    if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise InputError(f"cannot write {path}: {directory} is not a "
                         "writable directory")


#: (flag, argparse dest) of every file a command reads, and writes
INPUTS = (("--mesh", "mesh"), ("--series", "series"), ("--in", "infile"))
OUTPUTS = (("-o", "out"), ("--csv", "csv"))


def _check_outputs(args):
    """Refuse, before any work, an output path that `_check_writable`
    refuses, or whose real path is that of an input or of the other
    output, which writing it would overwrite; the refusal names both
    flags."""
    given = [(flag, getattr(args, dest, None)) for flag, dest in INPUTS]
    for flag, dest in OUTPUTS:
        path = getattr(args, dest, None)
        if not path:
            continue
        _check_writable(path)
        for other, other_path in given:
            if other_path and (os.path.realpath(other_path)
                               == os.path.realpath(path)):
                raise InputError(
                    f"{flag} {path} names the file of {other} {other_path}; "
                    "writing it would overwrite that file")
        given.append((flag, path))


def _emit(doc: dict, path: str | None = None):
    doc = {"schema_version": disp.SCHEMA_VERSION, **doc}
    text = json.dumps(doc, indent=2)
    if path:
        _write_text(path, text + "\n")
    print(text)


def _read_mesh(path: str):
    return load_mesh(_read_text(path, "mesh file"))


def _resolve_lambda0(mesh, args) -> float:
    """--lambda0 as given (the solver it is handed refuses one that can be
    no root), or the root in (--lo, --hi); any other mix is refused."""
    if args.lambda0 is not None and args.lo is None and args.hi is None:
        return float(args.lambda0)
    if args.lambda0 is not None or args.lo is None or args.hi is None:
        raise InputError("give either --lambda0 or both --lo and --hi")
    from enzres import perturbation as pert
    return pert.find_lambda0(mesh, (args.lo, args.hi))


# ---------------------------------------------------------------------------
# subcommands

def cmd_mesh(args) -> int:
    # each kind refuses the other kind's flags, which it would not read
    if args.kind == "concentric":
        if args.infile is not None:
            raise InputError("--kind concentric takes no --in")
        if args.rd is None or args.r0 is None or args.h is None:
            raise InputError("concentric mesh needs --rd, --r0 and --h")
        mesh = build_concentric_mesh(args.rd, args.r0, args.h, r_b=args.rb)
    else:
        given = [flag for flag, value in (("--rd", args.rd), ("--r0", args.r0),
                                          ("--rb", args.rb), ("--h", args.h))
                 if value is not None]
        if given:
            raise InputError(f"--kind file takes no {', '.join(given)}")
        if args.infile is None:
            raise InputError("--kind file needs --in")
        mesh = _read_mesh(args.infile)
    if args.out:
        _write_text(args.out, save_mesh(mesh))
    _emit({"metrics": mesh_metrics(mesh), "output": args.out})
    return 0


def cmd_lambda0(args) -> int:
    from enzres import perturbation as pert
    mesh = _read_mesh(args.mesh)
    lam0 = pert.find_lambda0(mesh, (args.lo, args.hi))
    _emit({"lambda0": lam0, "interval": [args.lo, args.hi]}, args.out)
    return 0


def cmd_expand(args) -> int:
    from enzres import perturbation as pert
    mesh = _read_mesh(args.mesh)
    lam0 = _resolve_lambda0(mesh, args)
    series = pert.expand_series(mesh, lam0, order=args.order)
    # the series document is the coefficients, as printed
    _emit({"lambda0": series.lambda0, "lambda": series.lambda_coeffs,
           "e": series.constants, "norm_const": series.norm_const,
           "order": series.order, "output": args.out}, args.out)
    return 0


def cmd_resonate(args) -> int:
    lambdas = disp.read_series(_read_text(args.series, "series file"))
    p = disp.LorentzParams(eps_inf=args.eps_inf, omega_p=args.omega_p,
                           omega_0=args.omega_0)
    d = disp.CoreDielectric(eps_d=args.eps_d)
    trace = disp.trace_resonance(lambdas, p, d, gamma_max=args.gamma_max,
                                 steps=args.steps)
    csv_text = disp.trace_to_csv(trace)
    if args.out:
        _write_text(args.out, csv_text)
    else:
        sys.stdout.write(csv_text)
    _emit({"omega_star": trace.omega_star,
           "omega_prime0": [trace.omega_prime0.real, trace.omega_prime0.imag],
           "calibration_scale_t": trace.calibration_scale_t,
           "rows": len(trace.gammas), "output": args.out})
    return 0


def cmd_optimize(args) -> int:
    from enzres import design as design_mod
    mesh = _read_mesh(args.mesh)
    lam0 = _resolve_lambda0(mesh, args)
    prob = design_mod.make_disk_problem(mesh, lam0)
    state = design_mod.recover_design(prob, design_mod.minimize_dual(prob))
    if args.out:
        _write_text(args.out, design_mod.design_to_json(state, prob))
    if args.csv:
        _write_text(args.csv, design_mod.design_to_csv(state, prob))
    _emit({"lambda0": lam0, "A0": prob.A0,
           "lambda1": design_mod.lambda1_of_design(state, prob),
           "value": state.value, "converged": state.converged,
           "fractional_mass": state.fractional_mass,
           "output": args.out})
    return 0


def cmd_validate_disk(args) -> int:
    """Oracle comparison suite on the radially symmetric geometry."""
    # the only command that needs the oracle (and scipy.special) loads it
    from enzres import perturbation as pert
    from enzres.bessel_oracle import annulus_lambda1, disk_case, disk_psi_d
    from enzres.eigensolver import remainder_ratios
    from enzres.fem import weak_normal_flux
    case = disk_case(9.0)
    h = args.h
    checks = []

    # the finest mesh first, and then the coarse one, so that an h too small
    # or too large is refused before any root; the mesh at 4h serves
    # lambda0's convergence order alone, and is dropped after its root
    mesh = build_concentric_mesh(1.0, case.r0, h)
    try:
        coarse = build_concentric_mesh(1.0, case.r0, 4 * h)
    except InputError as exc:
        raise InputError(f"--h {h}: lambda0's convergence order needs a "
                         f"mesh at 4h = {4 * h}, which is refused ({exc})"
                         ) from None
    rel_coarse = (abs(pert.find_lambda0(coarse, (6.0, 14.0)) - case.lambda0)
                  / case.lambda0)
    del coarse
    lam0 = pert.find_lambda0(mesh, (6.0, 14.0))
    rel = abs(lam0 - case.lambda0) / case.lambda0
    checks.append(("lambda0 within 0.5% at h", rel, rel <= 5e-3))
    # the error falls as h^order over the two halvings from 4h to h
    order = 0.5 * math.log2(rel_coarse / rel)
    checks.append(("lambda0 convergence order >= 1.8", order, order >= 1.8))

    series = pert.expand_series(mesh, lam0, order=2)
    lam1 = annulus_lambda1(case)
    lam1_rel = abs(series.lambda_coeffs[0] - lam1) / abs(lam1)
    checks.append(("lambda1 within 1% of oracle", lam1_rel, lam1_rel <= 1e-2))

    # criterion 2: the direct finite-delta eigenvalue at delta and delta/2
    # (on the series' own factors) leaves remainders E_n = O(delta^(n+1))
    ratios = remainder_ratios(series, 0.01 * cmath.exp(1j * math.pi / 4))
    for n, ratio in enumerate(ratios, 1):
        checks.append((f"E_{n} remainder ratio in [{2 ** n}, {2 ** (n + 2)}]",
                       ratio, 2 ** n <= ratio <= 2 ** (n + 2)))

    core = mesh.region_nodes(CORE)
    r = np.linalg.norm(mesh.nodes[core], axis=1)
    psi_err = np.max(np.abs(series.psi_d.values[core]
                            - disk_psi_d(case, np.minimum(r, 1.0))))
    checks.append(("psi_d max nodal error small (O(h^2))", psi_err,
                   psi_err <= 50 * h * h))

    fac = series.psi_d.core_factor
    total = weak_normal_flux(fac, series.psi_d.values).sum()
    ident = abs(total + lam0 * (fac.op.m @ series.psi_d.values))
    checks.append(("flux mass identity <= 1e-10 relative",
                   ident / abs(total), ident <= 1e-10 * abs(total)))

    ok = all(c[2] for c in checks)
    for name, value, passed in checks:
        # past three digits E_n and the flux identity are rounding noise;
        # the JSON keeps full precision
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {value:#.3g}")
    _emit({"h": h, "lambda0": lam0, "order": order,
           "lambda1": series.lambda_coeffs[0], "remainder_ratios": ratios,
           "all_passed": ok})
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
        _check_outputs(args)
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
