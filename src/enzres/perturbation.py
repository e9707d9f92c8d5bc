"""Perturbation series of the high-contrast core-shell eigenproblem.

In the vanishing-shell-permittivity limit the eigenpair expands as
lambda_delta = lambda0 + delta*lambda1 + ... with the eigenfunction equal
to 1 + delta*phi1 + ... on the shell and psi_d + delta*psi1 + ... on the
core.  The leading eigenvalue lambda0 is fixed by the consistency condition
|shell| + int_D psi_d = 0, whose residual is strictly increasing in lambda0
between its poles (the nonzero-mean Dirichlet eigenvalues of the core).
Higher orders follow from an alternating Neumann(shell)/Dirichlet(core)
recursion; all stored fields are mean-zero with the additive constants e_n
kept separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from enzres.errors import InputError, NumericalError
from enzres.fem import (Field, assemble_mass, assemble_stiffness,
                        dirichlet_modes, mass_vector,
                        solve_dirichlet_helmholtz, solve_neumann_mean_zero,
                        weak_normal_flux)
from enzres.mesh import Mesh, mesh_metrics

__all__ = ["PerturbationSeries", "compute_psi_d", "consistency_residual",
           "find_lambda0", "expand_series", "eval_lambda", "eval_field",
           "series_to_json", "series_from_json"]

CORE = 0
SHELL = 1

#: tolerance factors (relative to |Omega|) for entering / running the recursion
CONSISTENCY_TOL = 1e-6
DEFECT_TOL = 1e-8
#: most core Dirichlet modes the pole scan of `find_lambda0` computes
MAX_POLE_SCAN = 64


@dataclass
class PerturbationSeries:
    """Taylor coefficients of (lambda_delta, u_delta) about delta = 0.

    `shell_fields[n-1]` is the mean-zero shell corrector of order n,
    `core_fields[n-1]` the mean-zero core corrector, `constants[n-1]` the
    additive constant e_n; the full correctors are
    phi_n = shell_fields[n-1] + e_n and psi_n = core_fields[n-1] + e_n*psi_d.
    `norm_const` is |shell| + int_D psi_d**2.
    """

    mesh: Mesh
    lambda0: float
    lambda_coeffs: list  # [lambda1..lambdaN]
    shell_fields: list   # mean-zero Fields on the shell
    core_fields: list    # mean-zero Fields on the core
    constants: list      # [e_1..e_N]
    norm_const: float
    psi_d: Field

    @property
    def order(self) -> int:
        return len(self.lambda_coeffs)

    def all_lambdas(self) -> np.ndarray:
        return np.array([self.lambda0, *self.lambda_coeffs])


def compute_psi_d(mesh: Mesh, lambda0: float, operators=None) -> Field:
    """Core profile: (-Delta - lambda0) psi_d = 0 in D, psi_d = 1 on the
    interface."""
    if not lambda0 > 0:
        raise InputError(f"compute_psi_d: lambda0 must be > 0, got {lambda0}")
    return solve_dirichlet_helmholtz(mesh, CORE, lambda0, source=None, g=1.0,
                                     operators=operators)


def consistency_residual(mesh: Mesh, lambda0: float, operators=None) -> float:
    """Signed consistency residual |shell| + int_D psi_d."""
    psi = compute_psi_d(mesh, lambda0, operators=operators)
    m_core = mass_vector(mesh, CORE)
    shell_area = mesh_metrics(mesh)["area_by_region"][SHELL]
    return float(shell_area + m_core @ psi.values)


def find_lambda0(mesh: Mesh, search_interval) -> float:
    """Root of the consistency residual on a bracketing interval.

    The interval may not straddle a pole of the residual (a Dirichlet
    eigenvalue of the core with nonzero-mean eigenfunction) and the residual
    must change sign across it; the residual is strictly increasing between
    poles so the root is unique.  Intervals reaching above the
    `MAX_POLE_SCAN`-th core mode are refused, since their poles cannot all
    be checked.
    """
    t_lo, t_hi = (float(t) for t in search_interval)
    if not (0 < t_lo < t_hi):
        raise InputError(f"find_lambda0: need 0 < t_lo < t_hi, got "
                         f"({t_lo}, {t_hi})")

    # pole scan: Dirichlet modes of the core up to t_hi with nonzero mean
    area = sum(mesh_metrics(mesh)["area_by_region"].values())
    count = 8
    while True:
        modes = dirichlet_modes(mesh, CORE, count)
        if modes[-1][0] > t_hi or count >= MAX_POLE_SCAN:
            break
        count *= 2
    for mu, _chi, mean in modes:
        if t_lo < mu < t_hi and abs(mean) > 1e-6 * np.sqrt(area):
            raise InputError(
                f"find_lambda0: interval ({t_lo}, {t_hi}) straddles Dirichlet "
                f"eigenvalue mu = {mu:.6g} of the core (pole of the "
                "consistency residual)")
    if modes[-1][0] <= t_hi:
        raise InputError(
            f"find_lambda0: pole scan truncated: the {count} lowest Dirichlet "
            f"eigenvalues of the core lie below t_hi = {t_hi}, so poles "
            f"above mu = {modes[-1][0]:.6g} go unchecked; narrow the interval")

    K = assemble_stiffness(mesh, {CORE: 1.0})
    M = assemble_mass(mesh, {CORE: 1.0})

    def resid(lam):
        return consistency_residual(mesh, lam, operators=(K, M))

    r_lo, r_hi = resid(t_lo), resid(t_hi)
    if not r_lo * r_hi < 0:
        raise InputError(
            f"find_lambda0: no permissible lambda0 in interval ({t_lo}, "
            f"{t_hi}): residual does not change sign "
            f"({r_lo:.6g} -> {r_hi:.6g})")
    root = brentq(resid, t_lo, t_hi, xtol=1e-13, rtol=8.9e-16, maxiter=200)
    final = resid(root)
    if abs(final) > 1e-10 * area:
        raise NumericalError(
            f"find_lambda0: residual {final:.3e} at root exceeds "
            f"1e-10*|Omega| = {1e-10 * area:.3e}")
    return float(root)


def expand_series(mesh: Mesh, lambda0: float, order: int = 4) -> PerturbationSeries:
    """Run the order-N recursion producing the full perturbation series.

    Each shell corrector solves a mean-zero Neumann problem driven by the
    lower orders and the variationally extracted interface flux of the
    previous core corrector; each eigenvalue coefficient pairs the flux of
    psi_d against the new shell corrector; each core corrector solves a
    Dirichlet problem matching the shell trace; each constant e_n restores
    the series normalization.
    """
    if order < 1:
        raise InputError(f"expand_series: order must be >= 1, got {order}")
    area = sum(mesh_metrics(mesh)["area_by_region"].values())
    shell_area = mesh_metrics(mesh)["area_by_region"][SHELL]

    K_core = assemble_stiffness(mesh, {CORE: 1.0})
    M_core = assemble_mass(mesh, {CORE: 1.0})
    m_core = mass_vector(mesh, CORE)
    m_shell = mass_vector(mesh, SHELL)

    psi_d = compute_psi_d(mesh, lambda0, operators=(K_core, M_core))
    consist = shell_area + m_core @ psi_d.values
    if abs(consist) > CONSISTENCY_TOL * area:
        raise InputError(
            f"expand_series: consistency residual {consist:.3e} exceeds "
            f"{CONSISTENCY_TOL:g}*|Omega|; run find_lambda0 first "
            "(lambda0 drift or mesh too coarse)")
    # consistent-mass products keep the recursion identities exact discretely
    norm_const = float(shell_area + psi_d.values @ (M_core @ psi_d.values))

    # flux of psi_d across the interface, reused for every lambda_{n+1}
    flux_psi_d = weak_normal_flux(psi_d, lambda0, source=None)

    lambdas = [float(lambda0)]           # lambda_0..lambda_N
    e = [1.0]                            # e_0..e_N
    phis = [np.zeros(mesh.n_nodes)]      # mean-zero shell parts, order 0 = 0
    psis = [np.zeros(mesh.n_nodes)]      # mean-zero core parts,  order 0 = 0
    core_sources = [np.zeros(mesh.n_nodes)]  # RHS of each psi_n's PDE

    def full_psi(n):
        return psis[n] + e[n] * psi_d.values

    for n in range(order):
        # Neumann problem for the order-(n+1) shell corrector:
        # -Delta phi = sum_{k=0}^{n} lambda_k * phi_{n-k}, interface flux of psi_n
        shell_source = np.zeros(mesh.n_nodes)
        for k in range(n + 1):
            shell_source += lambdas[k] * (phis[n - k] + e[n - k])
        flux_n = weak_normal_flux(
            Field(mesh, full_psi(n) if n > 0 else psi_d.values, frozenset({CORE})),
            lambda0, source=core_sources[n])
        phi_next, defect = solve_neumann_mean_zero(mesh, SHELL, shell_source,
                                                   flux_n)
        if abs(defect) > DEFECT_TOL * area * max(1.0, *(abs(l) for l in lambdas)):
            raise NumericalError(
                f"expand_series: Neumann consistency defect {defect:.3e} at "
                f"order {n + 1} exceeds tolerance (lambda0 drift or mesh too "
                "coarse)")

        lam_next = float(flux_psi_d.pair(phi_next.values) / norm_const)
        lambdas.append(lam_next)

        # Dirichlet problem for the order-(n+1) core corrector:
        # (-Delta - lambda0) psi = sum_{k=1}^{n+1} lambda_k psi_{n+1-k},
        # psi = phi_next on the interface
        core_source = np.zeros(mesh.n_nodes)
        for k in range(1, n + 2):
            core_source += lambdas[k] * full_psi(n + 1 - k)
        psi_ring = solve_dirichlet_helmholtz(
            mesh, CORE, lambda0, source=core_source, g=phi_next.values,
            operators=(K_core, M_core))
        core_sources.append(core_source)

        e_next = float(-(psi_ring.values @ (M_core @ psi_d.values)) / norm_const)
        e.append(e_next)
        phis.append(phi_next.values)
        psis.append(psi_ring.values)

    shell_tags, core_tags = frozenset({SHELL}), frozenset({CORE})
    return PerturbationSeries(
        mesh=mesh, lambda0=float(lambda0), lambda_coeffs=lambdas[1:],
        shell_fields=[Field(mesh, v, shell_tags) for v in phis[1:]],
        core_fields=[Field(mesh, v, core_tags) for v in psis[1:]],
        constants=e[1:], norm_const=norm_const, psi_d=psi_d)


def eval_lambda(series, delta):
    """Horner evaluation of lambda(delta) through the stored order."""
    coeffs = [series.lambda0, *series.lambda_coeffs]
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * delta + c
    return acc


def eval_field(series: PerturbationSeries, delta) -> Field:
    """Truncated eigenfunction: 1 + sum delta^n phi_n on the shell,
    psi_d + sum delta^n psi_n on the core (continuous across the
    interface)."""
    mesh = series.mesh
    shell_nodes = mesh.region_nodes(SHELL)
    core_nodes = mesh.region_nodes(CORE)
    dtype = complex if np.iscomplexobj(np.asarray(delta)) else float
    u = np.zeros(mesh.n_nodes, dtype=dtype)
    u[core_nodes] = series.psi_d.values[core_nodes]
    u[shell_nodes] = 1.0  # interface nodes overwritten consistently below
    dn = 1.0
    for n in range(1, series.order + 1):
        dn = dn * delta
        e_n = series.constants[n - 1]
        psi_n = series.core_fields[n - 1].values + e_n * series.psi_d.values
        phi_n = series.shell_fields[n - 1].values + e_n
        u[core_nodes] = u[core_nodes] + dn * psi_n[core_nodes]
        u[shell_nodes] = u[shell_nodes] + dn * phi_n[shell_nodes]
    return Field(mesh, u, frozenset({CORE, SHELL}))


# ---------------------------------------------------------------------------
# serialization

SCHEMA_VERSION = 1


def series_to_json(series: PerturbationSeries) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "lambda0": series.lambda0,
        "lambda": [float(c) for c in series.lambda_coeffs],
        "e": [float(c) for c in series.constants],
        "norm_const": series.norm_const,
        "psi_d": series.psi_d.values.tolist(),
        "shell_fields": [f.values.tolist() for f in series.shell_fields],
        "core_fields": [f.values.tolist() for f in series.core_fields],
    }
    return json.dumps(doc)


def series_from_json(text: str, mesh: Mesh | None = None) -> PerturbationSeries:
    """Rebuild a series from JSON.  Without a mesh, field evaluation is
    unavailable but eval_lambda and dispersion tracing work."""
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError("series_from_json: unsupported schema_version "
                         f"{doc.get('schema_version')!r}")
    psi_d = np.array(doc["psi_d"])
    shell = [np.array(v) for v in doc["shell_fields"]]
    core = [np.array(v) for v in doc["core_fields"]]
    if mesh is not None:
        psi_d = Field(mesh, psi_d, frozenset({CORE}))
        shell = [Field(mesh, v, frozenset({SHELL})) for v in shell]
        core = [Field(mesh, v, frozenset({CORE})) for v in core]
    return PerturbationSeries(
        mesh=mesh, lambda0=float(doc["lambda0"]),
        lambda_coeffs=[float(c) for c in doc["lambda"]],
        shell_fields=shell, core_fields=core,
        constants=[float(c) for c in doc["e"]],
        norm_const=float(doc["norm_const"]), psi_d=psi_d)
