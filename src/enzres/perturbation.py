"""Perturbation series of the high-contrast core-shell eigenproblem.

In the vanishing-shell-permittivity limit the eigenpair expands as
lambda_delta = lambda0 + delta*lambda1 + ... with the eigenfunction equal
to 1 + delta*phi1 + ... on the shell and psi_d + delta*psi1 + ... on the
core.  The leading eigenvalue lambda0 is fixed by the consistency condition
|shell| + int_D psi_d = 0, whose residual is strictly increasing in lambda0
between its poles (the nonzero-mean Dirichlet eigenvalues of the core); it
is the one eigenvalue in the search interval of the collapsed-shell pencil,
the delta -> 0 problem with the whole shell merged into one unknown.  Higher
orders follow from an alternating Neumann(shell)/Dirichlet(core) recursion
that factors the core operator once; all stored fields are mean-zero with
the additive constants e_n kept separately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzres.errors import InputError, NumericalError
from enzres.fem import (DirichletFactor, Field, dirichlet_modes,
                        factor_symmetric, region_operator,
                        solve_neumann_mean_zero, weak_normal_flux)
from enzres.mesh import CORE, SHELL, Mesh

__all__ = ["PerturbationSeries", "compute_psi_d", "consistency_residual",
           "find_lambda0", "expand_series", "eval_lambda", "eval_field",
           "series_to_json", "series_from_json"]

#: tolerance factors (relative to |Omega|) for entering / running the recursion
CONSISTENCY_TOL = 1e-6
DEFECT_TOL = 1e-8
#: most core Dirichlet modes the pole scan of `find_lambda0` computes, and
#: most eigenvalues its collapsed-pencil solve asks for
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


def _core_factor(mesh: Mesh, lambda0) -> DirichletFactor:
    if not lambda0 > 0:
        raise InputError(f"compute_psi_d: lambda0 must be > 0, got {lambda0}")
    return region_operator(mesh, CORE).factor(lambda0)


def compute_psi_d(mesh: Mesh, lambda0: float) -> Field:
    """Core profile: (-Delta - lambda0) psi_d = 0 in D, psi_d = 1 on the
    interface."""
    return Field(mesh, _core_factor(mesh, lambda0).solve(g=1.0),
                 frozenset({CORE}))


def consistency_residual(mesh: Mesh, lambda0: float) -> float:
    """Signed consistency residual |shell| + int_D psi_d."""
    op = region_operator(mesh, CORE)
    psi = compute_psi_d(mesh, lambda0)
    return float(op.area_by_region[SHELL] + op.m @ psi.values)


def _collapsed_pencil(op):
    """Core pencil (K_c, M_c) of the delta -> 0 limit, in which the shell is
    one unknown c: K_c = P^T K P and M_c = P^T M P + |shell| e_c e_c^T,
    where P maps [core interior, c] onto the core nodes (c on every
    interface node)."""
    n = op.interior.size
    P = sp.csc_matrix(
        (np.ones(n + op.boundary.size),
         (np.concatenate([op.interior, op.boundary]),
          np.concatenate([np.arange(n), np.full(op.boundary.size, n)]))),
        shape=(op.n_nodes, n + 1))
    shell = sp.csc_matrix(([op.area_by_region[SHELL]], ([n], [n])),
                          shape=(n + 1, n + 1))
    return (P.T @ op.K @ P).tocsc(), (P.T @ op.M @ P + shell).tocsc()


def find_lambda0(mesh: Mesh, search_interval) -> float:
    """Root of the consistency residual on a bracketing interval.

    The interval may not straddle a pole of the residual (a Dirichlet
    eigenvalue of the core with nonzero-mean eigenfunction) and the residual
    must change sign across it; the residual is strictly increasing between
    poles so the root is unique.  Intervals reaching above the
    `MAX_POLE_SCAN`-th core mode are refused, since their poles cannot all
    be checked.

    The root is an eigenvalue of the collapsed-shell pencil
    (`_collapsed_pencil`): as delta -> 0 the eigenfunction is constant on
    the shell, and the pencil's row for that constant c reads
    -lam * (|shell| + int_D psi_d) * c, so its eigenvalues with c != 0 are
    exactly the roots of the discrete residual (the secular equation of a
    bordered pencil; Golub, SIAM Rev. 15, 1973).  They are found by
    shift-invert Lanczos at the interval midpoint from one factorization
    and a fixed start vector (Ericsson & Ruhe, Math. Comp. 35, 1980), with
    k doubled from 3 until the returned eigenvalues reach past both
    interval ends; an interval that needs more than `MAX_POLE_SCAN` of
    them is refused.  Eigenvalues with |c| * sqrt|Omega| <= 1e-6 are the
    core's zero-mean Dirichlet modes; exactly one other must lie in the
    interval, and its residual must be within 1e-10*|Omega|.
    """
    t_lo, t_hi = (float(t) for t in search_interval)
    if not (0 < t_lo < t_hi):
        raise InputError(f"find_lambda0: need 0 < t_lo < t_hi, got "
                         f"({t_lo}, {t_hi})")

    # pole scan: Dirichlet modes of the core up to t_hi with nonzero mean
    op = region_operator(mesh, CORE)
    area = sum(op.area_by_region.values())
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

    r_lo = consistency_residual(mesh, t_lo)
    r_hi = consistency_residual(mesh, t_hi)
    # the residual increases between poles, so a root has r(t_lo) < 0;
    # a fall from + to - would be a pole the scan did not flag
    if not r_lo < 0 < r_hi:
        raise InputError(
            f"find_lambda0: no permissible lambda0 in interval ({t_lo}, "
            f"{t_hi}): residual does not change sign from - to + "
            f"({r_lo:.6g} -> {r_hi:.6g})")

    K_c, M_c = _collapsed_pencil(op)
    sigma, half = 0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo)
    try:
        lu = factor_symmetric(K_c - sigma * M_c)
    except RuntimeError as exc:
        raise NumericalError(f"find_lambda0: collapsed pencil singular at "
                             f"sigma = {sigma} ({exc})")
    OPinv = spla.LinearOperator(K_c.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(K_c.shape[0])
    k = 3
    while True:
        vals, vecs = spla.eigsh(K_c, k=k, M=M_c, sigma=sigma, which="LM",
                                OPinv=OPinv, v0=v0)
        if np.abs(vals - sigma).max() >= half:
            break
        if 2 * k > MAX_POLE_SCAN:
            raise InputError(
                f"find_lambda0: the {k} eigenvalues of the collapsed pencil "
                f"nearest sigma = {sigma} all lie in ({t_lo}, {t_hi}), so "
                "roots beyond them go unchecked; narrow the interval")
        k *= 2
    # the c component is the shell value; zero-mean core modes have c = 0
    is_root = ((t_lo < vals) & (vals < t_hi)
               & (np.abs(vecs[-1]) * np.sqrt(area) > 1e-6))
    roots = np.sort(vals[is_root])
    if roots.size != 1:
        raise NumericalError(
            f"find_lambda0: {roots.size} eigenvalues of the collapsed pencil "
            f"with nonzero shell value in ({t_lo}, {t_hi}), expected one: "
            f"{roots.tolist()}")
    lam0 = float(roots[0])
    r = consistency_residual(mesh, lam0)
    if abs(r) > 1e-10 * area:
        raise NumericalError(
            f"find_lambda0: residual {r:.3e} at root exceeds "
            f"1e-10*|Omega| = {1e-10 * area:.3e}")
    return lam0


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
    # one core factorization serves psi_d and every core corrector
    fac = _core_factor(mesh, lambda0)
    op = fac.op
    area = sum(op.area_by_region.values())
    shell_area = op.area_by_region[SHELL]
    m_core = op.m

    psi_d = Field(mesh, fac.solve(g=1.0), frozenset({CORE}))
    consist = shell_area + m_core @ psi_d.values
    if abs(consist) > CONSISTENCY_TOL * area:
        raise InputError(
            f"expand_series: consistency residual {consist:.3e} exceeds "
            f"{CONSISTENCY_TOL:g}*|Omega|; run find_lambda0 first "
            "(lambda0 drift or mesh too coarse)")
    # consistent-mass products keep the recursion identities exact discretely
    M_psi_d = op.M @ psi_d.values
    norm_const = float(shell_area + psi_d.values @ M_psi_d)

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
        psi_ring = fac.solve(source=core_source, g=phi_next.values)
        core_sources.append(core_source)

        e_next = float(-(psi_ring @ M_psi_d) / norm_const)
        e.append(e_next)
        phis.append(phi_next.values)
        psis.append(psi_ring)

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
