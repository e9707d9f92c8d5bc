"""Perturbation series of the high-contrast core-shell eigenproblem.

In the vanishing-shell-permittivity limit the eigenpair expands as
lambda_delta = lambda0 + delta*lambda1 + ... with the eigenfunction equal
to 1 + delta*phi1 + ... on the shell and psi_d + delta*psi1 + ... on the
core.  The leading eigenvalue lambda0 is fixed by the consistency condition
|shell| + int_D psi_d = 0.  Its roots are the eigenvalues of the
collapsed-shell pencil, the delta -> 0 problem with the whole shell merged
into one unknown, whose eigenvectors have a nonzero shell value and zero
mean over Omega; lambda0 is the one such eigenvalue in the search interval,
found by one shift-invert Lanczos recurrence on one factor of the pencil.
A lambda0 becomes a core set-up (the lambda0 gate, the core factor, psi_d
and psi_d's interface flux) in one place, `_core_profile`, for the series
and for `design.make_disk_problem`.  Higher orders follow from an
alternating Neumann(shell)/Dirichlet(core) recursion that factors the core
and the shell operator once each; its order-1 Neumann consistency defect
is lambda0 * (|shell| + int_D psi_d), so that defect check is where the
series checks the consistency condition, once.  All stored fields are
mean-zero with the additive constants e_n kept separately.  The series'
psi_d is a `CoreProfile`: it carries the two factors the recursion made,
which `eigensolver.resonance_near` solves with, so a profile without its
factors cannot be built; the lambda0 it was solved at is its core
factor's shift, `core_factor.lam`.  Only the coefficients leave the
process (`enzres expand -o`, read back by `dispersion.read_series`); the
fields live with their mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from enzres.dispersion import MAX_ORDER
from enzres.errors import InputError, NumericalError
from enzres.fem import (DirichletFactor, MeanZeroFactor, factor_symmetric,
                        region_operator, weak_normal_flux)
from enzres.mesh import CORE, SHELL, Mesh

__all__ = ["PerturbationSeries", "CoreProfile", "find_lambda0",
           "expand_series", "eval_lambda"]

#: tolerance factor (relative to |Omega| * max_k |lambda_k| over the
#: coefficients so far, lambda0 at order 1) on the recursion's Neumann
#: consistency defect
DEFECT_TOL = 1e-8
#: most eigenvalues of the collapsed pencil `find_lambda0` asks for
MAX_PENCIL_EIGS = 64
#: relative error bound on lambda0 that `find_lambda0` accepts
ROOT_TOL = 1e-10
#: most Lanczos steps (shift-invert back-solves) `find_lambda0` takes
MAX_LANCZOS_STEPS = 2 * MAX_PENCIL_EIGS
#: a Ritz value nu of the shift-inverted pencil counts as converged once
#: its Lanczos residual estimate is at most `RITZ_TOL` * |nu|
RITZ_TOL = 1e-8
#: widest length scale sqrt|Omega| of a mesh, either way from 1, that
#: `_lambda_window` accepts.  The solves' norms carry powers of it: on the
#: h = 0.15 disk scaled by t, `find_lambda0`'s Lanczos norms (up to t**6)
#: under- or overflow from t = 1e-55 and 1e55, and `expand_series` fails
#: from 1e-80 and 1e80
MAX_LENGTH_SCALE = 1e40


@dataclass
class CoreProfile:
    """psi_d: (-Delta - lambda0) psi_d = 0 in the core, psi_d = 1 on the
    interface, as nodal `values` on `mesh` (zero off the core).

    `core_factor` (the core at lambda0, the exact float `core_factor.lam`)
    and `shell_factor` (the shell's mean-zero factor) are the two factors
    `expand_series` made, which `eigensolver.resonance_near` solves with.
    They are not shown or compared.
    """

    mesh: Mesh
    values: np.ndarray
    core_factor: DirichletFactor = field(repr=False, compare=False)
    shell_factor: MeanZeroFactor = field(repr=False, compare=False)


@dataclass
class PerturbationSeries:
    """Taylor coefficients of (lambda_delta, u_delta) about delta = 0.

    `shell_fields[n-1]` is the mean-zero shell corrector of order n,
    `core_fields[n-1]` the mean-zero core corrector, `constants[n-1]` the
    additive constant e_n; the full correctors are
    phi_n = shell_fields[n-1] + e_n and psi_n = core_fields[n-1] + e_n*psi_d.
    `norm_const` is |shell| + int_D psi_d**2.  Every field is a nodal
    array on `mesh`, zero off its region.
    """

    mesh: Mesh
    lambda0: float
    lambda_coeffs: list  # [lambda1..lambdaN]
    shell_fields: list   # mean-zero nodal arrays on the shell
    core_fields: list    # mean-zero nodal arrays on the core
    constants: list      # [e_1..e_N]
    norm_const: float
    psi_d: CoreProfile

    @property
    def order(self) -> int:
        return len(self.lambda_coeffs)

    def all_lambdas(self) -> np.ndarray:
        return np.array([self.lambda0, *self.lambda_coeffs])


def _lambda_window(caller: str, mesh: Mesh):
    """(floor, top): the one window (floor, top] in which `_check_lambda0`
    accepts a lambda0 and `find_lambda0` an interval.  A mesh whose length
    scale sqrt|Omega| lies outside [1 / `MAX_LENGTH_SCALE`,
    `MAX_LENGTH_SCALE`] has no window: it is refused, naming `caller`.

    top is `_largest_eigenvalue_bound` of the cached core
    `RegionOperator`'s K and m / 4; no pencil is built.  It bounds every
    eigenvalue of the collapsed pencil (`_collapsed_pencil`), the core
    pencil (K, M) on vectors constant on the interface with the extra mass
    |shell| on that constant, because M >= diag(m / 4); on the disk it
    equals the pencil's own Gershgorin bound bit for bit.  floor = eps *
    top is the rounding of the pencil's eigenvalue 0, which is no root: a
    lambda at or below it cannot be told from 0."""
    length = math.sqrt(sum(mesh.area_by_region().values()))
    if not 1 / MAX_LENGTH_SCALE <= length <= MAX_LENGTH_SCALE:
        raise InputError(
            f"{caller}: the mesh's length scale sqrt|Omega| = {length:.3g} "
            f"lies outside [{1 / MAX_LENGTH_SCALE:g}, {MAX_LENGTH_SCALE:g}], "
            "where the solvers' norms stay normal floats; rescale the mesh "
            "(its eigenvalues scale as 1/length**2)")
    op = region_operator(mesh, CORE)
    top = _largest_eigenvalue_bound(op.K, op.m / 4)
    return np.finfo(float).eps * top, top


def _check_lambda0(caller: str, mesh: Mesh, lambda0) -> None:
    """The one lambda0 gate, run before anything is factored: refuse,
    naming `caller`, a lambda0 that is not real, finite and > 0, or one
    outside the mesh's `_lambda_window`: above the bound on the collapsed
    pencil's largest eigenvalue, since lambda0 is one of its eigenvalues,
    or within rounding of its eigenvalue 0."""
    if np.iscomplexobj(lambda0) or not 0 < lambda0 < math.inf:
        raise InputError(f"{caller}: lambda0 must be real, finite and > 0, "
                         f"got {lambda0}")
    floor, top = _lambda_window(caller, mesh)
    if lambda0 > top:
        raise InputError(
            f"{caller}: lambda0 {lambda0} exceeds {top:.6g}, a bound on the "
            "largest eigenvalue of the collapsed pencil, so it is no root")
    if lambda0 <= floor:
        raise InputError(
            f"{caller}: lambda0 {lambda0} lies within rounding ({floor:.3g}) "
            "of the collapsed pencil's eigenvalue 0, which is no root")


def _core_profile(caller: str, mesh: Mesh, lambda0):
    """The one core set-up of a lambda0, which `_check_lambda0` passes
    first, naming `caller`: (psi_d's nodal values, the core factor at
    lambda0 that solved it, psi_d's interface flux `weak_normal_flux`)."""
    _check_lambda0(caller, mesh, lambda0)
    fac = DirichletFactor(region_operator(mesh, CORE), float(lambda0))
    psi_d = fac.solve(np.zeros(mesh.n_nodes), np.ones(mesh.n_nodes))
    return psi_d, fac, weak_normal_flux(fac, psi_d)


def _collapsed_pencil(mesh: Mesh):
    """Core pencil (K_c, M_c) of the mesh's delta -> 0 limit, in which the
    shell is one unknown c: K_c = P^T K P and
    M_c = P^T M P + |shell| e_c e_c^T, where P maps [core interior, c] onto
    the core nodes (c on every interface node).  Also returns a diagonal d
    with M_c >= diag(d), for the Kato-Temple certificate of `find_lambda0`:
    each element's consistent mass A_e/12 (I + 1 1^T) is at least
    A_e/12 I, so M >= diag(m/4), and P^T diag(m/4) P is diagonal."""
    op = region_operator(mesh, CORE)
    shell_area = mesh.area_by_region()[SHELL]
    n = op.interior.size
    P = sp.csc_matrix(
        (np.ones(n + op.boundary.size),
         (np.concatenate([op.interior, op.boundary]),
          np.concatenate([np.arange(n), np.full(op.boundary.size, n)]))),
        shape=(op.n_nodes, n + 1))
    shell = sp.csc_matrix(([shell_area], ([n], [n])), shape=(n + 1, n + 1))
    d = P.T @ (op.m / 4)
    d[n] += shell_area
    return (P.T @ op.K @ P).tocsc(), (P.T @ op.M @ P + shell).tocsc(), d


def _largest_eigenvalue_bound(K, d) -> float:
    """Gershgorin bound on the largest eigenvalue of any pencil (K, M) with
    K positive semidefinite and M >= diag(d): every eigenvalue is at most
    the largest eigenvalue of diag(d)^-1/2 K diag(d)^-1/2, and so at most
    its largest absolute row sum.  Rows and columns where d = 0 (and K
    vanishes) are left out, so a region's operator can be given at full
    node dimension, as `_lambda_window` gives the core's."""
    s = 1 / np.sqrt(d, out=np.full_like(d, np.inf), where=d > 0)
    return float((abs(K) @ s * s).max())


def _lanczos(lu, M, steps):
    """Lanczos recurrence on the shift-inverted operator x -> lu.solve(M x),
    self-adjoint in the M inner product, from a fixed random vector put in
    its range.  After each of at most `steps` steps it yields the basis (its
    rows M-orthonormal, reorthogonalized in full twice), the eigenvalues nu
    and eigenvectors S of the tridiagonal matrix, and the M-norm of the
    next residual, which times |S[-1]| estimates each Ritz pair's
    residual."""
    n = M.shape[0]
    # the rows of Q hold the basis; Q doubles when full
    Q = np.empty((8, n))
    alpha, beta = [], []
    w = lu.solve(M @ np.random.default_rng(0).standard_normal(n))
    Mw = M @ w
    for j in range(steps):
        norm = math.sqrt(w @ Mw)
        if j:
            beta.append(norm)
        if j == Q.shape[0]:
            Q = np.concatenate([Q, np.empty_like(Q)])
        Q[j] = w / norm
        w = lu.solve(Mw / norm)
        basis = Q[:j + 1]
        alpha.append(0.0)
        for _ in range(2):
            coef = basis @ (M @ w)
            w -= coef @ basis
            alpha[j] += coef[j]
        Mw = M @ w
        yield (basis, *eigh_tridiagonal(alpha, beta), math.sqrt(w @ Mw))


def find_lambda0(mesh: Mesh, search_interval) -> float:
    """The one root of the consistency residual in an open interval.

    lambda0 is the one eigenvalue of the collapsed-shell pencil
    (`_collapsed_pencil`) in (t_lo, t_hi) that is a root.  As delta -> 0
    the eigenfunction is constant on the shell, and the pencil's row for
    that constant c reads -lam * (|shell| + int_D psi_d) * c, so its
    eigenvalues lam != 0 with c != 0 are exactly the roots of the discrete
    residual (the secular equation of a bordered pencil; Golub, SIAM Rev.
    15, 1973).  An eigenpair (lam, v) is taken as a root when
    |c| * sqrt|Omega| > 1e-6, which skips the core's zero-mean Dirichlet
    modes (c = 0), and its Omega-mean 1^T M_c v, the consistency condition
    itself, is at most 1e-6 * sqrt|Omega|, which skips the pencil's exact
    eigenvalue 0 (constant eigenvector, returned near +-1e-13).  Poles of
    the residual in the interval do no harm; an interval with no root or
    with two or more is refused.

    The eigenvalues come from one Lanczos recurrence on the shift-inverted
    pencil, nu = 1 / (lam - sigma) at the interval midpoint sigma, with
    one factorization and a fixed start vector put in the operator's range
    (Ericsson & Ruhe, Math. Comp. 35, 1980).  Its basis is
    M_c-orthonormal, reorthogonalized in full twice per step (Parlett, The
    Symmetric Eigenvalue Problem, ch. 13).  A Ritz value counts as
    converged once its Lanczos residual estimate is at most
    `RITZ_TOL` * |nu|.  The recurrence stops at the first step at which the
    converged Ritz values nearest sigma reach past both interval ends and
    the root passes the certificate below.  More than `MAX_PENCIL_EIGS`
    Ritz values in the interval prove as many eigenvalues there (Cauchy
    interlacing), and the interval is refused.  Before anything is
    factored, the interval meets the mesh's `_lambda_window`, the one a
    single lambda0 meets in `_check_lambda0`: one that reaches past its
    bound on the pencil's largest eigenvalue, where no shift resolves the
    spectrum, is refused, as is one whose midpoint lies at or below its
    floor, within rounding of the pencil's eigenvalue 0, which is no root.
    A pencil singular at the midpoint raises NumericalError, as does a
    root not certified within `MAX_LANCZOS_STEPS` steps.

    No further factorization certifies the root (Parlett, ch. 10-11): with
    v_j the assembled Ritz vectors of the converged set and rho_j their
    Rayleigh quotients, eps_j = ||K_c v_j - rho_j M_c v_j||_{diag(d)^-1} /
    ||v_j||_{M_c} bounds the distance from rho_j to the spectrum (Kahan;
    M_c >= diag(d)), every other eigenvalue lies at least delta from rho_i
    (the converged ones within eps_j of their rho_j, the rest beyond the
    set's reach from sigma), and rho_i is returned once delta > eps_i and
    the Kato-Temple bound eps_i^2 / delta is at most `ROOT_TOL` * rho_i.
    """
    if np.iscomplexobj(search_interval):
        raise InputError(f"find_lambda0: need a real interval, got "
                         f"{search_interval}")
    t_lo, t_hi = (float(t) for t in search_interval)
    if not (0 < t_lo < t_hi < math.inf):
        raise InputError(f"find_lambda0: need 0 < t_lo < t_hi < inf, got "
                         f"({t_lo}, {t_hi})")

    floor, top = _lambda_window("find_lambda0", mesh)
    if t_hi > top:
        raise InputError(
            f"find_lambda0: ({t_lo}, {t_hi}) reaches past {top:.6g}, a bound "
            "on the largest eigenvalue of the collapsed pencil, so no shift "
            "resolves its eigenvalues; narrow the interval")
    sigma, half = 0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo)
    if sigma <= floor:
        raise InputError(
            f"find_lambda0: no permissible lambda0 in interval ({t_lo}, "
            f"{t_hi}): its midpoint {sigma} lies within rounding "
            f"({floor:.3g}) of the collapsed pencil's eigenvalue 0, which is "
            "no root")
    area = sum(mesh.area_by_region().values())
    K_c, M_c, d = _collapsed_pencil(mesh)
    try:
        lu = factor_symmetric(K_c - sigma * M_c)
    except RuntimeError as exc:
        raise NumericalError(f"find_lambda0: collapsed pencil singular at "
                             f"sigma = {sigma} ({exc})")
    n = K_c.shape[0]
    failure = "its converged Ritz values never reached past both ends"
    for basis, nu, S, norm in _lanczos(lu, M_c, min(MAX_LANCZOS_STEPS, n)):
        dist = 1 / np.abs(nu)
        if np.count_nonzero(dist < half) > MAX_PENCIL_EIGS:
            raise InputError(
                f"find_lambda0: more than {MAX_PENCIL_EIGS} eigenvalues of "
                f"the collapsed pencil lie in ({t_lo}, {t_hi}), so roots "
                "among them go unchecked; narrow the interval")
        # the converged Ritz values nearer sigma than any unconverged one
        order = np.argsort(dist)
        converged = (norm * np.abs(S[-1, order])
                     <= RITZ_TOL * np.abs(nu[order]))
        near = order[:order.size if converged.all() else converged.argmin()]
        exhausted = near.size == n
        if not near.size or not (exhausted or dist[near[-1]] >= half):
            continue
        reach = math.inf if exhausted else dist[near[-1]]
        vals = sigma + 1 / nu[near]
        vecs = basis.T @ S[:, near]
        # c is the last component; 1^T M_c v integrates v over Omega
        K_vecs, M_vecs = K_c @ vecs, M_c @ vecs
        is_root = ((t_lo < vals) & (vals < t_hi)
                   & (np.abs(vecs[-1]) * np.sqrt(area) > 1e-6)
                   & (np.abs(M_vecs.sum(axis=0)) <= 1e-6 * np.sqrt(area)))
        roots = np.flatnonzero(is_root)
        if roots.size == 0:
            raise InputError(
                f"find_lambda0: no permissible lambda0 in interval ({t_lo}, "
                f"{t_hi}): the residual has no sign change from - to + there")
        if roots.size > 1:
            raise InputError(
                f"find_lambda0: {roots.size} roots of the consistency "
                f"residual in ({t_lo}, {t_hi}): "
                f"{np.sort(vals[roots]).tolist()}; narrow the interval")
        i = roots[0]
        vMv = (vecs * M_vecs).sum(axis=0)
        rq = (vecs * K_vecs).sum(axis=0) / vMv
        eps = np.sqrt(((K_vecs - M_vecs * rq)**2 / d[:, None]).sum(axis=0)
                      / vMv)
        others = np.delete(np.abs(rq - rq[i]) - eps, i)
        delta = min(others.min(initial=math.inf), reach - abs(rq[i] - sigma))
        bound = eps[i]**2 / delta
        if delta > eps[i] and bound <= ROOT_TOL * rq[i]:
            return float(rq[i])
        failure = (f"Rayleigh quotient {float(rq[i])!r}: error bound "
                   f"{bound:.3e} (limit {ROOT_TOL:g}*lambda0), residual "
                   f"bound {eps[i]:.3e}, gap {delta:.3e}")
    raise NumericalError(f"find_lambda0: root not certified within "
                         f"{len(basis)} Lanczos steps; {failure}")


def expand_series(mesh: Mesh, lambda0: float, order: int = 4) -> PerturbationSeries:
    """Run the order-N recursion producing the full perturbation series.

    Each shell corrector solves a mean-zero Neumann problem driven by the
    lower orders and the variationally extracted interface flux of the
    previous core corrector; each eigenvalue coefficient pairs the flux of
    psi_d against the new shell corrector; each core corrector solves a
    Dirichlet problem matching the shell trace; each constant e_n restores
    the series normalization.  The psi_d it returns holds the core and
    shell factors, for `eigensolver.resonance_near`.  An order outside
    [1, `MAX_ORDER`] is refused with InputError before any work.

    Every order's Neumann consistency defect int(source) - sum(flux) is
    checked before its shell solve.  At order 1 it is
    lambda0 * (|shell| + int_D psi_d), the consistency condition itself,
    held to `DEFECT_TOL` * |Omega| * lambda0, so the residual is held to
    `DEFECT_TOL` * |Omega| whatever lambda0; a lambda0 that fails there is
    no root of this mesh and is refused with InputError.  A later order's
    defect is held to `DEFECT_TOL` * |Omega| * max_k |lambda_k|, which,
    like the defect, does not change when the mesh is scaled, and a
    failure there raises NumericalError.
    """
    if not 1 <= order <= MAX_ORDER:
        raise InputError(f"expand_series: order must be in [1, {MAX_ORDER}]"
                         f", got {order}")
    # one core factorization serves psi_d and every core corrector; psi_d's
    # flux is reused for every lambda_{n+1}
    psi_d, fac, flux_psi_d = _core_profile("expand_series", mesh, lambda0)
    op = fac.op
    areas = mesh.area_by_region()
    area, shell_area = sum(areas.values()), areas[SHELL]
    # consistent-mass products keep the recursion identities exact discretely
    M_psi_d = op.M @ psi_d
    norm_const = float(shell_area + psi_d @ M_psi_d)
    # one shell factorization serves every shell corrector
    shell = region_operator(mesh, SHELL)
    shell_fac = MeanZeroFactor(shell.K, shell.m)

    lambdas = [float(lambda0)]           # lambda_0..lambda_N
    e = [1.0]                            # e_0..e_N
    phis = [np.zeros(mesh.n_nodes)]      # mean-zero shell parts, order 0 = 0
    psis = [np.zeros(mesh.n_nodes)]      # mean-zero core parts,  order 0 = 0
    core_source = np.zeros(mesh.n_nodes)  # RHS of psi_n's PDE, order 0 = 0

    def full_psi(n):
        return psis[n] + e[n] * psi_d

    for n in range(order):
        # Neumann problem for the order-(n+1) shell corrector:
        # -Delta phi = sum_{k=0}^{n} lambda_k * phi_{n-k}, interface flux of psi_n
        shell_source = np.zeros(mesh.n_nodes)
        for k in range(n + 1):
            shell_source += lambdas[k] * (phis[n - k] + e[n - k])
        flux_n = weak_normal_flux(fac, full_psi(n), source=core_source)
        # the flux is oriented out of the core, so it enters the load with
        # a minus sign; int(source) - sum(flux) is the consistency defect
        defect = shell.m @ shell_source - flux_n.sum()
        # the scale max_k |lambda_k| is lambda0 at order 1, where the
        # defect is lambda0 * (|shell| + int_D psi_d), so that residual is
        # held to DEFECT_TOL * |Omega| whatever lambda0
        tol = DEFECT_TOL * area * max(abs(l) for l in lambdas)
        if abs(defect) > tol:
            if not n:
                # the order-1 defect is lambda0 * (|shell| + int_D psi_d)
                raise InputError(
                    f"expand_series: lambda0 {lambdas[0]!r} is no root of "
                    f"this mesh: its consistency residual is "
                    f"{defect / lambdas[0]:.3e} (order-1 defect {defect:.3e} "
                    f"exceeds {tol:.3e}); run find_lambda0")
            raise NumericalError(
                f"expand_series: Neumann consistency defect {defect:.3e} at "
                f"order {n + 1} exceeds tolerance (lambda0 drift or mesh too "
                "coarse)")
        phi_next, _ = shell_fac.solve(shell.M @ shell_source - flux_n)

        lam_next = float(flux_psi_d @ phi_next / norm_const)
        lambdas.append(lam_next)

        # Dirichlet problem for the order-(n+1) core corrector:
        # (-Delta - lambda0) psi = sum_{k=1}^{n+1} lambda_k psi_{n+1-k},
        # psi = phi_next on the interface
        core_source = np.zeros(mesh.n_nodes)
        for k in range(1, n + 2):
            core_source += lambdas[k] * full_psi(n + 1 - k)
        psi_ring = fac.solve(op.M @ core_source, phi_next)

        e_next = float(-(psi_ring @ M_psi_d) / norm_const)
        e.append(e_next)
        phis.append(phi_next)
        psis.append(psi_ring)

    return PerturbationSeries(
        mesh=mesh, lambda0=float(lambda0), lambda_coeffs=lambdas[1:],
        shell_fields=phis[1:], core_fields=psis[1:],
        constants=e[1:], norm_const=norm_const,
        psi_d=CoreProfile(mesh, psi_d, fac, shell_fac))


def eval_lambda(series, delta):
    """Horner evaluation of lambda(delta) through the stored order."""
    coeffs = [series.lambda0, *series.lambda_coeffs]
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * delta + c
    return acc
