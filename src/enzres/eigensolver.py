"""Direct eigensolve of the core-shell problem at finite complex delta.

The pencil (K(delta), M) has shell stiffness weight 1/delta and is built
from the cached core and shell operators; it is complex symmetric, never
Hermitian.  `resonance_near` finds the eigenvalue continuing lambda0 by
preconditioned inverse iteration (Knyazev & Neymeyr, Linear Algebra Appl.
358, 2003) and factors only real matrices: the pencil enters through
products alone.  Its preconditioner is one Dirichlet-Neumann sweep
(Quarteroni & Valli, Domain Decomposition Methods for Partial Differential
Equations, 1999), the shell/core splitting of the series recursion: at
small delta the shell stiffness K_s/delta dominates the pencil, so a
mean-zero shell solve of K_s x_S = delta*r_S is followed by a Dirichlet
core solve at the real shift sigma = lambda0, psi_d's `core_factor.lam`,
with x_S as interface data.  Those are the two factors the series
recursion made, which the psi_d of `perturbation.expand_series` carries,
and the sweep solves with each through its own `solve`, as the recursion
does: `MeanZeroFactor.solve` and `DirichletFactor.solve`.  Nothing is
factored here.
A pair is accepted only when its true pencil residual, relative to
||K|| + |lambda|*||M||, is at most RESIDUAL_TOL; an iteration that stops
above it (it no longer halves its residual every two sweeps, or reaches
MAX_ITERATIONS) is refused with NumericalError, never retried another
way.
Measured on the disk at h = 0.08 and 0.04 (target 9, arg delta in
{0, pi/4, 1.5}): it converges for |delta| <= 0.5 and is refused at
|delta| = 0.6 and 0.8.
`remainder_ratios` is the one check of a series against this direct
eigenvalue, at delta and delta/2.
All inner products are unconjugated (complex-symmetric, not Hermitian):
the problem is an analytic continuation in delta, and the normalization
int u_delta * u0 uses the bilinear pairing.  Time convention
e^{-i omega t}.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from enzres.errors import InputError, NumericalError
from enzres.fem import region_operator
from enzres.mesh import CORE, SHELL, Mesh
from enzres.perturbation import CoreProfile, eval_lambda

__all__ = ["ResonancePair", "assemble_operator", "resonance_near",
           "remainder_ratios"]

MAX_ITERATIONS = 200
RESIDUAL_TOL = 1e-9


@dataclass
class ResonancePair:
    """Converged eigenpair of the finite-delta problem.

    `residual` is ||(K - lambda*M) u|| / ||u|| relative to
    ||K|| + |lambda|*||M|| (infinity norms); `u`, the complex nodal
    eigenvector, is normalized so int u * u0 = norm_const (unconjugated);
    `iterations` counts the preconditioned sweeps.
    """

    delta: complex
    lam: complex
    u: np.ndarray
    iterations: int
    residual: float


def assemble_operator(mesh: Mesh, delta):
    """Pencil (K, M) with stiffness weights {core: 1, shell: 1/delta} and
    unit mass weights; K is complex symmetric (K^T = K), never Hermitian
    for complex delta."""
    delta = complex(delta)
    if delta == 0:
        raise InputError("assemble_operator: delta = 0 (use the perturbation "
                         "module for the delta -> 0 limit)")
    core, shell = region_operator(mesh, CORE), region_operator(mesh, SHELL)
    return core.K + shell.K / delta, core.M + shell.M


def resonance_near(mesh: Mesh, delta, lam_guess, psi_d) -> ResonancePair:
    """Eigenvalue of (K(delta), M) continuing lambda0, found from u0 (1 on
    the shell, psi_d on the core), with the eigenvector normalized against
    u0.

    psi_d is a `perturbation.CoreProfile` on `mesh`: the core profile with
    the series' two factors.  lam_guess
    (the series' prediction) is the eigenvalue estimate of the first
    residual only, and only when it lies within |rho0| of rho0, the
    unconjugated Rayleigh quotient of u0; a guess farther off is replaced
    by rho0, since its first residual would be dominated by guess*M u0.
    Every later residual takes the Rayleigh quotient of its iterate.

    Preconditioned inverse iteration from u0: u <- u - P r, where
    r = (K(delta) - lam*M) u.  P is one Dirichlet-Neumann sweep over two
    real factors, each used through its `solve`: the shell's
    `MeanZeroFactor` takes delta*r and gives x_S, zero off the shell, from
    K_s x_S = delta*r_S on the shell nodes, interface included, and the
    core's `DirichletFactor` at sigma = psi_d.core_factor.lam takes r as
    its load and x_S as its interface data, giving
    x_I = (K_ii - sigma*M_ii)^-1 (r - (K_core - sigma*M_core) x_G)_I.
    Both are psi_d's own (`perturbation.expand_series`).
    The iteration stops once the residual is at most RESIDUAL_TOL * 1e-2,
    or when it is not below half its value two sweeps before, or after
    MAX_ITERATIONS sweeps; a residual not at most RESIDUAL_TOL at that
    point raises NumericalError.  Breakdown raises NumericalError too: a
    unit iterate v with |v^T M v| below 1e-14 * ||M||_inf, or a final one
    with |v^T M u0| below 1e-14 * ||M u0||.  M scales as t**2 when the mesh
    is scaled by t, and so do both sides of each test; an absolute
    threshold of 1e-14 would refuse every t <= 1e-6.  A non-finite delta or
    lam_guess, or a psi_d on another mesh, raises InputError before any
    work.
    Measured on the disk (target 9): at h = 0.02, 3 sweeps at
    delta = 0.01 e^{i pi/4} and 2 at delta/2; at h = 0.08 and 0.04 it
    converges for |delta| <= 0.5 and is refused at |delta| = 0.6.
    """
    for name, value in (("delta", delta), ("lam_guess", lam_guess)):
        if not cmath.isfinite(complex(value)):
            raise InputError(f"resonance_near: {name} must be finite, got "
                             f"{value}")
    if not isinstance(psi_d, CoreProfile):
        raise InputError("resonance_near: psi_d must be a CoreProfile, "
                         "which carries the series' two factors")
    if psi_d.mesh is not mesh:
        raise InputError("resonance_near: psi_d belongs to another mesh")
    K, M = assemble_operator(mesh, delta)
    delta = complex(delta)
    core, shell = region_operator(mesh, CORE), region_operator(mesh, SHELL)

    def sweep(r):
        x, _ = psi_d.shell_factor.solve(delta * r)
        x[core.interior] = psi_d.core_factor.solve(r, x)[core.interior]
        return x

    u0 = np.zeros(mesh.n_nodes, dtype=complex)
    u0[shell.nodes] = 1.0
    u0[core.nodes] = psi_d.values[core.nodes]

    K_norm, M_norm = abs(K).sum(axis=1).max(), abs(M).sum(axis=1).max()

    v = u0.copy()
    lam = complex(lam_guess)
    history = []
    for it in range(MAX_ITERATIONS + 1):
        v /= np.linalg.norm(v)
        Mv = M @ v
        vMv = v @ Mv
        if abs(vMv) < 1e-14 * M_norm:
            raise NumericalError("resonance_near: degenerate bilinear norm "
                                 "(complex-symmetric breakdown)")
        Kv = K @ v
        rho = (v @ Kv) / vMv
        if it > 0 or abs(lam - rho) > abs(rho):
            lam = rho
        r = Kv - lam * Mv
        res = np.linalg.norm(r) / (K_norm + abs(lam) * M_norm)
        if (res <= RESIDUAL_TOL * 1e-2 or it == MAX_ITERATIONS
                or (it >= 2 and not res < 0.5 * history[-2])):
            break
        history.append(res)
        v -= sweep(r)
    if not res <= RESIDUAL_TOL:
        raise NumericalError(
            f"resonance_near: residual {res:.3e} exceeds {RESIDUAL_TOL:g} "
            f"after {it} iterations")

    # normalization int u * u0 = norm_const (unconjugated bilinear pairing)
    M_u0 = M @ u0
    norm_const = float(np.real(u0 @ M_u0))
    pairing = v @ M_u0
    if abs(pairing) < 1e-14 * np.linalg.norm(M_u0):
        raise NumericalError("resonance_near: eigenvector orthogonal to u0 "
                             "in the bilinear pairing")
    v = v * (norm_const / pairing)
    return ResonancePair(delta=delta, lam=complex(lam), u=v,
                         iterations=it, residual=float(res))


def remainder_ratios(series, delta) -> list:
    """Remainder ratios E_n(delta) / E_n(delta/2) for n = 1..series.order.

    E_n(d) = |lambda(d) - (lambda0 + sum_{k<=n} lambda_k d^k)| is the gap
    between the direct eigenvalue at d (`resonance_near` on the series'
    own psi_d, from the series' prediction) and the series cut off at
    order n.  lambda(delta) is analytic at 0, so E_n = O(delta^(n+1)) and
    the ratio tends to 2^(n+1) while E_n stays above the rounding floor;
    the caller picks the orders and the band it trusts.
    Measured on the disk (target 9, slack ring to r = 2, delta =
    0.01 e^{i pi/4}): at h = 0.02, 4.00, 8.01, 12.0 and 0.54 for n = 1..4,
    where E_3 and E_4 already sit at the rounding floor.
    """
    pairs = [resonance_near(series.mesh, d, eval_lambda(series, d),
                            series.psi_d) for d in (delta, delta / 2)]
    ratios = []
    for n in range(1, series.order + 1):
        rem = [abs(p.lam - series.lambda0 - sum(
            c * p.delta ** (k + 1)
            for k, c in enumerate(series.lambda_coeffs[:n]))) for p in pairs]
        ratios.append(rem[0] / rem[1])
    return ratios
