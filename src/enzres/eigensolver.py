"""Direct eigensolve of the core-shell problem at finite complex delta.

Builds the complex-symmetric pencil (K(delta), M) with shell stiffness
weight 1/delta from the cached core and shell operators, and finds the
eigenvalue continuing lambda0 by shift-invert inverse iteration with
Rayleigh-quotient refinement.  The pencil's pattern is symmetric, so every
shifted matrix is factored by `fem.factor_symmetric` (minimum-degree
ordering of A + A^T, partial pivoting).  All inner products
are unconjugated (complex-symmetric, not Hermitian): the problem is an
analytic continuation in delta, and the normalization int u_delta * u0
uses the bilinear pairing.  Time convention e^{-i omega t}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from enzres.errors import InputError, NumericalError
from enzres.fem import Field, factor_symmetric, region_operator
from enzres.mesh import CORE, SHELL, Mesh

__all__ = ["ResonancePair", "assemble_operator", "resonance_near",
           "ritz_values_near"]

MAX_ITERATIONS = 200
RESIDUAL_TOL = 1e-9


@dataclass
class ResonancePair:
    """Converged eigenpair of the finite-delta problem.

    `residual` is ||(K - lambda*M) u|| / ||u|| relative to the operator
    scale; `u` is normalized so int u * u0 = norm_const (unconjugated).
    """

    delta: complex
    lam: complex
    u: Field
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


def _restricted_pencil(mesh: Mesh, delta):
    """(nodes, K, M): `assemble_operator` on the core and shell nodes."""
    K, M = assemble_operator(mesh, delta)
    nodes = np.union1d(region_operator(mesh, CORE).nodes,
                       region_operator(mesh, SHELL).nodes)
    return nodes, K[nodes][:, nodes].tocsc(), M[nodes][:, nodes].tocsc()


def resonance_near(mesh: Mesh, delta, lam_guess, psi_d: Field) -> ResonancePair:
    """Eigenvalue of (K(delta), M) nearest lam_guess, with the eigenvector
    normalized against u0 (1 on the shell, psi_d on the core).

    Inverse iteration at the fixed shift until the residual is small, then
    one refactorization at the Rayleigh quotient to polish to the final
    tolerance.
    """
    nodes, Kr, Mr = _restricted_pencil(mesh, delta)

    u0 = np.zeros(mesh.n_nodes, dtype=complex)
    u0[mesh.region_nodes(SHELL)] = 1.0
    core_nodes = mesh.region_nodes(CORE)
    u0[core_nodes] = psi_d.values[core_nodes]
    u0r = u0[nodes]

    op_scale = abs(Kr).sum(axis=1).max() + abs(lam_guess) * abs(Mr).sum(axis=1).max()

    def factor(sigma):
        try:
            return factor_symmetric(Kr - sigma * Mr)
        except RuntimeError:
            return None

    sigma = complex(lam_guess)
    lu = factor(sigma)
    if lu is None:
        sigma = sigma * (1.0 + 1e-4)
        lu = factor(sigma)
        if lu is None:
            raise NumericalError(
                f"resonance_near: factorization failed at shifts near "
                f"{lam_guess} (shift hits a discrete eigenvalue)")

    v = u0r / np.linalg.norm(u0r)
    lam = sigma
    refined = False
    best_res = np.inf
    stalled = 0
    for it in range(1, MAX_ITERATIONS + 1):
        v = lu.solve(Mr @ v)
        v /= np.linalg.norm(v)
        vMv = v @ (Mr @ v)
        if abs(vMv) < 1e-14:
            raise NumericalError("resonance_near: degenerate bilinear norm "
                                 "(complex-symmetric breakdown)")
        lam = (v @ (Kr @ v)) / vMv
        res = np.linalg.norm(Kr @ v - lam * (Mr @ v)) / op_scale
        if res <= RESIDUAL_TOL * 1e-2:
            break
        stalled = stalled + 1 if res >= 0.5 * best_res else 0
        best_res = min(best_res, res)
        if stalled >= 3:
            break  # at the factorization's accuracy floor
        if res <= 1e-5 and not refined:
            # one Rayleigh refactorization for quadratic convergence
            new_lu = factor(lam)
            if new_lu is not None:
                lu = new_lu
            refined = True
    if res > RESIDUAL_TOL:
        raise NumericalError(
            f"resonance_near: residual {res:.3e} exceeds {RESIDUAL_TOL:g} "
            f"after {it} iterations")

    # normalization int u * u0 = norm_const (unconjugated bilinear pairing)
    Mr_u0 = Mr @ u0r
    norm_const = float(np.real(u0r @ Mr_u0))
    pairing = v @ Mr_u0
    if abs(pairing) < 1e-14:
        raise NumericalError("resonance_near: eigenvector orthogonal to u0 "
                             "in the bilinear pairing")
    v = v * (norm_const / pairing)

    u = np.zeros(mesh.n_nodes, dtype=complex)
    u[nodes] = v
    return ResonancePair(delta=complex(delta), lam=complex(lam),
                         u=Field(mesh, u, frozenset({CORE, SHELL})),
                         iterations=it, residual=float(res))


def ritz_values_near(mesh: Mesh, delta, lam_guess, k: int = 2) -> np.ndarray:
    """The k eigenvalues of (K(delta), M) nearest lam_guess (Arnoldi
    shift-invert); used as the simplicity probe: a simple eigenvalue is
    separated from the next Ritz value by orders of magnitude more than the
    convergence tolerance.  The start vector is fixed, so repeated calls
    return identical values."""
    _, Kr, Mr = _restricted_pencil(mesh, delta)
    sigma = complex(lam_guess)
    try:
        lu = factor_symmetric(Kr - sigma * Mr)
    except RuntimeError as exc:
        raise NumericalError(f"ritz_values_near: factorization failed at "
                             f"shift {lam_guess} ({exc})")
    shift_inv = spla.LinearOperator(Kr.shape, matvec=lu.solve, dtype=complex)
    v0 = np.random.default_rng(0).standard_normal(Kr.shape[0]).astype(complex)
    vals = spla.eigs(Kr, k=k, M=Mr.astype(complex), sigma=sigma,
                     OPinv=shift_inv, v0=v0, return_eigenvectors=False)
    return vals[np.argsort(np.abs(vals - lam_guess))]
