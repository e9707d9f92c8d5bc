"""Shared fixtures: meshes on the disk benchmark geometry at three
resolutions, the recovered base eigenvalue per mesh, and a fourth-order
perturbation series on the finest mesh.  All are session-scoped because
building them dominates the suite's runtime.  A mesh keeps its region
operators but no factor, so a test that counts factorizations may use any
of them.  Code that only the tests use lives here too: the consistency
residual as a function of lambda0 (for brentq), an Arnoldi probe that
factors the complex finite-delta pencil, the truncated eigenfunction of a
series, the reader of a design document, and the `np.polyval` Newton loop
that `dispersion.trace_resonance` must reproduce bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzres.bessel_oracle import disk_case
from enzres import dispersion as disp
from enzres.dispersion import _json_document
from enzres.eigensolver import assemble_operator
from enzres.errors import NumericalError
from enzres.fem import factor_symmetric, region_operator
from enzres.mesh import CORE, SHELL, Mesh, build_concentric_mesh
from enzres.perturbation import (PerturbationSeries, _core_profile,
                                 expand_series, find_lambda0)

HS = (0.08, 0.04, 0.02)

_ACCEPTANCE_LINES = []


def record_criterion(label, passed, detail):
    _ACCEPTANCE_LINES.append(
        f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def case9():
    return disk_case(9.0)


@pytest.fixture(scope="session")
def disk_meshes(case9):
    return {h: build_concentric_mesh(1.0, case9.r0, h, r_b=2.0) for h in HS}


@pytest.fixture(scope="session")
def disk_lambda0s(disk_meshes):
    return {h: find_lambda0(m, (6.0, 14.0)) for h, m in disk_meshes.items()}


@pytest.fixture(scope="session")
def series_fine(disk_meshes, disk_lambda0s):
    h = min(HS)
    return expand_series(disk_meshes[h], disk_lambda0s[h], order=4)


@pytest.fixture(scope="session")
def mesh_coarse(disk_meshes):
    return disk_meshes[max(HS)]


@pytest.fixture(scope="session")
def lambda0_coarse(disk_lambda0s):
    return disk_lambda0s[max(HS)]


def record_splu(monkeypatch):
    """Patch scipy's splu to record (dimension, keyword arguments) of every
    matrix it factors; returns the list of records."""
    calls = []
    real_splu = spla.splu

    def recording(A, *args, **kwargs):
        calls.append((A.shape[0], kwargs))
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def record_solves(monkeypatch):
    """Patch scipy's splu so that every factor counts the right-hand sides
    it solves; returns a list holding one count per factor made."""
    counts = []
    real_splu = spla.splu

    class Counting:
        def __init__(self, lu):
            self.lu, self.index = lu, len(counts)
            counts.append(0)

        def solve(self, b, *args, **kwargs):
            counts[self.index] += 1 if b.ndim == 1 else b.shape[1]
            return self.lu.solve(b, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self.lu, name)

    monkeypatch.setattr(spla, "splu", lambda *args, **kwargs: Counting(
        real_splu(*args, **kwargs)))
    return counts


def coo_reference(conn, blocks, n):
    """Per-element 3x3 blocks summed by scipy's COO-to-CSR conversion, an
    assembly independent of `fem.ScatterPattern`; row e of `conn` holds
    element e's node indices."""
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def overflowing_mesh():
    """A coarse disk mesh with its coordinates times 1e160: finite nodes
    whose triangle areas overflow.  Built directly, since `scale_mesh`
    refuses it."""
    m = build_concentric_mesh(1.0, 1.4, 0.6)
    return Mesh(nodes=m.nodes * 1e160, triangles=m.triangles,
                regions=m.regions, boundary_edges=m.boundary_edges,
                edge_tags=m.edge_tags)


def stretched_mesh(mesh, s=1.3):
    """The area-preserving stretch (x, y) -> (s*x, y/s) of a mesh, whose
    core is then not round."""
    return Mesh(nodes=mesh.nodes * [s, 1 / s], triangles=mesh.triangles,
                regions=mesh.regions, boundary_edges=mesh.boundary_edges,
                edge_tags=mesh.edge_tags)


def element_centroids(mesh, elements):
    return mesh.nodes[mesh.triangles[elements]].mean(axis=1)


def annulus_symdiff(mesh, prob, theta, r_inner, r_outer):
    """Area of the symmetric difference between a 0/1 element density and
    the centroid indicator of the annulus (r_inner, r_outer)."""
    rc = np.linalg.norm(element_centroids(mesh, prob.elements), axis=1)
    chi = ((rc >= r_inner) & (rc <= r_outer)).astype(float)
    return float((np.abs(theta - chi) * prob.areas).sum())


def consistency_residual(mesh: Mesh, lambda0: float) -> float:
    """Signed consistency residual |shell| + int_D psi_d."""
    psi = _core_profile("consistency_residual", mesh, lambda0)[0]
    return float(mesh.area_by_region()[SHELL]
                 + region_operator(mesh, CORE).m @ psi)


def ritz_values_near(mesh: Mesh, delta, lam_guess, k: int = 2) -> np.ndarray:
    """The k eigenvalues of (K(delta), M) nearest lam_guess (Arnoldi
    shift-invert); used as the simplicity probe: a simple eigenvalue is
    separated from the next Ritz value by orders of magnitude more than the
    convergence tolerance.  The start vector is fixed, so repeated calls
    return identical values."""
    K, M = assemble_operator(mesh, delta)
    nodes = np.union1d(region_operator(mesh, CORE).nodes,
                       region_operator(mesh, SHELL).nodes)
    Kr, Mr = K[nodes][:, nodes].tocsc(), M[nodes][:, nodes].tocsc()
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


def eval_field(series: PerturbationSeries, delta) -> np.ndarray:
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
        psi_n = series.core_fields[n - 1] + e_n * series.psi_d.values
        phi_n = series.shell_fields[n - 1] + e_n
        u[core_nodes] = u[core_nodes] + dn * psi_n[core_nodes]
        u[shell_nodes] = u[shell_nodes] + dn * phi_n[shell_nodes]
    return u


def design_from_json(text: str) -> dict:
    return _json_document("design_from_json", text)


def reference_trace(lambdas, p, d, gamma_max: float, steps: int):
    """`dispersion.trace_resonance` as it was written with `np.polyval`:
    lambda and its derivative by two separate polyval calls per Newton
    step, and each row's delta computed again after Newton converged.  The
    library's loop must give the same trace bit for bit."""
    lambdas = np.asarray(lambdas, dtype=float)
    ws = disp.enz_frequency(p)
    lam_star = disp.lambda_star(p, d)
    coeffs = lambdas * (lam_star / lambdas[0])
    coeffs[0] = lam_star
    dcoeffs = coeffs[1:] * np.arange(1, len(coeffs))
    eps_d = d.eps_d

    def lam_of(delta):
        return np.polyval(coeffs[::-1], delta)

    def dlam_of(delta):
        return np.polyval(dcoeffs[::-1], delta)

    a1, a2, a3 = disp.sensitivities(p, d)
    wprime0 = disp.omega_prime0(a1, a2, a3, eps_d, float(coeffs[1]))
    gammas = np.linspace(0.0, gamma_max, steps + 1)
    omegas = np.empty(len(gammas), dtype=complex)
    deltas = np.empty(len(gammas), dtype=complex)
    iters = np.zeros(len(gammas), dtype=int)
    omega = complex(ws)
    for j, gamma in enumerate(gammas):
        if gamma == 0.0:
            omega = complex(ws)
        else:
            for it in range(1, disp.MAX_NEWTON + 1):
                delta = disp.eps_enz(p, omega, gamma) / eps_d
                g_val = lam_of(delta) - omega * omega * eps_d
                if abs(g_val) <= disp.NEWTON_TOL * max(1.0, abs(coeffs[0])):
                    break
                g_der = (dlam_of(delta) * disp._lorentz(p, omega, gamma)[1]
                         / eps_d - 2.0 * omega * eps_d)
                omega = omega - g_val / g_der
                if not np.isfinite(omega) or abs(omega - ws) > 0.5 * ws:
                    raise NumericalError(
                        f"trace_resonance: Newton diverged at gamma = {gamma} "
                        f"(iterate {omega})")
            else:
                raise NumericalError(
                    f"trace_resonance: Newton did not converge at gamma = "
                    f"{gamma} (last |G| = {abs(g_val):.3e})")
            iters[j] = it
        delta = (disp.eps_enz(p, omega, gamma) / eps_d) if gamma > 0 else 0.0
        omegas[j], deltas[j] = omega, delta
    return disp.ResonanceTrace(gammas=gammas, omegas=omegas, deltas=deltas,
                               newton_iters=iters, omega_prime0=wprime0,
                               omega_star=ws,
                               calibration_scale_t=disp.calibrate_scale(
                                   lambdas[0], lam_star))
