"""P1 assembly, linear solvers, the core Dirichlet profile, and the weak
normal flux identities."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzres.bessel_oracle import disk_case, disk_psi_d
from enzres.errors import InputError, NumericalError
from enzres.fem import (BoundaryFunctional, Field, assemble_mass,
                        assemble_stiffness, dirichlet_modes, linear_solve,
                        mass_vector, solve_dirichlet_helmholtz,
                        solve_mean_zero, solve_neumann_mean_zero,
                        weak_normal_flux)
from enzres.mesh import load_mesh

from conftest import HS

UNIT_TRIANGLE = ("enzmesh v1\n"
                 "nodes 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
                 "triangles 2\n0 1 2 0\n0 2 3 1\n"
                 "boundary_edges 5\n0 2 0\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")


@pytest.fixture(scope="module")
def square():
    return load_mesh(UNIT_TRIANGLE)


class TestAssembly:
    def test_unit_right_triangle_stiffness(self, square):
        # Reference element (0,0),(1,0),(1,1): diag(K) = (1/2, 1, 1/2).
        K = assemble_stiffness(square, {0: 1.0}).toarray()
        ref = 0.5 * np.array([[1.0, -1.0, 0.0, 0.0],
                              [-1.0, 2.0, -1.0, 0.0],
                              [0.0, -1.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0]])
        assert K == pytest.approx(ref, abs=1e-14)

    def test_stiffness_kernel_contains_constants(self, disk_meshes):
        m = disk_meshes[max(HS)]
        K = assemble_stiffness(m, {0: 1.0, 1: 2.0, 2: 0.5})
        ones = np.ones(m.n_nodes)
        assert np.abs(K @ ones).max() < 1e-12

    def test_mass_total_equals_area(self, disk_meshes):
        m = disk_meshes[max(HS)]
        areas = {tag: m.areas()[m.regions == tag].sum() for tag in (0, 1, 2)}
        for tag in (0, 1, 2):
            M = assemble_mass(m, {tag: 1.0})
            ones = np.ones(m.n_nodes)
            assert ones @ (M @ ones) == pytest.approx(areas[tag], rel=1e-13)
            assert mass_vector(m, (tag,)).sum() == pytest.approx(
                areas[tag], rel=1e-13)

    def test_mass_lumped_vs_consistent_row_sums(self, square):
        M = assemble_mass(square, {0: 1.0, 1: 1.0})
        assert np.asarray(M.sum(axis=1)).ravel() == pytest.approx(
            mass_vector(square, (0, 1)), rel=1e-14)

    def test_complex_weights_supported(self, square):
        K = assemble_stiffness(square, {0: 1.0, 1: 1.0 / 0.5j})
        assert np.iscomplexobj(K.toarray())

    def test_rejects_absent_region(self, square):
        with pytest.raises(InputError):
            assemble_stiffness(square, {7: 1.0})


class TestLinearSolve:
    def test_identity(self):
        A = sp.eye(5, format="csc")
        b = np.arange(5.0)
        assert linear_solve(A, b) == pytest.approx(b)

    def test_complex_system(self):
        A = sp.diags([1.0 + 1.0j, 2.0 - 0.5j, 3.0]).tocsc()
        b = np.ones(3, dtype=complex)
        x = linear_solve(A, b)
        assert A @ x == pytest.approx(b, abs=1e-12)

    def test_singular_matrix_raises(self):
        A = sp.csc_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(NumericalError):
            linear_solve(A, np.array([1.0, 0.0]))


class TestDirichletCore:
    def test_psi_d_matches_oracle(self, disk_meshes, case9):
        errs = {}
        for h, m in disk_meshes.items():
            u = solve_dirichlet_helmholtz(m, 0, case9.lambda0,
                                          g=1.0, boundary_tag=0)
            core = sorted(m.region_nodes(0))
            r = np.linalg.norm(m.nodes[core], axis=1)
            exact = np.array([disk_psi_d(case9, min(ri, 1.0)) for ri in r])
            errs[h] = np.abs(u.values[core] - exact).max()
            assert errs[h] < 50.0 * h * h
        # Second-order convergence between the extreme resolutions.
        order = math.log(errs[0.08] / errs[0.02]) / math.log(4.0)
        assert order > 1.7

    def test_zero_data_gives_zero(self, mesh_coarse):
        u = solve_dirichlet_helmholtz(mesh_coarse, 0, 1.0, g=0.0)
        assert np.abs(u.values).max() == 0.0

    def test_near_eigenvalue_raises(self, mesh_coarse):
        # The discrete Dirichlet eigenvalue makes the shifted operator
        # numerically singular.
        (mu, _, _), = dirichlet_modes(mesh_coarse, 0, 1)
        with pytest.raises(NumericalError, match="eigenvalue"):
            solve_dirichlet_helmholtz(mesh_coarse, 0, mu)

    def test_first_mode_matches_disk(self, disk_meshes):
        # Smallest Dirichlet eigenvalue of the unit disk: j_{0,1}^2.
        (mu, phi, mean), = dirichlet_modes(disk_meshes[0.04], 0, 1)
        assert mu == pytest.approx(5.783185962946785, rel=2e-3)
        assert mean != 0.0
        core = sorted(disk_meshes[0.04].region_nodes(0))
        assert np.abs(phi.values[core]).max() > 0.0


class TestWeakFlux:
    def test_total_flux_identity(self, disk_meshes, case9):
        # <flux, 1> = -int_D lambda0 psi_d = lambda0 A0 exactly in the
        # discrete sense; compare against the continuum value.
        m = disk_meshes[0.02]
        u = solve_dirichlet_helmholtz(m, 0, case9.lambda0, g=1.0)
        flux = weak_normal_flux(u, case9.lambda0)
        M = assemble_mass(m, {0: 1.0})
        discrete = -case9.lambda0 * float(np.ones(m.n_nodes) @ (M @ u.values))
        assert flux.total() == pytest.approx(discrete, rel=1e-10)
        assert flux.total() == pytest.approx(case9.lambda0 * case9.A0,
                                             rel=5e-3)

    def test_flux_of_linear_field_vanishes(self, mesh_coarse):
        # u = x is discretely harmonic, so its weak flux out of the core
        # integrates to zero against 1.
        m = mesh_coarse
        u = Field(m, m.nodes[:, 0].copy(), frozenset((0,)))
        flux = weak_normal_flux(u, 0.0)
        assert abs(flux.total()) < 1e-10

    def test_weights_supported_on_interface(self, mesh_coarse, case9):
        u = solve_dirichlet_helmholtz(mesh_coarse, 0, case9.lambda0, g=1.0)
        flux = weak_normal_flux(u, case9.lambda0)
        interface = np.unique(
            mesh_coarse.boundary_edges[mesh_coarse.edge_tags == 0])
        off = np.ones(mesh_coarse.n_nodes, bool)
        off[interface] = False
        assert np.abs(flux.weights[off]).max() == 0.0


class TestNeumann:
    def test_defect_equals_compatibility_mismatch(self, mesh_coarse):
        # Source 1 with zero flux: the compatibility defect is the area.
        m = mesh_coarse
        shell_area = m.areas()[m.regions == 1].sum()
        zero_flux = BoundaryFunctional(m, 0, np.zeros(m.n_nodes))
        w, defect = solve_neumann_mean_zero(m, 1, 1.0, zero_flux)
        assert defect == pytest.approx(shell_area, rel=1e-12)
        shell = sorted(m.region_nodes(1))
        lumped = mass_vector(m, (1,))
        assert abs(lumped @ w.values) < 1e-10

    def test_mean_zero_and_residual(self, mesh_coarse, lambda0_coarse, case9):
        m = mesh_coarse
        u = solve_dirichlet_helmholtz(m, 0, lambda0_coarse, g=1.0)
        flux = weak_normal_flux(u, lambda0_coarse)
        w, defect = solve_neumann_mean_zero(m, 1, lambda0_coarse, flux)
        lumped = mass_vector(m, (1,))
        assert abs(lumped @ w.values) < 1e-9
        # At the recovered lambda0 the constant source lambda0 balances the
        # core flux, so the compatibility defect is the (tiny) residual of
        # the consistency condition times lambda0.
        assert abs(defect) < 1e-8


class TestMeanZeroSolve:
    """The shared mean-zero solve against an explicitly built bordered
    system [[K, m], [m^T, 0]] [u; mu] = [b; 0] on the coarse shell."""

    @pytest.fixture(scope="class")
    def shell_system(self, mesh_coarse):
        nodes = mesh_coarse.region_nodes(1)
        K = assemble_stiffness(mesh_coarse, {1: 1.0})[nodes][:, nodes]
        m = mass_vector(mesh_coarse, 1)[nodes]
        return K, m

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("consistent", [True, False])
    def test_matches_bordered_reference(self, shell_system, dtype,
                                        consistent):
        K, m = shell_system
        rng = np.random.default_rng(3)
        b = rng.standard_normal(m.size)
        if dtype is complex:
            b = b + 1j * rng.standard_normal(m.size)
        if consistent:
            b -= b.sum() / m.sum() * m
        bordered = sp.bmat([[K, m[:, None]], [m[None, :], None]],
                           format="csc").astype(dtype)
        ref = spla.spsolve(bordered, np.concatenate([b, [0.0]]))
        u, mu = solve_mean_zero(K, m, b)
        assert u.dtype == np.dtype(dtype)
        assert np.linalg.norm(u - ref[:-1]) <= 1e-10 * np.linalg.norm(ref[:-1])
        assert mu == pytest.approx(b.sum() / m.sum(), rel=1e-12, abs=1e-14)
        assert mu == pytest.approx(ref[-1], rel=1e-8, abs=1e-12)
        assert abs(m @ u) <= 1e-13 * m.sum() * np.abs(u).max()

    def test_rejects_disconnected_region(self, mesh_coarse):
        # Core and outer shell share no node, so K has a two-dimensional
        # kernel; a load balanced only overall has no solution.
        nodes = mesh_coarse.region_nodes({0, 2})
        K = assemble_stiffness(mesh_coarse, {0: 1.0, 2: 1.0})[nodes][:, nodes]
        m = mass_vector(mesh_coarse, {0, 2})[nodes]
        in_core = np.isin(nodes, mesh_coarse.region_nodes(0))
        b = np.where(in_core, 1.0 / m[in_core].sum(),
                     -1.0 / m[~in_core].sum()) * m
        with pytest.raises(NumericalError):
            solve_mean_zero(K, m, b)
