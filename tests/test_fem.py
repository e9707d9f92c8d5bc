"""P1 assembly, linear solvers, the core Dirichlet profile, and the weak
normal flux identities."""

import math
import re

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzres.bessel_oracle import disk_case, disk_psi_d
from enzres.design import make_disk_problem
from enzres.errors import InputError, NumericalError
from enzres.fem import (DirichletFactor, MeanZeroFactor, RegionOperator,
                        _solve_real, element_geometry, linear_solve,
                        region_operator, weak_normal_flux)
from enzres.mesh import CORE, SHELL, SLACK, build_concentric_mesh, load_mesh

from conftest import HS, coo_reference, record_splu

UNIT_TRIANGLE = ("enzmesh v1\n"
                 "nodes 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
                 "triangles 2\n0 1 2 0\n0 2 3 1\n"
                 "boundary_edges 5\n0 2 0\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")


@pytest.fixture(scope="module")
def square():
    return load_mesh(UNIT_TRIANGLE)


def core_dirichlet(mesh, lam, g=1.0):
    """(fac, u): u solves (-Delta - lam) u = 0 in the core, u = g on the
    interface, through fac, one `DirichletFactor` of the core operator at
    shift lam."""
    fac = DirichletFactor(region_operator(mesh, CORE), lam)
    n = mesh.n_nodes
    return fac, fac.solve(np.zeros(n), np.full(n, g))


class TestAssembly:
    def test_unit_right_triangle_stiffness(self, square):
        # Reference element (0,0),(1,0),(1,1): diag(K) = (1/2, 1, 1/2).
        K = region_operator(square, 0).K.toarray()
        ref = 0.5 * np.array([[1.0, -1.0, 0.0, 0.0],
                              [-1.0, 2.0, -1.0, 0.0],
                              [0.0, -1.0, 1.0, 0.0],
                              [0.0, 0.0, 0.0, 0.0]])
        assert K == pytest.approx(ref, abs=1e-14)

    def test_stiffness_kernel_contains_constants(self, disk_meshes):
        m = disk_meshes[max(HS)]
        K = (region_operator(m, CORE).K + 2.0 * region_operator(m, SHELL).K
             + 0.5 * region_operator(m, SLACK).K)
        ones = np.ones(m.n_nodes)
        assert np.abs(K @ ones).max() < 1e-12

    def test_mass_total_equals_area(self, disk_meshes):
        m = disk_meshes[max(HS)]
        areas = {tag: m.areas()[m.regions == tag].sum() for tag in (0, 1, 2)}
        for tag in (0, 1, 2):
            op = region_operator(m, tag)
            ones = np.ones(m.n_nodes)
            assert ones @ (op.M @ ones) == pytest.approx(areas[tag], rel=1e-13)
            assert op.m.sum() == pytest.approx(areas[tag], rel=1e-13)

    def test_mass_lumped_vs_consistent_row_sums(self, square):
        for tag in (0, 1):
            op = region_operator(square, tag)
            assert np.asarray(op.M.sum(axis=1)).ravel() == pytest.approx(
                op.m, rel=1e-14)

    def test_rejects_absent_region(self, square):
        with pytest.raises(InputError, match="no triangle"):
            region_operator(square, 7)

    @pytest.mark.parametrize("region", [CORE, SHELL, SLACK])
    def test_region_operator_matches_coo_reference(self, mesh_coarse, region):
        m = mesh_coarse
        op = region_operator(m, region)
        tris = m.region_triangles(region)
        conn = m.triangles[tris]
        area, gx, gy = element_geometry(m, tris)
        grad = (gx[:, :, None] * gx[:, None, :]
                + gy[:, :, None] * gy[:, None, :]) * area[:, None, None]
        mass = (np.ones((3, 3)) + np.eye(3)) / 12.0 * area[:, None, None]
        for got, blocks in ((op.K, grad), (op.M, mass)):
            ref = coo_reference(conn, blocks, m.n_nodes)
            # CSR, the layout of the COO-built matrices: CSC fills peaked
            # up to 3 MB higher on the h = 0.02 series case
            assert got.format == "csr"
            assert np.array_equal(got.indptr, ref.indptr)
            assert np.array_equal(got.indices, ref.indices)
            assert (np.abs(got.data - ref.data).max()
                    <= 1e-13 * np.abs(ref.data).max())
            # each block is symmetric and both triangles sum in element
            # order, so the fill is symmetric to the bit
            assert (got != got.T).nnz == 0
        assert op.m == pytest.approx(np.asarray(op.M.sum(axis=1)).ravel(),
                                     rel=1e-13)
        assert np.array_equal(op.nodes,
                              np.unique(m.triangles[m.regions == region]))

    @pytest.mark.parametrize("owner", ["region", "design"])
    def test_pattern_matches_repeat_tile_keys(self, mesh_coarse,
                                              lambda0_coarse, owner):
        # the same pattern from keys built by np.repeat/np.tile and split
        # by // and %: a core operator's, at full node dimension, and a
        # design problem's, on its own relabelled nodes
        m = mesh_coarse
        if owner == "region":
            pattern = region_operator(m, CORE).pattern
            conn = m.triangles[m.region_triangles(CORE)]
        else:
            prob = make_disk_problem(m, lambda0_coarse)
            pattern, conn = prob.pattern, prob.conn
        n = pattern.n
        rows = np.repeat(conn, 3, axis=1).ravel().astype(np.int64)
        cols = np.tile(conn, (1, 3)).ravel()
        keys, slot = np.unique(rows * n + cols, return_inverse=True)
        counts = np.bincount(keys // n, minlength=n)
        assert np.array_equal(pattern.indptr,
                              np.concatenate([[0], np.cumsum(counts)]))
        assert np.array_equal(pattern.indices, keys % n)
        assert np.array_equal(pattern.slot, slot)
        for index in (pattern.indptr, pattern.indices, pattern.slot):
            assert index.dtype == np.int32


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


class TestSolveGate:
    """Every back-solve passes `_accept_solve`: NaN or inf data is refused
    by the solve that met it, and zero data gives zeros."""

    @pytest.fixture(scope="class")
    def solves(self):
        # the h = 0.15 disk, whose NaN loads once came back as NaN fields
        m = build_concentric_mesh(1.0, 1.3, 0.15)
        core, shell = region_operator(m, CORE), region_operator(m, SHELL)
        fac = DirichletFactor(core, 9.0)
        neumann = MeanZeroFactor(shell.K, shell.m)
        n = m.n_nodes
        # (data length, an entry the solve reads, solve)
        return {
            "DirichletFactor.solve": (n, core.interior[0],
                                      lambda b: fac.solve(b, np.zeros(n))),
            "MeanZeroFactor.solve": (n, shell.interior[0],
                                     lambda b: neumann.solve(b)[0]),
            "linear_solve": (fac.A_ii.shape[0], 0,
                             lambda b: linear_solve(fac.A_ii, b))}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["DirichletFactor.solve",
                                      "MeanZeroFactor.solve", "linear_solve"])
    def test_non_finite_data_refused(self, solves, name, bad):
        n, read, solve = solves[name]
        b = np.zeros(n)
        b[read] = bad
        with pytest.raises(NumericalError, match=(
                f"^{re.escape(name)}: relative residual nan exceeds 1e-10")):
            solve(b)

    @pytest.mark.parametrize("name", ["DirichletFactor.solve",
                                      "MeanZeroFactor.solve", "linear_solve"])
    def test_zero_data_gives_zeros(self, solves, name):
        n, _, solve = solves[name]
        assert not solve(np.zeros(n)).any()


class TestDirichletCore:
    def test_psi_d_matches_oracle(self, disk_meshes, case9):
        errs = {}
        for h, m in disk_meshes.items():
            _, u = core_dirichlet(m, case9.lambda0)
            core = m.region_nodes(0)
            r = np.linalg.norm(m.nodes[core], axis=1)
            exact = disk_psi_d(case9, np.minimum(r, 1.0))
            errs[h] = np.abs(u[core] - exact).max()
            assert errs[h] < 50.0 * h * h
        # Second-order convergence between the extreme resolutions.
        order = math.log(errs[0.08] / errs[0.02]) / math.log(4.0)
        assert order > 1.7

    def test_zero_data_gives_zero(self, mesh_coarse):
        _, u = core_dirichlet(mesh_coarse, 1.0, g=0.0)
        assert np.abs(u).max() == 0.0

    def test_near_eigenvalue_raises(self, mesh_coarse):
        # The discrete Dirichlet eigenvalue makes the shifted operator
        # numerically singular.
        op = region_operator(mesh_coarse, CORE)
        ii = op.interior
        mu, = spla.eigsh(op.K[ii][:, ii].tocsc(), k=1,
                         M=op.M[ii][:, ii].tocsc(), sigma=0.0,
                         return_eigenvectors=False)
        with pytest.raises(NumericalError, match="eigenvalue"):
            core_dirichlet(mesh_coarse, mu)

    @pytest.mark.parametrize("lam", [9 + 1j, 9 + 0j, math.nan, math.inf,
                                     -math.inf])
    def test_non_real_or_non_finite_shift_refused(self, mesh_coarse, lam,
                                                  monkeypatch):
        # a complex shift had made a complex factor, and NaN had been
        # factored and reported as a Dirichlet eigenvalue; each is an
        # input error, refused before anything is factored
        calls = record_splu(monkeypatch)
        with pytest.raises(InputError, match="real and finite"):
            DirichletFactor(region_operator(mesh_coarse, CORE), lam)
        assert calls == []

    def test_out_of_range_shift_raises(self):
        # At lambda = 1e300 the condition estimate's solution norms
        # underflow to 0, which had made the estimate NaN and passed the
        # gate.  It is refused, with no RuntimeWarning on the way (the
        # suite turns warnings into errors).
        m = build_concentric_mesh(1.0, 1.3, 0.15)
        with pytest.raises(NumericalError, match="condition estimate inf"):
            DirichletFactor(region_operator(m, CORE), 1e300)

    def test_complex_data_solves_as_real_and_imaginary_parts(
            self, mesh_coarse, lambda0_coarse):
        # the finite-delta sweep's path: a complex load and complex
        # interface data on a real factor give its two real solves exactly
        n = mesh_coarse.n_nodes
        fac = DirichletFactor(region_operator(mesh_coarse, CORE),
                              lambda0_coarse)
        b_re, b_im, g_re, g_im = np.random.default_rng(7).standard_normal(
            (4, n))
        u = fac.solve(b_re + 1j * b_im, g_re + 1j * g_im)
        assert np.array_equal(u.real, fac.solve(b_re, g_re))
        assert np.array_equal(u.imag, fac.solve(b_im, g_im))


def full_product_solve(fac, b, g):
    """`DirichletFactor.solve` written with all-node products: u holds g on
    the interface and zeros elsewhere, and the right-hand side is the
    interior rows of b - (K @ u - lam*(M @ u))."""
    op = fac.op
    u = np.zeros(op.n_nodes, dtype=np.result_type(b, g))
    u[op.boundary] = g[op.boundary]
    rhs = b - (op.K @ u - fac.lam * (op.M @ u))
    u[op.interior] = _solve_real(fac.lu, rhs[op.interior])
    return u


class TestInterfaceColumnSolve:
    """The solve reads only the interface columns its factor keeps, and the
    flux only the interface rows of the core operator; their answers are
    the all-node formulas' bit for bit, signed zeros included."""

    @pytest.mark.parametrize("b_complex, g_complex", [
        (False, False), (True, True), (True, False), (False, True)])
    def test_solve_equals_full_product_formula(self, mesh_coarse,
                                               lambda0_coarse, b_complex,
                                               g_complex):
        n = mesh_coarse.n_nodes
        fac = DirichletFactor(region_operator(mesh_coarse, CORE),
                              lambda0_coarse)
        rng = np.random.default_rng(11)
        b, b_im, g, g_im = rng.standard_normal((4, n))
        if b_complex:
            b = b + 1j * b_im
        if g_complex:
            g = g + 1j * g_im
        got, want = fac.solve(b, g), full_product_solve(fac, b, g)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_psi_d_equals_full_product_formula(self, mesh_coarse,
                                               lambda0_coarse):
        n = mesh_coarse.n_nodes
        fac = DirichletFactor(region_operator(mesh_coarse, CORE),
                              lambda0_coarse)
        b, g = np.zeros(n), np.ones(n)
        assert fac.solve(b, g).tobytes() == full_product_solve(
            fac, b, g).tobytes()

    @pytest.mark.parametrize("complex_data", [False, True])
    def test_flux_equals_full_product_formula(self, mesh_coarse,
                                              lambda0_coarse, complex_data):
        # the flux is formed at its factor's own shift
        op = region_operator(mesh_coarse, CORE)
        fac = DirichletFactor(op, lambda0_coarse)
        rng = np.random.default_rng(5)
        u, source = rng.standard_normal((2, mesh_coarse.n_nodes))
        if complex_data:
            u, source = u + 1j * source[::-1], source - 1j * u
        residual = op.K @ u - op.M @ (lambda0_coarse * u + source)
        want = np.zeros_like(residual)
        want[op.boundary] = residual[op.boundary]
        got = weak_normal_flux(fac, u, source)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestRegionOperatorContract:
    def test_operator_holds_only_the_shared_data(self, mesh_coarse,
                                                 lambda0_coarse):
        # after a solve, a flux and a mean-zero factor, the operator holds
        # exactly the attributes its docstring lists; each block that one
        # consumer reads is formed by that consumer, not cached here
        shared = {"K", "M", "m", "nodes", "boundary", "interior", "n_nodes",
                  "pattern"}
        doc = " ".join(RegionOperator.__doc__.split())
        assert all(f"`{name}`" in doc for name in shared)
        op = region_operator(mesh_coarse, CORE)
        n = mesh_coarse.n_nodes
        fac = DirichletFactor(op, lambda0_coarse)
        u = fac.solve(np.zeros(n), np.ones(n))
        weak_normal_flux(fac, u)
        MeanZeroFactor(op.K, op.m)
        assert set(vars(region_operator(mesh_coarse, CORE))) == shared
        assert {"A_ii", "K_ib", "M_ib"} <= set(vars(fac))


class TestWeakFlux:
    def test_total_flux_identity(self, disk_meshes, case9):
        # <flux, 1> = -int_D lambda0 psi_d = lambda0 A0 exactly in the
        # discrete sense, 1e-6 off the root too; compare against the
        # continuum value.
        m = disk_meshes[0.02]
        M = region_operator(m, CORE).M
        for lam in (case9.lambda0, case9.lambda0 * (1 + 1e-6)):
            fac, u = core_dirichlet(m, lam)
            flux = weak_normal_flux(fac, u)
            discrete = -lam * float(np.ones(m.n_nodes) @ (M @ u))
            assert flux.sum() == pytest.approx(discrete, rel=1e-10)
            assert flux.sum() == pytest.approx(case9.lambda0 * case9.A0,
                                                 rel=5e-3)

    def test_flux_of_linear_field_vanishes(self, mesh_coarse):
        # u = x is discretely harmonic, so its weak flux out of the core
        # integrates to zero against 1.
        m = mesh_coarse
        u = m.nodes[:, 0].copy()
        flux = weak_normal_flux(DirichletFactor(region_operator(m, CORE), 0.0),
                                u)
        assert abs(flux.sum()) < 1e-10

    def test_weights_supported_on_interface(self, mesh_coarse, case9):
        flux = weak_normal_flux(*core_dirichlet(mesh_coarse, case9.lambda0))
        interface = np.unique(
            mesh_coarse.boundary_edges[mesh_coarse.edge_tags == 0])
        off = np.ones(mesh_coarse.n_nodes, bool)
        off[interface] = False
        assert np.abs(flux[off]).max() == 0.0


class TestNeumann:
    """The shell's mean-zero factor `MeanZeroFactor(op.K, op.m)`, on nodal
    arrays over the mesh: its multiplier times the shell area is the
    consistency defect int(source) - <flux, 1>, and its field is zero off
    the shell."""

    def test_defect_equals_compatibility_mismatch(self, mesh_coarse):
        # Source 1 with zero flux: the compatibility defect is the area.
        m = mesh_coarse
        shell_area = m.areas()[m.regions == 1].sum()
        op = region_operator(m, SHELL)
        w, mu = MeanZeroFactor(op.K, op.m).solve(op.M @ np.ones(m.n_nodes))
        assert mu * op.m.sum() == pytest.approx(shell_area, rel=1e-12)
        assert abs(op.m @ w) < 1e-10

    def test_mean_zero_and_residual(self, mesh_coarse, lambda0_coarse, case9):
        m = mesh_coarse
        flux = weak_normal_flux(*core_dirichlet(m, lambda0_coarse))
        op = region_operator(m, SHELL)
        b = lambda0_coarse * (op.M @ np.ones(m.n_nodes)) - flux
        w, mu = MeanZeroFactor(op.K, op.m).solve(b)
        defect = mu * op.m.sum()
        assert abs(op.m @ w) < 1e-9
        off = np.setdiff1d(np.arange(m.n_nodes), op.nodes)
        assert off.size and not w[off].any()
        # At the recovered lambda0 the constant source lambda0 balances the
        # core flux, so the compatibility defect is the (tiny) residual of
        # the consistency condition times lambda0.
        assert abs(defect) < 1e-8


class TestMeanZeroSolve:
    """The mean-zero factor against an explicitly built bordered system
    [[K, m], [m^T, 0]] [u; mu] = [b; 0] on the coarse shell."""

    @pytest.fixture(scope="class")
    def shell_system(self, mesh_coarse):
        op = region_operator(mesh_coarse, SHELL)
        return op.K[op.nodes][:, op.nodes], op.m[op.nodes]

    @staticmethod
    def check_bordered(K, m, b, u, mu):
        bordered = sp.bmat([[K, m[:, None]], [m[None, :], None]],
                           format="csc").astype(b.dtype)
        ref = spla.spsolve(bordered, np.concatenate([b, [0.0]]))
        assert u.dtype == b.dtype
        assert np.linalg.norm(u - ref[:-1]) <= 1e-10 * np.linalg.norm(ref[:-1])
        assert mu == pytest.approx(b.sum() / m.sum(), rel=1e-12, abs=1e-14)
        assert mu == pytest.approx(ref[-1], rel=1e-8, abs=1e-12)
        assert abs(m @ u) <= 1e-13 * m.sum() * np.abs(u).max()

    @staticmethod
    def load(m, rng, dtype, consistent):
        b = rng.standard_normal(m.size)
        if dtype is complex:
            b = b + 1j * rng.standard_normal(m.size)
        if consistent:
            b -= b.sum() / m.sum() * m
        return b

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("consistent", [True, False])
    def test_matches_bordered_reference(self, shell_system, dtype,
                                        consistent):
        K, m = shell_system
        b = self.load(m, np.random.default_rng(3), dtype, consistent)
        u, mu = MeanZeroFactor(K, m).solve(b)
        self.check_bordered(K, m, b, u, mu)

    @pytest.mark.parametrize("dtypes", [(float, complex, float),
                                        (complex, complex, float, complex)])
    def test_one_factor_many_right_hand_sides(self, shell_system, dtypes,
                                              monkeypatch):
        K, m = shell_system
        calls = record_splu(monkeypatch)
        fac = MeanZeroFactor(K, m)
        rng = np.random.default_rng(len(dtypes))
        for k, dtype in enumerate(dtypes):
            b = self.load(m, rng, dtype, consistent=k % 2 == 0)
            u, mu = fac.solve(b)
            self.check_bordered(K, m, b, u, mu)
        # the bordered references are factored by spsolve, not splu
        assert [dim for dim, _ in calls] == [m.size - 1]

    def test_mesh_wide_arrays_give_the_compact_solution(self, mesh_coarse,
                                                        shell_system):
        # K and m at the mesh's dimension: the factor gathers the block on
        # the support of m, reads b there only, and returns the compact
        # factor's u bit for bit, with zeros off the support
        op = region_operator(mesh_coarse, SHELL)
        b = np.random.default_rng(9).standard_normal(mesh_coarse.n_nodes)
        u, mu = MeanZeroFactor(op.K, op.m).solve(b)
        u_compact, mu_compact = MeanZeroFactor(*shell_system).solve(
            b[op.nodes])
        want = np.zeros(mesh_coarse.n_nodes)
        want[op.nodes] = u_compact
        assert u.tobytes() == want.tobytes() and mu == mu_compact

    def test_rejects_disconnected_region(self, mesh_coarse, monkeypatch):
        # Core and outer shell share no node, so K has a two-dimensional
        # kernel; it is refused before any factorization.
        core, slack = (region_operator(mesh_coarse, tag)
                       for tag in (CORE, SLACK))
        calls = record_splu(monkeypatch)
        with pytest.raises(NumericalError, match="2 disconnected"):
            MeanZeroFactor(core.K + slack.K, core.m + slack.m)
        assert calls == []
