"""Base eigenvalue recovery, the expansion recursion and its discrete
invariants, evaluation, and JSON round trip."""

import json
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from enzres.bessel_oracle import annulus_lambda1, annulus_phi1
from enzres import perturbation
from enzres.errors import InputError
from enzres.fem import assemble_mass, mass_vector
from enzres.perturbation import (compute_psi_d, consistency_residual,
                                 eval_field, eval_lambda, expand_series,
                                 find_lambda0, series_from_json,
                                 series_to_json)

from conftest import HS, record_splu


class TestFindLambda0:
    def test_disk_interval_recovers_nine(self, disk_lambda0s):
        for h, lam0 in disk_lambda0s.items():
            assert lam0 == pytest.approx(9.0, rel=0.01), h

    def test_residual_is_zeroed(self, disk_meshes, disk_lambda0s):
        h = max(HS)
        m = disk_meshes[h]
        area = m.areas().sum()
        assert abs(consistency_residual(m, disk_lambda0s[h])) < 1e-10 * area

    def test_no_sign_change_raises(self, mesh_coarse):
        with pytest.raises(InputError, match="sign"):
            find_lambda0(mesh_coarse, (0.1, 1.0))

    def test_interval_must_be_increasing(self, mesh_coarse):
        with pytest.raises(InputError):
            find_lambda0(mesh_coarse, (14.0, 6.0))

    def test_truncated_pole_scan_raises(self, mesh_coarse):
        # At h = 0.08 the 64th core mode sits near 321; no nonzero-mean
        # mode among the first 64 lies in (250, 400), but one near 375
        # (mode 76) does, beyond what the scan computes.
        with pytest.raises(InputError, match="pole scan truncated"):
            find_lambda0(mesh_coarse, (250.0, 400.0))


def core_dim(mesh):
    return np.setdiff1d(mesh.region_nodes(0), mesh.boundary_nodes(0)).size


class TestNewtonBisection:
    def test_few_factorizations_and_brentq_agreement(self, mesh_coarse,
                                                     monkeypatch):
        ref = brentq(lambda lam: consistency_residual(mesh_coarse, lam),
                     6.0, 14.0, xtol=1e-13, rtol=8.9e-16)
        calls = record_splu(monkeypatch)
        root = find_lambda0(mesh_coarse, (6.0, 14.0))
        # one symmetric positive definite factor of K_ii for the pole scan,
        # one factor of the collapsed pencil (the core interior plus the
        # shell value), and three shifted core factorizations: the two
        # bracket ends and the final residual check
        n = core_dim(mesh_coarse)
        core = [kw for dim, kw in calls if dim == n]
        spd = [kw for kw in core if kw.get("diag_pivot_thresh") == 0]
        assert len(spd) == 1
        assert [dim for dim, _ in calls].count(n + 1) == 1
        assert len(core) - len(spd) == 3
        assert len(calls) == 5
        assert root == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("bracket", [(6.0, 14.0), (6.0, 16.0),
                                         (6.0, 28.0)])
    def test_brentq_agreement_and_repeatable(self, mesh_coarse, bracket):
        # (6, 16) holds the zero-mean Dirichlet pair near 14.69, which is
        # an eigenvalue of the collapsed pencil but no root; (6, 28) needs
        # more than the first three eigenvalues about the midpoint
        ref = brentq(lambda lam: consistency_residual(mesh_coarse, lam),
                     6.0, 14.0, xtol=1e-13, rtol=8.9e-16)
        root = find_lambda0(mesh_coarse, bracket)
        assert root == pytest.approx(ref, rel=1e-11)
        assert find_lambda0(mesh_coarse, bracket) == root

    def test_eigenvalue_cap_raises(self, mesh_coarse, monkeypatch):
        # the pole scan still reaches past 28 with its first 8 modes, but
        # the 3 pencil eigenvalues nearest 17 all lie in the interval
        monkeypatch.setattr(perturbation, "MAX_POLE_SCAN", 4)
        with pytest.raises(InputError, match="collapsed pencil.*narrow"):
            find_lambda0(mesh_coarse, (6.0, 28.0))


class TestRecursionInvariants:
    def test_core_factored_once(self, mesh_coarse, lambda0_coarse,
                                monkeypatch):
        # psi_d and all four core correctors share one factorization of
        # the core interior block; the shell solves factor other matrices.
        calls = record_splu(monkeypatch)
        expand_series(mesh_coarse, lambda0_coarse, order=4)
        assert [dim for dim, _ in calls].count(core_dim(mesh_coarse)) == 1


    def test_mean_zero_correctors(self, series_fine):
        # Every shell and core corrector splits off its constant part, so
        # the remaining fields integrate to zero over their regions.
        s = series_fine
        m = s.mesh
        lump_shell = mass_vector(m, (1,))
        lump_core = mass_vector(m, (0,))
        scale = max(abs(l) for l in s.all_lambdas())
        for phi in s.shell_fields:
            assert abs(lump_shell @ phi.values) < 1e-8 * scale
        for psi in s.core_fields:
            assert abs(lump_core @ psi.values) < 1e-8 * scale

    def test_normalization_defect(self, series_fine):
        # Order-n normalization: int_shell phi_n + int_D psi_n = 0 once the
        # constants e_n are folded in (consistent-mass inner products).
        s = series_fine
        m = s.mesh
        M = assemble_mass(m, {0: 1.0})
        lump_shell = mass_vector(m, (1,))
        lump_core = mass_vector(m, (0,))
        shell_area = m.areas()[m.regions == 1].sum()
        core_psi_d = float(np.ones(m.n_nodes) @ (M @ s.psi_d.values))
        for n in range(1, s.order + 1):
            e_n = s.constants[n - 1]
            total = (lump_shell @ s.shell_fields[n - 1].values
                     + e_n * shell_area
                     + lump_core @ s.core_fields[n - 1].values
                     + e_n * core_psi_d)
            assert abs(total) < 1e-8 * max(1.0, abs(e_n))

    def test_orthogonality_defect(self, series_fine):
        # The constants are fixed by the cancellation condition
        # psi_n^T M psi_d + e_n * norm_const = 0, which removes the secular
        # psi_d component from every core corrector.
        s = series_fine
        M = assemble_mass(s.mesh, {0: 1.0})
        pd = s.psi_d.values
        for n in range(1, s.order + 1):
            e_n = s.constants[n - 1]
            raw = float(s.core_fields[n - 1].values @ (M @ pd))
            assert abs(raw + e_n * s.norm_const) < 1e-8 * max(
                1.0, abs(e_n) * s.norm_const)

    def test_lambda1_two_routes_agree(self, series_fine, case9):
        # Route 1: the recursion's first coefficient.  Route 2: the
        # Rayleigh-type quotient -int|grad phi1|^2 / norm_const evaluated
        # from the stored first shell field.
        s = series_fine
        from enzres.fem import assemble_stiffness
        K = assemble_stiffness(s.mesh, {1: 1.0})
        phi1 = s.shell_fields[0].values
        quotient = -float(phi1 @ (K @ phi1)) / s.norm_const
        assert s.lambda_coeffs[0] == pytest.approx(quotient, rel=1e-8)

    def test_first_shell_field_matches_oracle(self, series_fine, case9):
        s = series_fine
        m = s.mesh
        shell = sorted(m.region_nodes(1))
        r = np.clip(np.linalg.norm(m.nodes[shell], axis=1), 1.0, case9.r0)
        exact = np.array([annulus_phi1(case9, ri) for ri in r])
        # The oracle profile is normalized to shell-mean zero as well.
        lump = mass_vector(m, (1,))[shell]
        exact -= (lump @ exact) / lump.sum()
        got = s.shell_fields[0].values[shell]
        assert np.abs(got - exact).max() < 0.05

    def test_rejects_bad_order(self, mesh_coarse, lambda0_coarse):
        with pytest.raises(InputError):
            expand_series(mesh_coarse, lambda0_coarse, order=0)


class TestEvaluation:
    def test_eval_lambda_is_horner_polynomial(self, series_fine):
        s = series_fine
        delta = 0.01 * np.exp(1j * math.pi / 4)
        direct = s.lambda0 + sum(
            c * delta ** (n + 1) for n, c in enumerate(s.lambda_coeffs))
        assert eval_lambda(s, delta) == pytest.approx(direct, rel=1e-14)

    def test_eval_field_at_zero_delta(self, series_fine):
        s = series_fine
        u = eval_field(s, 0.0)
        m = s.mesh
        shell = sorted(m.region_nodes(1))
        core = sorted(m.region_nodes(0))
        assert np.allclose(u.values[shell], 1.0)
        assert u.values[core] == pytest.approx(
            s.psi_d.values[core], rel=1e-12)

    def test_psi_d_from_compute(self, mesh_coarse, lambda0_coarse):
        pd = compute_psi_d(mesh_coarse, lambda0_coarse)
        interface = np.unique(
            mesh_coarse.boundary_edges[mesh_coarse.edge_tags == 0])
        assert np.allclose(pd.values[interface], 1.0, atol=1e-12)


class TestSerialization:
    def test_round_trip(self, series_fine):
        s = series_fine
        text = series_to_json(s)
        s2 = series_from_json(text, mesh=s.mesh)
        assert s2.lambda0 == s.lambda0
        assert s2.lambda_coeffs == s.lambda_coeffs
        assert s2.constants == s.constants
        assert s2.norm_const == s.norm_const
        for a, b in zip(s2.shell_fields, s.shell_fields):
            assert np.array_equal(a.values, b.values)

    def test_schema_version_present(self, series_fine):
        payload = json.loads(series_to_json(series_fine))
        assert payload["schema_version"] == 1

    def test_rejects_bad_schema(self, series_fine):
        payload = json.loads(series_to_json(series_fine))
        payload["schema_version"] = 99
        with pytest.raises(InputError):
            series_from_json(json.dumps(payload))
