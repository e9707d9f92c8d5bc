"""Direct complex-symmetric eigensolve near the perturbative prediction."""

import cmath

import numpy as np
import pytest

from enzres.eigensolver import (assemble_operator, resonance_near,
                                ritz_values_near)
from enzres.errors import InputError
from enzres.perturbation import eval_lambda, expand_series, find_lambda0

from conftest import record_splu

DELTA = 0.01 * cmath.exp(1j * cmath.pi / 4)


@pytest.fixture(scope="module")
def pair_fine(series_fine):
    s = series_fine
    return resonance_near(s.mesh, DELTA, eval_lambda(s, DELTA), s.psi_d)


class TestResonanceNear:
    def test_residual_small(self, pair_fine):
        assert pair_fine.residual < 1e-9

    def test_lambda_close_to_series(self, series_fine, pair_fine):
        predicted = eval_lambda(series_fine, DELTA)
        assert abs(pair_fine.lam - predicted) < 1e-4 * abs(predicted)

    def test_warm_start_converges_fast(self, pair_fine):
        assert pair_fine.iterations <= 5

    def test_normalization(self, series_fine, pair_fine):
        # The eigenvector is scaled so its unconjugated pairing with the
        # delta = 0 profile equals norm_const; a second solve reproduces
        # the same vector, not just the same ray.
        s = series_fine
        again = resonance_near(s.mesh, DELTA, eval_lambda(s, DELTA), s.psi_d)
        assert np.allclose(again.u.values, pair_fine.u.values,
                           rtol=1e-6, atol=1e-9)

    def test_real_delta_gives_real_lambda(self, series_fine):
        s = series_fine
        pair = resonance_near(s.mesh, 0.01, eval_lambda(s, 0.01), s.psi_d)
        assert abs(pair.lam.imag) < 1e-9 * abs(pair.lam.real)

    def test_rejects_zero_delta(self, series_fine):
        s = series_fine
        with pytest.raises(InputError):
            resonance_near(s.mesh, 0.0, s.lambda0, s.psi_d)


class TestOperator:
    def test_stiffness_scales_with_inverse_delta(self, mesh_coarse):
        K1, M1 = assemble_operator(mesh_coarse, 1.0)
        K2, M2 = assemble_operator(mesh_coarse, 0.5)
        # Shell block doubles, core block unchanged; mass identical.
        assert (M1 - M2).nnz == 0
        diff = (K2 - K1)
        assert diff.nnz > 0

    def test_rejects_zero_delta(self, mesh_coarse):
        with pytest.raises(InputError):
            assemble_operator(mesh_coarse, 0.0)


class TestRitz:
    def test_target_eigenvalue_isolated(self, series_fine):
        # The eigenvalue followed by the series is well separated from the
        # next Ritz value at this delta.
        s = series_fine
        lam = eval_lambda(s, DELTA)
        vals = ritz_values_near(s.mesh, DELTA, lam, k=3)
        dist = np.sort(np.abs(vals - lam))
        assert dist[0] < 1e-3 * abs(lam)
        assert dist[1] > 10 * dist[0] + 1e-6 * abs(lam)

    def test_repeated_calls_identical(self, mesh_coarse, lambda0_coarse):
        first = ritz_values_near(mesh_coarse, DELTA, lambda0_coarse, k=2)
        again = ritz_values_near(mesh_coarse, DELTA, lambda0_coarse, k=2)
        assert np.array_equal(first, again)


def test_factorizations_order_by_minimum_degree(mesh_coarse, lambda0_coarse,
                                                monkeypatch):
    # The pencil, the Ritz shift-invert and the collapsed-shell pencil of
    # find_lambda0 all have a symmetric pattern, so each is ordered on
    # A + A^T.
    s = expand_series(mesh_coarse, lambda0_coarse, order=1)
    lam = eval_lambda(s, DELTA)
    calls = record_splu(monkeypatch)
    for run in (lambda: resonance_near(mesh_coarse, DELTA, lam, s.psi_d),
                lambda: ritz_values_near(mesh_coarse, DELTA, lam),
                lambda: find_lambda0(mesh_coarse, (6.0, 14.0))):
        calls.clear()
        run()
        assert calls
        assert all(kw.get("permc_spec") == "MMD_AT_PLUS_A" for _, kw in calls)
