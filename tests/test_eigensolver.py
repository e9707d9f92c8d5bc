"""Direct complex-symmetric eigensolve near the perturbative prediction."""

import cmath
import dataclasses
import gc
import weakref

import numpy as np
import pytest

from enzres.eigensolver import (RESIDUAL_TOL, assemble_operator,
                                remainder_ratios, resonance_near)
from enzres.errors import InputError, NumericalError
from enzres.mesh import load_mesh, save_mesh, scale_mesh
from enzres.perturbation import eval_lambda, expand_series, find_lambda0

from conftest import record_splu, ritz_values_near

DELTA = 0.01 * cmath.exp(1j * cmath.pi / 4)
ARGS = (0.0, cmath.pi / 4, 1.5)


@pytest.fixture(scope="module")
def pair_fine(series_fine):
    s = series_fine
    return resonance_near(s.mesh, DELTA, eval_lambda(s, DELTA), s.psi_d)


@pytest.fixture(scope="module")
def series_coarse(mesh_coarse, lambda0_coarse):
    return expand_series(mesh_coarse, lambda0_coarse, order=4)


def resonance_at(series, delta):
    return resonance_near(series.mesh, delta, eval_lambda(series, delta),
                          series.psi_d)


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
        assert np.allclose(again.u, pair_fine.u,
                           rtol=1e-6, atol=1e-9)

    def test_real_delta_gives_real_lambda(self, series_fine):
        s = series_fine
        pair = resonance_near(s.mesh, 0.01, eval_lambda(s, 0.01), s.psi_d)
        assert abs(pair.lam.imag) < 1e-9 * abs(pair.lam.real)

    def test_rejects_zero_delta(self, series_fine):
        s = series_fine
        with pytest.raises(InputError):
            resonance_near(s.mesh, 0.0, s.lambda0, s.psi_d)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     complex(0.0, float("-inf"))])
    @pytest.mark.parametrize("which", ["delta", "lam_guess"])
    def test_rejects_non_finite_input(self, series_coarse, which, bad,
                                      monkeypatch):
        s = series_coarse
        args = {"delta": DELTA, "lam_guess": eval_lambda(s, DELTA)}
        args[which] = bad
        calls = record_splu(monkeypatch)
        with pytest.raises(InputError, match=f"{which} must be finite"):
            resonance_near(s.mesh, args["delta"], args["lam_guess"], s.psi_d)
        assert calls == []

    def test_rejects_psi_d_without_lambda0(self, series_coarse):
        s = series_coarse
        plain = s.psi_d.values
        with pytest.raises(InputError, match="CoreProfile"):
            resonance_near(s.mesh, DELTA, eval_lambda(s, DELTA), plain)

    def test_rejects_psi_d_of_another_mesh(self, series_coarse, monkeypatch):
        # psi_d brings its factors, which fit only the mesh it lives on;
        # an equal copy of that mesh is another mesh
        s = series_coarse
        copy = load_mesh(save_mesh(s.mesh))
        calls = record_splu(monkeypatch)
        with pytest.raises(InputError, match="another mesh"):
            resonance_near(copy, DELTA, eval_lambda(s, DELTA), s.psi_d)
        assert calls == []

    @pytest.mark.parametrize("guess", [1e8, 1e12, -1e8, 1e8j])
    def test_gate_does_not_depend_on_the_guess(self, series_coarse, guess):
        # the residual is scaled by the iterate's own lambda, so a wild
        # guess can neither loosen the gate nor pass a wrong eigenvalue;
        # and a guess farther than |rho0| from u0's Rayleigh quotient rho0
        # gives way to rho0, so the call returns the pair of the series'
        # guess (measured within 1e-14).  Taken as the first residual's
        # eigenvalue, such a guess makes the first sweep swamp the
        # shell's constant, which no later mean-zero sweep restores, and
        # the iteration stalls near 1e-5.
        s = series_coarse
        good = resonance_at(s, 0.01)
        pair = resonance_near(s.mesh, 0.01, guess, s.psi_d)
        assert pair.residual <= RESIDUAL_TOL
        assert abs(pair.lam - good.lam) <= 1e-13 * abs(good.lam)
        assert np.allclose(pair.u, good.u, rtol=1e-9, atol=1e-12)


class TestLengthScale:
    @pytest.fixture(scope="class")
    def lam_at_unit_scale(self, series_coarse):
        return resonance_at(series_coarse, DELTA).lam

    @pytest.mark.parametrize("t", [1e-9, 1e-6, 1e6, 1e9])
    def test_resonance_scales_as_inverse_length_squared(
            self, mesh_coarse, lambda0_coarse, lam_at_unit_scale, t):
        # the h = 0.08 disk scaled by t: lambda * t**2 is the t = 1 value.
        # The degenerate-norm threshold was an absolute 1e-14 on u^T M u,
        # which scales as t**2, and refused every t <= 1e-6; the mean-zero
        # solve's gate refused every t >= 1e6
        mesh = scale_mesh(mesh_coarse, t)
        series = expand_series(mesh, lambda0_coarse / t**2, order=4)
        assert resonance_at(series, DELTA).lam * t**2 == pytest.approx(
            lam_at_unit_scale, rel=1e-11)


class TestPreconditionedIteration:
    """The Dirichlet-Neumann preconditioned iteration on the h = 0.08 disk:
    the series' own real factors, the Arnoldi eigenvalue wherever it
    converges, and a refusal where it does not."""

    def test_live_series_factors_are_reused(self, series_coarse,
                                            monkeypatch):
        calls = record_splu(monkeypatch)
        resonance_at(series_coarse, DELTA)
        assert calls == []

    def test_nothing_but_the_series_keeps_its_factors(self, mesh_coarse,
                                                      lambda0_coarse):
        # the series' psi_d holds them, and reference counting alone frees
        # them once psi_d goes: no operator, mesh or module holds them, and
        # no cycle does
        gc.disable()
        try:
            series = expand_series(mesh_coarse, lambda0_coarse, order=1)
            resonance_at(series, DELTA)
            psi_d = series.psi_d
            core_ref = weakref.ref(psi_d.core_factor)
            shell_ref = weakref.ref(psi_d.shell_factor)
            del series
            assert core_ref() is not None and shell_ref() is not None
            del psi_d
            assert core_ref() is None and shell_ref() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("arg", ARGS)
    @pytest.mark.parametrize("size", [0.01, 0.2, 0.4])
    def test_matches_arnoldi(self, series_coarse, size, arg):
        # ritz_values_near factors the complex pencil, so it is an
        # independent check of the iteration's eigenvalue; the residual is
        # recomputed here relative to ||K|| + |lambda|*||M||
        delta = size * cmath.exp(1j * arg)
        pair = resonance_at(series_coarse, delta)
        vals = ritz_values_near(series_coarse.mesh, delta, pair.lam, k=2)
        nearest = vals[np.argmin(np.abs(vals - pair.lam))]
        K, M = assemble_operator(series_coarse.mesh, delta)
        u = pair.u
        scale = (abs(K).sum(axis=1).max()
                 + abs(pair.lam) * abs(M).sum(axis=1).max())
        res = np.linalg.norm(K @ u - pair.lam * (M @ u)) / (
            np.linalg.norm(u) * scale)
        assert pair.residual <= RESIDUAL_TOL
        assert res <= RESIDUAL_TOL
        assert abs(pair.lam - nearest) <= 1e-9 * abs(nearest)

    @pytest.mark.parametrize("arg", ARGS)
    def test_refuses_where_it_stalls(self, series_coarse, arg):
        # at |delta| = 0.8 the sweep no longer halves the residual every
        # two sweeps, and it stops above RESIDUAL_TOL (at 1.0e-8 to 3.1e-8;
        # |delta| = 0.5 still converges, 0.6 is refused)
        with pytest.raises(NumericalError, match="exceeds"):
            resonance_at(series_coarse, 0.8 * cmath.exp(1j * arg))


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


class TestRemainderRatios:
    @pytest.fixture(scope="class")
    def series3(self, mesh_coarse, lambda0_coarse):
        return expand_series(mesh_coarse, lambda0_coarse, order=3)

    def test_ratios_tend_to_two_to_the_n_plus_one(self, series3):
        # measured at h = 0.08: 3.9986 and 8.0215
        ratios = remainder_ratios(series3, DELTA)
        assert len(ratios) == 3
        assert 3.9 <= ratios[0] <= 4.1
        assert 7.8 <= ratios[1] <= 8.2

    def test_wrong_lambda2_shows_in_e2(self, series3):
        # lambda2 off by 1% leaves E_2 = O(delta^2): the ratio drops to
        # 4.146, which criterion 2's band [4, 16] still admits
        lam = list(series3.lambda_coeffs)
        lam[1] *= 1.01
        ratios = remainder_ratios(
            dataclasses.replace(series3, lambda_coeffs=lam), DELTA)
        assert ratios[1] < 5


def test_factorizations_order_by_minimum_degree(mesh_coarse,
                                                lambda0_coarse, monkeypatch):
    # The core and shell factors of expand_series (which resonance_near
    # solves with), the Ritz shift-invert and the collapsed-shell pencil of
    # find_lambda0 all have a symmetric pattern, so each is ordered on
    # A + A^T.
    m = mesh_coarse
    lam = eval_lambda(expand_series(m, lambda0_coarse, order=1), DELTA)
    calls = record_splu(monkeypatch)
    for run in (lambda: expand_series(m, lambda0_coarse, order=1),
                lambda: ritz_values_near(m, DELTA, lam),
                lambda: find_lambda0(m, (6.0, 14.0))):
        calls.clear()
        run()
        assert calls
        assert all(kw.get("permc_spec") == "MMD_AT_PLUS_A" for _, kw in calls)
