"""Lorentz permittivity, closed-form sensitivities, and the lossy
resonance trace."""

import cmath
import itertools
import math

import mpmath
import numpy as np
import pytest

from enzres.dispersion import (MAX_GAMMA_RATIO, MAX_PARAM, MAX_STEPS,
                               MIN_PARAM, MIN_PLASMA_RATIO,
                               CoreDielectric, LorentzParams,
                               calibrate_scale, enz_frequency, eps_enz,
                               lambda_star, omega_prime0, sensitivities,
                               trace_resonance, trace_to_csv)
from enzres.errors import InputError, NumericalError
from enzres.mesh import scale_mesh
from enzres.perturbation import expand_series, find_lambda0

from conftest import reference_trace

SIC = LorentzParams(eps_inf=6.7, omega_p=0.7, omega_0=1.0)
VACUUM_CORE = CoreDielectric(eps_d=1.0)


class TestEpsEnz:
    def test_zero_at_enz_frequency(self):
        w_star = enz_frequency(SIC)
        assert w_star == pytest.approx(math.hypot(0.7, 1.0), rel=1e-15)
        assert eps_enz(SIC, w_star) == pytest.approx(0.0, abs=1e-14)

    def test_lossless_is_real(self):
        val = eps_enz(SIC, 0.5)
        assert isinstance(val, float)

    def test_loss_gives_positive_imag_below_resonance(self):
        val = eps_enz(SIC, enz_frequency(SIC), gamma=0.006)
        assert val.imag > 0.0

    def test_pole_rejected(self):
        with pytest.raises(InputError):
            eps_enz(SIC, SIC.omega_0)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError):
            eps_enz(SIC, 1.0, gamma=-0.1)

    def test_params_validated(self):
        with pytest.raises(InputError):
            LorentzParams(eps_inf=-1.0, omega_p=0.7, omega_0=1.0)

    @pytest.mark.parametrize("make", [
        lambda big: LorentzParams(eps_inf=big, omega_p=0.7, omega_0=1.0),
        lambda big: LorentzParams(eps_inf=6.7, omega_p=big, omega_0=1.0),
        lambda big: LorentzParams(eps_inf=6.7, omega_p=0.7, omega_0=big),
        lambda big: CoreDielectric(eps_d=big)])
    def test_params_bounded_above(self, make):
        make(MAX_PARAM)
        with pytest.raises(InputError, match="1e\\+50\\]"):
            make(2.0 * MAX_PARAM)


def lorentz_box():
    """Admissible Lorentz parameters on a log grid of the box: eps_inf at
    its bounds and 1, omega* from 1e-49 to 3e49, and omega_p / omega* from
    the gate 0.01 (raised by 1e-9 so that rounding cannot refuse it) to 1;
    omega_p below `MIN_PARAM` is left out."""
    params = []
    for eps_inf, ws, ratio in itertools.product(
            (1e-50, 1.0, 1e50), (1e-49, 1e-25, 1e-3, 1.0, 1e3, 1e25, 3e49),
            (MIN_PLASMA_RATIO * (1 + 1e-9), 0.1, 0.7, 1.0)):
        if ratio * ws >= MIN_PARAM:
            params.append(LorentzParams(eps_inf, ratio * ws,
                                        ws * math.sqrt(1 - ratio ** 2)))
    return params


def mpmath_sensitivities(p):
    """(a1, a2): d eps_enz / d omega and (1/i) d eps_enz / d gamma at
    (omega*, 0), by mpmath at 40 digits, each variable in units of the
    width omega_p**2 / omega* over which eps_enz changes near omega*."""
    with mpmath.workdps(40):
        eps_inf, wp, w0 = map(mpmath.mpf, (p.eps_inf, p.omega_p, p.omega_0))
        ws = mpmath.sqrt(wp ** 2 + w0 ** 2)
        width = wp ** 2 / ws

        def eps(omega, gamma):
            return eps_inf * (1 + wp ** 2 / (w0 ** 2 - omega ** 2
                                             - 1j * omega * gamma))

        a1 = mpmath.diff(lambda x: eps(ws + x * width, 0), 0) / width
        a2 = mpmath.diff(lambda y: eps(ws, y * width), 0) / (1j * width)
        return complex(a1), complex(a2)


class TestSensitivities:
    def test_closed_forms_match_mpmath_derivatives(self):
        # across the box the closed forms agree with 40-digit derivatives
        # of the Lorentz model to 3.2e-16 at worst (4,147 log-grid and
        # 19,936 random parameter sets); these 81 sets reach 2.2e-16
        params = lorentz_box()
        ratios = [p.omega_p / enz_frequency(p) for p in params]
        assert min(ratios) == pytest.approx(MIN_PLASMA_RATIO)
        for p in params:
            a1, a2, _ = sensitivities(p, VACUUM_CORE)
            for exact, reference in zip((a1, a2), mpmath_sensitivities(p)):
                assert abs(exact - reference) <= 1e-15 * abs(reference), p

    def test_a2_is_half_a1(self):
        a1, a2, _ = sensitivities(SIC, VACUUM_CORE)
        assert abs(a2 - 0.5 * a1) < 1e-12 * abs(a1)

    def test_frozen_values(self):
        a1, a2, a3 = sensitivities(SIC, VACUUM_CORE)
        w_star = enz_frequency(SIC)
        assert a1 == pytest.approx(2 * 6.7 * w_star / 0.49, rel=1e-12)
        assert a3 == pytest.approx(2 * w_star, rel=1e-12)


class TestOmegaPrime:
    def test_purely_imaginary_and_decaying(self):
        a1, a2, a3 = sensitivities(SIC, VACUUM_CORE)
        wp = omega_prime0(a1, a2, a3, 1.0, -1.0383825677867788)
        assert abs(wp.real) <= 1e-10 * abs(wp.imag)
        assert wp.imag < 0.0

    def test_rejects_nonnegative_lambda1(self):
        a1, a2, a3 = sensitivities(SIC, VACUUM_CORE)
        with pytest.raises(InputError):
            omega_prime0(a1, a2, a3, 1.0, 0.5)


@pytest.fixture(scope="module")
def calibrated_lambdas(case9):
    # Build the series directly on a geometry rescaled so that the
    # discrete lambda0 equals lambda* for the SiC parameters.
    from enzres.mesh import build_concentric_mesh
    base = build_concentric_mesh(1.0, case9.r0, 0.04, r_b=2.0)
    lam0 = find_lambda0(base, (6.0, 14.0))
    t = calibrate_scale(lam0, lambda_star(SIC, VACUUM_CORE))
    scaled = scale_mesh(base, t)
    lam0_s = find_lambda0(scaled, (1.0, 2.0))
    assert lam0_s == pytest.approx(lambda_star(SIC, VACUUM_CORE), rel=1e-12)
    return expand_series(scaled, lam0_s, order=3).all_lambdas()


class TestTrace:
    def test_gamma_zero_row_is_exact(self, calibrated_lambdas):
        trace = trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                                gamma_max=0.006, steps=6)
        assert trace.gammas[0] == 0.0
        assert trace.omegas[0] == enz_frequency(SIC)
        assert trace.deltas[0] == 0.0

    def test_imaginary_parts_decay(self, calibrated_lambdas):
        trace = trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                                gamma_max=0.006, steps=6)
        assert (trace.omegas[1:].imag < 0.0).all()

    def test_slope_matches_derivative(self, calibrated_lambdas):
        trace = trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                                gamma_max=1e-4, steps=4)
        slope = (trace.omegas[1] - trace.omegas[0]) / trace.gammas[1]
        assert abs(slope - trace.omega_prime0) < 0.01 * abs(
            trace.omega_prime0)

    def test_real_shift_scales_quadratically(self, calibrated_lambdas):
        trace = trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                                gamma_max=0.004, steps=8)
        g = trace.gammas[1:]
        shift = np.abs(trace.omegas[1:].real - trace.omega_star)
        coeffs = np.polyfit(np.log(g), np.log(shift), 1)
        assert coeffs[0] == pytest.approx(2.0, abs=0.2)

    def test_raw_series_is_calibrated_exactly(self, series_fine):
        # lambda0 ~ 9 while lambda* ~ 1.49: the trace rescales the raw
        # coefficients as a caller once did, to the same bits
        raw = series_fine.all_lambdas()
        lam_star = lambda_star(SIC, VACUUM_CORE)
        rescaled = [lam_star, *(c * (lam_star / raw[0]) for c in raw[1:])]
        got, want = (trace_resonance(lambdas, SIC, VACUUM_CORE,
                                     gamma_max=0.006, steps=20)
                     for lambdas in (raw, rescaled))
        for name in ("omegas", "deltas", "newton_iters"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert got.calibration_scale_t == calibrate_scale(raw[0], lam_star)
        assert want.calibration_scale_t == 1.0

    def test_raw_series_traces_as_the_rescaled_mesh(self, disk_meshes,
                                                    disk_lambda0s,
                                                    calibrated_lambdas):
        # the rescale is the series of the mesh scaled by t, up to the
        # rounding of the two solves
        raw = expand_series(disk_meshes[0.04], disk_lambda0s[0.04],
                            order=3).all_lambdas()
        got, want = (trace_resonance(lambdas, SIC, VACUUM_CORE,
                                     gamma_max=0.006, steps=20)
                     for lambdas in (raw, calibrated_lambdas))
        assert np.abs(got.omegas - want.omegas).max() <= 1e-14

    @pytest.mark.parametrize("index, value, match", [
        (0, math.nan, "coefficient 0 must be finite"),
        (0, math.inf, "coefficient 0 must be finite"),
        (2, math.nan, "coefficient 2 must be finite"),
        (3, math.inf, "coefficient 3 must be finite"),
        (3, -math.inf, "coefficient 3 must be finite"),
        (0, 0.0, "eigenvalues must be > 0"),
        (0, -9.0, "eigenvalues must be > 0"),
        (0, 5e-324, "lambda\\*/lambda0 = .* overflows")])
    def test_bad_series_refused_before_newton(self, calibrated_lambdas,
                                              monkeypatch, index, value,
                                              match):
        # a NaN lambda2 or an infinite lambda3 once ended in "Newton
        # diverged" after a RuntimeWarning, and a NaN lambda0 was reported
        # as a bad lambda1
        from enzres import dispersion as disp

        def no_newton(*args, **kwargs):
            pytest.fail("a Newton step ran on a refused series")

        monkeypatch.setattr(disp, "_lorentz", no_newton)
        lambdas = list(calibrated_lambdas)
        lambdas[index] = value
        with pytest.raises(InputError, match=match):
            trace_resonance(lambdas, SIC, VACUUM_CORE, gamma_max=0.006,
                            steps=3)

    def test_order_one_rejected(self, calibrated_lambdas):
        with pytest.raises(InputError, match="order must be >= 2"):
            trace_resonance(calibrated_lambdas[:2], SIC, VACUUM_CORE,
                            gamma_max=0.006, steps=3)

    @pytest.mark.parametrize("steps", [MAX_STEPS + 1, 10**13])
    def test_oversized_steps_rejected(self, calibrated_lambdas, steps):
        # refused before the gamma grid is allocated
        with pytest.raises(InputError, match=f"steps <= {MAX_STEPS}"):
            trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                            gamma_max=0.006, steps=steps)

    def test_gamma_max_capped_relative_to_omega_star(self,
                                                      calibrated_lambdas):
        cap = MAX_GAMMA_RATIO * enz_frequency(SIC)
        with pytest.raises(InputError, match="gamma_max <="):
            trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                            gamma_max=2.0 * cap, steps=1)

    def test_csv_layout(self, calibrated_lambdas):
        trace = trace_resonance(calibrated_lambdas, SIC, VACUUM_CORE,
                                gamma_max=0.006, steps=3)
        lines = trace_to_csv(trace).strip().split("\n")
        assert lines[0] == "gamma,re_omega,im_omega,re_delta,im_delta,newton_iters"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert int(first[5]) == 0


def _random_trace_case(rng):
    """A random trace: order 2-6, SiC-like or random Lorentz parameters,
    lambda0 within 5e-4 of lambda*, lambda_1 < 0, gamma_max up to
    0.05 omega*, and 1-400 steps."""
    if rng.uniform() < 0.5:
        p = LorentzParams(*(np.array([6.7, 0.7, 1.0])
                            * rng.uniform(0.8, 1.2, 3)))
    else:
        p = LorentzParams(rng.uniform(1.0, 10.0), rng.uniform(0.2, 2.0),
                          rng.uniform(0.0, 2.0))
    d = CoreDielectric(rng.choice([1.0, rng.uniform(0.5, 4.0)]))
    lam0 = lambda_star(p, d) * (1.0 + rng.uniform(-5e-4, 5e-4))
    order = int(rng.integers(2, 7))
    rel = rng.standard_normal(order) * 0.3 ** np.arange(1, order + 1)
    rel[0] = -rng.uniform(0.05, 1.0)
    gamma_max = rng.uniform(0.0, 0.05) * enz_frequency(p)
    return [lam0, *(lam0 * rel)], p, d, gamma_max, int(rng.integers(1, 401))


def _outcome(trace_fn, case):
    try:
        trace = trace_fn(*case)
    except NumericalError as exc:
        return "refused", str(exc)
    return "traced", (trace_to_csv(trace), trace.omega_prime0)


class TestTraceMatchesPolyvalLoop:
    def test_random_series_and_materials(self):
        # the two-lane Horner step, the one Lorentz evaluation per Newton
        # step and the reuse of the converged one leave every CSV byte as
        # it was
        rng = np.random.default_rng(20261019)
        traced = 0
        for _ in range(60):
            case = _random_trace_case(rng)
            got = _outcome(trace_resonance, case)
            assert got == _outcome(reference_trace, case), case
            traced += got[0] == "traced"
        assert traced >= 50

    def test_calibrated_disk_series(self, calibrated_lambdas):
        for gamma_max, steps in ((0.006, 200), (0.05, 400)):
            case = (calibrated_lambdas, SIC, VACUUM_CORE, gamma_max, steps)
            assert _outcome(trace_resonance, case) == _outcome(
                reference_trace, case)
