"""Closed-form disk oracle: its outputs against mpmath, frozen reference
values, and independent quadrature checks of the first-order
coefficient."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from enzres.bessel_oracle import (annulus_lambda1, annulus_phi1, disk_case,
                                  disk_psi_d)
from enzres.errors import InputError

mpmath.mp.dps = 40


def mp_oracle(lambda0):
    """(A0, r0, psi_d(r), lambda1) of the disk case from the same closed
    forms, in 40-digit arithmetic."""
    lam = mpmath.mpf(lambda0)
    k = mpmath.sqrt(lam)
    j0, j1 = mpmath.besselj(0, k), mpmath.besselj(1, k)
    a0 = -2 * mpmath.pi * j1 / (k * j0)
    r0 = mpmath.sqrt(1 + a0 / mpmath.pi)
    c = lam * r0 ** 2 / 2
    i_grad = 2 * mpmath.pi * (c * c * mpmath.log(r0)
                              - c * lam * (r0 ** 2 - 1) / 2
                              + lam * lam * (r0 ** 4 - 1) / 16)
    i_psi2 = mpmath.pi * (j0 * j0 + j1 * j1) / (j0 * j0)
    return (a0, r0, lambda r: mpmath.besselj(0, k * r) / j0,
            -i_grad / (a0 + i_psi2))


@pytest.mark.parametrize("lambda0", np.linspace(7.0, 12.0, 21))
def test_closed_forms_against_mpmath(lambda0):
    # over the benchmark sweep's lambda0 range, 9 included; lambda1 loses
    # digits to cancellation in the shell energy, the rest stay near
    # rounding
    case = disk_case(lambda0)
    a0, r0, psi_d, lambda1 = mp_oracle(lambda0)
    assert case.A0 == pytest.approx(float(a0), rel=1e-14, abs=0)
    assert case.r0 == pytest.approx(float(r0), rel=1e-14, abs=0)
    for r in (0.0, 0.25, 0.5, 0.75, 1.0):
        ref = float(psi_d(r))
        assert abs(disk_psi_d(case, r) - ref) <= 1e-14 * max(1.0, abs(ref))
    assert annulus_lambda1(case) == pytest.approx(float(lambda1), rel=1e-12,
                                                  abs=0)


class TestDiskCase:
    def test_frozen_values_lambda0_9(self):
        case = disk_case(9.0)
        assert case.k == pytest.approx(3.0, rel=1e-15)
        assert case.A0 == pytest.approx(2.730698265379506, rel=1e-13)
        assert case.r0 == pytest.approx(1.3671899114809272, rel=1e-13)

    def test_area_consistency(self):
        # pi*r0^2 = pi + A0 by construction of the shell radius.
        case = disk_case(9.0)
        assert math.pi * case.r0 ** 2 == pytest.approx(
            math.pi + case.A0, rel=1e-14)

    def test_consistency_condition_quadrature(self):
        # |shell| + int_D psi_d = 0 with the shell area A0; the core
        # integral is evaluated by independent quadrature.
        case = disk_case(9.0)
        integral, _ = quad(lambda r: 2 * math.pi * r * disk_psi_d(case, r),
                           0.0, 1.0, limit=200)
        assert integral == pytest.approx(-case.A0, rel=1e-12)

    def test_rejects_nonpositive_lambda0(self):
        with pytest.raises(InputError):
            disk_case(-1.0)

    def test_rejects_bessel_root(self):
        # lambda0 = j_{0,1}^2 makes J0(k) = 0 and the core solve singular.
        j01 = float(mpmath.besseljzero(0, 1))
        with pytest.raises(InputError):
            disk_case(j01 ** 2)

    def test_rejects_negative_shell_area(self):
        # Between the first two J0 roots, -2 J1(k)/(k J0(k)) < 0.
        with pytest.raises(InputError):
            disk_case(16.0)


class TestPsiD:
    def test_center_value_frozen(self):
        case = disk_case(9.0)
        assert disk_psi_d(case, 0.0) == pytest.approx(
            -3.845385436064513, rel=1e-13)

    def test_boundary_value_is_one(self):
        case = disk_case(9.0)
        assert disk_psi_d(case, 1.0) == pytest.approx(1.0, rel=1e-14)

    def test_radial_ode_residual(self):
        # (r u')' / r + lambda0 u = 0 for u = psi_d, via finite differences.
        case = disk_case(9.0)
        h = 1e-5
        for r in (0.2, 0.5, 0.8):
            u = disk_psi_d(case, r)
            up = (disk_psi_d(case, r + h) - disk_psi_d(case, r - h)) / (2 * h)
            upp = (disk_psi_d(case, r + h) - 2 * u
                   + disk_psi_d(case, r - h)) / h ** 2
            assert upp + up / r + case.lambda0 * u == pytest.approx(
                0.0, abs=1e-4)


class TestPhi1:
    def test_boundary_conditions(self):
        case = disk_case(9.0)
        # Value at the interface is frozen; Neumann condition at r0.
        assert annulus_phi1(case, 1.0) == pytest.approx(
            -0.6750212605644457, rel=1e-13)
        h = 1e-6
        dphi = (annulus_phi1(case, case.r0) -
                annulus_phi1(case, case.r0 - h)) / h
        assert dphi == pytest.approx(0.0, abs=1e-5)

    def test_interface_flux_matches_core(self):
        # phi1'(1) = lambda0 r0^2 / 2 - lambda0 / 2 = lambda0 A0 / (2 pi),
        # the total core flux spread over the unit circle.
        case = disk_case(9.0)
        h = 1e-6
        dphi = (annulus_phi1(case, 1.0 + h) - annulus_phi1(case, 1.0)) / h
        assert dphi == pytest.approx(
            case.lambda0 * case.A0 / (2 * math.pi), rel=1e-5)

    def test_rejects_out_of_range(self):
        case = disk_case(9.0)
        with pytest.raises(InputError):
            annulus_phi1(case, 0.5)


class TestLambda1:
    def test_frozen_value(self):
        assert annulus_lambda1(disk_case(9.0)) == pytest.approx(
            -1.0383825677867788, rel=1e-13)

    def test_against_quadrature(self):
        # lambda1 = -int_shell |grad phi1|^2 / (A0 + int_D psi_d^2), both
        # integrals recomputed with adaptive quadrature.
        case = disk_case(9.0)

        def dphi1(r):
            h = 1e-6
            return (annulus_phi1(case, r + h)
                    - annulus_phi1(case, r - h)) / (2 * h)

        i_grad, _ = quad(lambda r: 2 * math.pi * r * dphi1(r) ** 2,
                         1.0 + 1e-5, case.r0 - 1e-5, limit=200)
        i_psi2, _ = quad(lambda r: 2 * math.pi * r * disk_psi_d(case, r) ** 2,
                         0.0, 1.0, limit=200)
        expected = -i_grad / (case.A0 + i_psi2)
        assert annulus_lambda1(case) == pytest.approx(expected, rel=1e-4)

    def test_negative(self):
        assert annulus_lambda1(disk_case(9.0)) < 0.0
