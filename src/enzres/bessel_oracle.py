"""Closed-form reference solutions for the radially symmetric case.

With the core D the unit disk and a concentric annular shell, the leading
resonance data has closed forms in cylindrical Bessel functions: the core
profile ``psi_d(r) = J0(k r)/J0(k)`` with ``k = sqrt(lambda0)``, the shell
area ``A0 = -2*pi*J1(k)/(k*J0(k))`` fixed by the consistency condition, the
first-order shell corrector ``phi1``, and the first eigenvalue correction
``lambda1``.  These serve as the ground-truth oracle for the FEM,
perturbation, and design modules, and share no code with them.  J0 and J1
are `scipy.special.j0` and `j1` (Cephes); the tests check the closed forms
built on them against mpmath.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import j0, j1

from enzres.errors import InputError

__all__ = ["DiskCase", "disk_case", "disk_psi_d", "annulus_phi1",
           "annulus_lambda1"]


@dataclass(frozen=True)
class DiskCase:
    """Radially symmetric reference configuration (unit-disk core).

    Attributes
    ----------
    lambda0 : float
        Leading eigenvalue, > 0.
    k : float
        Wavenumber sqrt(lambda0).
    A0 : float
        Shell area forced by the consistency condition, > 0.
    r0 : float
        Outer shell radius, pi*r0**2 = pi + A0.
    """

    lambda0: float
    k: float
    A0: float
    r0: float


def disk_case(lambda0: float) -> DiskCase:
    """Build the radially symmetric case for a given leading eigenvalue.

    The consistency condition on the unit disk fixes the shell area:
    A0 = -2*pi*J1(k)/(k*J0(k)) with k = sqrt(lambda0), which must be
    positive for a shell to exist.
    """
    lambda0 = float(lambda0)
    if lambda0 <= 0.0:
        raise InputError(f"disk_case: lambda0 must be > 0, got {lambda0}")
    k = math.sqrt(lambda0)
    j0k = float(j0(k))
    if abs(j0k) < 1e-10:
        raise InputError(
            f"disk_case: lambda0 = {lambda0} is a Dirichlet eigenvalue of the "
            "unit disk (J0(sqrt(lambda0)) = 0)")
    a0 = -2.0 * math.pi * float(j1(k)) / (k * j0k)
    if a0 <= 0.0:
        raise InputError(
            f"disk_case: lambda0 = {lambda0} not permissible for positive "
            f"shell area (A0 = {a0:.6g})")
    return DiskCase(lambda0=lambda0, k=k, A0=a0, r0=math.sqrt(1.0 + a0 / math.pi))


def disk_psi_d(case: DiskCase, r: float) -> float:
    """Core profile psi_d(r) = J0(k r)/J0(k); equals 1 at r = 1."""
    r = float(r)
    if r < 0.0 or r > 1.0:
        raise InputError(f"disk_psi_d: r must lie in [0, 1], got {r}")
    return float(j0(case.k * r)) / float(j0(case.k))


def annulus_phi1(case: DiskCase, r: float) -> float:
    """First-order shell corrector on the annulus (1, r0).

    phi1(r) = c*log(r/r0) + lambda0*(r0**2 - r**2)/4 with c = lambda0*r0**2/2,
    the gauge phi1(r0) = 0, and a zero normal derivative at r0.  Strictly
    negative on [1, r0).
    """
    r = float(r)
    if r < 1.0 or r > case.r0 * (1.0 + 1e-12):
        raise InputError(f"annulus_phi1: r must lie in [1, r0], got {r}")
    c = 0.5 * case.lambda0 * case.r0 ** 2
    return c * math.log(r / case.r0) + 0.25 * case.lambda0 * (case.r0 ** 2 - r ** 2)


def annulus_lambda1(case: DiskCase) -> float:
    """First eigenvalue correction for the radially symmetric case.

    lambda1 = -I_grad / (A0 + I_psi2) with I_grad the shell Dirichlet energy
    of phi1 and I_psi2 the squared L2 norm of psi_d on the core; always
    negative.
    """
    lam, r0, k = case.lambda0, case.r0, case.k
    c = 0.5 * lam * r0 ** 2
    i_grad = 2.0 * math.pi * (c * c * math.log(r0)
                              - 0.5 * c * lam * (r0 ** 2 - 1.0)
                              + lam * lam * (r0 ** 4 - 1.0) / 16.0)
    j0k, j1k = float(j0(k)), float(j1(k))
    i_psi2 = math.pi * (j0k * j0k + j1k * j1k) / (j0k * j0k)
    return -i_grad / (case.A0 + i_psi2)
