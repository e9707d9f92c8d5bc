"""Lossy resonance frequency under a one-pole Lorentz shell permittivity.

The shell material follows eps_enz(omega, gamma) =
eps_inf * (1 + omega_p**2 / (omega_0**2 - omega**2 - i*omega*gamma)), which
vanishes at the ENZ frequency omega* = sqrt(omega_p**2 + omega_0**2) when
gamma = 0.  With the geometry calibrated so the leading eigenvalue equals
lambda* = omega*^2 * eps_D (units with c = 1), the lossy resonance omega(gamma)
solves lambda(delta(omega, gamma)) = omega**2 * eps_D with
delta = eps_enz / eps_D; it is traced by warm-started Newton continuation on
the truncated series.  The decay rate at small loss is
omega'(0) = -i * a2 / (a1 + a3 * eps_D / |lambda1|), purely imaginary with
negative imaginary part.  Time convention e^{-i omega t}: Im omega < 0 means
temporal decay.  The series is its coefficients, which `read_series` reads
from the document of `enzres expand -o` with no mesh and no SciPy;
`trace_resonance` calibrates them itself, since the uniform rescale of the
geometry by `calibrate_scale` multiplies every coefficient by
lambda*/lambda0 exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from enzres.errors import InputError, NumericalError

__all__ = ["LorentzParams", "CoreDielectric", "ResonanceTrace", "eps_enz",
           "enz_frequency", "lambda_star", "calibrate_scale", "sensitivities",
           "omega_prime0", "read_series", "trace_resonance", "trace_to_csv"]

TRACE_CSV_HEADER = "gamma,re_omega,im_omega,re_delta,im_delta,newton_iters"
#: Newton tolerance (relative to max(1, lambda*)) and steps per gamma
NEWTON_TOL, MAX_NEWTON = 1e-12, 50
#: most gamma steps `trace_resonance` takes.  A step costs a few scalar
#: Newton iterations and one CSV row of about 100 bytes: 100,000 steps take
#: about 5 s on one Xeon core and write 10 MB (order-3 disk series), 500
#: times the longest trace the benchmark runs; far more steps only
#: exhaust memory
MAX_STEPS = 100_000
#: largest eps_inf, omega_p, omega_0 and eps_d (nondimensional, so O(1) in
#: practice): the trace's largest number, a squared denominator, stays
#: below 1e205, where 1e308 overflowed omega*^2
MAX_PARAM = 1e50
#: smallest eps_inf, omega_p and eps_d: omega_p**2 and the products of the
#: sensitivities stay normal floats
MIN_PARAM = 1e-50
#: smallest omega_p / omega*: near omega*, `_lorentz`'s denominator has a
#: relative error of about eps * (omega* / omega_p)**2, 2.2e-12 at this
#: gate; omega_0 = 1e50 with omega_p = 1e25, say, leaves it no digit
MIN_PLASMA_RATIO = 1e-2
#: largest gamma_max / omega*: past it delta(omega*) is within omega*/gamma
#: of its gamma -> inf limit eps_inf/eps_D.  On the h = 0.08 disk (orders
#: 2-4, six materials) Newton diverged below 13 omega* in 12 of 18 traces
MAX_GAMMA_RATIO = 100.0
#: highest order `expand_series` runs and `read_series` reads: the last at
#: which |lambda_n| still falls on the disk at target 9 (1.6e-8 at h = 0.08,
#: 1.2e-8 at h = 0.04).  Past it rounding takes over: orders 14, 15 and 16
#: grow x3.7, x1.4 and x26 at h = 0.08 and x3.3, x15 and x24 at h = 0.04,
#: and the defect check refuses only order 18 and 17 respectively
MAX_ORDER = 13


@dataclass(frozen=True)
class LorentzParams:
    """One-pole Lorentz oscillator parameters, nondimensionalized by a
    reference frequency (gamma is passed per call, not stored)."""

    eps_inf: float
    omega_p: float
    omega_0: float

    def __post_init__(self):
        if not (MIN_PARAM <= self.eps_inf <= MAX_PARAM
                and MIN_PARAM <= self.omega_p <= MAX_PARAM
                and 0 <= self.omega_0 <= MAX_PARAM):
            raise InputError("LorentzParams: need eps_inf, omega_p in "
                             f"[{MIN_PARAM:g}, {MAX_PARAM:g}], omega_0 in "
                             f"[0, {MAX_PARAM:g}]")


@dataclass(frozen=True)
class CoreDielectric:
    """Constant core permittivity eps_D > 0 (c = 1 after
    nondimensionalization); omega**2 * eps_D is automatically increasing."""

    eps_d: float = 1.0

    def __post_init__(self):
        if not MIN_PARAM <= self.eps_d <= MAX_PARAM:
            raise InputError("CoreDielectric: need eps_d in "
                             f"[{MIN_PARAM:g}, {MAX_PARAM:g}]")


@dataclass
class ResonanceTrace:
    """Newton-continued resonance curve gamma -> omega(gamma)."""

    gammas: np.ndarray
    omegas: np.ndarray        # complex
    deltas: np.ndarray        # complex
    newton_iters: np.ndarray
    omega_prime0: complex
    omega_star: float
    calibration_scale_t: float  # the geometric rescale, see calibrate_scale


def _lorentz(p: LorentzParams, omega, gamma: float):
    """(eps, d eps / d omega) of the Lorentz model at any omega and real
    gamma, from one denominator; eps is a complex.  The pole is an input
    error."""
    denom = p.omega_0 ** 2 - omega * omega - 1j * omega * gamma
    if denom == 0:
        raise InputError(f"eps_enz: pole at omega = {omega}, gamma = {gamma}")
    return (complex(p.eps_inf * (1.0 + p.omega_p ** 2 / denom)),
            p.eps_inf * p.omega_p ** 2 * (2.0 * omega + 1j * gamma)
            / denom ** 2)


def eps_enz(p: LorentzParams, omega, gamma: float = 0.0):
    """Lorentz permittivity eps_inf*(1 + omega_p^2/(omega_0^2 - omega^2
    - i*omega*gamma)), a float when lossless at a real omega."""
    if gamma < 0:
        raise InputError("eps_enz: gamma must be >= 0")
    val = _lorentz(p, omega, gamma)[0]
    if gamma == 0 and np.imag(np.asarray(omega)) == 0:
        return val.real
    return val


def enz_frequency(p: LorentzParams) -> float:
    """omega* = sqrt(omega_p**2 + omega_0**2), the lossless zero of
    eps_enz."""
    return math.hypot(p.omega_p, p.omega_0)


def lambda_star(p: LorentzParams, d: CoreDielectric) -> float:
    """Target eigenvalue lambda* = omega*^2 * eps_D (c = 1)."""
    return enz_frequency(p) ** 2 * d.eps_d


def calibrate_scale(lambda0_geom: float, lam_star: float) -> float:
    """Geometric scale factor t = sqrt(lambda0/lambda*): scaling the mesh
    coordinates by t moves the geometry's permissible eigenvalue to
    lambda*."""
    if not (lambda0_geom > 0 and lam_star > 0):
        raise InputError(f"calibrate_scale: both eigenvalues must be > 0, "
                         f"got {lambda0_geom} and {lam_star}")
    return math.sqrt(lambda0_geom / lam_star)


def sensitivities(p: LorentzParams, d: CoreDielectric):
    """Closed-form sensitivities at (omega*, gamma=0).  An omega_p below
    `MIN_PLASMA_RATIO` * omega* is refused with InputError.

    a1 = d(eps_enz)/d(omega) = 2 eps_inf omega* / omega_p**2,
    a2 = (1/i) d(eps_enz)/d(gamma) = eps_inf omega* / omega_p**2,
    a3 = d(omega**2 eps_D)/d(omega) = 2 omega* eps_D; all positive, and
    a2 = a1/2.
    """
    ws = enz_frequency(p)
    if p.omega_p < MIN_PLASMA_RATIO * ws:
        raise InputError(
            f"sensitivities: need omega_p >= {MIN_PLASMA_RATIO:g} * omega* = "
            f"{MIN_PLASMA_RATIO * ws:.6g}, got {p.omega_p}: omega_0 = "
            f"{p.omega_0} leaves eps_enz too few digits near omega*")
    a1 = 2.0 * p.eps_inf * ws / p.omega_p ** 2
    a2 = p.eps_inf * ws / p.omega_p ** 2
    a3 = 2.0 * ws * d.eps_d
    return a1, a2, a3


def omega_prime0(a1: float, a2: float, a3: float, eps_d: float,
                 lambda1: float) -> complex:
    """Leading decay rate omega'(0) = -i*a2/(a1 + a3*eps_d/|lambda1|);
    purely imaginary, Im < 0; requires lambda1 < 0."""
    if not lambda1 < 0:
        raise InputError(f"omega_prime0: lambda1 must be < 0, got {lambda1}")
    return complex(0.0, -a2 / (a1 + a3 * eps_d / abs(lambda1)))


#: version of every JSON document the CLI writes and reads
SCHEMA_VERSION = 1


def _json_document(caller: str, text: str) -> dict:
    """`text` parsed as a JSON object of `SCHEMA_VERSION`; anything else is
    an input error naming `caller`."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise InputError(f"{caller}: not a JSON document ({exc})") from None
    if not isinstance(doc, dict):
        raise InputError(f"{caller}: expected a JSON object, got "
                         f"{type(doc).__name__}")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(f"{caller}: unsupported schema_version "
                         f"{doc.get('schema_version')!r}")
    return doc


def _json_numbers(doc: dict, key: str, ndim: int) -> np.ndarray:
    """doc[key] as a finite float array with `ndim` axes (0: a number, 1: a
    list of numbers); a missing key, a value of another type or shape, or
    one not finite, is an input error naming it."""
    if key not in doc:
        raise InputError(f"read_series: missing key {key!r}")
    try:
        arr = np.array(doc[key])
    except ValueError:  # ragged nesting
        arr = None
    if arr is None or arr.ndim != ndim or arr.dtype.kind not in "iuf":
        shape = ("a number", "a list of numbers")[ndim]
        raise InputError(f"read_series: {key!r} must be {shape}")
    arr = arr.astype(float, copy=False)
    if not np.isfinite(arr).all():
        raise InputError(f"read_series: {key!r} must be finite")
    return arr


def read_series(text: str) -> list:
    """The coefficients [lambda0, lambda_1, ..., lambda_N] of a series
    document (`enzres expand -o`).  "lambda0" and "norm_const" must be
    finite numbers, "lambda" and "e" lists of as many finite numbers, at
    most `MAX_ORDER`, or InputError names the key; other keys, such as the
    fields of older documents, are ignored."""
    doc = _json_document("read_series", text)
    lambda0 = float(_json_numbers(doc, "lambda0", 0))
    coeffs = _json_numbers(doc, "lambda", 1)
    if coeffs.size > MAX_ORDER:
        raise InputError(f"read_series: 'lambda' holds {coeffs.size} "
                         f"coefficients, past the highest order MAX_ORDER = "
                         f"{MAX_ORDER}")
    constants = _json_numbers(doc, "e", 1)
    _json_numbers(doc, "norm_const", 0)
    if coeffs.size != constants.size:
        raise InputError(f"read_series: 'lambda' holds {coeffs.size} "
                         f"coefficients but 'e' {constants.size} constants; "
                         "a series has one of each per order")
    return [lambda0, *coeffs.tolist()]


def trace_resonance(lambdas, p: LorentzParams, d: CoreDielectric,
                    gamma_max: float, steps: int) -> ResonanceTrace:
    """Trace omega(gamma) on a uniform gamma grid by warm-started Newton.

    Each gamma > 0 gets at most `MAX_NEWTON` steps to reach |G| <=
    `NEWTON_TOL` * max(1, lambda*), else NumericalError.  More than
    `MAX_STEPS` steps, or a gamma_max above `MAX_GAMMA_RATIO` * omega*, are
    refused with InputError before any work.

    `lambdas` holds the series coefficients [lambda0, lambda_1, ...,
    lambda_N], N >= 2, of any geometry, as `read_series` or
    `PerturbationSeries.all_lambdas` give them; a coefficient that is not finite, a
    lambda0 <= 0, or a rescale that overflows is refused with InputError
    before any Newton step.  Scaling the geometry by t =
    `calibrate_scale`(lambda0, lambda*) multiplies lambda_n by
    lambda*/lambda0 exactly, so the trace runs on the coefficients so
    rescaled, with lambda0 set to lambda* (gamma = 0 returns omega*
    exactly), and returns t as `calibration_scale_t`.
    """
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.size < 3:
        raise InputError("trace_resonance: series order must be >= 2")
    finite = np.isfinite(lambdas)
    if not finite.all():
        n = int(np.argmin(finite))
        raise InputError(f"trace_resonance: coefficient {n} must be finite, "
                         f"got {lambdas[n]}")
    ws = enz_frequency(p)
    if not (0 <= gamma_max <= MAX_GAMMA_RATIO * ws
            and 1 <= steps <= MAX_STEPS):
        raise InputError(f"trace_resonance: need 0 <= gamma_max <= "
                         f"{MAX_GAMMA_RATIO:g} * omega* = "
                         f"{MAX_GAMMA_RATIO * ws:.6g} and 1 <= steps <= "
                         f"{MAX_STEPS}, got {gamma_max}, {steps}")
    lam_star = lambda_star(p, d)
    t = calibrate_scale(lambdas[0], lam_star)
    with np.errstate(over="ignore"):
        coeffs = lambdas * (lam_star / lambdas[0])
    coeffs[0] = lam_star
    if not np.isfinite(coeffs).all():
        raise InputError(f"trace_resonance: rescaling by lambda*/lambda0 = "
                         f"{lam_star:.6g}/{lambdas[0]:.6g} overflows")

    # lambda and dlambda/ddelta by one Horner recurrence on two lanes: row
    # k holds the coefficients of delta**(N - k), with a leading zero in
    # the derivative's lane.  Each lane takes the steps np.polyval takes,
    # in NumPy's array arithmetic, so both match it bit for bit
    order = len(coeffs) - 1
    horner = np.zeros((order + 1, 2), dtype=complex)
    horner[:, 0] = coeffs[::-1]
    horner[1:, 1] = (coeffs[1:] * np.arange(1, order + 1))[::-1]
    horner_rows = list(horner)
    eps_d = d.eps_d

    def lam_and_slope(delta):
        acc = np.zeros(2, dtype=complex)
        for row in horner_rows:
            acc *= delta
            acc += row
        return acc[0], acc[1]

    a1, a2, a3 = sensitivities(p, d)
    wprime0 = omega_prime0(a1, a2, a3, eps_d, float(coeffs[1]))

    gammas = np.linspace(0.0, gamma_max, steps + 1)
    omegas = np.empty(len(gammas), dtype=complex)
    deltas = np.empty(len(gammas), dtype=complex)
    iters = np.zeros(len(gammas), dtype=int)

    omega = complex(ws)
    for j, gamma in enumerate(gammas):
        if gamma == 0.0:
            # delta = 0, lambda = lambda* exactly
            omega, delta = complex(ws), 0.0
        else:
            # warm start from the previous gamma; the row keeps the delta
            # of the evaluation that converged
            for it in range(1, MAX_NEWTON + 1):
                eps, d_eps = _lorentz(p, omega, gamma)
                delta = eps / eps_d
                lam, slope = lam_and_slope(delta)
                g_val = lam - omega * omega * eps_d
                if abs(g_val) <= NEWTON_TOL * max(1.0, abs(coeffs[0])):
                    break
                g_der = slope * d_eps / eps_d - 2.0 * omega * eps_d
                step = g_val / g_der
                omega = omega - step
                if not np.isfinite(omega) or abs(omega - ws) > 0.5 * ws:
                    raise NumericalError(
                        f"trace_resonance: Newton diverged at gamma = {gamma} "
                        f"(iterate {omega})")
            else:
                raise NumericalError(
                    f"trace_resonance: Newton did not converge at gamma = "
                    f"{gamma} (last |G| = {abs(g_val):.3e})")
            iters[j] = it
        omegas[j], deltas[j] = omega, delta

    return ResonanceTrace(gammas=gammas, omegas=omegas, deltas=deltas,
                          newton_iters=iters, omega_prime0=wprime0,
                          omega_star=ws, calibration_scale_t=t)


def trace_to_csv(trace: ResonanceTrace) -> str:
    """The trace as CSV rows under `TRACE_CSV_HEADER`, one `%` format of
    its flat values: `tolist` gives Python floats, which `%r` writes as
    round-trip reprs."""
    rows = np.column_stack((trace.gammas, trace.omegas.real,
                            trace.omegas.imag, trace.deltas.real,
                            trace.deltas.imag, trace.newton_iters))
    return (TRACE_CSV_HEADER + "\n"
            + "%r,%r,%r,%r,%r,%d\n" * len(rows) % tuple(rows.ravel().tolist()))
