"""Optimal shell design by convex relaxation.

The shell shape minimizing the resonance decay rate maximizes, over
densities theta in [0,1] with lambda0 * int theta = <f, 1>, the saddle
value of L(w, theta) = int theta*(|grad w|^2/2 - lambda0*w) + <f, w>.
The primary algorithm minimizes the convex dual
J(w) = int (|grad w|^2/2 - lambda0*w)_+ + <f, w> with a smoothed plus
function p_beta and beta continuation, then recovers theta by a bathtub
projection of the energy density; an alternating epsilon-regularized
saddle iteration serves as the cross-check.  The achieved first-order
eigenvalue correction is lambda1 = 2 * (saddle value) / norm_const.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from enzres.dispersion import SCHEMA_VERSION
from enzres.errors import InputError, NumericalError
from enzres.fem import (MeanZeroFactor, ScatterPattern, _gradient_blocks,
                        _scatter_vector, element_geometry, factor_spd)
from enzres.mesh import DESIGN_TAGS, INTERFACE, Mesh
from enzres.perturbation import _check_lambda0, _core_profile

__all__ = ["DesignProblem", "DesignState", "DualSolution", "StageRecord",
           "make_disk_problem",
           "energy_density", "dual_objective", "bathtub_projection",
           "minimize_dual", "recover_design", "saddle_solve",
           "evaluate_design", "lambda1_of_design", "design_to_json",
           "design_to_csv"]

#: least slack |design| - A0 a design region must have, relative to |Omega|
CONSISTENCY_TOL = 1e-6


@dataclass
class DesignProblem:
    """Shell design problem on the region outside the core.

    The admissible region is the union of mesh regions 1 and 2 (whatever is
    present); `f` holds one weight per mesh node, zero off the core
    interface, with <f, 1> = f.sum() > 0; the design region must exceed
    A0 = <f, 1> / lambda0 by more than `CONSISTENCY_TOL` * |Omega|.  At the
    root, A0 equals |shell| up to rounding of either sign, so a mesh
    without a slack ring, whose design region is the shell, is refused
    however its rounding falls.  `norm_const` =
    A0 + int_D psi_d**2 is needed only for `lambda1_of_design`.

    Everything that does not depend on the field is computed once here:
    element geometry and P1 gradient blocks, the lumped mass vector `m`,
    and the `ScatterPattern` of the design nodes that every design matrix
    is filled on (`assemble`).
    """

    mesh: Mesh
    lambda0: float
    f: np.ndarray
    norm_const: float | None = None
    # derived data (filled in __post_init__)
    A0: float = field(init=False)
    elements: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    conn: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    gx: np.ndarray = field(init=False, repr=False)
    gy: np.ndarray = field(init=False, repr=False)
    blocks: np.ndarray = field(init=False, repr=False)
    m: np.ndarray = field(init=False, repr=False)
    pattern: ScatterPattern = field(init=False, repr=False)
    f_r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        _check_lambda0("DesignProblem", self.mesh, self.lambda0)
        self.f = np.asarray(self.f)
        if self.f.shape != (self.mesh.n_nodes,):
            raise InputError(f"DesignProblem: f must hold one weight per "
                             f"mesh node ({self.mesh.n_nodes}), got shape "
                             f"{self.f.shape}")
        off = np.ones(self.mesh.n_nodes, dtype=bool)
        off[self.mesh.boundary_nodes(INTERFACE)] = False
        if np.any(self.f[off] != 0):
            raise InputError("DesignProblem: f has a nonzero weight off the "
                             "core interface")
        self.elements = self.mesh.region_triangles(DESIGN_TAGS)
        if not self.elements.size:
            raise InputError("DesignProblem: mesh has no design region "
                             "(tags 1 or 2)")
        self.nodes = self.mesh.region_nodes(DESIGN_TAGS)
        label = np.empty(self.mesh.n_nodes, dtype=np.intp)
        label[self.nodes] = np.arange(self.nodes.size)
        self.conn = label[self.mesh.triangles[self.elements]]
        self.areas, self.gx, self.gy = element_geometry(self.mesh,
                                                        self.elements)
        self.blocks = _gradient_blocks(self.gx, self.gy)
        n = self.nodes.size
        self.m = _scatter_vector(self.conn, (self.areas / 3.0)[:, None], n)
        self.pattern = ScatterPattern(self.conn, n)
        self.f_r = self.f[self.nodes]
        total = self.f.sum()
        if not total > 0:
            raise InputError(f"DesignProblem: <f, 1> = {total:.6g} must be "
                             "> 0")
        # in Python floats, which overflow to inf without a warning
        self.A0 = float(total) / float(self.lambda0)
        if not math.isfinite(self.A0):
            raise InputError(f"DesignProblem: A0 = <f, 1> / lambda0 = "
                             f"{total:.6g} / {self.lambda0:.6g} overflows")
        slack = self.total_area - self.A0
        if not slack > CONSISTENCY_TOL * float(self.mesh.areas().sum()):
            raise InputError(
                f"DesignProblem: the design region must exceed A0 (A0 = "
                f"{self.A0:.6g}, |design| = {self.total_area:.6g}); a slack "
                "ring (region 2, --rb) provides it")

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    def assemble(self, blocks: np.ndarray) -> sp.csc_matrix:
        """Sum symmetric per-element 3x3 blocks on the design nodes into a
        CSC matrix on the fixed pattern."""
        return self.pattern.fill(blocks).T

    def expand(self, x: np.ndarray) -> np.ndarray:
        """Nodal values on the mesh of x, given on the design nodes."""
        vals = np.zeros(self.mesh.n_nodes)
        vals[self.nodes] = x
        return vals


@dataclass
class DesignState:
    """Result of a design solve: per-element density on the design region,
    the dual/adjoint field w (nodal values on the mesh, gauged so the
    bathtub level is 0), the level
    z0 actually used after gauging, the achieved saddle value L(w, theta),
    and the (primal, dual) objective history."""

    theta: np.ndarray
    w: np.ndarray
    z0: float
    value: float
    history: list
    converged: bool
    fractional_mass: float  # area of elements with 0 < theta < 1 (diagnostic)


def make_disk_problem(mesh: Mesh, lambda0: float) -> DesignProblem:
    """Standard problem: f = weak interface flux of psi_d, norm_const from
    the same core solve."""
    psi_d, fac, f = _core_profile("make_disk_problem", mesh, lambda0)
    M_core = fac.op.M
    # freed before the design's arrays are made: held across them, the core
    # factor raised the h = 0.04 design benchmark's peak RSS from 92 MB to
    # 108-114 MB
    del fac
    prob = DesignProblem(mesh=mesh, lambda0=lambda0, f=f)
    prob.norm_const = float(prob.A0 + psi_d @ (M_core @ psi_d))
    return prob


# ---------------------------------------------------------------------------
# densities and objectives

def _density(prob: DesignProblem, x: np.ndarray):
    """Per design element, for nodal values x on the design nodes: the
    constant P1 gradient (wx, wy) and the energy density
    |grad w|^2 / 2 - lambda0 * mean(w)."""
    wl = x[prob.conn]
    w0, w1, w2 = wl[:, 0], wl[:, 1], wl[:, 2]
    gx, gy = prob.gx, prob.gy
    wx = gx[:, 0] * w0 + gx[:, 1] * w1 + gx[:, 2] * w2
    wy = gy[:, 0] * w0 + gy[:, 1] * w1 + gy[:, 2] * w2
    return (wx, wy,
            0.5 * (wx * wx + wy * wy) - prob.lambda0 * ((w0 + w1 + w2) / 3.0))


def energy_density(w: np.ndarray, prob: DesignProblem) -> np.ndarray:
    """Per design element, for nodal values w on the mesh:
    |grad w|^2 / 2 - lambda0 * mean(w) (P1 gradients are constant per
    element)."""
    return _density(prob, w[prob.nodes])[2]


def dual_objective(w: np.ndarray, prob: DesignProblem) -> float:
    """J(w) = sum_e area_e * max(density_e, 0) + <f, w>, the unsmoothed
    dual, for nodal values w on the mesh."""
    return _dual_value(prob, w, energy_density(w, prob))


def _dual_value(prob: DesignProblem, w: np.ndarray, d: np.ndarray) -> float:
    """J(w) for nodal values w on the mesh whose energy density is d."""
    return float(prob.areas @ np.maximum(d, 0.0) + prob.f @ w)


def bathtub_projection(density: np.ndarray, areas: np.ndarray, A0: float):
    """Level z0 and density theta with superlevel measure exactly A0.

    theta_e = 1 where density_e > z0, 0 where density_e < z0, and a common
    fractional value on the tie level z0 (split proportional to area) so
    that sum(theta * areas) = A0 exactly.  Returns (theta, z0).
    """
    density = np.asarray(density, dtype=float)
    areas = np.asarray(areas, dtype=float)
    total = areas.sum()
    if A0 > total * (1.0 + 1e-12):
        raise InputError(f"bathtub_projection: A0 = {A0:.6g} exceeds total "
                         f"area {total:.6g}")
    A0 = min(A0, total)
    order = np.argsort(-density, kind="stable")
    cum = np.cumsum(areas[order])
    k = int(np.searchsorted(cum, A0, side="left"))
    if k >= len(order):
        return np.ones_like(density), float(density.min())
    z0 = float(density[order[k]])
    theta = np.zeros_like(density)
    above = density > z0
    tie = density == z0
    area_above = float(areas[above].sum())
    theta[above] = 1.0
    area_tie = float(areas[tie].sum())
    need = A0 - area_above
    if area_tie > 0 and need > 0:
        theta[tie] = need / area_tie
    return theta, z0


def _gauged(prob: DesignProblem, x: np.ndarray):
    """The one gauge step of a design state, for nodal values x on the
    design nodes: the bathtub (theta, z0) of x's energy density, x shifted
    by z0/lambda0 so that the bathtub level sits at zero, as nodal values w
    on the mesh, and w's energy density d.  Returns (theta, z0, w, d)."""
    theta, z0 = bathtub_projection(_density(prob, x)[2], prob.areas, prob.A0)
    w = prob.expand(x + z0 / prob.lambda0)
    return theta, z0, w, energy_density(w, prob)


def _design_state(prob, theta, w, z0, value, history, converged):
    """The DesignState of these fields, with theta's fractional mass."""
    frac = float(prob.areas[(theta > 1e-12) & (theta < 1 - 1e-12)].sum())
    return DesignState(theta=theta, w=w, z0=z0, value=value, history=history,
                       converged=converged, fractional_mass=frac)


# ---------------------------------------------------------------------------
# dual route (primary)

def _dual_parts(prob: DesignProblem, x: np.ndarray, beta: float):
    """(wx, wy, p, p', p''): element gradients and p_beta(density)."""
    wx, wy, d = _density(prob, x)
    r = np.sqrt(d * d + beta * beta)
    p = 0.5 * (d + r)
    p1 = 0.5 * (1.0 + d / r)
    p2 = 0.5 * beta * beta / (r * r * r)
    return wx, wy, p, p1, p2


def _density_grad(prob: DesignProblem, wx, wy):
    """Per-element gradient of the density w.r.t. its three nodal values."""
    return (wx[:, None] * prob.gx + wy[:, None] * prob.gy
            - prob.lambda0 / 3.0)


def _make_objective(prob: DesignProblem, beta: float):
    areas = prob.areas
    n = prob.nodes.size

    def fun(x):
        _, _, p, _, _ = _dual_parts(prob, x, beta)
        return float(areas @ p + prob.f_r @ x)

    def jac(x):
        wx, wy, _, p1, _ = _dual_parts(prob, x, beta)
        g_el = _density_grad(prob, wx, wy) * (areas * p1)[:, None]
        return _scatter_vector(prob.conn, g_el, n) + prob.f_r

    return fun, jac


def _hessian(prob: DesignProblem, x: np.ndarray, beta: float) -> sp.csc_matrix:
    """Sparse Hessian of the smoothed dual at x, on the problem's fixed
    pattern."""
    wx, wy, _, p1, p2 = _dual_parts(prob, x, beta)
    dgrad = _density_grad(prob, wx, wy)
    areas = prob.areas
    return prob.assemble(
        dgrad[:, :, None] * dgrad[:, None, :] * (areas * p2)[:, None, None]
        + prob.blocks * (areas * p1)[:, None, None])


def _newton_step(prob: DesignProblem, x: np.ndarray, beta: float,
                 g: np.ndarray):
    """Newton direction -H^{-1} g and the factor that gave it.  The
    Hessian is shifted to H + shift*I until its factor gives a descent
    direction, with steepest descent (and no factor) as the last resort."""
    hess = _hessian(prob, x, beta)
    shift = 0.0
    while True:
        try:
            lu = factor_spd(hess if not shift else
                            hess + shift * sp.identity(x.size, format="csc"))
        except RuntimeError:
            lu = None
        step = None if lu is None else lu.solve(-g)
        if step is not None and np.all(np.isfinite(step)) and g @ step < 0:
            return step, lu
        lu = None  # released before the next factorization
        shift = max(2.0 * shift, 1e-12 * prob.lambda0)
        if shift > 1e6 * prob.lambda0:
            return -g, None


@dataclass(frozen=True)
class StageRecord:
    """What one beta stage of `minimize_dual` did: the gradient-norm
    tolerance it ran to, Newton directions computed (each costs one Hessian
    factorization, or more when the Hessian needs a shift), chord steps
    kept (each one back-solve on a factor already held, no factorization),
    objective evaluations, final gradient norm, and why it stopped ("gtol",
    "rounding floor", "max_iter" or "line-search failure"); `predicted`
    tells whether it started from the tangent predictor's point rather than
    from the previous stage's minimizer."""

    beta: float
    gtol: float
    steps: int
    chords: int
    evaluations: int
    gnorm: float
    exit: str
    predicted: bool = False


#: stage exits that count as converged
CONVERGED_EXITS = ("gtol", "rounding floor")
#: Newton steps allowed per beta stage
MAX_NEWTON_STEPS = 60
#: beta continuation in units of lambda0 * diam^2: first beta, factor per
#: stage, number of stages (the last beta is 1e-8)
BETA_START, BETA_FACTOR, BETA_STAGES = 0.1, 0.1, 8
#: relative size of a Newton decrement lost in rounding of J
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps
#: a chord step is kept only if it cuts |g| to at most this fraction of its
#: value, the refactoring threshold of Kelley's Shamanskii solver `nsold`
CHORD_CONTRACTION = 0.5


def _chord_step(fun, jac, x, fx, g, gnorm, lu):
    """Chord step x - H^{-1} g on a Hessian factor lu already held (Kelley,
    Iterative Methods for Linear and Nonlinear Equations, 1995, ch. 5).
    Returns (x, J, g) at the full step if it is a descent direction, passes
    the Armijo test (or its decrement is at the rounding floor, where J
    cannot tell) and cuts |g| to at most `CHORD_CONTRACTION` times gnorm;
    otherwise None."""
    step = lu.solve(-g)
    slope = float(g @ step)
    if not (np.all(np.isfinite(step)) and slope < 0):
        return None
    x_new = x + step
    f_new = fun(x_new)
    if not (f_new <= fx + 1e-4 * slope
            or -slope <= ROUNDING_FLOOR * max(1.0, abs(fx))):
        return None
    g_new = jac(x_new)
    if not np.linalg.norm(g_new) <= CHORD_CONTRACTION * gnorm:
        return None
    return x_new, f_new, g_new


def _newton_stage(prob: DesignProblem, x: np.ndarray, beta: float,
                  gtol: float, held: list | None = None):
    """Damped Newton with direct sparse factorization for one beta stage.

    Before each new Hessian factorization the stage takes chord steps
    (`_chord_step`) on the factor it holds: its last Newton factor, or at
    the start the factor taken out of `held`, the previous stage's, which
    the caller passes in a list so that it keeps no reference of its own
    while this stage factors.  The first chord step `_chord_step` refuses
    hands over to the Newton step, from the last chord iterate.

    Newton steps are accepted by the Armijo test until the Newton decrement
    -g.step falls to the rounding level of J, where comparing objective
    values compares noise; there the full step is taken only if it lowers
    |g| (the gradient-based acceptance of approximate Wolfe line searches,
    Hager & Zhang 2005), and otherwise the stage ends at the rounding
    floor.  Returns (x, StageRecord, lu), where lu is the factor the stage
    holds at its end: its last Newton factor, or the one it was handed when
    it made none; None when its last direction was steepest descent or it
    had no factor at all.
    """
    fun, jac = _make_objective(prob, beta)
    evals = 0

    def evaluate(x):
        nonlocal evals
        evals += 1
        return fun(x)

    fx, g = evaluate(x), jac(x)
    gnorm = float(np.linalg.norm(g))
    chords = 0
    lu = held.pop() if held else None

    def record(steps, exit):
        return StageRecord(beta=beta, gtol=gtol, steps=steps, chords=chords,
                           evaluations=evals, gnorm=gnorm, exit=exit)

    for steps in range(MAX_NEWTON_STEPS):
        while lu is not None and gnorm > gtol:
            chord = _chord_step(evaluate, jac, x, fx, g, gnorm, lu)
            if chord is None:
                break
            x, fx, g = chord
            gnorm = float(np.linalg.norm(g))
            chords += 1
        if gnorm <= gtol:
            return x, record(steps, "gtol"), lu
        lu = None  # released before the next factorization
        step, lu = _newton_step(prob, x, beta, g)
        slope = float(g @ step)
        if -slope <= ROUNDING_FLOOR * max(1.0, abs(fx)):
            x_new = x + step
            g_new = jac(x_new)
            if not np.linalg.norm(g_new) < gnorm:
                return x, record(steps + 1, "rounding floor"), lu
            f_new = evaluate(x_new)
        else:
            t = 1.0
            while True:
                x_new = x + t * step
                f_new = evaluate(x_new)
                if f_new <= fx + 1e-4 * t * slope:
                    break
                t *= 0.5
                if t < 1e-14:
                    return x, record(steps + 1, "line-search failure"), lu
            g_new = jac(x_new)
        x, fx, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
    return x, record(MAX_NEWTON_STEPS,
                     "gtol" if gnorm <= gtol else "max_iter"), lu


def _predict(prob: DesignProblem, x: np.ndarray, beta: float,
             beta_next: float, lu):
    """Tangent predictor from the minimizer x at beta to beta_next
    (Allgower & Georg 1990, ch. 2).  Differentiating grad J_beta(x) = 0
    along the path gives dx/dbeta = -H^{-1} d(grad J_beta)/dbeta, where
    d p'_beta(d)/dbeta = -d beta / (2 r^3) with r = sqrt(d^2 + beta^2);
    H^{-1} is one back-solve on lu, the factor the stage held at its end
    (its last Hessian factor, or an earlier stage's if it made none).  The
    predicted point is kept only if it lowers J at beta_next by more than
    J's rounding level (`ROUNDING_FLOOR` relative), so that rounding noise,
    which moves with the BLAS thread count, never makes the choice.
    Returns (x, kept)."""
    wx, wy, d = _density(prob, x)
    r = np.sqrt(d * d + beta * beta)
    dp1 = -0.5 * d * beta / (r * r * r)
    v = _scatter_vector(prob.conn, _density_grad(prob, wx, wy)
                        * (prob.areas * dp1)[:, None], prob.nodes.size)
    x_pred = x - (beta_next - beta) * lu.solve(v)
    fun, _ = _make_objective(prob, beta_next)
    fx = fun(x)
    if fun(x_pred) < fx - ROUNDING_FLOOR * max(1.0, abs(fx)):
        return x_pred, True
    return x, False


@dataclass
class DualSolution:
    """Minimizer of the smoothed dual as nodal `values` on the mesh, with
    one record per beta stage; converged when it has stages and each of
    them converged."""

    values: np.ndarray
    stages: tuple = ()

    @property
    def converged(self) -> bool:
        return bool(self.stages) and all(s.exit in CONVERGED_EXITS
                                         for s in self.stages)


def minimize_dual(prob: DesignProblem) -> DualSolution:
    """Minimize the smoothed dual with beta continuation (damped Newton
    with chord steps).

    Beta falls tenfold per stage from 0.1*lambda0*diam^2 to
    1e-8*lambda0*diam^2 (8 stages).  Each stage's minimizer is only a warm
    start for the next, so a stage stops once |grad| <= (beta /
    (lambda0*diam^2)) * load, with load = max(1, |f|): its relative gradient
    tolerance equals its relative smoothing, 0.1, 1e-2, ..., 1e-8, and only
    the last stage runs to 1e-8 * load (the path-following rule of SUMT,
    Fiacco & McCormick 1968).  Between stages a tangent predictor
    moves x toward the next stage's minimizer with one back-solve on the
    factor the last stage held, and its point is kept only if it lowers
    the next stage's objective beyond rounding; the next stage starts its
    chord steps on that same factor, which is handed over so that at most
    one Hessian factor is alive at a time.  x is not moved after a stage
    that ended without a factor (its last direction steepest descent).
    Returns the minimizer at the final beta with the record of every
    stage; the additive gauge is fixed by the plus function itself
    (stationarity in the constant direction pins the smoothed superlevel
    measure to A0).  Raises NumericalError if the final gradient is far
    from stationary.
    """
    pts = prob.mesh.nodes[prob.nodes]
    diam2 = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    beta = BETA_START * prob.lambda0 * diam2
    x = np.zeros(prob.nodes.size)
    load = max(1.0, float(np.linalg.norm(prob.f_r)))
    stages, held = [], [None]
    for k in range(BETA_STAGES):
        predicted = False
        if k:
            if held[0] is not None:
                x, predicted = _predict(prob, x, beta, beta * BETA_FACTOR,
                                        held[0])
            beta *= BETA_FACTOR
        x, rec, lu = _newton_stage(prob, x, beta,
                                   beta / (prob.lambda0 * diam2) * load, held)
        # the list holds the only reference, which the next stage takes
        held = [lu]
        del lu
        stages.append(replace(rec, predicted=predicted))
    if stages[-1].gnorm > 1e-5 * load:
        raise NumericalError(
            f"minimize_dual: stationarity not reached (|grad| = "
            f"{stages[-1].gnorm:.3e} at final beta = {beta:.3e})")
    return DualSolution(prob.expand(x), tuple(stages))


def recover_design(prob: DesignProblem, sol: DualSolution) -> DesignState:
    """The gauge step (`_gauged`) of the dual minimizer: the bathtub
    projection of its energy density, with the field shifted by z0/lambda0
    so that the projection level becomes 0; the resulting primal value
    L(w, theta) then coincides with the (unsmoothed) dual objective.

    The state is flagged converged only when every beta stage of `sol`
    converged (a solution with no stages is not)."""
    theta, z0, w, d = _gauged(prob, sol.values[prob.nodes])
    value = float((theta * prob.areas) @ d + prob.f @ w)
    return _design_state(prob, theta, w, z0, value,
                         [(value, _dual_value(prob, w, d))], sol.converged)


# ---------------------------------------------------------------------------
# epsilon-regularized saddle iteration (cross-check)

#: ersatz conductivity of the void, at which every saddle iteration solves
EPS_FLOOR = 1e-6
#: saddle iterations allowed, and the relative duality gap that ends them
SADDLE_ITERS, SADDLE_TOL = 60, 1e-3


def evaluate_design(prob: DesignProblem, theta: np.ndarray):
    """Primal minimization for a fixed density: solve the conductivity
    problem with a = theta + EPS_FLOOR*(1 - theta) and load (lambda0*theta
    in the bulk, -f on the interface), mean pinned to zero.

    Returns (w, L(w, theta)); the value is gauge-invariant when theta
    satisfies the area constraint.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != prob.elements.shape:
        raise InputError("evaluate_design: theta must be per design element")
    a = theta + EPS_FLOOR * (1.0 - theta)
    K = prob.assemble(prob.blocks * (a * prob.areas)[:, None, None])
    # load: lambda0 * theta against hat functions (element-lumped), minus f
    b = _scatter_vector(prob.conn,
                        (prob.lambda0 * theta * prob.areas / 3.0)[:, None],
                        prob.nodes.size) - prob.f_r
    u, _ = MeanZeroFactor(K, prob.m).solve(b)
    w = prob.expand(u)
    return w, float((theta * prob.areas) @ energy_density(w, prob)
                    + prob.f @ w)


def saddle_solve(prob: DesignProblem) -> DesignState:
    """Alternating saddle iteration: primal solve in w at eps = EPS_FLOOR,
    bathtub update of theta.  It stops at the first iteration whose
    relative gap |primal - dual| / |dual| is <= `SADDLE_TOL`, or after
    `SADDLE_ITERS` iterations.  History rows are (primal, dual) =
    (L(w_k, theta_{k-1}), max_theta L(w_k, theta)); weak duality primal <=
    dual holds at every iteration.  Returns the state of smallest gap,
    flagged non-converged if that gap exceeds `SADDLE_TOL`.  A primal solve
    that fails raises `NumericalError` naming the iteration.
    """
    theta = np.full(prob.elements.size, prob.A0 / prob.total_area)
    history = []
    best = None
    for k in range(1, SADDLE_ITERS + 1):
        try:
            w, primal = evaluate_design(prob, theta)
        except NumericalError as exc:
            raise NumericalError(f"saddle_solve: iteration {k} at eps = "
                                 f"{EPS_FLOOR:g}: {exc}") from exc
        theta, z0, w, d = _gauged(prob, w[prob.nodes])
        dual = _dual_value(prob, w, d)
        history.append((primal, dual))
        gap = abs(primal - dual) / max(abs(dual), 1e-300)
        if best is None or gap < best[0]:
            best = (gap, theta, w, z0, primal)
        if gap <= SADDLE_TOL:
            break
    gap, theta, w, z0, value = best
    return _design_state(prob, theta, w, z0, value, history,
                         gap <= SADDLE_TOL)


def lambda1_of_design(state: DesignState, prob: DesignProblem) -> float:
    """First-order eigenvalue correction achieved by the design:
    lambda1 = 2 * (saddle value) / norm_const < 0 (the saddle value equals
    -1/2 the shell Dirichlet energy of the adjoint field)."""
    if prob.norm_const is None:
        raise InputError("lambda1_of_design: problem has no norm_const "
                         "(build via make_disk_problem or set it)")
    return 2.0 * state.value / prob.norm_const


# ---------------------------------------------------------------------------
# serialization


def design_to_json(state: DesignState, prob: DesignProblem) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "lambda0": prob.lambda0,
        "A0": prob.A0,
        "theta": state.theta.tolist(),
        "w": state.w.tolist(),
        "z0": state.z0,
        "value": state.value,
        "converged": state.converged,
        "fractional_mass": state.fractional_mass,
        "history": [[float(a), float(b)] for a, b in state.history],
    }
    if prob.norm_const is not None:
        doc["lambda1"] = lambda1_of_design(state, prob)
    return json.dumps(doc)


def design_to_csv(state: DesignState, prob: DesignProblem) -> str:
    """Per-element (centroid_x, centroid_y, theta, density) for plotting."""
    cent = prob.mesh.nodes[prob.mesh.triangles[prob.elements]].mean(axis=1)
    rows = np.column_stack((cent, state.theta, energy_density(state.w, prob)))
    return ("centroid_x,centroid_y,theta,density\n"
            + "%r,%r,%r,%r\n" * len(rows) % tuple(rows.ravel().tolist()))
