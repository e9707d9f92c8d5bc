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

import io
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from enzres.errors import InputError, NumericalError
from enzres.fem import (BoundaryFunctional, Field, assemble_mass,
                        element_geometry, factor_spd, solve_mean_zero,
                        weak_normal_flux)
from enzres.mesh import Mesh
from enzres.perturbation import compute_psi_d

__all__ = ["DesignProblem", "DesignState", "DualSolution", "StageRecord",
           "make_disk_problem",
           "energy_density", "dual_objective", "bathtub_projection",
           "minimize_dual", "recover_design", "saddle_solve",
           "evaluate_design", "lambda1_of_design", "design_to_json",
           "design_from_json", "design_to_csv"]

CORE = 0
DESIGN_TAGS = (1, 2)


@dataclass
class DesignProblem:
    """Shell design problem on the region outside the core.

    The admissible region is the union of mesh regions 1 and 2 (whatever is
    present); `f` is a boundary functional on the core interface with
    <f, 1> > 0; the enclosing region must satisfy |design| > A0 with
    A0 = <f, 1> / lambda0.  `norm_const` = A0 + int_D psi_d**2 is needed
    only for `lambda1_of_design`.
    """

    mesh: Mesh
    lambda0: float
    f: BoundaryFunctional
    norm_const: float | None = None
    # derived element data (filled in __post_init__)
    elements: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    conn: np.ndarray = field(init=False, repr=False)
    areas: np.ndarray = field(init=False, repr=False)
    gx: np.ndarray = field(init=False, repr=False)
    gy: np.ndarray = field(init=False, repr=False)
    f_r: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.lambda0 > 0:
            raise InputError("DesignProblem: lambda0 must be > 0")
        tags = set(DESIGN_TAGS) & {int(t) for t in np.unique(self.mesh.regions)}
        if not tags:
            raise InputError("DesignProblem: mesh has no design region "
                             "(tags 1 or 2)")
        self.tags = tags
        self.elements = self.mesh.region_triangles(tags)
        self.nodes = np.unique(self.mesh.triangles[self.elements])
        renum = np.full(self.mesh.n_nodes, -1, dtype=np.int64)
        renum[self.nodes] = np.arange(self.nodes.size)
        self.conn = renum[self.mesh.triangles[self.elements]]
        self.areas, self.gx, self.gy = element_geometry(self.mesh,
                                                        self.elements)
        self.f_r = self.f.weights[self.nodes]
        total = self.f.total()
        if not total > 0:
            raise InputError(f"DesignProblem: <f, 1> = {total:.6g} must be "
                             "> 0")
        if not self.A0 < self.total_area:
            raise InputError(
                f"DesignProblem: enclosing region too small (A0 = "
                f"{self.A0:.6g} >= |design| = {self.total_area:.6g})")

    @property
    def A0(self) -> float:
        return float(self.f.total() / self.lambda0)

    @property
    def total_area(self) -> float:
        return float(self.areas.sum())

    def reduce(self, w: Field) -> np.ndarray:
        return w.values[self.nodes]

    def expand(self, x: np.ndarray) -> Field:
        vals = np.zeros(self.mesh.n_nodes)
        vals[self.nodes] = x
        return Field(self.mesh, vals, frozenset(self.tags))


@dataclass
class DesignState:
    """Result of a design solve: per-element density on the design region,
    the dual/adjoint field w (gauged so the bathtub level is 0), the level
    z0 actually used after gauging, the achieved saddle value L(w, theta),
    and the (primal, dual) objective history."""

    theta: np.ndarray
    w: Field
    z0: float
    value: float
    history: list
    converged: bool
    fractional_mass: float  # area of elements with 0 < theta < 1 (diagnostic)


def make_disk_problem(mesh: Mesh, lambda0: float) -> DesignProblem:
    """Standard problem: f = weak interface flux of psi_d, norm_const from
    the same core solve."""
    psi_d = compute_psi_d(mesh, lambda0)
    f = weak_normal_flux(psi_d, lambda0, source=None)
    M_core = assemble_mass(mesh, {CORE: 1.0})
    a0 = f.total() / lambda0
    norm_const = float(a0 + psi_d.values @ (M_core @ psi_d.values))
    return DesignProblem(mesh=mesh, lambda0=lambda0, f=f,
                         norm_const=norm_const)


# ---------------------------------------------------------------------------
# densities and objectives

def energy_density(w: Field, lambda0: float, prob: DesignProblem) -> np.ndarray:
    """Per design element: |grad w|^2 / 2 - lambda0 * mean(w) (P1 gradients
    are constant per element)."""
    wl = w.values[prob.mesh.triangles[prob.elements]]
    wx = (prob.gx * wl).sum(axis=1)
    wy = (prob.gy * wl).sum(axis=1)
    return 0.5 * (wx * wx + wy * wy) - lambda0 * wl.mean(axis=1)


def _p_beta(x: np.ndarray, beta: float):
    if beta == 0.0:
        return np.maximum(x, 0.0)
    return 0.5 * (x + np.sqrt(x * x + beta * beta))


def dual_objective(w: Field, prob: DesignProblem, beta: float = 0.0) -> float:
    """J_beta(w) = sum_e area_e * p_beta(density_e) + <f, w>."""
    if beta < 0:
        raise InputError("dual_objective: beta must be >= 0")
    d = energy_density(w, prob.lambda0, prob)
    return float(prob.areas @ _p_beta(d, beta) + prob.f.pair(w.values))


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


# ---------------------------------------------------------------------------
# dual route (primary)

def _dual_parts(prob: DesignProblem, x: np.ndarray, beta: float):
    wl = x[prob.conn]
    wx = (prob.gx * wl).sum(axis=1)
    wy = (prob.gy * wl).sum(axis=1)
    d = 0.5 * (wx * wx + wy * wy) - prob.lambda0 * wl.mean(axis=1)
    r = np.sqrt(d * d + beta * beta)
    p = 0.5 * (d + r)
    p1 = 0.5 * (1.0 + d / r)
    p2 = 0.5 * beta * beta / (r * r * r)
    return wl, wx, wy, d, p, p1, p2


def _density_grad(prob: DesignProblem, wx, wy):
    """Per-element gradient of the density w.r.t. its three nodal values."""
    return (wx[:, None] * prob.gx + wy[:, None] * prob.gy
            - prob.lambda0 / 3.0)


def _make_objective(prob: DesignProblem, beta: float):
    areas = prob.areas
    n = prob.nodes.size

    def fun(x):
        _, _, _, _, p, _, _ = _dual_parts(prob, x, beta)
        return float(areas @ p + prob.f_r @ x)

    def jac(x):
        _, wx, wy, _, _, p1, _ = _dual_parts(prob, x, beta)
        g_el = _density_grad(prob, wx, wy) * (areas * p1)[:, None]
        g = np.zeros(n)
        np.add.at(g, prob.conn.ravel(), g_el.ravel())
        return g + prob.f_r

    return fun, jac


def _scatter_local(prob: DesignProblem, blocks: np.ndarray) -> sp.csr_matrix:
    """Accumulate per-element 3x3 blocks over the design nodes."""
    rows = np.repeat(prob.conn, 3, axis=1).ravel()
    cols = np.tile(prob.conn, (1, 3)).ravel()
    n = prob.nodes.size
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _hessian(prob: DesignProblem, x: np.ndarray, beta: float) -> sp.csr_matrix:
    """Assembled sparse Hessian of the smoothed dual at x."""
    _, wx, wy, _, _, p1, p2 = _dual_parts(prob, x, beta)
    dgrad = _density_grad(prob, wx, wy)
    areas = prob.areas
    blocks = (dgrad[:, :, None] * dgrad[:, None, :] * (areas * p2)[:, None, None]
              + (prob.gx[:, :, None] * prob.gx[:, None, :]
                 + prob.gy[:, :, None] * prob.gy[:, None, :])
              * (areas * p1)[:, None, None])
    return _scatter_local(prob, blocks)


def _newton_step(prob: DesignProblem, x: np.ndarray, beta: float,
                 g: np.ndarray) -> np.ndarray:
    """Newton direction -H^{-1} g; the Hessian is shifted until its factor
    gives a descent direction, with steepest descent as the last resort."""
    hess = _hessian(prob, x, beta)
    shift = 0.0
    while True:
        try:
            step = factor_spd(hess + shift * sp.eye(hess.shape[0])).solve(-g)
        except RuntimeError:
            step = None
        if step is not None and np.all(np.isfinite(step)) and g @ step < 0:
            return step
        shift = max(2.0 * shift, 1e-12 * prob.lambda0)
        if shift > 1e6 * prob.lambda0:
            return -g


@dataclass(frozen=True)
class StageRecord:
    """What one beta stage of `minimize_dual` did: Newton directions
    computed (each costs one Hessian factorization, or more when the
    Hessian needs a shift), objective evaluations, final gradient norm, and
    why it stopped ("gtol", "rounding floor", "max_iter" or "line-search
    failure")."""

    beta: float
    steps: int
    evaluations: int
    gnorm: float
    exit: str


#: stage exits that count as converged
CONVERGED_EXITS = ("gtol", "rounding floor")
#: Newton steps allowed per beta stage
MAX_NEWTON_STEPS = 60
#: relative size of a Newton decrement lost in rounding of J
ROUNDING_FLOOR = 16.0 * np.finfo(float).eps


def _newton_stage(prob: DesignProblem, x: np.ndarray, beta: float,
                  gtol: float):
    """Damped Newton with direct sparse factorization for one beta stage.

    Steps are accepted by the Armijo test until the Newton decrement
    -g.step falls to the rounding level of J, where comparing objective
    values compares noise; there the full step is taken only if it lowers
    |g| (the gradient-based acceptance of approximate Wolfe line searches,
    Hager & Zhang 2005), and otherwise the stage ends at the rounding
    floor.  Returns (x, StageRecord).
    """
    fun, jac = _make_objective(prob, beta)
    fx, g = fun(x), jac(x)
    gnorm = float(np.linalg.norm(g))
    evals = 1

    def record(steps, exit):
        return StageRecord(beta=beta, steps=steps, evaluations=evals,
                           gnorm=gnorm, exit=exit)

    for steps in range(MAX_NEWTON_STEPS):
        if gnorm <= gtol:
            return x, record(steps, "gtol")
        step = _newton_step(prob, x, beta, g)
        slope = float(g @ step)
        if -slope <= ROUNDING_FLOOR * max(1.0, abs(fx)):
            x_new = x + step
            g_new = jac(x_new)
            if not np.linalg.norm(g_new) < gnorm:
                return x, record(steps + 1, "rounding floor")
            f_new = fun(x_new)
            evals += 1
        else:
            t = 1.0
            while True:
                x_new = x + t * step
                f_new = fun(x_new)
                evals += 1
                if f_new <= fx + 1e-4 * t * slope:
                    break
                t *= 0.5
                if t < 1e-14:
                    return x, record(steps + 1, "line-search failure")
            g_new = jac(x_new)
        x, fx, g = x_new, f_new, g_new
        gnorm = float(np.linalg.norm(g))
    return x, record(MAX_NEWTON_STEPS,
                     "gtol" if gnorm <= gtol else "max_iter")


@dataclass
class DualSolution(Field):
    """Minimizer of the smoothed dual, with one record per beta stage."""

    stages: tuple = ()

    @property
    def converged(self) -> bool:
        return bool(self.stages) and all(s.exit in CONVERGED_EXITS
                                         for s in self.stages)


def minimize_dual(prob: DesignProblem, beta_schedule=None,
                  tol: float = 1e-8) -> DualSolution:
    """Minimize the smoothed dual with beta continuation (damped Newton).

    `beta_schedule` defaults to quartering from 0.1*lambda0*diam^2 down to
    tol*lambda0*diam^2.  Returns the minimizer at the final beta with the
    record of every stage; the additive gauge is fixed by the plus function
    itself (stationarity in the constant direction pins the smoothed
    superlevel measure to A0).  Raises NumericalError if the final gradient
    is far from stationary.
    """
    pts = prob.mesh.nodes[prob.nodes]
    diam2 = float(((pts.max(axis=0) - pts.min(axis=0)) ** 2).sum())
    if beta_schedule is None:
        beta = 0.1 * prob.lambda0 * diam2
        beta_min = tol * prob.lambda0 * diam2
        beta_schedule = []
        while beta > beta_min:
            beta_schedule.append(beta)
            beta *= 0.25
        beta_schedule.append(beta_min)

    x = np.zeros(prob.nodes.size)
    load = max(1.0, float(np.linalg.norm(prob.f_r)))
    stages = []
    for beta in beta_schedule:
        x, rec = _newton_stage(prob, x, float(beta), 1e-8 * load)
        stages.append(rec)
    if stages[-1].gnorm > 1e-5 * load:
        raise NumericalError(
            f"minimize_dual: stationarity not reached (|grad| = "
            f"{stages[-1].gnorm:.3e} at final beta = {beta_schedule[-1]:.3e})")
    w = prob.expand(x)
    return DualSolution(w.mesh, w.values, w.support, stages=tuple(stages))


def recover_design(prob: DesignProblem, w: Field) -> DesignState:
    """Bathtub-project the energy density of w and shift the gauge by
    z0/lambda0 so the projection level becomes 0; the resulting primal
    value L(w, theta) then coincides with the (unsmoothed) dual objective.

    The state is flagged converged only when w is a `DualSolution` whose
    every beta stage converged."""
    d = energy_density(w, prob.lambda0, prob)
    theta, z0 = bathtub_projection(d, prob.areas, prob.A0)
    w1 = prob.expand(prob.reduce(w) + z0 / prob.lambda0)
    d1 = energy_density(w1, prob.lambda0, prob)
    theta1, _z1 = bathtub_projection(d1, prob.areas, prob.A0)
    value = _primal_value(prob, w1, theta1)
    dual = dual_objective(w1, prob, beta=0.0)
    frac = float(prob.areas[(theta1 > 1e-12) & (theta1 < 1 - 1e-12)].sum())
    converged = isinstance(w, DualSolution) and w.converged
    return DesignState(theta=theta1, w=w1, z0=z0, value=value,
                       history=[(value, dual)], converged=converged,
                       fractional_mass=frac)


def _primal_value(prob: DesignProblem, w: Field, theta: np.ndarray) -> float:
    d = energy_density(w, prob.lambda0, prob)
    return float((theta * prob.areas) @ d + prob.f.pair(w.values))


# ---------------------------------------------------------------------------
# epsilon-regularized saddle iteration (cross-check)

def evaluate_design(prob: DesignProblem, theta: np.ndarray,
                    eps: float = 1e-6):
    """Primal minimization for a fixed density: solve the conductivity
    problem with a = theta + eps*(1 - theta) and load (lambda0*theta in the
    bulk, -f on the interface), mean pinned to zero.

    Returns (w, L(w, theta)); the value is gauge-invariant when theta
    satisfies the area constraint.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != prob.elements.shape:
        raise InputError("evaluate_design: theta must be per design element")
    a = theta + eps * (1.0 - theta)
    local = (prob.gx[:, :, None] * prob.gx[:, None, :]
             + prob.gy[:, :, None] * prob.gy[:, None, :])
    K = _scatter_local(prob, local * (a * prob.areas)[:, None, None])
    # load: lambda0 * theta against hat functions (element-lumped), minus f
    nloc = prob.nodes.size
    b = np.zeros(nloc)
    np.add.at(b, prob.conn.ravel(),
              np.repeat(prob.lambda0 * theta * prob.areas / 3.0, 3))
    b -= prob.f_r
    m = np.zeros(nloc)
    np.add.at(m, prob.conn.ravel(), np.repeat(prob.areas / 3.0, 3))
    u, _ = solve_mean_zero(K, m, b)
    w = prob.expand(u)
    return w, _primal_value(prob, w, theta)


def saddle_solve(prob: DesignProblem, eps_schedule=None, iters: int = 60,
                 tol: float = 1e-3) -> DesignState:
    """Alternating saddle iteration: regularized primal solve in w, bathtub
    update of theta, with epsilon decreased geometrically 1e-1 -> 1e-6.

    History rows are (primal, dual) = (L(w_k, theta_{k-1}), max_theta
    L(w_k, theta)); weak duality primal <= dual holds at every iteration.
    Returns the best state, flagged non-converged if the relative gap never
    fell below tol.
    """
    if eps_schedule is None:
        n_ramp = max(2, min(iters, 40))
        eps_schedule = list(np.geomspace(1e-1, 1e-6, n_ramp))
    theta = np.full(prob.elements.size, prob.A0 / prob.total_area)
    history = []
    best = None
    for k in range(iters):
        eps = float(eps_schedule[min(k, len(eps_schedule) - 1)])
        w, primal = evaluate_design(prob, theta, eps=eps)
        d = energy_density(w, prob.lambda0, prob)
        theta, z0 = bathtub_projection(d, prob.areas, prob.A0)
        # gauge: shift w so the bathtub level sits at zero
        w = prob.expand(prob.reduce(w) + z0 / prob.lambda0)
        dual = dual_objective(w, prob, beta=0.0)
        history.append((primal, dual))
        gap = abs(primal - dual) / max(abs(dual), 1e-300)
        if best is None or gap < best[0]:
            frac = float(prob.areas[(theta > 1e-12)
                                    & (theta < 1 - 1e-12)].sum())
            best = (gap, DesignState(theta=theta.copy(), w=w, z0=z0,
                                     value=primal, history=history,
                                     converged=gap <= tol,
                                     fractional_mass=frac))
        if gap <= tol and k >= len(eps_schedule) - 1:
            break
    state = best[1]
    state.history = history
    return state


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

SCHEMA_VERSION = 1


def design_to_json(state: DesignState, prob: DesignProblem) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "lambda0": prob.lambda0,
        "A0": prob.A0,
        "theta": state.theta.tolist(),
        "w": state.w.values.tolist(),
        "z0": state.z0,
        "value": state.value,
        "converged": state.converged,
        "fractional_mass": state.fractional_mass,
        "history": [[float(a), float(b)] for a, b in state.history],
    }
    if prob.norm_const is not None:
        doc["lambda1"] = lambda1_of_design(state, prob)
    return json.dumps(doc)


def design_from_json(text: str) -> dict:
    doc = json.loads(text)
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError("design_from_json: unsupported schema_version "
                         f"{doc.get('schema_version')!r}")
    return doc


def design_to_csv(state: DesignState, prob: DesignProblem) -> str:
    """Per-element (centroid_x, centroid_y, theta, density) for plotting."""
    cent = prob.mesh.nodes[prob.mesh.triangles[prob.elements]].mean(axis=1)
    d = energy_density(state.w, prob.lambda0, prob)
    out = io.StringIO()
    out.write("centroid_x,centroid_y,theta,density\n")
    for (cx, cy), th, de in zip(cent, state.theta, d):
        out.write(f"{float(cx)!r},{float(cy)!r},{float(th)!r},{float(de)!r}\n")
    return out.getvalue()
