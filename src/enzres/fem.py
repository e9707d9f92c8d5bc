"""P1 finite-element assembly and boundary-value solves.

Conventions used throughout the package:

* One scatter kernel (``_scatter``, ``_scatter_vector``), shared with the
  design module, accumulates every matrix and vector from element data;
  region matrices have full node dimension (zero rows off the region).
  The design module, which fills matrices on one element set many times,
  computes their pattern once with ``_scatter_pattern``.
* The unweighted K, M and mass vector of a region come from one
  ``RegionOperator`` per mesh and region (cached on ``Mesh._cache``), which
  also holds the region's nodes and the region areas; the Dirichlet and
  Neumann solves, the weak flux, the collapsed-shell pencil and the
  eigensolver's pencil use it.
  ``factor(lam)`` makes one sparse LU of K_ii - lam*M_ii over the nodes off
  the core interface (one condition check), and ``neumann()`` one
  mean-zero factor of the region's stiffness block; any number of
  right-hand sides reuse either, each with its own residual check, and
  ``lu_solve`` solves a complex right-hand side of a real factor as its
  real and imaginary parts.  The series recursion and the eigensolver's
  Dirichlet-Neumann preconditioner are built from these two factors.
  Factors are never cached.
* Every factorization the solvers make orders its matrix by minimum
  degree on A + A^T, which suits the symmetric pattern all of their
  matrices share and about halves the fill of SuperLU's default column
  ordering (kept only by the general ``linear_solve``): ``factor_spd``
  (pivots on the diagonal) for the symmetric positive definite systems --
  the mean-zero solves and the dual Hessian -- and ``factor_symmetric``
  (partial pivoting) for the indefinite or complex ones -- K_ii - lam*M_ii, the
  collapsed-shell pencil of ``find_lambda0`` and the complex-symmetric
  pencil of ``eigensolver.ritz_values_near``.
* Normal fluxes across the core interface are extracted variationally
  (``weak_normal_flux``), never by pointwise differentiation; the resulting
  weights are oriented along the *outward normal of the core region* and
  satisfy the mass identity <flux, 1> = -int(lambda*u + source) as an
  algebraic identity of the discrete system.
* Every mean-zero Neumann problem goes through a ``MeanZeroFactor``: it
  refuses a disconnected region, makes one symmetric positive definite
  factorization with one node pinned, and solves the bordered (Lagrange
  multiplier) system exactly through its multiplier, so inconsistent data
  never diverges and the multiplier reports the consistency defect.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from enzres.errors import InputError, NumericalError
from enzres.mesh import CORE, INTERFACE, Mesh, _as_tagset

__all__ = ["Field", "BoundaryFunctional", "assemble_stiffness",
           "assemble_mass", "mass_vector", "RegionOperator",
           "DirichletFactor", "NeumannFactor", "region_operator",
           "weak_normal_flux", "linear_solve", "factor_spd",
           "factor_symmetric", "lu_solve", "MeanZeroFactor",
           "element_geometry"]


@dataclass
class Field:
    """Nodal scalar function supported on a set of mesh regions.

    `values` has one entry per mesh node (zero off support); `support` is
    the frozen set of region tags the field lives on.
    """

    mesh: Mesh
    values: np.ndarray
    support: frozenset

    def __post_init__(self):
        self.values = np.asarray(self.values)
        self.support = frozenset(int(t) for t in self.support)
        if self.values.shape != (self.mesh.n_nodes,):
            raise InputError("Field: values must have one entry per node")
        if not np.all(np.isfinite(self.values)):
            raise InputError("Field: values must be finite")


@dataclass
class BoundaryFunctional:
    """Linear functional <f, v> = sum(weights * v) on a tagged boundary.

    Weights vanish off the named boundary.  For fluxes produced by
    `weak_normal_flux` the orientation is the outward normal of the inner
    (core) region.
    """

    mesh: Mesh
    tag: int
    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        if self.weights.shape != (self.mesh.n_nodes,):
            raise InputError("BoundaryFunctional: one weight per node required")
        on = np.zeros(self.mesh.n_nodes, dtype=bool)
        on[self.mesh.boundary_nodes(self.tag)] = True
        if np.any(self.weights[~on] != 0):
            raise InputError("BoundaryFunctional: nonzero weight off the "
                             f"tag-{self.tag} boundary")

    def pair(self, values: np.ndarray):
        """Evaluate <f, v> for nodal values v."""
        return self.weights @ values

    def total(self):
        """<f, 1>."""
        return self.weights.sum()


# ---------------------------------------------------------------------------
# element geometry and assembly

def element_geometry(mesh: Mesh, tris: np.ndarray):
    """Per-element area and P1 gradient coefficients.

    Returns (area, gx, gy) where gx[e, i], gy[e, i] are the constant
    gradients of the three hat functions on element e.
    """
    p = mesh.nodes[mesh.triangles[tris]]
    x, y = p[..., 0], p[..., 1]
    area = mesh.areas()[tris]
    inv2a = 1.0 / (2.0 * area)
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1) * inv2a[:, None]
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1) * inv2a[:, None]
    return area, gx, gy


def _element_weights(mesh: Mesh, weight_by_region: dict):
    weights = {int(k): v for k, v in weight_by_region.items()}
    present = {int(t) for t in np.unique(mesh.regions)}
    included = set(weights)
    missing = included - present
    if missing:
        raise InputError(f"assembly: regions {sorted(missing)} not present "
                         "in mesh")
    tris = mesh.region_triangles(included)
    complex_w = any(isinstance(v, complex) or np.iscomplexobj(v)
                    for v in weights.values())
    dtype = complex if complex_w else float
    w = np.zeros(len(tris), dtype=dtype)
    for tag, val in weights.items():
        w[mesh.regions[tris] == tag] = val
    return tris, w


def _scatter(conn: np.ndarray, blocks: np.ndarray, n: int) -> sp.csr_matrix:
    """Accumulate per-element 3x3 blocks into an n x n CSR matrix; row e of
    `conn` holds element e's three node indices."""
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    return sp.coo_matrix((blocks.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _scatter_pattern(conn: np.ndarray, n: int):
    """The fixed pattern of `_scatter`'s output for connectivity `conn`:
    (indptr, indices, slot), where the int32 `slot` gives, for each of the
    9 entries per element in `blocks.ravel()` order, its place in the
    sorted CSR `data` array.  Filling a matrix on the pattern is then
    ``np.bincount(slot, weights=blocks.ravel(), minlength=indices.size)``.
    The pattern of element blocks is symmetric, so the same arrays are
    also its CSC layout."""
    rows = np.repeat(conn, 3, axis=1).ravel().astype(np.int64)
    cols = np.tile(conn, (1, 3)).ravel()
    keys, slot = np.unique(rows * n + cols, return_inverse=True)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, (keys % n).astype(np.int32), slot.astype(np.int32)


def _scatter_vector(conn: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Accumulate real per-element nodal values (broadcast to conn's shape)
    into a length-n vector."""
    return np.bincount(conn.ravel(), minlength=n,
                       weights=np.broadcast_to(values, conn.shape).ravel())


def _gradient_blocks(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Per-element P1 blocks grad(phi_i).grad(phi_j) = gx gx^T + gy gy^T."""
    return gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]


def assemble_stiffness(mesh: Mesh, weight_by_region: dict) -> sp.csr_matrix:
    """Weighted stiffness matrix int w(x) grad(u).grad(v) over the listed
    regions.  Symmetric with constants in the kernel."""
    tris, w = _element_weights(mesh, weight_by_region)
    area, gx, gy = element_geometry(mesh, tris)
    local = _gradient_blocks(gx, gy) * (w * area)[:, None, None]
    return _scatter(mesh.triangles[tris], local, mesh.n_nodes)


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0  # [[2,1,1],...]/12


def assemble_mass(mesh: Mesh, weight_by_region: dict) -> sp.csr_matrix:
    """Weighted consistent mass matrix int w(x) u v over the listed regions."""
    tris, w = _element_weights(mesh, weight_by_region)
    area = mesh.areas()[tris]
    local = _MASS_REF[None, :, :] * (w * area)[:, None, None]
    return _scatter(mesh.triangles[tris], local, mesh.n_nodes)


def mass_vector(mesh: Mesh, tags) -> np.ndarray:
    """Nodal integration weights m with m @ v = int_region v (P1 exact)."""
    tris = mesh.region_triangles(tags)
    return _scatter_vector(mesh.triangles[tris],
                           (mesh.areas()[tris] / 3.0)[:, None], mesh.n_nodes)


# ---------------------------------------------------------------------------
# linear algebra

def linear_solve(A, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve with a residual check (real or complex)."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise InputError("linear_solve: dimension mismatch")
    try:
        lu = spla.splu(A)
    except RuntimeError as exc:
        raise NumericalError(f"linear_solve: factorization failed ({exc})")
    x = lu.solve(np.asarray(b, dtype=A.dtype))
    nb = np.linalg.norm(b)
    res = np.linalg.norm(A @ x - b)
    if nb > 0 and not res <= 1e-10 * nb:
        raise NumericalError(
            f"linear_solve: relative residual {res / nb:.3e} exceeds 1e-10 "
            "(matrix singular to working precision?)")
    return x


def factor_spd(A):
    """Sparse LU of a symmetric positive definite matrix in SuperLU's
    symmetric mode: minimum-degree ordering of A + A^T and pivots taken on
    the diagonal, which keeps the fill of a Cholesky factor.  Raises
    RuntimeError on an exactly zero pivot."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


def factor_symmetric(A):
    """Sparse LU of a square matrix with a symmetric pattern, real or
    complex, definite or not: minimum-degree ordering of A + A^T with
    SuperLU's default partial pivoting.  Raises RuntimeError on an exactly
    singular matrix."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")


def lu_solve(lu, b: np.ndarray, dtype=float) -> np.ndarray:
    """Solve with `lu`, the factor of a matrix of type `dtype`, for a real or
    complex right-hand side b (one vector).  SuperLU solves a real factor
    for real data only, so a complex b with a real factor is solved as its
    real and imaginary parts, two columns of one call."""
    if np.iscomplexobj(b) and not np.issubdtype(dtype, np.complexfloating):
        sol = lu.solve(np.column_stack([b.real, b.imag]))
        return sol[:, 0] + 1j * sol[:, 1]
    return lu.solve(b.astype(dtype, copy=False))


class MeanZeroFactor:
    """One factorization for the bordered mean-zero system

        [K    m] [u ]   [b]
        [m^T  0] [mu] = [0]

    with a real symmetric positive semidefinite K whose kernel is the
    constants (the stiffness matrix of a connected region) and positive
    weights m.  A K whose graph falls apart into several components has a
    larger kernel and is refused here, before anything is factored.  One
    node, the one with the largest diagonal entry, is pinned, and K without
    it is factored once by `factor_spd`; any number of right-hand sides
    then reuse the factor through `solve`.
    """

    def __init__(self, K, m: np.ndarray):
        K = sp.csc_matrix(K)
        m = np.asarray(m, dtype=float)
        n = K.shape[0]
        if K.shape != (n, n) or m.shape != (n,):
            raise InputError("MeanZeroFactor: dimension mismatch")
        if np.iscomplexobj(K):
            raise InputError("MeanZeroFactor: K must be real")
        n_parts, _ = connected_components(K, directed=False)
        if n_parts > 1:
            raise NumericalError(
                f"MeanZeroFactor: the region falls apart into {n_parts} "
                "disconnected components, so the mean-zero problem has no "
                "unique solution")
        self.K, self.m = K, m
        pin = int(np.argmax(K.diagonal()))
        self.keep = np.delete(np.arange(n), pin)
        try:
            self.lu = factor_spd(K[self.keep][:, self.keep])
        except RuntimeError as exc:
            raise NumericalError(
                f"MeanZeroFactor: factorization failed ({exc})")

    def solve(self, b: np.ndarray):
        """Solve for one real or complex right-hand side b.  Summing the
        first block row gives mu = sum(b) / sum(m); K u = b - mu*m is then
        consistent and is solved with the pinned node's value 0, and u is
        shifted by a constant so that m @ u = 0.  The solution is checked
        against the bordered equations (relative residual 1e-10).

        Returns (u, mu).
        """
        K, m, keep = self.K, self.m, self.keep
        b = np.asarray(b)
        if b.shape != m.shape:
            raise InputError("MeanZeroFactor.solve: dimension mismatch")
        mu = b.sum() / m.sum()
        r = b - mu * m
        u = np.zeros(m.size, dtype=r.dtype)
        u[keep] = lu_solve(self.lu, r[keep])
        u -= (m @ u) / m.sum()
        res = np.hypot(np.linalg.norm(K @ u + mu * m - b), abs(m @ u))
        nb = np.linalg.norm(b)
        if nb > 0 and not res <= 1e-10 * nb:
            raise NumericalError(
                f"MeanZeroFactor.solve: relative residual {res / nb:.3e} "
                "exceeds 1e-10 (matrix singular to working precision?)")
        return u, mu


#: inverse power iterations of `_condition_estimate`
CONDITION_ITERS = 6


def _condition_estimate(A: sp.csc_matrix, lu) -> float:
    """Cheap estimate of norm(A) * norm(inv(A)) via inverse power iteration
    on an already computed factorization."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[0])
    if np.iscomplexobj(A):
        v = v.astype(complex)
    inv_norm = 0.0
    v /= np.linalg.norm(v)
    for _ in range(CONDITION_ITERS):
        v = lu.solve(v)
        inv_norm = np.linalg.norm(v)
        v /= inv_norm
    a_norm = abs(A).sum(axis=1).max()
    return float(a_norm * inv_norm)


# ---------------------------------------------------------------------------
# boundary-value solves

class RegionOperator:
    """Unit-weight P1 operators of a region (one tag or a set of tags).

    Holds the region's stiffness and mass matrices at full node dimension,
    its mass vector `m`, its sorted `nodes`, the area of every mesh region
    and, for Dirichlet data on the core interface, the interface nodes
    `boundary`, the region's other nodes `interior` and (built on first
    use) the interior blocks `K_ii` and `M_ii` that `factor` shifts; the
    collapsed-shell pencil of `find_lambda0` is built from `K`, `M`,
    `interior` and `boundary`.  None of this depends on a shift, so one
    operator per mesh and region is kept on `Mesh._cache` (see
    `region_operator`); factors are never cached.  The operator keeps
    no reference to the mesh: a mesh -> cache -> operator -> mesh cycle
    would keep every dropped mesh alive until the cyclic garbage collector
    runs.
    """

    def __init__(self, mesh: Mesh, region):
        tags = _as_tagset(region)
        self.n_nodes = mesh.n_nodes
        self.tags = frozenset(tags)
        self.K = assemble_stiffness(mesh, dict.fromkeys(tags, 1.0))
        self.M = assemble_mass(mesh, dict.fromkeys(tags, 1.0))
        self.m = mass_vector(mesh, tags)
        self.nodes = mesh.region_nodes(tags)
        self.boundary = mesh.boundary_nodes(INTERFACE)
        self.interior = np.setdiff1d(self.nodes, self.boundary,
                                     assume_unique=True)
        self.area_by_region = mesh.area_by_region()

    @cached_property
    def K_ii(self):
        return self.K[self.interior][:, self.interior].tocsc()

    @cached_property
    def M_ii(self):
        return self.M[self.interior][:, self.interior].tocsc()

    def factor(self, lam) -> "DirichletFactor":
        """Factor K_ii - lam*M_ii (real or complex lam)."""
        return DirichletFactor(self, lam)

    def neumann(self) -> "NeumannFactor":
        """Factor the region's mean-zero Neumann problem."""
        return NeumannFactor(self)


def region_operator(mesh: Mesh, region) -> RegionOperator:
    """The mesh's `RegionOperator` for a region (a tag or a set of tags),
    built on first use and kept on `Mesh._cache`."""
    key = ("region", frozenset(_as_tagset(region)))
    if key not in mesh._cache:
        mesh._cache[key] = RegionOperator(mesh, region)
    return mesh._cache[key]


class DirichletFactor:
    """Sparse LU of K_ii - lam*M_ii for one shift lam.

    The matrix is indefinite above the lowest Dirichlet eigenvalue, so it is
    factored by `factor_symmetric`.  The condition estimate is checked
    once, here; every `solve` checks its own residual.
    """

    def __init__(self, op: RegionOperator, lam):
        self.op, self.lam = op, lam
        dtype = complex if np.iscomplexobj(np.asarray(lam)) else float
        self.A_ii = (op.K_ii - lam * op.M_ii).astype(dtype).tocsc()
        try:
            self.lu = factor_symmetric(self.A_ii)
        except RuntimeError as exc:
            raise NumericalError(
                f"RegionOperator.factor: singular system at lambda = "
                f"{lam} (lambda is a Dirichlet eigenvalue of the region; "
                f"{exc})")
        cond = _condition_estimate(self.A_ii, self.lu)
        if cond > 1e10:
            raise NumericalError(
                f"RegionOperator.factor: condition estimate {cond:.2e} "
                f"too large; lambda = {lam} is near a Dirichlet eigenvalue "
                "of the region")

    def solve(self, source=None, g=1.0) -> np.ndarray:
        """Nodal values of the solution of (-Delta - lam) u = source in the
        region, u = g on the core interface (zero off the region).

        `source` may be None (zero), a scalar, a Field or a per-node array;
        `g` a scalar or an array over all nodes (read on boundary nodes
        only).  Complex data with a real shift is solved as its real and
        imaginary parts.
        """
        op = self.op
        dtype = complex if (np.iscomplexobj(self.A_ii)
                            or np.iscomplexobj(np.asarray(g))) else float
        svals = _source_values(op.n_nodes, source, dtype)
        if np.iscomplexobj(svals):
            dtype = complex

        gvals = np.zeros(op.n_nodes, dtype=dtype)
        gvals[op.boundary] = np.asarray(g)[op.boundary] if np.ndim(g) else g
        rhs = op.M @ svals - (op.K @ gvals - self.lam * (op.M @ gvals))
        b_i = rhs[op.interior]
        u_i = lu_solve(self.lu, b_i, self.A_ii.dtype)
        res = np.linalg.norm(self.A_ii @ u_i - b_i)
        scale = np.linalg.norm(b_i)
        if scale > 0 and not res <= 1e-10 * scale:
            raise NumericalError(
                f"DirichletFactor.solve: residual {res / scale:.3e} > "
                "1e-10")

        u = gvals
        u[op.interior] = u_i
        return u


def _source_values(n_nodes: int, source, dtype):
    if source is None:
        return np.zeros(n_nodes, dtype=dtype)
    if isinstance(source, Field):
        return source.values
    if np.ndim(source) == 0:
        return np.full(n_nodes, source)
    vals = np.asarray(source)
    if vals.shape != (n_nodes,):
        raise InputError("source: expected scalar, Field, or per-node array")
    return vals


def weak_normal_flux(u: Field, lam, source=None) -> BoundaryFunctional:
    """Variational normal-derivative functional of u on the core interface.

    For u solving (-Delta - lam) u = source on the core, the weights are
    the interface rows of K u - M (lam u + source); the pairing <flux, v>
    equals int(grad u . grad v - (lam u + source) v) for any hat extension
    v, and <flux, 1> = -int(lam u + source) identically.  Orientation:
    outward normal of the core region.
    """
    if CORE not in u.support:
        raise InputError("weak_normal_flux: field must be supported on the "
                         "core (region 0)")
    op = region_operator(u.mesh, CORE)
    svals = _source_values(u.mesh.n_nodes, source, u.values.dtype)
    residual = op.K @ u.values - op.M @ (lam * u.values + svals)
    weights = np.zeros_like(residual)
    weights[op.boundary] = residual[op.boundary]
    return BoundaryFunctional(mesh=u.mesh, tag=INTERFACE, weights=weights)


class NeumannFactor:
    """One `MeanZeroFactor` of the region's stiffness block on its nodes,
    for -Delta u = source in the region with prescribed interface flux and
    natural (zero) Neumann data elsewhere, normalized to int u = 0."""

    def __init__(self, op: RegionOperator):
        if op.nodes.size == 0:
            raise InputError("RegionOperator.neumann: region is empty")
        self.op = op
        self.mean_zero = MeanZeroFactor(op.K[op.nodes][:, op.nodes],
                                        op.m[op.nodes])

    def solve(self, source, boundary_flux: BoundaryFunctional):
        """Nodal values (zero off the region) and consistency defect.

        `source` is as for `DirichletFactor.solve`.  `boundary_flux` is
        taken in the orientation `weak_normal_flux` produces (outward normal
        of the core), so it enters the right-hand side with a minus sign.
        The mean constraint's multiplier is the consistency defect
        int(source) - <boundary_flux, 1> divided by the region area;
        inconsistent data is solved against the constant-orthogonal part
        and the defect returned to the caller.

        Returns (values, consistency_defect).
        """
        op = self.op
        dtype = complex if (np.iscomplexobj(boundary_flux.weights)
                            or np.iscomplexobj(np.asarray(source))) else float
        svals = _source_values(op.n_nodes, source, dtype)
        b = op.M @ svals - boundary_flux.weights
        defect = op.m @ svals - boundary_flux.total()
        u = np.zeros(op.n_nodes, dtype=dtype)
        u[op.nodes], _ = self.mean_zero.solve(b[op.nodes])
        return u, defect
