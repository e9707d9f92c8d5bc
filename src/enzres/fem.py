"""P1 finite-element assembly and boundary-value solves.

Conventions used throughout the package:

* Stiffness and mass matrices are assembled over a chosen set of regions at
  full node dimension; unsolved nodes simply carry zero rows/columns and the
  solvers restrict to the nodes touching the included elements.
* Normal fluxes across the core interface are extracted variationally
  (``weak_normal_flux``), never by pointwise differentiation; the resulting
  weights are oriented along the *outward normal of the core region* and
  satisfy the mass identity <flux, 1> = -int(lambda*u + source) as an
  algebraic identity of the discrete system.
* Every mean-zero Neumann problem goes through ``solve_mean_zero``: the
  bordered (Lagrange multiplier) system is solved exactly through its
  multiplier and one symmetric positive definite factorization, so
  inconsistent data never diverges and the multiplier reports the
  consistency defect.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from enzres.errors import InputError, NumericalError
from enzres.mesh import Mesh, _as_tagset

__all__ = ["Field", "BoundaryFunctional", "assemble_stiffness",
           "assemble_mass", "mass_vector", "solve_dirichlet_helmholtz",
           "weak_normal_flux", "solve_neumann_mean_zero", "dirichlet_modes",
           "linear_solve", "factor_spd", "solve_mean_zero",
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


def _scatter(mesh: Mesh, tris: np.ndarray, local: np.ndarray) -> sp.csr_matrix:
    """Accumulate per-element 3x3 blocks into a full n x n CSR matrix."""
    n = mesh.n_nodes
    conn = mesh.triangles[tris]
    rows = np.repeat(conn, 3, axis=1).ravel()
    cols = np.tile(conn, (1, 3)).ravel()
    mat = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n))
    return mat.tocsr()


def assemble_stiffness(mesh: Mesh, weight_by_region: dict) -> sp.csr_matrix:
    """Weighted stiffness matrix int w(x) grad(u).grad(v) over the listed
    regions.  Symmetric with constants in the kernel."""
    tris, w = _element_weights(mesh, weight_by_region)
    area, gx, gy = element_geometry(mesh, tris)
    local = (gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :])
    local = local * (w * area)[:, None, None]
    return _scatter(mesh, tris, local)


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0  # [[2,1,1],...]/12


def assemble_mass(mesh: Mesh, weight_by_region: dict) -> sp.csr_matrix:
    """Weighted consistent mass matrix int w(x) u v over the listed regions."""
    tris, w = _element_weights(mesh, weight_by_region)
    area = mesh.areas()[tris]
    local = _MASS_REF[None, :, :] * (w * area)[:, None, None]
    return _scatter(mesh, tris, local)


def mass_vector(mesh: Mesh, tags) -> np.ndarray:
    """Nodal integration weights m with m @ v = int_region v (P1 exact)."""
    tris = mesh.region_triangles(_as_tagset(tags))
    area = mesh.areas()[tris]
    m = np.zeros(mesh.n_nodes)
    np.add.at(m, mesh.triangles[tris].ravel(),
              np.repeat(area / 3.0, 3))
    return m


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


def solve_mean_zero(K, m: np.ndarray, b: np.ndarray):
    """Solve the bordered mean-zero system

        [K    m] [u ]   [b]
        [m^T  0] [mu] = [0]

    for a real symmetric positive semidefinite K whose kernel is the
    constants (the stiffness matrix of a connected region) and positive
    weights m.  Summing the first block row gives mu = sum(b) / sum(m);
    K u = b - mu*m is then consistent and is solved as an SPD system with
    one node pinned, and u is shifted by a constant so that m @ u = 0.  The
    solution is checked against the bordered equations (relative residual
    1e-10).  `b` may be real or complex.

    Returns (u, mu).
    """
    K = sp.csc_matrix(K)
    m = np.asarray(m, dtype=float)
    b = np.asarray(b)
    n = K.shape[0]
    if K.shape != (n, n) or m.shape != (n,) or b.shape != (n,):
        raise InputError("solve_mean_zero: dimension mismatch")
    if np.iscomplexobj(K):
        raise InputError("solve_mean_zero: K must be real")
    mu = b.sum() / m.sum()
    r = b - mu * m
    pin = int(np.argmax(K.diagonal()))
    keep = np.delete(np.arange(n), pin)
    try:
        lu = factor_spd(K[keep][:, keep])
    except RuntimeError as exc:
        raise NumericalError(f"solve_mean_zero: factorization failed ({exc})")
    u = np.zeros(n, dtype=r.dtype)
    if np.iscomplexobj(r):
        sol = lu.solve(np.column_stack([r.real[keep], r.imag[keep]]))
        u[keep] = sol[:, 0] + 1j * sol[:, 1]
    else:
        u[keep] = lu.solve(r[keep])
    u -= (m @ u) / m.sum()
    res = np.hypot(np.linalg.norm(K @ u + mu * m - b), abs(m @ u))
    nb = np.linalg.norm(b)
    if nb > 0 and not res <= 1e-10 * nb:
        raise NumericalError(
            f"solve_mean_zero: relative residual {res / nb:.3e} exceeds 1e-10 "
            "(region disconnected or matrix singular to working precision?)")
    return u, mu


def _condition_estimate(A: sp.csc_matrix, lu, iters: int = 6) -> float:
    """Cheap estimate of norm(A) * norm(inv(A)) via inverse power iteration
    on an already computed factorization."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[0])
    if np.iscomplexobj(A):
        v = v.astype(complex)
    inv_norm = 0.0
    v /= np.linalg.norm(v)
    for _ in range(iters):
        v = lu.solve(v)
        inv_norm = np.linalg.norm(v)
        v /= inv_norm
    a_norm = abs(A).sum(axis=1).max()
    return float(a_norm * inv_norm)


# ---------------------------------------------------------------------------
# boundary-value solves

def solve_dirichlet_helmholtz(mesh: Mesh, region, lam, source=None,
                              g=1.0, boundary_tag: int = 0,
                              operators=None) -> Field:
    """Solve (-Delta - lam) u = source in the region, u = g on its tagged
    boundary.

    `source` may be None (zero), a scalar, or a Field; `g` a scalar or an
    array over all nodes (read on boundary nodes only).  Errors out if lam
    is numerically a Dirichlet eigenvalue of the region.  `operators` may
    pass a pre-assembled (K, M) pair for the region to skip re-assembly in
    root-finding loops.
    """
    tags = _as_tagset(region)
    if operators is None:
        K = assemble_stiffness(mesh, {t: 1.0 for t in tags})
        M = assemble_mass(mesh, {t: 1.0 for t in tags})
    else:
        K, M = operators
    nodes = mesh.region_nodes(tags)
    bnodes = mesh.boundary_nodes(boundary_tag)
    interior = np.setdiff1d(nodes, bnodes, assume_unique=True)

    dtype = complex if (np.iscomplexobj(np.asarray(lam))
                        or np.iscomplexobj(np.asarray(g))) else float
    svals = _source_values(mesh, source, dtype)
    if np.iscomplexobj(svals):
        dtype = complex

    gvals = np.zeros(mesh.n_nodes, dtype=dtype)
    gvals[bnodes] = np.asarray(g)[bnodes] if np.ndim(g) else g

    A = (K - lam * M).astype(dtype).tocsr()
    rhs = M @ svals - A @ gvals
    A_ii = A[interior][:, interior].tocsc()
    try:
        lu = spla.splu(A_ii)
    except RuntimeError as exc:
        raise NumericalError(
            f"solve_dirichlet_helmholtz: singular system at lambda = {lam} "
            f"(lambda is a Dirichlet eigenvalue of the region; {exc})")
    cond = _condition_estimate(A_ii, lu)
    if cond > 1e10:
        raise NumericalError(
            f"solve_dirichlet_helmholtz: condition estimate {cond:.2e} too "
            f"large; lambda = {lam} is near a Dirichlet eigenvalue of the "
            "region")
    u_i = lu.solve(rhs[interior])
    b_i = rhs[interior]
    res = np.linalg.norm(A_ii @ u_i - b_i)
    scale = np.linalg.norm(b_i)
    if scale > 0 and res > 1e-10 * scale:
        raise NumericalError(
            f"solve_dirichlet_helmholtz: residual {res / scale:.3e} > 1e-10")

    u = gvals.copy()
    u[interior] = u_i
    return Field(mesh=mesh, values=u, support=frozenset(tags))


def _source_values(mesh: Mesh, source, dtype):
    if source is None:
        return np.zeros(mesh.n_nodes, dtype=dtype)
    if isinstance(source, Field):
        return source.values
    if np.ndim(source) == 0:
        return np.full(mesh.n_nodes, source)
    vals = np.asarray(source)
    if vals.shape != (mesh.n_nodes,):
        raise InputError("source: expected scalar, Field, or per-node array")
    return vals


def weak_normal_flux(u: Field, lam, source=None,
                     boundary_tag: int = 0) -> BoundaryFunctional:
    """Variational normal-derivative functional of u on the core interface.

    For u solving (-Delta - lam) u = source on the core, the weights are
    the interface rows of K u - M (lam u + source); the pairing <flux, v>
    equals int(grad u . grad v - (lam u + source) v) for any hat extension
    v, and <flux, 1> = -int(lam u + source) identically.  Orientation:
    outward normal of the core region.
    """
    if 0 not in u.support:
        raise InputError("weak_normal_flux: field must be supported on the "
                         "core (region 0)")
    tags = {0}
    K = assemble_stiffness(u.mesh, {t: 1.0 for t in tags})
    M = assemble_mass(u.mesh, {t: 1.0 for t in tags})
    svals = _source_values(u.mesh, source, u.values.dtype)
    residual = K @ u.values - M @ (lam * u.values + svals)
    weights = np.zeros_like(residual)
    bnodes = u.mesh.boundary_nodes(boundary_tag)
    weights[bnodes] = residual[bnodes]
    return BoundaryFunctional(mesh=u.mesh, tag=boundary_tag, weights=weights)


def solve_neumann_mean_zero(mesh: Mesh, region, source,
                            boundary_flux: BoundaryFunctional):
    """Solve -Delta u = source in the region with prescribed interface flux
    and natural (zero) Neumann data elsewhere, normalized to int u = 0.

    `boundary_flux` is taken in the orientation `weak_normal_flux` produces
    (outward normal of the core), so it enters the right-hand side with a
    minus sign.  The mean constraint is imposed by `solve_mean_zero`, whose
    multiplier is the consistency defect int(source) - <boundary_flux, 1>
    divided by the region area; inconsistent data is solved against the
    constant-orthogonal part and the defect returned to the caller.

    Returns (Field, consistency_defect).
    """
    tags = _as_tagset(region)
    nodes = mesh.region_nodes(tags)
    if nodes.size == 0:
        raise InputError("solve_neumann_mean_zero: region is empty")
    K = assemble_stiffness(mesh, {t: 1.0 for t in tags})
    M = assemble_mass(mesh, {t: 1.0 for t in tags})
    m = mass_vector(mesh, tags)

    dtype = complex if (np.iscomplexobj(boundary_flux.weights)
                        or np.iscomplexobj(np.asarray(source))) else float
    svals = _source_values(mesh, source, dtype)
    b = M @ svals - boundary_flux.weights
    defect = m @ svals - boundary_flux.total()

    u = np.zeros(mesh.n_nodes, dtype=dtype)
    u[nodes], _ = solve_mean_zero(K[nodes][:, nodes], m[nodes], b[nodes])
    return Field(mesh=mesh, values=u, support=frozenset(tags)), defect


def dirichlet_modes(mesh: Mesh, region, count: int,
                    boundary_tag: int = 0):
    """First `count` Dirichlet eigenpairs of -Delta on the region.

    Returns a list of (mu_n, Field, mean) with eigenvalues nondecreasing,
    eigenvectors mass-orthonormal, and mean = int chi_n (used to classify
    poles of the consistency function).
    """
    if count < 1:
        raise InputError("dirichlet_modes: count must be >= 1")
    tags = _as_tagset(region)
    nodes = mesh.region_nodes(tags)
    bnodes = mesh.boundary_nodes(boundary_tag)
    interior = np.setdiff1d(nodes, bnodes, assume_unique=True)
    if count >= interior.size:
        raise InputError(f"dirichlet_modes: count = {count} exceeds interior "
                         f"node count {interior.size}")
    K = assemble_stiffness(mesh, {t: 1.0 for t in tags})
    M = assemble_mass(mesh, {t: 1.0 for t in tags})
    K_ii = K[interior][:, interior].tocsc()
    M_ii = M[interior][:, interior].tocsc()
    vals, vecs = spla.eigsh(K_ii, k=count, M=M_ii, sigma=0.0, which="LM")
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    m = mass_vector(mesh, tags)
    out = []
    for j in range(count):
        chi = np.zeros(mesh.n_nodes)
        v = vecs[:, j]
        # deterministic sign: largest-magnitude entry positive
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        chi[interior] = v
        out.append((float(vals[j]),
                    Field(mesh=mesh, values=chi, support=frozenset(tags)),
                    float(m @ chi)))
    return out
