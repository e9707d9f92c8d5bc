"""P1 finite-element assembly and boundary-value solves.

Conventions used throughout the package:

* Nodal data are plain NumPy arrays with one value per mesh node: a field
  (psi_d, a corrector, the design's adjoint w) is zero off its region, and
  an interface functional f (the weak flux, the design load) is a weight
  array zero off the core interface, paired with nodal values as f @ v.
  The caller knows the mesh and the region of each; the checks on data
  read from outside (lengths, finiteness, support) are made where it is
  read.
* One matrix kernel, ``ScatterPattern``, sums every matrix the solvers
  assemble from per-element 3x3 blocks: its pattern is computed once per
  element set, by one ``np.unique`` over the key row*n + col of each of
  the 9 entries of every element, and each ``fill`` adds the blocks up on
  it in element order.  A region's K and M share one pattern, at full
  node dimension (empty rows off the region); the design module fills its
  stiffness and Hessians on one pattern of its own nodes.  A pattern keeps
  no map of its diagonal: the design's shifted Hessian H + shift*I is a
  plain sparse sum.  Nodal vectors are summed by ``_scatter_vector``.
* The unit-weight K, M and mass vector of a region come from one
  ``RegionOperator`` per mesh and region tag (cached on ``Mesh._cache``), which
  also holds the region's nodes, its interface nodes and its other nodes:
  only the data its consumers share.  The Dirichlet and mean-zero solves,
  the weak flux, the collapsed-shell pencil and the eigensolver's pencil
  use it, and each forms the blocks that it alone reads.  Two factors
  solve with it, each through its own ``solve``: ``DirichletFactor(op,
  lam)``, one sparse LU of K_ii - lam*M_ii over the nodes off the core
  interface at a real, finite shift (one condition check), which also
  keeps the interface columns K_ib and M_ib, so that its ``solve(b, g)``
  moves the interface data g to the right-hand side through them, never
  through all-node products; and ``MeanZeroFactor(op.K, op.m)``, which
  factors the stiffness block on the support of m, the region's nodes.
  Both take and return nodal arrays with one value per mesh node, zero off
  the region.  Any number of right-hand sides, real or complex, reuse
  either; a complex one is solved, and its residual formed, as its real
  and imaginary parts.  The series recursion and the eigensolver's
  Dirichlet-Neumann preconditioner are built from these two factors.  The
  operator keeps no factor: each call makes a new one, which lives as long
  as its caller holds it.  The series hands its two to the psi_d it
  returns, which cannot be made without them, so the finite-delta check
  factors nothing.
* The back-solves of both factors' ``solve`` and of ``linear_solve`` pass
  one gate, ``_accept_solve``: a finite relative residual of at most
  ``SOLVE_TOL``, else NumericalError naming the solve, NaN data included.
  The solves made on a bare LU are checked by what they feed instead:
  ``_condition_estimate`` returns inf on a non-finite norm; the Lanczos
  solves of ``perturbation.find_lambda0`` by its Ritz residual and
  Kato-Temple certificate; and the design's Hessian solves by
  ``_newton_step`` and ``_chord_step``, which require a finite descent
  step, and ``_predict``, which keeps its point only if J falls.
* Every factorization the solvers make orders its matrix by minimum
  degree on A + A^T, which suits the symmetric pattern all of their
  matrices share and about halves the fill of SuperLU's default column
  ordering: ``factor_spd`` (pivots on the diagonal) for the symmetric
  positive definite systems -- the mean-zero solves and the dual Hessian
  -- and ``factor_symmetric`` (partial pivoting) for the others --
  K_ii - lam*M_ii, the collapsed-shell pencil of ``find_lambda0`` and the
  general ``linear_solve``.
* Normal fluxes across the core interface are extracted variationally
  (``weak_normal_flux``, from the interface rows of the core operator's K
  and M at the shift of the core ``DirichletFactor`` that solved the
  field), never by pointwise differentiation; the resulting weights are
  oriented along the *outward normal of the core region* and satisfy the
  mass identity f.sum() = -int(lambda*u + source) as an algebraic
  identity of the discrete system.
* Every mean-zero Neumann problem goes through a ``MeanZeroFactor``: it
  gathers the block on the support of its weights (every node of the
  design's compact system, whose weights are positive throughout),
  refuses a disconnected region, makes one symmetric positive definite
  factorization with one node pinned, and solves the bordered (Lagrange
  multiplier) system exactly through its multiplier, so inconsistent data
  never diverges and the multiplier reports the consistency defect.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from enzres.errors import InputError, NumericalError
from enzres.mesh import INTERFACE, Mesh

__all__ = ["ScatterPattern", "RegionOperator", "DirichletFactor",
           "region_operator", "weak_normal_flux", "linear_solve", "factor_spd",
           "factor_symmetric", "MeanZeroFactor", "element_geometry"]


# ---------------------------------------------------------------------------
# element geometry and assembly

def element_geometry(mesh: Mesh, tris: np.ndarray):
    """Per-element area and P1 gradient coefficients.

    Returns (area, gx, gy) where gx[e, i], gy[e, i] are the constant
    gradients of the three hat functions on element e.
    """
    conn = mesh.triangles[tris]
    x, y = mesh.nodes[:, 0][conn], mesh.nodes[:, 1][conn]
    area = mesh.areas()[tris]
    inv2a = 1.0 / (2.0 * area)
    gx = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]],
                  axis=1) * inv2a[:, None]
    gy = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]],
                  axis=1) * inv2a[:, None]
    return area, gx, gy


class ScatterPattern:
    """Sorted CSR pattern (`indptr`, `indices`) of the n x n sum of 3x3
    element blocks, row e of `conn` holding element e's node indices; the
    int32 `slot` maps the 9 entries per element, in `blocks.ravel()` order,
    to their place in `data`.  The pattern is symmetric, so a symmetric
    fill's transpose is the same matrix in CSC layout, sharing its arrays.
    """

    def __init__(self, conn: np.ndarray, n: int):
        # key row*n + col of entry (i, j) of each element's block
        conn = conn.astype(np.int64, copy=False)
        keys = conn[:, :, None] * n + conn[:, None, :]
        keys, slot = np.unique(keys.ravel(), return_inverse=True)
        rows, cols = np.divmod(keys, n)
        self.n = n
        self.indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(rows, minlength=n), out=self.indptr[1:])
        self.indices = cols.astype(np.int32)
        self.slot = slot.astype(np.int32)

    def fill(self, blocks: np.ndarray) -> sp.csr_matrix:
        """CSR sum of the per-element blocks, added up in element order;
        every fill shares the pattern's index arrays."""
        data = np.bincount(self.slot, weights=blocks.ravel(),
                           minlength=self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n, self.n))


def _scatter_vector(conn: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Accumulate real per-element nodal values (broadcast to conn's shape)
    into a length-n vector."""
    return np.bincount(conn.ravel(), minlength=n,
                       weights=np.broadcast_to(values, conn.shape).ravel())


def _gradient_blocks(gx: np.ndarray, gy: np.ndarray) -> np.ndarray:
    """Per-element P1 blocks grad(phi_i).grad(phi_j) = gx gx^T + gy gy^T."""
    return gx[:, :, None] * gx[:, None, :] + gy[:, :, None] * gy[:, None, :]


_MASS_REF = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0  # [[2,1,1],...]/12


# ---------------------------------------------------------------------------
# linear algebra

#: largest relative residual ||A x - b|| / ||b|| of an accepted back-solve
SOLVE_TOL = 1e-10


def _accept_solve(caller: str, res: float, scale: float) -> None:
    """NumericalError naming `caller` unless the residual norm `res` and the
    data norm `scale` are finite with res <= `SOLVE_TOL` * scale."""
    if not (math.isfinite(scale) and res <= SOLVE_TOL * scale):
        ratio = float(res) / float(scale) if scale else math.inf
        raise NumericalError(
            f"{caller}: relative residual {ratio:.3e} exceeds {SOLVE_TOL:g} "
            "(matrix singular to working precision, or data not finite?)")


def linear_solve(A, b: np.ndarray) -> np.ndarray:
    """Direct sparse solve (real or complex), accepted by `_accept_solve`."""
    A = sp.csc_matrix(A)
    if A.shape[0] != A.shape[1] or A.shape[0] != len(b):
        raise InputError("linear_solve: dimension mismatch")
    try:
        lu = factor_symmetric(A)
    except RuntimeError as exc:
        raise NumericalError(f"linear_solve: factorization failed ({exc})")
    x = lu.solve(np.asarray(b, dtype=A.dtype))
    _accept_solve("linear_solve", np.linalg.norm(A @ x - b),
                  np.linalg.norm(b))
    return x


def factor_spd(A):
    """Sparse LU of a symmetric positive definite matrix in SuperLU's
    symmetric mode: minimum-degree ordering of A + A^T and pivots taken on
    the diagonal, which keeps the fill of a Cholesky factor.  Raises
    RuntimeError on an exactly zero pivot."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0, options={"SymmetricMode": True})


def factor_symmetric(A):
    """Sparse LU of a square matrix, real or complex, definite or not:
    minimum-degree ordering of A + A^T, which suits a symmetric pattern,
    with SuperLU's default partial pivoting.  Raises RuntimeError on an
    exactly singular matrix."""
    return spla.splu(sp.csc_matrix(A), permc_spec="MMD_AT_PLUS_A")


def _residual_norm(A, x: np.ndarray, b: np.ndarray) -> float:
    """norm(A @ x - b) for a real sparse A; complex x or b is taken as its
    real and imaginary parts, so A is never copied to complex."""
    if np.iscomplexobj(x) or np.iscomplexobj(b):
        return math.hypot(_residual_norm(A, x.real, b.real),
                          _residual_norm(A, x.imag, b.imag))
    return float(np.linalg.norm(A @ x - b))


def _solve_real(lu, b: np.ndarray) -> np.ndarray:
    """Solve with `lu`, the factor of a real matrix, for one real or complex
    right-hand side b.  SuperLU solves a real factor for real data only, so
    a complex b is solved as its real and imaginary parts, two columns of
    one call."""
    if np.iscomplexobj(b):
        sol = lu.solve(np.column_stack([b.real, b.imag]))
        return sol[:, 0] + 1j * sol[:, 1]
    return lu.solve(b)


class MeanZeroFactor:
    """One factorization for the bordered mean-zero system

        [K    m] [u ]   [b]
        [m^T  0] [mu] = [0]

    over the support of the nonnegative weights m (a region's nodes), with
    a real symmetric positive semidefinite K whose block on that support
    has the constants as its kernel (the stiffness matrix of a connected
    region).  K and m are given at one dimension, say the mesh's, with K
    empty off the support; the support block is gathered here, and `solve`
    takes a load and returns u at that same dimension, zero off the
    support.  A block whose graph falls apart into several components has
    a larger kernel and is refused here, before anything is factored.  One
    node, the one with the largest diagonal entry, is pinned, and the block
    without it is factored once by `factor_spd`; any number of right-hand
    sides then reuse the factor through `solve`, accepted by
    `_accept_solve`.
    """

    def __init__(self, K, m: np.ndarray):
        m = np.asarray(m, dtype=float)
        if m.ndim != 1 or K.shape != (m.size, m.size):
            raise InputError("MeanZeroFactor: dimension mismatch")
        if np.iscomplexobj(K):
            raise InputError("MeanZeroFactor: K must be real")
        self.nodes = np.flatnonzero(m)
        K = sp.csc_matrix(K[self.nodes][:, self.nodes])
        n_parts, _ = connected_components(K, directed=False)
        if n_parts > 1:
            raise NumericalError(
                f"MeanZeroFactor: the region falls apart into {n_parts} "
                "disconnected components, so the mean-zero problem has no "
                "unique solution")
        self.K, self.m, self.n = K, m[self.nodes], m.size
        pin = int(np.argmax(K.diagonal()))
        self.keep = np.delete(np.arange(self.nodes.size), pin)
        try:
            self.lu = factor_spd(K[self.keep][:, self.keep])
        except RuntimeError as exc:
            raise NumericalError(
                f"MeanZeroFactor: factorization failed ({exc})")

    def solve(self, b: np.ndarray):
        """Solve for one real or complex load b, read on the support only.
        Summing the first block row gives mu = sum(b) / sum(m); K u =
        b - mu*m is then consistent and is solved with the pinned node's
        value 0, and u is shifted by a constant so that m @ u = 0.  The
        residual is that of the bordered equations.

        Returns (u, mu), u zero off the support.
        """
        K, m, keep = self.K, self.m, self.keep
        if np.shape(b) != (self.n,):
            raise InputError("MeanZeroFactor.solve: dimension mismatch")
        b = np.asarray(b)[self.nodes]
        # an inf in b makes inf - inf here; the residual check refuses it
        with np.errstate(invalid="ignore"):
            mu = b.sum() / m.sum()
            r = b - mu * m
            u = np.zeros(m.size, dtype=r.dtype)
            u[keep] = _solve_real(self.lu, r[keep])
            u -= (m @ u) / m.sum()
        _accept_solve("MeanZeroFactor.solve",
                      math.hypot(_residual_norm(K, u, r), abs(m @ u)),
                      np.linalg.norm(b))
        full = np.zeros(self.n, dtype=u.dtype)
        full[self.nodes] = u
        return full, mu


#: inverse power iterations of `_condition_estimate`
CONDITION_ITERS = 6


def _condition_estimate(A: sp.csc_matrix, lu) -> float:
    """Cheap estimate of norm(A) * norm(inv(A)) via inverse power iteration
    on an already computed factorization; inf when a norm under- or
    overflows."""
    rng = np.random.default_rng(12345)
    v = rng.standard_normal(A.shape[0])
    inv_norm = 0.0
    v /= np.linalg.norm(v)
    for _ in range(CONDITION_ITERS):
        v = lu.solve(v)
        inv_norm = np.linalg.norm(v)
        if not 0 < inv_norm < math.inf:
            return math.inf
        v /= inv_norm
    a_norm = abs(A).sum(axis=1).max()
    return float(a_norm) * float(inv_norm)


# ---------------------------------------------------------------------------
# boundary-value solves

class RegionOperator:
    """Unit-weight P1 operators of the region of one tag (with at least one
    triangle, else InputError): the data that every solve on the region
    shares.

    Holds `n_nodes`, the mesh's node count; the region's stiffness and mass
    matrices `K` and `M` at full node dimension, filled on one
    `ScatterPattern`, `pattern`, whose index arrays they share; its mass
    vector `m` (M's row sums); its sorted `nodes`; and, for Dirichlet data
    on the core interface, the interface nodes `boundary` and the region's
    other nodes `interior`.  A block that one consumer reads is formed by
    that consumer: a `DirichletFactor` its shifted interior block and the
    interface columns its `solve` applies, a `MeanZeroFactor` the block on
    the support of `m`, `weak_normal_flux` the interface rows,
    `find_lambda0` the collapsed-shell pencil.  None of this depends
    on a shift, so one operator per mesh and region is kept on
    `Mesh._cache` (see `region_operator`).  The operator keeps no reference
    to the mesh: a mesh -> cache -> operator -> mesh cycle would keep every
    dropped mesh alive until the cyclic garbage collector runs.

    Factors are not kept either: `DirichletFactor(op, lam)` and
    `MeanZeroFactor(op.K, op.m)` make a new one on every call.  Nothing
    here refers to a factor, so it is freed as soon as its last holder
    drops it.
    """

    def __init__(self, mesh: Mesh, tag: int):
        tris = mesh.region_triangles(tag)
        if tris.size == 0:
            raise InputError(f"RegionOperator: no triangle has tag {tag}")
        conn = mesh.triangles[tris]
        n = self.n_nodes = mesh.n_nodes
        area, gx, gy = element_geometry(mesh, tris)
        # kept: freed here, the pattern's slot map left heap holes that
        # raised the h = 0.02 series' peak RSS by up to 18 MB
        pattern = self.pattern = ScatterPattern(conn, n)
        # CSR: CSC fills peaked up to 3 MB higher on the h = 0.02 series
        self.K = pattern.fill(_gradient_blocks(gx, gy) * area[:, None, None])
        self.M = pattern.fill(_MASS_REF * area[:, None, None])
        self.m = _scatter_vector(conn, (area / 3.0)[:, None], n)
        self.nodes = np.flatnonzero(np.bincount(conn.ravel(), minlength=n))
        self.boundary = mesh.boundary_nodes(INTERFACE)
        self.interior = np.setdiff1d(self.nodes, self.boundary,
                                     assume_unique=True)


def region_operator(mesh: Mesh, tag: int) -> RegionOperator:
    """The mesh's `RegionOperator` for the region of one tag, built on first
    use and kept on `Mesh._cache`."""
    key = ("region", int(tag))
    if key not in mesh._cache:
        mesh._cache[key] = RegionOperator(mesh, tag)
    return mesh._cache[key]


class DirichletFactor:
    """Sparse LU of A_ii = K_ii - lam*M_ii, a region's operator over its
    interior nodes at one real, finite shift lam (anything else is an
    InputError), with the interface columns `K_ib` and `M_ib` that its
    `solve` applies to the interface data.

    The matrix is indefinite above the lowest Dirichlet eigenvalue, so it is
    factored by `factor_symmetric`.  The condition estimate is checked
    once, here; every `solve`'s residual is accepted by `_accept_solve`.
    """

    def __init__(self, op: RegionOperator, lam: float):
        if np.iscomplexobj(lam) or not math.isfinite(lam):
            raise InputError(f"DirichletFactor: the shift must be real and "
                             f"finite, got {lam}")
        self.op, self.lam = op, lam
        ii, ib = op.interior, op.boundary
        self.A_ii = (op.K - lam * op.M)[ii][:, ii].tocsc()
        self.K_ib = op.K[:, ib][ii]
        self.M_ib = op.M[:, ib][ii]
        try:
            self.lu = factor_symmetric(self.A_ii)
        except RuntimeError as exc:
            raise NumericalError(
                f"DirichletFactor: singular system at lambda = {lam} "
                f"(lambda is a Dirichlet eigenvalue of the region; {exc})")
        cond = _condition_estimate(self.A_ii, self.lu)
        if not cond <= 1e10:
            raise NumericalError(
                f"DirichletFactor: condition estimate {cond:.2e} too large; "
                f"lambda = {lam} is near a Dirichlet eigenvalue of the region "
                "or out of floating-point range")

    def solve(self, b: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Nodal values of u with (K - lam*M) u = b on the interior nodes
        and u = g on the core interface (zero off the region).

        `b` is a load vector, M @ source for the nodal source of
        (-Delta - lam) u = source; `g` holds the interface trace and is read
        on the interface nodes only.  Both have one entry per node, real or
        complex; complex data is solved as its real and imaginary parts.
        """
        op = self.op
        if np.shape(b) != (op.n_nodes,) or np.shape(g) != (op.n_nodes,):
            raise InputError("DirichletFactor.solve: dimension mismatch")
        u = np.zeros(op.n_nodes, dtype=np.result_type(b, g))
        u[op.boundary] = g[op.boundary]
        # the interior rows of K @ u - lam*(M @ u), u being zero off the
        # interface: the interface columns give the same sums, term by term
        g_b = u[op.boundary]
        b_i = b[op.interior] - (self.K_ib @ g_b
                                - self.lam * (self.M_ib @ g_b))
        u_i = _solve_real(self.lu, b_i)
        _accept_solve("DirichletFactor.solve",
                      _residual_norm(self.A_ii, u_i, b_i), np.linalg.norm(b_i))
        u[op.interior] = u_i
        return u


def weak_normal_flux(fac: DirichletFactor, u: np.ndarray,
                     source=None) -> np.ndarray:
    """Variational normal-derivative weights of u on the core interface.

    For nodal values u solving (-Delta - lam) u = source on the core with
    the core's `DirichletFactor` `fac` at lam = `fac.lam` (`source` None for
    zero, or one value per node), the weights are the interface rows of
    K u - M (lam u + source) and zero off the interface; the pairing f @ v
    equals int(grad u . grad v - (lam u + source) v) for any hat extension
    v, and f.sum() = -int(lam u + source) identically.  Orientation:
    outward normal of the core region.
    """
    op, lam = fac.op, fac.lam
    svals = 0.0 if source is None else source
    residual = (op.K[op.boundary] @ u
                - op.M[op.boundary] @ (lam * u + svals))
    weights = np.zeros(op.n_nodes, dtype=residual.dtype)
    weights[op.boundary] = residual
    return weights
