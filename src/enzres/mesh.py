"""Triangulated core-shell geometry: build, load/save, and measure.

Region tags: `CORE` = 0 (core D), `SHELL` = 1, `SLACK` = 2 (design slack,
present only for design runs).  Boundary tags: `INTERFACE` = 0 (core
interface), `OUTER` = 1 (outer boundary).  No other tag is accepted.
All geometry is nondimensional; eigenvalues carry units 1/length**2 and
obey the scaling rule lambda0(t*D) = lambda0(D)/t**2 (see `scale_mesh`).
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from enzres.errors import InputError

__all__ = ["Mesh", "build_concentric_mesh", "load_mesh", "save_mesh",
           "mesh_metrics", "scale_mesh", "CORE", "SHELL", "SLACK",
           "INTERFACE", "OUTER", "DESIGN_TAGS"]

#: most nodes `build_concentric_mesh` builds (the r_b = 2 disk has about
#: 63.5k nodes at h = 0.02 and 1.02M at h = 0.005)
MAX_NODES = 2_000_000

#: region tags, and the boundary tags of the core interface and the outer
#: boundary
CORE, SHELL, SLACK = 0, 1, 2
INTERFACE, OUTER = 0, 1
#: regions a shell design may fill
DESIGN_TAGS = (SHELL, SLACK)


@dataclass
class Mesh:
    """Conforming triangulation with region and boundary tags.

    Attributes
    ----------
    nodes : (n, 2) float array
        Node coordinates; node id = row index (0-based).
    triangles : (m, 3) int array
        CCW node-index triples.
    regions : (m,) int array
        Region tag per triangle (0 core, 1 shell, 2 design slack).
    boundary_edges : (k, 2) int array
        Node-index pairs.
    edge_tags : (k,) int array
        Boundary tag per edge (0 interface, 1 outer).
    """

    nodes: np.ndarray
    triangles: np.ndarray
    regions: np.ndarray
    boundary_edges: np.ndarray
    edge_tags: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def areas(self) -> np.ndarray:
        """Signed triangle areas (positive for valid meshes)."""
        if "areas" not in self._cache:
            p = self.nodes[self.triangles]
            d1 = p[:, 1] - p[:, 0]
            d2 = p[:, 2] - p[:, 0]
            self._cache["areas"] = 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])
        return self._cache["areas"]

    def area_by_region(self) -> dict:
        """Total area of each region tag present, {tag: area}."""
        areas = self.areas()
        return {int(t): float(areas[self.regions == t].sum())
                for t in np.unique(self.regions)}

    def region_triangles(self, tags) -> np.ndarray:
        """Indices of triangles whose region tag is in `tags`."""
        tags = _as_tagset(tags)
        return np.flatnonzero(np.isin(self.regions, sorted(tags)))

    def region_nodes(self, tags) -> np.ndarray:
        """Sorted node indices touching any triangle with a tag in `tags`."""
        tris = self.region_triangles(tags)
        return np.unique(self.triangles[tris])

    def boundary_nodes(self, tag: int) -> np.ndarray:
        """Sorted node indices lying on boundary edges with the given tag."""
        return np.unique(self.boundary_edges[self.edge_tags == tag])


def _as_tagset(tags) -> set:
    if isinstance(tags, (int, np.integer)):
        return {int(tags)}
    return {int(t) for t in tags}


# ---------------------------------------------------------------------------
# construction

def build_concentric_mesh(r_d: float, r_0: float, h: float,
                          r_b: float | None = None) -> Mesh:
    """Radially structured triangulation of concentric disks.

    The disk of radius `r_d` is region 0, the annulus (r_d, r_0) region 1,
    and, when `r_b` is given, the annulus (r_0, r_b) region 2.  Rings are
    placed exactly at r_d, r_0 and r_b; the circle r = r_d carries tag-0
    boundary edges, the outermost circle tag-1 edges.

    Parameters
    ----------
    h : float
        Target edge length; must give at least 8 angular segments.
    """
    radii_breaks = [0.0, float(r_d), float(r_0)]
    if r_b is not None:
        radii_breaks.append(float(r_b))
    if not 0.0 < h < math.inf:
        raise InputError(f"build_concentric_mesh: h must be finite and > 0, "
                         f"got {h}")
    if not math.isfinite(radii_breaks[-1]):
        raise InputError(f"build_concentric_mesh: radii must be finite "
                         f"({radii_breaks[1:]})")
    for a, b in zip(radii_breaks, radii_breaks[1:]):
        if not b > a:
            raise InputError(
                f"build_concentric_mesh: radii not increasing ({radii_breaks[1:]})")
    r_out = radii_breaks[-1]
    bands = list(zip(radii_breaks, radii_breaks[1:]))
    try:
        n_theta = math.ceil(2.0 * math.pi * r_out / h)
        # each band subdivided so the radial step is <= h
        n_sub = [max(1, math.ceil((b - a) / h)) for a, b in bands]
    except OverflowError:  # a ratio overflowed to inf
        n_theta, n_sub = math.inf, [math.inf]
    n_nodes = 1 + n_theta * sum(n_sub)
    if n_nodes > MAX_NODES:
        raise InputError(
            f"build_concentric_mesh: h = {h} would need {n_nodes:.3g} nodes, "
            f"more than MAX_NODES = {MAX_NODES}")
    if n_theta < 8:
        raise InputError(
            f"build_concentric_mesh: h = {h} too coarse "
            f"(only {n_theta} angular segments, need >= 8)")

    ring_r = [0.0]
    band_of_ring = []  # band index of the annulus ending at this ring
    for band, ((a, b), n) in enumerate(zip(bands, n_sub)):
        for j in range(1, n + 1):
            ring_r.append(a + (b - a) * j / n)
            band_of_ring.append(band)
    n_rings = len(ring_r) - 1  # rings of nodes beyond the center

    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    nodes = [np.zeros((1, 2))]
    for r in ring_r[1:]:
        nodes.append(np.column_stack((r * cos_t, r * sin_t)))
    nodes = np.vstack(nodes)

    def ring_ids(i):  # i = 1..n_rings
        return 1 + (i - 1) * n_theta + np.arange(n_theta)

    j = np.arange(n_theta)
    jp = (j + 1) % n_theta
    tris, regs = [], []
    # center fan
    inner = ring_ids(1)
    tris.append(np.column_stack((np.zeros(n_theta, dtype=np.int64),
                                 inner[j], inner[jp])))
    regs.append(np.full(n_theta, band_of_ring[0], dtype=np.int64))
    # quad bands
    for i in range(1, n_rings):
        a_ids, b_ids = ring_ids(i), ring_ids(i + 1)
        band = band_of_ring[i]
        tris.append(np.column_stack((a_ids[j], b_ids[j], b_ids[jp])))
        tris.append(np.column_stack((a_ids[j], b_ids[jp], a_ids[jp])))
        regs.append(np.full(2 * n_theta, band, dtype=np.int64))
    triangles = np.vstack(tris)
    regions = np.concatenate(regs)

    # boundary edges: interface ring at r_d and outermost ring
    i_rd = ring_r.index(float(r_d))
    ids = ring_ids(i_rd)
    edges = [np.column_stack((ids[j], ids[jp]))]
    tags = [np.full(n_theta, INTERFACE, dtype=np.int64)]
    ids = ring_ids(n_rings)
    edges.append(np.column_stack((ids[j], ids[jp])))
    tags.append(np.full(n_theta, OUTER, dtype=np.int64))

    mesh = Mesh(nodes=nodes, triangles=triangles, regions=regions,
                boundary_edges=np.vstack(edges), edge_tags=np.concatenate(tags))
    _validate(mesh)
    return mesh


def scale_mesh(mesh: Mesh, t: float) -> Mesh:
    """Uniformly scale all node coordinates by a finite t > 0; the result is
    validated like any loaded mesh, so a factor whose areas overflow is
    refused.

    Laplace/Helmholtz eigenvalues transform as lambda(t*D) = lambda(D)/t**2.
    """
    if not 0.0 < t < math.inf:
        raise InputError(f"scale_mesh: t must be finite and > 0, got {t}")
    scaled = Mesh(nodes=mesh.nodes * float(t), triangles=mesh.triangles,
                  regions=mesh.regions, boundary_edges=mesh.boundary_edges,
                  edge_tags=mesh.edge_tags)
    _validate(scaled)
    return scaled


# ---------------------------------------------------------------------------
# validation

def _validate(mesh: Mesh, line_of_tri=None) -> None:
    """Check all Mesh invariants; raise InputError on the first violation."""
    n = mesh.n_nodes

    def tri_where(i):
        return (f"file line {line_of_tri[i]}" if line_of_tri is not None
                else f"triangle {i}")

    bad = np.flatnonzero(~np.isin(mesh.regions, (CORE, SHELL, SLACK)))
    if bad.size:
        raise InputError(f"mesh: region tag {mesh.regions[bad[0]]} "
                         f"({tri_where(bad[0])}) is not {CORE} (core), "
                         f"{SHELL} (shell) or {SLACK} (slack)")
    bad = np.flatnonzero(~np.isin(mesh.edge_tags, (INTERFACE, OUTER)))
    if bad.size:
        a, b = mesh.boundary_edges[bad[0]]
        raise InputError(f"mesh: boundary edge ({a}, {b}) has tag "
                         f"{mesh.edge_tags[bad[0]]}, not {INTERFACE} "
                         f"(interface) or {OUTER} (outer boundary)")
    if np.any(mesh.triangles < 0) or np.any(mesh.triangles >= n):
        raise InputError("mesh: triangle node index out of range")
    if mesh.boundary_edges.size and (np.any(mesh.boundary_edges < 0)
                                     or np.any(mesh.boundary_edges >= n)):
        raise InputError("mesh: boundary edge node index out of range")
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.areas()
    bad = np.flatnonzero(areas <= 0.0)
    if bad.size:
        raise InputError("mesh: non-positive triangle area, CCW orientation "
                         f"required ({tri_where(bad[0])})")
    bad = np.flatnonzero(~np.isfinite(areas))
    if bad.size:
        raise InputError(f"mesh: triangle area {areas[bad[0]]} is not finite "
                         f"({tri_where(bad[0])}); coordinates too large")

    # unique-edge table: key = min*n + max, adjacency via sorted half-edges
    m = mesh.n_triangles
    half = mesh.triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    half_sorted = np.sort(half, axis=1)
    keys = half_sorted[:, 0].astype(np.int64) * n + half_sorted[:, 1]
    tri_of_half = np.repeat(np.arange(m), 3)
    order = np.argsort(keys, kind="stable")
    keys_s, tris_s = keys[order], tri_of_half[order]
    uniq_keys, start, counts = np.unique(keys_s, return_index=True,
                                         return_counts=True)
    if np.any(counts > 2):
        bad = uniq_keys[np.argmax(counts > 2)]
        raise InputError(f"mesh: edge ({bad // n}, {bad % n}) shared by "
                         ">2 triangles")
    tri_a = tris_s[start]
    tri_b = np.where(counts == 2, tris_s[np.minimum(start + 1, len(tris_s) - 1)],
                     -1)

    # tagged boundary edges must be mesh edges; map tags onto unique edges
    edge_tag = np.full(uniq_keys.shape, -1, dtype=np.int64)
    if mesh.boundary_edges.size:
        be = np.sort(mesh.boundary_edges, axis=1)
        bkeys = be[:, 0].astype(np.int64) * n + be[:, 1]
        loc = np.searchsorted(uniq_keys, bkeys)
        ok = (loc < len(uniq_keys))
        ok[ok] = uniq_keys[loc[ok]] == bkeys[ok]
        if not np.all(ok):
            a, b = mesh.boundary_edges[np.argmin(ok)]
            raise InputError(f"mesh: boundary edge ({a}, {b}) is not a mesh "
                             "edge")
        edge_tag[loc] = mesh.edge_tags

    reg_a = mesh.regions[tri_a]
    reg_b = np.where(tri_b >= 0, mesh.regions[np.maximum(tri_b, 0)], -1)
    is_interface = ((counts == 2)
                    & (np.minimum(reg_a, reg_b) == CORE)
                    & (np.maximum(reg_a, reg_b) == SHELL))
    if np.any(is_interface & (edge_tag != INTERFACE)):
        k = uniq_keys[np.argmax(is_interface & (edge_tag != INTERFACE))]
        raise InputError(f"mesh: core/shell interface edge ({k // n}, {k % n}) "
                         "lacks tag 0")
    if np.any((edge_tag == INTERFACE) & ~is_interface):
        k = uniq_keys[np.argmax((edge_tag == INTERFACE) & ~is_interface)]
        raise InputError(f"mesh: tag-0 edge ({k // n}, {k % n}) does not "
                         "separate region 0 from 1")
    if np.any((edge_tag == OUTER) & (counts != 1)):
        k = uniq_keys[np.argmax((edge_tag == OUTER) & (counts != 1))]
        raise InputError(f"mesh: tag-{OUTER} edge ({k // n}, {k % n}) is not "
                         "on the outer boundary")

    _check_connectivity(mesh, tri_a, tri_b, counts)


def _check_connectivity(mesh: Mesh, tri_a, tri_b, counts) -> None:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    # connectedness of region 0 (plus simple-connectedness via Euler) and 1
    m = mesh.n_triangles
    for tag, simply in ((CORE, True), (SHELL, False)):
        in_region = mesh.regions == tag
        n_tris = int(in_region.sum())
        if n_tris == 0:
            raise InputError(f"mesh: region {tag} is empty")
        pair = (counts == 2) & in_region[tri_a] & in_region[np.maximum(tri_b, 0)]
        graph = coo_matrix((np.ones(int(pair.sum())),
                            (tri_a[pair], tri_b[pair])), shape=(m, m))
        n_comp, labels = connected_components(graph, directed=False)
        if len(np.unique(labels[in_region])) != 1:
            raise InputError(f"mesh: region {tag} triangles are not connected")
        if simply:
            touch_a = in_region[tri_a]
            touch_b = (tri_b >= 0) & in_region[np.maximum(tri_b, 0)]
            n_edges = int((touch_a | touch_b).sum())
            n_verts = len(np.unique(mesh.triangles[in_region]))
            if n_verts - n_edges + n_tris != 1:
                raise InputError("mesh: region 0 is not simply connected")


# ---------------------------------------------------------------------------
# enzmesh v1 format

def save_mesh(mesh: Mesh) -> str:
    """Serialize to the `enzmesh v1` text format (coordinates round-trip
    bit-identically)."""
    out = io.StringIO()
    out.write("enzmesh v1\n")
    out.write(f"nodes {mesh.n_nodes}\n")
    for x, y in mesh.nodes:
        out.write(f"{float(x)!r} {float(y)!r}\n")
    out.write(f"triangles {mesh.n_triangles}\n")
    for tri, reg in zip(mesh.triangles, mesh.regions):
        out.write(f"{tri[0]} {tri[1]} {tri[2]} {reg}\n")
    out.write(f"boundary_edges {mesh.boundary_edges.shape[0]}\n")
    for (a, b), tag in zip(mesh.boundary_edges, mesh.edge_tags):
        out.write(f"{a} {b} {tag}\n")
    return out.getvalue()


def load_mesh(text) -> Mesh:
    """Parse the `enzmesh v1` text format (strict).

    Accepts str, bytes, or a readable stream.  '#' starts a comment; blank
    lines are ignored; sections must appear in order.  Errors name the
    offending 1-based line number.  The returned mesh satisfies all Mesh
    invariants.
    """
    try:
        if hasattr(text, "read"):
            text = text.read()
        if isinstance(text, bytes):
            text = text.decode("ascii")
    except UnicodeDecodeError as exc:
        raise InputError(f"enzmesh parse: cannot decode text ({exc})")

    lines = []  # (line_number, tokens)
    for i, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            lines.append((i, body.split()))
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise InputError(f"enzmesh parse: unexpected end of file, "
                             f"expected {what}")
        item = lines[pos]
        pos += 1
        return item

    ln, tok = take("header 'enzmesh v1'")
    if tok != ["enzmesh", "v1"]:
        raise InputError(f"enzmesh parse: line {ln}: bad header "
                         f"{' '.join(tok)!r}, expected 'enzmesh v1'")

    def section(name):
        ln, tok = take(f"section '{name} <count>'")
        if len(tok) != 2 or tok[0] != name:
            raise InputError(f"enzmesh parse: line {ln}: expected "
                             f"'{name} <count>', got {' '.join(tok)!r}")
        try:
            count = int(tok[1])
        except ValueError:
            raise InputError(f"enzmesh parse: line {ln}: bad count {tok[1]!r}")
        if count < 0:
            raise InputError(f"enzmesh parse: line {ln}: negative count")
        if count > len(lines) - pos:  # before any array is sized from it
            raise InputError(f"enzmesh parse: line {ln}: {name} count "
                             f"{count} exceeds the {len(lines) - pos} lines "
                             "that remain")
        return count

    def index_line(what, form, size):
        """Parse a `what` of `size` tokens: node indices, then one tag."""
        ln, tok = take(what)
        if len(tok) != size:
            raise InputError(f"enzmesh parse: line {ln}: {what} needs "
                             f"'{form}', got {len(tok)} tokens")
        try:
            vals = [int(t) for t in tok]
        except ValueError:
            raise InputError(f"enzmesh parse: line {ln}: bad integer")
        if any(v < 0 or v >= n for v in vals[:-1]):
            raise InputError(f"enzmesh parse: line {ln}: node index out of "
                             f"range (have {n} nodes)")
        if not -2 ** 63 <= vals[-1] < 2 ** 63:
            raise InputError(f"enzmesh parse: line {ln}: tag {vals[-1]} out "
                             "of the 64-bit range")
        return ln, vals

    n = section("nodes")
    nodes = np.empty((n, 2), dtype=float)
    for i in range(n):
        ln, tok = take("node line")
        if len(tok) != 2:
            raise InputError(f"enzmesh parse: line {ln}: node line needs "
                             f"2 floats, got {len(tok)} tokens")
        try:
            x, y = float(tok[0]), float(tok[1])
        except ValueError:
            raise InputError(f"enzmesh parse: line {ln}: bad coordinate")
        if not (math.isfinite(x) and math.isfinite(y)):
            raise InputError(f"enzmesh parse: line {ln}: non-finite "
                             "coordinate")
        nodes[i] = x, y

    m = section("triangles")
    triangles = np.empty((m, 3), dtype=np.int64)
    regions = np.empty(m, dtype=np.int64)
    tri_lines = np.empty(m, dtype=np.int64)
    for i in range(m):
        ln, vals = index_line("triangle line", "v0 v1 v2 region", 4)
        triangles[i], regions[i], tri_lines[i] = vals[:3], vals[3], ln

    k = section("boundary_edges")
    edges = np.empty((k, 2), dtype=np.int64)
    tags = np.empty(k, dtype=np.int64)
    for i in range(k):
        _, vals = index_line("boundary edge line", "v0 v1 tag", 3)
        edges[i], tags[i] = vals[:2], vals[2]

    if pos != len(lines):
        ln, tok = lines[pos]
        raise InputError(f"enzmesh parse: line {ln}: unexpected content "
                         f"{' '.join(tok)!r} after boundary_edges section")

    mesh = Mesh(nodes=nodes, triangles=triangles, regions=regions,
                boundary_edges=edges, edge_tags=tags)
    _validate(mesh, line_of_tri=tri_lines)
    return mesh


# ---------------------------------------------------------------------------
# metrics

def mesh_metrics(mesh: Mesh) -> dict:
    """Areas by region, longest edge, and entity counts."""
    p = mesh.nodes[mesh.triangles]
    edge_len = np.stack([np.linalg.norm(p[:, a] - p[:, b], axis=1)
                         for a, b in ((0, 1), (1, 2), (2, 0))])
    return {"area_by_region": mesh.area_by_region(),
            "h_max": float(edge_len.max()),
            "n_nodes": mesh.n_nodes,
            "n_triangles": mesh.n_triangles}
