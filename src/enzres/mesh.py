"""Triangulated core-shell geometry: build, load/save, and measure.

Region tags: `CORE` = 0 (core D), `SHELL` = 1, `SLACK` = 2 (design slack,
present only for design runs).  Boundary tags: `INTERFACE` = 0 (core
interface), `OUTER` = 1 (outer boundary).  No other tag is accepted.
All geometry is nondimensional; eigenvalues carry units 1/length**2 and
obey the scaling rule lambda0(t*D) = lambda0(D)/t**2 (see `scale_mesh`).
`find_lambda0`, `expand_series` and `resonance_near` keep that rule, as
tested from t = 1e-9 to 1e9 and at the ends of the length window of
`perturbation.MAX_LENGTH_SCALE`, where a length scale sqrt|Omega|
outside [1e-40, 1e40] is refused.  `design.minimize_dual` does not yet:
its smoothing is a pure number against a density that scales as
t**-2, so its value drifts from t = 100 and turns positive, which no
saddle value can be, at t = 1e6.
"""

from __future__ import annotations

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
            (x0, x1, x2), (y0, y1, y2) = _corner_coordinates(self)
            d1x, d1y = x1 - x0, y1 - y0
            d2x, d2y = x2 - x0, y2 - y0
            self._cache["areas"] = 0.5 * (d1x * d2y - d1y * d2x)
        return self._cache["areas"]

    def area_by_region(self) -> dict:
        """Total area of each region tag present, {tag: area}; computed
        once per mesh, like `areas`."""
        if "area_by_region" not in self._cache:
            areas = self.areas()
            self._cache["area_by_region"] = {
                int(t): float(areas[self.regions == t].sum())
                for t in np.unique(self.regions)}
        return dict(self._cache["area_by_region"])

    def region_triangles(self, tags) -> np.ndarray:
        """Indices of triangles whose region tag is `tags`, an int, or is in
        `tags`, a tuple of ints."""
        return np.flatnonzero(np.isin(self.regions, tags))

    def region_nodes(self, tags) -> np.ndarray:
        """Sorted node indices touching any triangle with a tag in `tags`."""
        tris = self.triangles[self.region_triangles(tags)]
        return np.flatnonzero(np.bincount(tris.ravel()))

    def boundary_nodes(self, tag: int) -> np.ndarray:
        """Sorted node indices lying on boundary edges with the given tag."""
        return np.unique(self.boundary_edges[self.edge_tags == tag])


def _corner_coordinates(mesh: Mesh):
    """(x0, x1, x2), (y0, y1, y2): the coordinates of every triangle's three
    corners, each a 1-D gather of one coordinate column."""
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    corners = mesh.triangles.T
    return tuple(x[c] for c in corners), tuple(y[c] for c in corners)


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
    # counted in floats, exact up to 2**53: a count beyond the float range
    # reads inf, where an int would fail to format in the message below
    n_nodes = 1.0 + n_theta * float(sum(n_sub))
    if n_nodes > MAX_NODES:
        raise InputError(
            f"build_concentric_mesh: h = {h} would need {n_nodes:.3g} nodes, "
            f"more than MAX_NODES = {MAX_NODES}")
    if n_theta < 8:
        raise InputError(
            f"build_concentric_mesh: h = {h} too coarse "
            f"(only {n_theta} angular segments, need >= 8)")

    # the rings beyond the center, band by band, each band's last ring
    # exactly at b: a + (b - a) can round off it
    ring_r = []
    for (a, b), n in zip(bands, n_sub):
        r = a + (b - a) * np.arange(1, n + 1) / n
        r[-1] = b
        ring_r.append(r)
    ring_r = np.concatenate(ring_r)
    # region tag of the annulus ending at each ring
    tag_of_ring = np.repeat((CORE, SHELL, SLACK)[:len(n_sub)], n_sub)

    theta = 2.0 * math.pi * np.arange(n_theta) / n_theta
    nodes = np.vstack([np.zeros((1, 2)), np.column_stack(
        ((ring_r[:, None] * np.cos(theta)).ravel(),
         (ring_r[:, None] * np.sin(theta)).ravel()))])
    # node ids by (ring, angle) after the center node 0, and each node's
    # successor in angle
    ids = 1 + np.arange(nodes.shape[0] - 1).reshape(ring_r.size, n_theta)
    nxt = np.roll(ids, -1, axis=1)
    # the center fan, then between each ring a and the next ring b the
    # triangles (a_j, b_j, b_j+1) followed by (a_j, b_j+1, a_j+1)
    a, b, a1, b1 = ids[:-1], ids[1:], nxt[:-1], nxt[1:]
    quads = np.stack([np.stack((a, b, b1), axis=-1),
                      np.stack((a, b1, a1), axis=-1)], axis=1)
    triangles = np.vstack([
        np.column_stack((np.zeros_like(ids[0]), ids[0], nxt[0])),
        quads.reshape(-1, 3)])
    # the fan's n_theta triangles take the first ring's tag, and the
    # 2 * n_theta inside each later ring that ring's tag
    regions = np.repeat(tag_of_ring, 2 * n_theta)[n_theta:]

    # boundary edges: the interface ring at r_d, then the outermost ring
    rings = [n_sub[0] - 1, -1]
    mesh = Mesh(nodes=nodes, triangles=triangles, regions=regions,
                boundary_edges=np.column_stack((ids[rings].ravel(),
                                                nxt[rings].ravel())),
                edge_tags=np.repeat((INTERFACE, OUTER), n_theta))
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

def _validate(mesh: Mesh, lines=None) -> None:
    """Check all Mesh invariants, the one place any is checked; raise
    InputError on the first violation.  `lines` ({"node": seq, "triangle":
    seq, "boundary edge": seq}, from `load_mesh`) gives each entity's file
    line, which errors then name in place of its index.

    Every boundary edge must be a mesh edge listed once, in either
    orientation.  Beyond one stable sort of the half-edge keys (the edge
    table, `_edge_table`), the checks are linear passes: run starts for the
    unique edges, one connected-components call for both regions, and a
    bincount for the core's vertices."""
    n = mesh.n_nodes

    def where(kind, i):
        return (f"file line {lines[kind][i]}" if lines is not None
                else f"{kind} {i}")

    bad = np.flatnonzero(~np.isfinite(mesh.nodes).all(axis=1))
    if bad.size:
        raise InputError(f"mesh: {where('node', bad[0])}: non-finite "
                         "coordinate")
    for kind, idx in (("triangle", mesh.triangles),
                      ("boundary edge", mesh.boundary_edges)):
        bad = np.flatnonzero(((idx < 0) | (idx >= n)).any(axis=1))
        if bad.size:
            raise InputError(f"mesh: {where(kind, bad[0])}: {kind} node "
                             f"index out of range (have {n} nodes)")
    bad = np.flatnonzero(~np.isin(mesh.regions, (CORE, SHELL, SLACK)))
    if bad.size:
        raise InputError(f"mesh: region tag {mesh.regions[bad[0]]} "
                         f"({where('triangle', bad[0])}) is not {CORE} "
                         f"(core), {SHELL} (shell) or {SLACK} (slack)")
    bad = np.flatnonzero(~np.isin(mesh.edge_tags, (INTERFACE, OUTER)))
    if bad.size:
        a, b = mesh.boundary_edges[bad[0]]
        raise InputError(f"mesh: boundary edge ({a}, {b}) "
                         f"({where('boundary edge', bad[0])}) has tag "
                         f"{mesh.edge_tags[bad[0]]}, not {INTERFACE} "
                         f"(interface) or {OUTER} (outer boundary)")
    with np.errstate(over="ignore", invalid="ignore"):
        areas = mesh.areas()
    # a subnormal area keeps only a few digits, and 1 / (2 * area) in
    # `fem.element_geometry` overflows below 2.8e-309
    bad = np.flatnonzero(areas < np.finfo(float).tiny)
    if bad.size:
        why = ("negative triangle area, CCW orientation required"
               if areas[bad[0]] < 0 else "zero triangle area: a degenerate "
               "triangle, or coordinates too small to carry its area")
        raise InputError(f"mesh: {why} ({where('triangle', bad[0])})")
    bad = np.flatnonzero(~np.isfinite(areas))
    if bad.size:
        raise InputError(f"mesh: triangle area {areas[bad[0]]} is not finite "
                         f"({where('triangle', bad[0])}); coordinates too "
                         "large")

    uniq_keys, start, counts, tris_s = _edge_table(mesh.triangles, n)
    if np.any(counts > 2):
        bad = uniq_keys[np.argmax(counts > 2)]
        raise InputError(f"mesh: edge ({bad // n}, {bad % n}) shared by "
                         ">2 triangles")
    tri_a = tris_s[start]
    tri_b = np.where(counts == 2, tris_s[np.minimum(start + 1, len(tris_s) - 1)],
                     -1)

    # tagged boundary edges must be mesh edges, each listed once; map tags
    # onto unique edges
    edge_tag = np.full(uniq_keys.shape, -1, dtype=np.int64)
    if mesh.boundary_edges.size:
        a, b = mesh.boundary_edges.T
        bkeys = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
        loc = np.searchsorted(uniq_keys, bkeys)
        ok = (loc < len(uniq_keys))
        ok[ok] = uniq_keys[loc[ok]] == bkeys[ok]
        if not np.all(ok):
            a, b = mesh.boundary_edges[np.argmin(ok)]
            raise InputError(f"mesh: boundary edge ({a}, {b}) is not a mesh "
                             "edge")
        _, first = np.unique(loc, return_index=True)
        if first.size < loc.size:
            again = np.ones(loc.size, dtype=bool)
            again[first] = False
            j = int(np.argmax(again))
            i = int(np.argmax(loc == loc[j]))
            a, b = mesh.boundary_edges[j]
            raise InputError(f"mesh: boundary edge ({a}, {b}) is listed "
                             f"twice ({where('boundary edge', i)} and "
                             f"{where('boundary edge', j)})")
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

    _check_connectivity(mesh, tri_a, tri_b, reg_a, reg_b)


def _edge_table(triangles: np.ndarray, n: int):
    """The unique undirected edges of `triangles` (nodes < n), from one
    stable sort of the half-edge keys min*n + max.

    Returns (keys, start, counts, tris): the unique keys in increasing
    order; where each key's run begins among the sorted half-edges, and its
    length -- what np.unique(sorted keys, return_index=True,
    return_counts=True) gives; and the triangle of every sorted half-edge.
    """
    a = triangles.ravel()
    b = triangles[:, [1, 2, 0]].ravel()  # half-edge 3e+k runs corner k -> k+1
    keys = np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b)
    order = np.argsort(keys, kind="stable")
    keys_s = keys[order]
    start = np.flatnonzero(np.diff(keys_s, prepend=-1))
    counts = np.diff(start, append=keys_s.size)
    return keys_s[start], start, counts, order // 3


def _check_connectivity(mesh: Mesh, tri_a, tri_b, reg_a, reg_b) -> None:
    """Regions 0 and 1 each connected across shared edges, and region 0
    simply connected (Euler's formula V - E + T = 1), from one graph of the
    triangles that share an edge with a triangle of their own tag."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    m = mesh.n_triangles
    pair = reg_a == reg_b  # reg_b is -1 on a boundary edge
    graph = coo_matrix((np.ones(int(pair.sum())), (tri_a[pair], tri_b[pair])),
                       shape=(m, m))
    _, labels = connected_components(graph, directed=False)
    for tag, simply in ((CORE, True), (SHELL, False)):
        in_region = mesh.regions == tag
        n_tris = int(in_region.sum())
        if n_tris == 0:
            raise InputError(f"mesh: region {tag} is empty")
        region_labels = labels[in_region]
        if np.any(region_labels != region_labels[0]):
            raise InputError(f"mesh: region {tag} triangles are not connected")
        if simply:
            n_edges = int(((reg_a == tag) | (reg_b == tag)).sum())
            n_verts = np.count_nonzero(
                np.bincount(mesh.triangles[in_region].ravel()))
            if n_verts - n_edges + n_tris != 1:
                raise InputError("mesh: region 0 is not simply connected")


# ---------------------------------------------------------------------------
# enzmesh v1 format

def save_mesh(mesh: Mesh) -> str:
    """Serialize to the `enzmesh v1` text format (coordinates round-trip
    bit-identically), each section as one `%` format of its flat values."""
    sections = [("nodes", "%r %r\n", mesh.nodes),
                ("triangles", "%d %d %d %d\n",
                 np.column_stack([mesh.triangles, mesh.regions])),
                ("boundary_edges", "%d %d %d\n",
                 np.column_stack([mesh.boundary_edges, mesh.edge_tags]))]
    return "enzmesh v1\n" + "".join(
        f"{name} {len(rows)}\n"
        + row * len(rows) % tuple(rows.ravel().tolist())
        for name, row, rows in sections)


def _numbers(rows, dtype, width) -> np.ndarray:
    """Whitespace-separated numbers of `dtype`, `width` per row, as one
    (len(rows), width) array; ValueError if any row is not that.  np.loadtxt
    parses the rows; it warns on no input, so none is given to it."""
    if not rows:
        return np.empty((0, width), dtype=dtype)
    values = np.loadtxt(rows, dtype=dtype, comments=None, ndmin=2)
    if values.shape[1] != width:
        raise ValueError(f"{values.shape[1]} numbers per row, not {width}")
    return values


def load_mesh(text: str) -> Mesh:
    """Parse the `enzmesh v1` text format (strict) from a str; a file is
    read and decoded by its caller.

    '#' starts a comment; blank lines are ignored; sections must appear in
    order.  Each section's rows are converted by one `np.loadtxt` call, and
    only if it fails are they walked, each row through the same call, to
    name the bad line; every mesh rule is then checked once, by
    `_validate`.  Each boundary edge may be listed once, in either
    orientation; an edge listed twice is refused, naming both lines.
    Errors name the offending 1-based line number.  The returned mesh
    satisfies all Mesh invariants.
    """
    line_nos, rows = [], []  # 1-based line number and text of each line
    for i, raw in enumerate(text.splitlines(), start=1):
        row = raw.partition("#")[0]
        if row and not row.isspace():
            line_nos.append(i)
            rows.append(row)
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(rows):
            raise InputError(f"enzmesh parse: unexpected end of file, "
                             f"expected {what}")
        pos += 1
        return line_nos[pos - 1], rows[pos - 1].split()

    ln, tok = take("header 'enzmesh v1'")
    if tok != ["enzmesh", "v1"]:
        raise InputError(f"enzmesh parse: line {ln}: bad header "
                         f"{' '.join(tok)!r}, expected 'enzmesh v1'")

    def section(name, form, dtype):
        """Rows of section `name` as one (count, len(form)) array, and the
        file line of each row."""
        nonlocal pos
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
        if count > len(rows) - pos:  # before any array is sized from it
            raise InputError(f"enzmesh parse: line {ln}: {name} count "
                             f"{count} exceeds the {len(rows) - pos} lines "
                             "that remain")
        block, lines = rows[pos:pos + count], line_nos[pos:pos + count]
        pos += count
        try:
            return _numbers(block, dtype, len(form)), lines
        except ValueError:
            for ln, row in zip(lines, block):
                tok = row.split()
                if len(tok) != len(form):
                    raise InputError(f"enzmesh parse: line {ln}: {name} row "
                                     f"needs '{' '.join(form)}', got "
                                     f"{len(tok)} tokens")
                try:
                    _numbers([row], dtype, len(form))
                except ValueError:
                    raise InputError(f"enzmesh parse: line {ln}: bad number "
                                     f"in {' '.join(tok)!r}, expected "
                                     f"{np.dtype(dtype)} values")
            raise  # unreachable: some row fails on its own

    nodes, node_lines = section("nodes", ("x", "y"), float)
    tri, tri_lines = section("triangles", ("v0", "v1", "v2", "region"),
                             np.int64)
    edges, edge_lines = section("boundary_edges", ("v0", "v1", "tag"),
                                np.int64)
    if pos != len(rows):
        raise InputError(f"enzmesh parse: line {line_nos[pos]}: unexpected "
                         f"content {' '.join(rows[pos])!r} after "
                         "boundary_edges section")

    mesh = Mesh(nodes=nodes, triangles=tri[:, :3], regions=tri[:, 3],
                boundary_edges=edges[:, :2], edge_tags=edges[:, 2])
    _validate(mesh, lines={"node": node_lines, "triangle": tri_lines,
                           "boundary edge": edge_lines})
    return mesh


# ---------------------------------------------------------------------------
# metrics

def mesh_metrics(mesh: Mesh) -> dict:
    """Areas by region, longest edge, and entity counts."""
    xs, ys = _corner_coordinates(mesh)
    edge_len = [np.sqrt((xs[a] - xs[b]) ** 2 + (ys[a] - ys[b]) ** 2)
                for a, b in ((0, 1), (1, 2), (2, 0))]
    return {"area_by_region": mesh.area_by_region(),
            "h_max": float(max(e.max() for e in edge_len)),
            "n_nodes": mesh.n_nodes,
            "n_triangles": mesh.n_triangles}
