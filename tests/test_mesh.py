"""Concentric mesh generator, validation invariants, scaling, and the
text round trip."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enzres.errors import InputError
from enzres.mesh import (CORE, INTERFACE, OUTER, SHELL, Mesh, _edge_table,
                         build_concentric_mesh, load_mesh, mesh_metrics,
                         save_mesh, scale_mesh)

from conftest import overflowing_mesh


class TestBuildConcentric:
    @pytest.mark.parametrize("r_0,h", [(1.4, math.nan), (1.4, math.inf),
                                       (math.inf, 0.1), (math.nan, 0.1)])
    def test_rejects_non_finite_sizes(self, r_0, h):
        with pytest.raises(InputError):
            build_concentric_mesh(1.0, r_0, h)

    def test_region_areas_converge_second_order(self):
        # Polygonal area deficit of a circle of radius r is O(h^2 r).
        errs = []
        for h in (0.2, 0.1, 0.05):
            m = build_concentric_mesh(1.0, 1.4, h, r_b=2.0)
            metrics = mesh_metrics(m)
            area = metrics["area_by_region"]
            errs.append(abs(area[0] - math.pi))
            assert area[1] == pytest.approx(math.pi * (1.4 ** 2 - 1.0),
                                            rel=0.02)
            assert area[2] == pytest.approx(math.pi * (4.0 - 1.4 ** 2),
                                            rel=0.02)
        order = math.log2(errs[0] / errs[2]) / 2
        assert order > 1.8

    def test_all_triangles_positively_oriented(self):
        m = build_concentric_mesh(1.0, 1.4, 0.1, r_b=2.0)
        assert (m.areas() > 0).all()

    def test_interface_nodes_lie_on_circles(self):
        m = build_concentric_mesh(1.0, 1.4, 0.1, r_b=2.0)
        r = np.linalg.norm(m.nodes, axis=1)
        # Every radius ring {r_d, r_0, r_b} is represented exactly.
        for ring in (1.0, 1.4, 2.0):
            assert (np.abs(r - ring) < 1e-12).any()

    def test_interface_radius_that_rounds_off_its_ring(self):
        # 0.4897619179193249 * 7 / 7 != 0.4897619179193249, so a ring
        # computed as a + (b - a) * n / n misses r_d.
        r_d = 0.4897619179193249
        m = build_concentric_mesh(r_d, 1.0, 0.080078125)
        r = np.linalg.norm(m.nodes[m.boundary_edges[m.edge_tags == 0]],
                           axis=-1)
        assert np.allclose(r, r_d, rtol=1e-15, atol=0.0)

    def test_two_region_mesh_without_slack(self):
        m = build_concentric_mesh(1.0, 1.4, 0.1)
        assert set(np.unique(m.regions)) == {0, 1}
        assert set(np.unique(m.edge_tags)) == {0, 1}

    def test_boundary_tags(self):
        m = build_concentric_mesh(1.0, 1.4, 0.1, r_b=2.0)
        r = np.linalg.norm(m.nodes, axis=1)
        inner = np.unique(m.boundary_edges[m.edge_tags == 0])
        outer = np.unique(m.boundary_edges[m.edge_tags == 1])
        assert np.allclose(r[inner], 1.0, atol=1e-12)
        assert np.allclose(r[outer], 2.0, atol=1e-12)

    def test_rejects_bad_radii(self):
        with pytest.raises(InputError):
            build_concentric_mesh(1.4, 1.0, 0.1)
        with pytest.raises(InputError):
            build_concentric_mesh(1.0, 1.4, 0.1, r_b=1.2)

    def test_rejects_coarse_h(self):
        with pytest.raises(InputError):
            build_concentric_mesh(1.0, 1.4, 5.0)

    @pytest.mark.parametrize("h, r_b", [(0.3, 2.0), (0.17, None)])
    def test_node_budget_counts_exactly(self, monkeypatch, h, r_b):
        # The budget is checked on the arithmetic node count, which must
        # equal the built mesh's: a budget one below it refuses the mesh.
        import enzres.mesh as mesh_mod
        n = build_concentric_mesh(1.0, 1.4, h, r_b=r_b).n_nodes
        monkeypatch.setattr(mesh_mod, "MAX_NODES", n)
        build_concentric_mesh(1.0, 1.4, h, r_b=r_b)
        monkeypatch.setattr(mesh_mod, "MAX_NODES", n - 1)
        with pytest.raises(InputError, match="MAX_NODES"):
            build_concentric_mesh(1.0, 1.4, h, r_b=r_b)

    @pytest.mark.parametrize("h", [1e-9, 5e-324])
    def test_node_budget_refuses_before_allocating(self, h):
        # 5e-324 makes (b - a) / h overflow to inf.
        with pytest.raises(InputError, match="MAX_NODES"):
            build_concentric_mesh(1.0, 1.3, h, r_b=2.0)

    def test_h_max_tracks_request(self):
        for h in (0.2, 0.1, 0.05):
            m = build_concentric_mesh(1.0, 1.4, h, r_b=2.0)
            assert mesh_metrics(m)["h_max"] <= 2.0 * h

    @pytest.mark.parametrize("args, digest", [
        ((1.0, 1.3671899114809272, 0.02, 2.0),
         "fb38ced5fbc36658003faeb2ccc15677f5f3f9938d2d6cf6f4967fd9402d84a0"),
        ((1.0, 1.05, 0.13, 2.0),
         "762286f934d926a7a2b1f7b581a1b027f9248ba92b3069771b58394b1cacde00"),
        ((1.0, 1.3671899114809272, 0.08, None),
         "ce29eb89fc7b3c95dabb8fe678dc7e6a3fea32a7fbba242c92ea8c66b1bd175d"),
        ((0.3, 0.57, 0.05, 1.11),
         "a10b7aa0b114a14f886438498aa17fb132d5cc19fb05538a4f5d9001434bc274"),
        ((2.5, 4.75, 0.6, 9.25),
         "d737225de73411bf450babca519c0588075b7f499b9097f9b0b11a460939f6bf")],
        ids=["benchmark-h02", "one-ring-shell", "no-rb", "small", "coarse"])
    def test_saved_mesh_bytes_are_pinned(self, args, digest):
        # sha256 of the `save_mesh` text, recorded when the builder made
        # each ring in a Python loop: building from one (ring x angle)
        # array of node ids must keep every coordinate, index and tag
        r_d, r_0, h, r_b = args
        text = save_mesh(build_concentric_mesh(r_d, r_0, h, r_b=r_b))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestScale:
    def test_scaling_is_exact_on_coordinates(self):
        m = build_concentric_mesh(1.0, 1.4, 0.2, r_b=2.0)
        t = 2.5
        ms = scale_mesh(m, t)
        assert np.array_equal(ms.nodes, m.nodes * t)
        assert np.array_equal(ms.triangles, m.triangles)
        assert np.allclose(ms.areas(), m.areas() * t * t, rtol=1e-14)

    def test_rejects_nonpositive_factor(self):
        m = build_concentric_mesh(1.0, 1.4, 0.2)
        with pytest.raises(InputError):
            scale_mesh(m, 0.0)

    @pytest.mark.parametrize("t", [math.inf, 1e160])
    def test_rejects_factor_with_non_finite_areas(self, t):
        # inf is refused before it multiplies anything; at 1e160 the
        # coordinates stay finite but the triangle areas overflow
        m = build_concentric_mesh(1.0, 1.4, 0.6)
        with pytest.raises(InputError, match="finite"):
            scale_mesh(m, t)

    def test_rejects_factor_whose_areas_underflow(self, mesh_coarse):
        # at 1e-160 the h = 0.08 disk's coordinates stay normal floats, but
        # triangle 0's area underflows to 0; it was blamed on orientation
        with pytest.raises(InputError, match="zero triangle area.*too small "
                           r"to carry its area \(triangle 0\)"):
            scale_mesh(mesh_coarse, 1e-160)
        # at h = 0.6 every area stays above 0 but is subnormal, keeping
        # only a few digits (down to 3.66e-322); it was accepted
        coarse = build_concentric_mesh(1.0, 1.3671899114809272, 0.6, r_b=2.0)
        with pytest.raises(InputError, match="zero triangle area"):
            scale_mesh(coarse, 1e-160)


SQUARE_TEXT = ("enzmesh v1\n"
               "nodes 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
               "triangles 2\n0 1 2 0\n0 2 3 1\n"
               "boundary_edges 5\n0 2 0\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")


class TestRoundTrip:
    def test_save_load_bit_identical(self):
        m = build_concentric_mesh(1.0, 1.4, 0.15, r_b=2.0)
        m2 = load_mesh(save_mesh(m))
        assert np.array_equal(m2.nodes, m.nodes)
        assert np.array_equal(m2.triangles, m.triangles)
        assert np.array_equal(m2.regions, m.regions)
        assert np.array_equal(m2.boundary_edges, m.boundary_edges)
        assert np.array_equal(m2.edge_tags, m.edge_tags)
        # Text is reproducible too.
        assert save_mesh(m2) == save_mesh(m)

    def test_comments_and_blank_lines_ignored(self):
        m = build_concentric_mesh(1.0, 1.4, 0.2)
        text = save_mesh(m)
        noisy = "# header\n\n" + text.replace("\n", "\n# note\n", 1)
        m2 = load_mesh(noisy)
        assert np.array_equal(m2.nodes, m.nodes)

    @pytest.mark.parametrize("text", [
        pytest.param(SQUARE_TEXT, id="plain"),
        pytest.param(SQUARE_TEXT.replace("triangles 2\n",
                                         "\ntriangles 2  # core, shell\n"),
                     id="comment-and-blank-line")])
    def test_save_writes_the_exact_format(self, text):
        # a writer that round-trips but formats differently (say %.17g)
        # would change the bytes of every file
        assert save_mesh(load_mesh(text)) == SQUARE_TEXT

    def test_save_matches_a_per_row_writer(self):
        # one `%` format per section writes what per-row f-strings wrote
        m = build_concentric_mesh(1.0, 1.4, 0.3, r_b=2.0)
        out = ["enzmesh v1", f"nodes {m.n_nodes}"]
        out += [f"{x!r} {y!r}" for x, y in m.nodes.tolist()]
        out.append(f"triangles {m.n_triangles}")
        out += [f"{a} {b} {c} {reg}" for (a, b, c), reg
                in zip(m.triangles.tolist(), m.regions.tolist())]
        out.append(f"boundary_edges {m.boundary_edges.shape[0]}")
        out += [f"{a} {b} {tag}" for (a, b), tag
                in zip(m.boundary_edges.tolist(), m.edge_tags.tolist())]
        assert save_mesh(m) == "\n".join(out) + "\n"


class TestLoadErrors:
    def test_bad_header_reports_line(self):
        with pytest.raises(InputError, match="line 1"):
            load_mesh("nonsense\n")

    def test_bad_float_reports_line(self):
        # np.array(["1_0"], dtype=float) reads 10.0, but np.loadtxt, which
        # parses every section, refuses it
        for token in ("zebra", "1_0"):
            with pytest.raises(InputError, match="line 3: bad number"):
                load_mesh(f"enzmesh v1\nnodes 1\n0.0 {token}\n")

    @pytest.mark.parametrize("old, new, line", [
        pytest.param("0 1 2 0", "0 1 7 0", 8, id="triangle"),
        pytest.param("1 2 1", "1 9 1", 13, id="boundary-edge")])
    def test_out_of_range_node_index_reports_line(self, old, new, line):
        with pytest.raises(InputError, match=f"line {line}: .*node index"):
            load_mesh(SQUARE_TEXT.replace(old, new))

    def test_truncated_file(self):
        with pytest.raises(InputError):
            load_mesh("enzmesh v1\nnodes 2\n0 0\n")

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_coordinate_reports_line(self, coord):
        text = SQUARE_TEXT.replace("1.0 1.0\n", f"1.0 {coord}\n")
        with pytest.raises(InputError, match="line 5: non-finite"):
            load_mesh(text)

    def test_trailing_garbage_rejected(self):
        m = build_concentric_mesh(1.0, 1.4, 0.2)
        with pytest.raises(InputError):
            load_mesh(save_mesh(m) + "extra\n")


class TestValidation:
    def test_minimal_mesh_loads(self):
        m = load_mesh(SQUARE_TEXT)
        assert m.areas() == pytest.approx([0.5, 0.5])

    def test_rejects_inverted_triangle(self):
        text = SQUARE_TEXT.replace("0 1 2 0", "0 2 1 0")
        with pytest.raises(InputError, match="orient"):
            load_mesh(text)

    def test_rejects_collinear_triangle(self):
        # node 2 moved to (2, 0) puts triangle 0's corners on one line: its
        # zero area is named as zero, not blamed on its orientation
        text = SQUARE_TEXT.replace("1.0 1.0\n", "2.0 0.0\n")
        with pytest.raises(InputError, match="zero triangle area: a "
                           "degenerate triangle") as err:
            load_mesh(text)
        assert "orient" not in str(err.value)

    def test_rejects_dangling_boundary_edge(self):
        text = SQUARE_TEXT.replace("3 0 1", "1 3 1")
        with pytest.raises(InputError, match="not a mesh edge"):
            load_mesh(text)

    def test_rejects_untagged_interface(self):
        text = SQUARE_TEXT.replace("boundary_edges 5\n0 2 0\n",
                                   "boundary_edges 4\n")
        with pytest.raises(InputError, match="interface"):
            load_mesh(text)

    def test_rejects_overflowing_area(self):
        # finite coordinates whose triangle areas overflow to inf or nan
        with pytest.raises(InputError, match="not finite"):
            load_mesh(save_mesh(overflowing_mesh()))

    @pytest.mark.parametrize("tokens, tag", [(4, "7"), (3, "5")])
    def test_rejects_unknown_tag(self, tokens, tag):
        # a shell triangle retagged 7 or an outer edge retagged 5: the
        # mesh stays valid otherwise, and every solver would drop it
        lines = save_mesh(build_concentric_mesh(1.0, 1.4, 0.6)).splitlines()
        i = next(k for k, line in enumerate(lines)
                 if len(line.split()) == tokens and line.split()[-1] == "1")
        lines[i] = " ".join(lines[i].split()[:-1] + [tag])
        with pytest.raises(InputError, match=f"tag {tag}"):
            load_mesh("\n".join(lines) + "\n")


class TestDuplicateBoundaryEdge:
    """A boundary edge listed twice is refused wherever the second listing
    stands and whichever way it runs; each listing is named by its file
    line.  Before, the later listing's tag won, so the mesh was accepted
    or refused by line order."""

    #: SQUARE_TEXT's boundary edges start at file line 11: "0 2 0" (the
    #: interface), then "0 1 1" (outer) at line 12
    @pytest.mark.parametrize("extra", ["0 1 0", "1 0 0", "0 1 1", "1 0 1"])
    @pytest.mark.parametrize("before", [True, False],
                             ids=["before", "after"])
    def test_outer_edge_listed_twice(self, extra, before):
        pair = (extra, "0 1 1") if before else ("0 1 1", extra)
        text = SQUARE_TEXT.replace("boundary_edges 5", "boundary_edges 6")
        text = text.replace("0 1 1\n", "\n".join(pair) + "\n")
        a, b = pair[1].split()[:2]  # the message names the second listing
        with pytest.raises(InputError, match=(
                rf"^mesh: boundary edge \({a}, {b}\) is listed twice "
                r"\(file line 12 and file line 13\)$")):
            load_mesh(text)

    @pytest.mark.parametrize("extra", ["0 2 0", "2 0 0"])
    def test_interface_edge_listed_twice(self, extra):
        text = SQUARE_TEXT.replace("boundary_edges 5\n",
                                   f"boundary_edges 6\n{extra}\n")
        with pytest.raises(InputError, match="file line 11 and file line 12"):
            load_mesh(text)

    def test_built_mesh_names_edge_indices(self):
        m = build_concentric_mesh(1.0, 1.4, 0.6)
        k = int(np.argmax(m.edge_tags == OUTER))
        twice = Mesh(nodes=m.nodes, triangles=m.triangles, regions=m.regions,
                     boundary_edges=np.vstack([m.boundary_edges,
                                               m.boundary_edges[k, ::-1]]),
                     edge_tags=np.append(m.edge_tags, INTERFACE))
        last = len(m.edge_tags)
        with pytest.raises(InputError, match=f"boundary edge {k} and "
                                             f"boundary edge {last}"):
            scale_mesh(twice, 1.0)


class TestConnectivity:
    """The region rules that follow the edge rules, on a disk with three
    rings of shell nodes: each region connected across shared edges, the
    core simply connected."""

    @staticmethod
    def retag(triangle, tag, edges_tag0=()):
        """The disk's mesh text with one triangle retagged and tag-0
        boundary edges added."""
        m = build_concentric_mesh(1.0, 1.4, 0.15)
        regions = m.regions.copy()
        regions[triangle] = tag
        edges = np.vstack([m.boundary_edges, np.array(edges_tag0,
                                                      dtype=np.int64)
                           .reshape(-1, 2)])
        tags = np.append(m.edge_tags, np.full(len(edges_tag0), INTERFACE))
        return save_mesh(Mesh(nodes=m.nodes, triangles=m.triangles,
                              regions=regions, boundary_edges=edges,
                              edge_tags=tags))

    @staticmethod
    def sides(m, e):
        a, b, c = m.triangles[e]
        return [(a, b), (b, c), (c, a)]

    def test_core_with_a_hole_refused(self):
        # a center-fan core triangle made shell, its sides tagged 0: the
        # core stays connected around it, but V - E + T = 0
        m = build_concentric_mesh(1.0, 1.4, 0.15)
        text = self.retag(0, SHELL, self.sides(m, 0))
        with pytest.raises(InputError, match="region 0 is not simply "
                                             "connected"):
            load_mesh(text)

    def test_detached_core_triangle_refused(self):
        # a shell triangle off the interface made core, its sides tagged 0
        m = build_concentric_mesh(1.0, 1.4, 0.15)
        interface = m.boundary_nodes(INTERFACE)
        e = next(e for e in np.flatnonzero(m.regions == SHELL)
                 if not np.isin(m.triangles[e], interface).any())
        text = self.retag(e, CORE, self.sides(m, e))
        with pytest.raises(InputError, match="region 0 triangles are not "
                                             "connected"):
            load_mesh(text)

    def test_retagged_shell_triangle_lacks_interface_tags(self):
        m = build_concentric_mesh(1.0, 1.4, 0.15)
        e = int(np.argmax(m.regions == SHELL))
        with pytest.raises(InputError, match="lacks tag 0"):
            load_mesh(self.retag(e, CORE))


def _reference_edge_table(triangles, n):
    """The edge table from row-sorted half-edges and np.unique."""
    half = triangles[:, [[0, 1], [1, 2], [2, 0]]].reshape(-1, 2)
    half = np.sort(half, axis=1)
    keys = half[:, 0].astype(np.int64) * n + half[:, 1]
    order = np.argsort(keys, kind="stable")
    uniq, start, counts = np.unique(keys[order], return_index=True,
                                    return_counts=True)
    return uniq, start, counts, np.repeat(np.arange(len(triangles)), 3)[order]


@st.composite
def _triangle_arrays(draw):
    """(triangles, n): random node triples over n nodes, so repeated
    triangles and triangles with a repeated node are common."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 30))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=3 * m,
                         max_size=3 * m))
    tri = np.array(flat, dtype=np.int64).reshape(m, 3)
    if m and draw(st.booleans()):  # repeat some rows verbatim
        tri = tri[draw(st.lists(st.integers(0, m - 1), min_size=1,
                                max_size=2 * m))]
    return tri, n


class TestEdgeTable:
    @settings(max_examples=300, deadline=None)
    @given(case=_triangle_arrays())
    def test_equals_np_unique(self, case):
        tri, n = case
        for got, want in zip(_edge_table(tri, n),
                             _reference_edge_table(tri, n)):
            assert got.dtype.kind == want.dtype.kind == "i"
            assert np.array_equal(got, want)

    def test_equals_np_unique_on_the_disk(self):
        m = build_concentric_mesh(1.0, 1.4, 0.1, r_b=2.0)
        for got, want in zip(_edge_table(m.triangles, m.n_nodes),
                             _reference_edge_table(m.triangles, m.n_nodes)):
            assert np.array_equal(got, want)


class TestLoadBoundary:
    """Faults at the edge of the text format: counts larger than the file
    and bytes that are not text are refused as input errors before any
    array is sized from them."""

    @pytest.mark.parametrize("section", ["nodes", "triangles",
                                         "boundary_edges"])
    @pytest.mark.parametrize("count", ["99999999999999", "one past"])
    def test_count_beyond_file_refused(self, section, count):
        head, _, rest = SQUARE_TEXT.partition(f"{section} ")
        _, _, tail = rest.partition("\n")
        if count == "one past":  # the file's last count is exactly its rest
            count = len(tail.splitlines()) + 1
        text = f"{head}{section} {count}\n{tail}"
        with pytest.raises(InputError, match="exceeds"):
            load_mesh(text)

    @pytest.mark.parametrize("value", [str(2 ** 63), str(-2 ** 63 - 1)])
    def test_tag_beyond_int64_refused(self, value):
        with pytest.raises(InputError, match="line 8"):
            load_mesh(SQUARE_TEXT.replace("0 1 2 0", f"0 1 2 {value}"))
        with pytest.raises(InputError, match="line 13"):
            load_mesh(SQUARE_TEXT.replace("1 2 1", f"1 2 {value}"))


#: a valid mesh of 46 nodes to mutate
_FUZZ_LINES = save_mesh(build_concentric_mesh(1.0, 1.4, 0.6)).splitlines()
#: replacement tokens; counts are either small or far beyond any file, so
#: no mutation can ask for an allocation that would succeed
_FUZZ_TOKENS = st.sampled_from(
    ["-1", "0", "1", "2", "3", "7", "45", "46", "0.5", "nan", "-inf", "1e400",
     "zebra", "#", "", "99999999999999", str(2 ** 63), str(10 ** 30),
     "é", "１", "1" * 5000])


@st.composite
def _mutated_mesh_text(draw):
    lines = list(_FUZZ_LINES)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "delete", "duplicate", "swap",
                                     "truncate", "insert"]))
        if kind == "token":
            toks = lines[i].split() or [""]
            toks[draw(st.integers(0, len(toks) - 1))] = draw(_FUZZ_TOKENS)
            lines[i] = " ".join(toks)
        elif kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "truncate":
            lines = lines[:i]
        else:
            lines.insert(i, draw(st.text(max_size=20)))
        if not lines:
            lines = [""]
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def fuzz_input(tmp_path_factory):
    """One unbuffered file, kept open: rewriting it costs no open or close
    per example, and each write reaches the OS before the parse starts."""
    path = tmp_path_factory.getbasetemp() / "fuzz_load_mesh_input.txt"
    with open(path, "wb", buffering=0) as file:
        yield file


class TestFuzzLoadMesh:
    """`load_mesh` returns a Mesh or raises InputError, never anything
    else, on mutated valid text and on arbitrary text.

    Before each parse, `check` overwrites `fuzz_load_mesh_input.txt` in
    pytest's base temporary directory (`--basetemp`, by default
    `pytest-of-<user>/pytest-<n>/` under the system's temporary directory)
    with the `ascii()` of the text, so an input that crashes the
    interpreter stays on disk; `ast.literal_eval` of the file gives the
    text back."""

    @staticmethod
    def check(file, data):
        file.seek(0)
        file.write(ascii(data).encode())
        file.truncate()
        try:
            mesh = load_mesh(data)
        except InputError:
            return
        assert isinstance(mesh, Mesh)

    @settings(max_examples=300, deadline=None)
    @given(text=_mutated_mesh_text())
    @example(text="\n".join(_FUZZ_LINES).replace(
        f"nodes {len(_FUZZ_LINES)}", "nodes 1") + "\n")
    @example(text="enzmesh v1\nnodes 99999999999999\n")
    @example(text=SQUARE_TEXT.replace("0 1 2 0", f"0 1 2 {10 ** 30}"))
    def test_mutated_text(self, fuzz_input, text):
        self.check(fuzz_input, text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.text(max_size=300))
    @example(data="enzmesh v1\n\xff\n")
    def test_arbitrary_bytes(self, fuzz_input, data):
        self.check(fuzz_input, data)
