"""Concentric mesh generator, validation invariants, scaling, and the
text round trip."""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from enzres.errors import InputError
from enzres.mesh import (Mesh, build_concentric_mesh, load_mesh, mesh_metrics,
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


SQUARE_TEXT = ("enzmesh v1\n"
               "nodes 4\n0.0 0.0\n1.0 0.0\n1.0 1.0\n0.0 1.0\n"
               "triangles 2\n0 1 2 0\n0 2 3 1\n"
               "boundary_edges 5\n0 2 0\n0 1 1\n1 2 1\n2 3 1\n3 0 1\n")


class TestLoadErrors:
    def test_bad_header_reports_line(self):
        with pytest.raises(InputError, match="line 1"):
            load_mesh("nonsense\n")

    def test_bad_float_reports_line(self):
        with pytest.raises(InputError, match="line 3"):
            load_mesh("enzmesh v1\nnodes 1\n0.0 zebra\n")

    def test_out_of_range_triangle_index(self):
        text = SQUARE_TEXT.replace("0 1 2 0", "0 1 7 0")
        with pytest.raises(InputError, match="node index"):
            load_mesh(text)

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

    def test_undecodable_bytes_refused(self):
        with pytest.raises(InputError, match="decode"):
            load_mesh(SQUARE_TEXT.encode("ascii") + b"# \xff\n")

    def test_undecodable_stream_refused(self):
        with pytest.raises(InputError, match="decode"):
            load_mesh(io.BytesIO(b"enzmesh v1\n\xff"))

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


class TestFuzzLoadMesh:
    """`load_mesh` returns a Mesh or raises InputError, never anything
    else, on mutated valid text and on arbitrary bytes."""

    @staticmethod
    def check(data):
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
    def test_mutated_text(self, text):
        self.check(text)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=300)
           | _mutated_mesh_text().map(lambda t: t.encode("utf-8")))
    @example(data=b"enzmesh v1\n\xff\n")
    def test_arbitrary_bytes(self, data):
        self.check(data)
