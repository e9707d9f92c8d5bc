"""Concentric mesh generator, validation invariants, scaling, and the
text round trip."""

import math

import numpy as np
import pytest

from enzres.errors import InputError
from enzres.mesh import (Mesh, build_concentric_mesh, load_mesh, mesh_metrics,
                         save_mesh, scale_mesh)


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
