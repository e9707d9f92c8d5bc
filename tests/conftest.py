"""Shared fixtures: meshes on the disk benchmark geometry at three
resolutions, the recovered base eigenvalue per mesh, and a fourth-order
perturbation series on the finest mesh.  All are session-scoped because
building them dominates the suite's runtime.
"""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from enzres.bessel_oracle import disk_case
from enzres.mesh import Mesh, build_concentric_mesh
from enzres.perturbation import expand_series, find_lambda0

HS = (0.08, 0.04, 0.02)

_ACCEPTANCE_LINES = []


def record_criterion(label, passed, detail):
    _ACCEPTANCE_LINES.append(
        f"{'PASS' if passed else 'FAIL'}  {label}: {detail}")


def pytest_terminal_summary(terminalreporter):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def case9():
    return disk_case(9.0)


@pytest.fixture(scope="session")
def disk_meshes(case9):
    return {h: build_concentric_mesh(1.0, case9.r0, h, r_b=2.0) for h in HS}


@pytest.fixture(scope="session")
def disk_lambda0s(disk_meshes):
    return {h: find_lambda0(m, (6.0, 14.0)) for h, m in disk_meshes.items()}


@pytest.fixture(scope="session")
def series_fine(disk_meshes, disk_lambda0s):
    h = min(HS)
    return expand_series(disk_meshes[h], disk_lambda0s[h], order=4)


@pytest.fixture(scope="session")
def mesh_coarse(disk_meshes):
    return disk_meshes[max(HS)]


@pytest.fixture(scope="session")
def lambda0_coarse(disk_lambda0s):
    return disk_lambda0s[max(HS)]


def record_splu(monkeypatch):
    """Patch scipy's splu to record (dimension, keyword arguments) of every
    matrix it factors; returns the list of records."""
    calls = []
    real_splu = spla.splu

    def recording(A, *args, **kwargs):
        calls.append((A.shape[0], kwargs))
        return real_splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", recording)
    return calls


def overflowing_mesh():
    """A coarse disk mesh with its coordinates times 1e160: finite nodes
    whose triangle areas overflow.  Built directly, since `scale_mesh`
    refuses it."""
    m = build_concentric_mesh(1.0, 1.4, 0.6)
    return Mesh(nodes=m.nodes * 1e160, triangles=m.triangles,
                regions=m.regions, boundary_edges=m.boundary_edges,
                edge_tags=m.edge_tags)


def element_centroids(mesh, elements):
    return mesh.nodes[mesh.triangles[elements]].mean(axis=1)


def annulus_symdiff(mesh, prob, theta, r_inner, r_outer):
    """Area of the symmetric difference between a 0/1 element density and
    the centroid indicator of the annulus (r_inner, r_outer)."""
    rc = np.linalg.norm(element_centroids(mesh, prob.elements), axis=1)
    chi = ((rc >= r_inner) & (rc <= r_outer)).astype(float)
    return float((np.abs(theta - chi) * prob.areas).sum())
