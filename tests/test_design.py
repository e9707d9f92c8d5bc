"""Convex shell design: bathtub projection, dual objective, optimizer,
saddle cross-check, and serialization."""

import json

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from enzres import design
from enzres.bessel_oracle import annulus_lambda1, annulus_phi1
from enzres.design import (CONVERGED_EXITS, bathtub_projection, design_from_json,
                           design_to_csv, design_to_json, dual_objective,
                           energy_density, evaluate_design,
                           lambda1_of_design, make_disk_problem,
                           minimize_dual, recover_design, saddle_solve)
from enzres.errors import InputError
from enzres.fem import assemble_stiffness, mass_vector

from conftest import annulus_symdiff, element_centroids


@pytest.fixture(scope="module")
def disk_problem(disk_meshes, disk_lambda0s):
    return make_disk_problem(disk_meshes[0.04], disk_lambda0s[0.04])


@pytest.fixture(scope="module")
def dual_state(disk_problem):
    w = minimize_dual(disk_problem)
    return recover_design(disk_problem, w)


class TestBathtub:
    def test_simple_fill(self):
        dens = np.array([3.0, 1.0, 2.0])
        areas = np.array([1.0, 1.0, 1.0])
        theta, z0 = bathtub_projection(dens, areas, 1.5)
        assert theta == pytest.approx([1.0, 0.0, 0.5])
        assert z0 == 2.0

    def test_tie_split_proportional(self):
        dens = np.array([2.0, 2.0, 1.0])
        areas = np.array([1.0, 1.0, 1.0])
        theta, z0 = bathtub_projection(dens, areas, 1.5)
        assert theta == pytest.approx([0.75, 0.75, 0.0])
        assert z0 == 2.0

    def test_full_and_empty(self):
        dens = np.array([1.0, 2.0])
        areas = np.array([1.0, 1.0])
        theta, _ = bathtub_projection(dens, areas, 2.0)
        assert theta == pytest.approx([1.0, 1.0])

    def test_rejects_overfull(self):
        with pytest.raises(InputError):
            bathtub_projection(np.array([1.0]), np.array([1.0]), 2.0)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=40),
           st.floats(0.01, 0.99))
    def test_properties(self, dens, frac):
        dens = np.asarray(dens)
        areas = np.ones(dens.size)
        a0 = frac * dens.size
        theta, z0 = bathtub_projection(dens, areas, a0)
        # Exact area, box constraints, and level structure.
        assert abs(theta @ areas - a0) < 1e-12 * dens.size
        assert (theta >= 0.0).all() and (theta <= 1.0).all()
        assert (theta[dens > z0] == 1.0).all()
        assert (theta[dens < z0] == 0.0).all()

    def test_monotone_in_density(self):
        rng = np.random.default_rng(7)
        dens = rng.normal(size=30)
        areas = np.abs(rng.normal(size=30)) + 0.1
        a0 = 0.4 * areas.sum()
        theta, _ = bathtub_projection(dens, areas, a0)
        # Raising one element's density never lowers its own theta.
        bumped = dens.copy()
        bumped[5] += 0.5
        theta2, _ = bathtub_projection(bumped, areas, a0)
        assert theta2[5] >= theta[5] - 1e-12


class TestObjective:
    def test_dual_objective_of_zero_field(self, disk_problem):
        # J(0) = sum area * p(-lambda0 * 0) + <f, 0> = 0 at beta = 0.
        prob = disk_problem
        from enzres.fem import Field
        zero = Field(prob.mesh, np.zeros(prob.mesh.n_nodes), frozenset((1, 2)))
        assert dual_objective(zero, prob) == 0.0

    def test_energy_density_of_linear_field(self, disk_problem):
        # w = x has |grad w|^2 = 1 and mean x on each element.
        prob = disk_problem
        from enzres.fem import Field
        w = Field(prob.mesh, prob.mesh.nodes[:, 0].copy(), frozenset((1, 2)))
        dens = energy_density(w, prob.lambda0, prob)
        cx = element_centroids(prob.mesh, prob.elements)[:, 0]
        assert dens == pytest.approx(0.5 - prob.lambda0 * cx, rel=1e-12)

    def test_smoothing_upper_bounds_plus(self, disk_problem):
        # p_beta(x) >= max(x, 0), so the smoothed dual dominates the sharp
        # one for the same field.
        prob = disk_problem
        w = minimize_dual(prob)
        sharp = dual_objective(w, prob, beta=0.0)
        smooth = dual_objective(w, prob, beta=1e-3)
        assert smooth >= sharp


class TestConvergence:
    EXITS = ("gtol", "rounding floor", "max_iter", "line-search failure")

    def test_no_stage_capped_and_few_factorizations(self, disk_problem,
                                                    monkeypatch):
        # Two beta stages used to stall at the 60-step cap here, with 189
        # Hessian factorizations in all.
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        w = minimize_dual(disk_problem)
        assert w.stages and all(s.exit != "max_iter" for s in w.stages)
        assert len(calls) <= 60
        assert w.converged

    def test_stage_records(self, disk_problem, dual_state):
        w = minimize_dual(disk_problem)
        for rec in w.stages:
            assert rec.exit in self.EXITS
            assert rec.evaluations >= rec.steps >= 0
            assert np.isfinite(rec.gnorm) and rec.gnorm >= 0
        betas = [rec.beta for rec in w.stages]
        assert betas == sorted(betas, reverse=True)
        assert dual_state.converged

    def test_capped_stage_is_not_converged(self, mesh_coarse, lambda0_coarse,
                                           monkeypatch):
        # Two Newton steps per stage cap the early stages on the coarse mesh
        # while the later ones still reach gtol.
        prob = make_disk_problem(mesh_coarse, lambda0_coarse)
        monkeypatch.setattr(design, "MAX_NEWTON_STEPS", 2)
        w = minimize_dual(prob)
        assert any(s.exit == "max_iter" for s in w.stages)
        assert w.stages[-1].exit in CONVERGED_EXITS
        assert not w.converged
        state = recover_design(prob, w)
        assert state.converged is False
        assert json.loads(design_to_json(state, prob))["converged"] is False

    def test_plain_field_is_not_evidence(self, disk_problem, dual_state):
        assert recover_design(disk_problem, dual_state.w).converged is False


class TestOptimum:
    def test_recovered_shell_is_the_annulus(self, disk_problem, dual_state,
                                            case9):
        sd = annulus_symdiff(disk_problem.mesh, disk_problem,
                             dual_state.theta, 1.0, case9.r0)
        assert sd < 0.05 * disk_problem.A0

    def test_area_constraint_exact(self, disk_problem, dual_state):
        mass = dual_state.theta @ disk_problem.areas
        assert mass == pytest.approx(disk_problem.A0, abs=1e-12 *
                                     disk_problem.total_area)

    def test_duality_gap(self, disk_problem, dual_state):
        dual = dual_objective(dual_state.w, disk_problem)
        assert abs(dual_state.value - dual) <= 1e-6 * abs(dual)

    def test_lambda1_near_oracle(self, disk_problem, dual_state, case9):
        lam1 = lambda1_of_design(dual_state, disk_problem)
        assert lam1 == pytest.approx(annulus_lambda1(case9), rel=0.02)

    def test_optimal_field_matches_first_order_profile(self, disk_problem,
                                                       dual_state, case9):
        # The dual minimizer reproduces the radial first-order shell field
        # inside the annulus (both normalized to shell-mean zero).
        prob = disk_problem
        m = prob.mesh
        shell = sorted(m.region_nodes(1))
        r = np.clip(np.linalg.norm(m.nodes[shell], axis=1), 1.0, case9.r0)
        exact = np.array([annulus_phi1(case9, ri) for ri in r])
        lump = mass_vector(m, (1,))[shell]
        exact -= (lump @ exact) / lump.sum()
        got = dual_state.w.values[shell]
        got = got - (lump @ got) / lump.sum()
        assert np.abs(got - exact).max() < 0.05

    def test_perturbed_design_is_worse(self, disk_problem, dual_state):
        # An off-center admissible shell of the same area scores a strictly
        # lower Lagrangian value (more negative lambda1 * norm/2).
        prob = disk_problem
        cent = element_centroids(prob.mesh, prob.elements)
        dens = -np.linalg.norm(cent - np.array([0.2, 0.0]), axis=1)
        theta_p, _ = bathtub_projection(dens, prob.areas, prob.A0)
        _, v_p = evaluate_design(prob, theta_p)
        _, v_opt = evaluate_design(prob, dual_state.theta)
        assert v_opt == pytest.approx(dual_state.value, rel=1e-9)
        assert v_p < v_opt - 0.01 * abs(v_opt)

    def test_saddle_agrees_with_dual(self, disk_problem, dual_state):
        ss = saddle_solve(disk_problem)
        assert ss.converged
        assert ss.value == pytest.approx(dual_state.value, rel=1e-6)
        # Weak duality holds along the whole iteration history.
        for primal, dual in ss.history:
            assert primal <= dual + 1e-9 * abs(dual)

    def test_slack_region_invariance(self, disk_meshes, disk_lambda0s,
                                     case9):
        # Enlarging the outer design container must not move the optimum.
        from enzres.mesh import build_concentric_mesh
        big = build_concentric_mesh(1.0, case9.r0, 0.08, r_b=3.0)
        lam0 = find_lambda0_cached(big)
        prob_big = make_disk_problem(big, lam0)
        st_big = recover_design(prob_big, minimize_dual(prob_big))
        prob = make_disk_problem(disk_meshes[0.08], disk_lambda0s[0.08])
        st_ref = recover_design(prob, minimize_dual(prob))
        lam_big = lambda1_of_design(st_big, prob_big)
        lam_ref = lambda1_of_design(st_ref, prob)
        assert lam_big == pytest.approx(lam_ref, rel=5e-3)


def find_lambda0_cached(mesh):
    from enzres.perturbation import find_lambda0
    return find_lambda0(mesh, (6.0, 14.0))


class TestSerialization:
    def test_json_round_trip(self, disk_problem, dual_state):
        text = design_to_json(dual_state, disk_problem)
        payload = design_from_json(text)
        assert payload["lambda0"] == disk_problem.lambda0
        assert np.array_equal(np.asarray(payload["theta"]),
                              dual_state.theta)

    def test_schema_version(self, disk_problem, dual_state):
        payload = json.loads(design_to_json(dual_state, disk_problem))
        assert payload["schema_version"] == 1

    def test_csv_layout(self, disk_problem, dual_state):
        lines = design_to_csv(dual_state, disk_problem).strip().split("\n")
        assert lines[0] == "centroid_x,centroid_y,theta,density"
        assert len(lines) == 1 + disk_problem.elements.size
        row = lines[1].split(",")
        assert len(row) == 4
        float(row[0]), float(row[1]), float(row[2]), float(row[3])
