"""Convex shell design: bathtub projection, dual objective, optimizer,
saddle cross-check, and serialization."""

import itertools
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import enzres
from enzres import design
from enzres.bessel_oracle import annulus_lambda1, annulus_phi1, disk_case
from enzres.design import (CONVERGED_EXITS, DesignProblem, DualSolution,
                           bathtub_projection, design_to_csv, design_to_json,
                           dual_objective, energy_density, evaluate_design,
                           lambda1_of_design, make_disk_problem, minimize_dual,
                           recover_design, saddle_solve)
from enzres.errors import InputError, NumericalError
from enzres.fem import _gradient_blocks, factor_spd, region_operator
from enzres.mesh import INTERFACE, SHELL

from conftest import (annulus_symdiff, coo_reference, design_from_json,
                      element_centroids, record_splu, stretched_mesh)


@pytest.fixture(scope="module")
def disk_problem(disk_meshes, disk_lambda0s):
    return make_disk_problem(disk_meshes[0.04], disk_lambda0s[0.04])


@pytest.fixture(scope="module")
def dual_state(disk_problem):
    w = minimize_dual(disk_problem)
    return recover_design(disk_problem, w)


@pytest.fixture(scope="module")
def off_disk_problem(mesh_coarse, lambda0_coarse):
    """The coarse disk with interface weights times (1 + 0.6x): a load
    whose optimal shell is not an annulus."""
    disk = make_disk_problem(mesh_coarse, lambda0_coarse)
    f = disk.f * (1.0 + 0.6 * mesh_coarse.nodes[:, 0])
    return DesignProblem(mesh_coarse, lambda0_coarse, f, disk.norm_const)


@pytest.fixture(scope="module")
def stretched_problem(mesh_coarse):
    """The coarse disk stretched to (1.3x, y/1.3): a core that is not
    round."""
    mesh = stretched_mesh(mesh_coarse)
    return make_disk_problem(mesh, find_lambda0_cached(mesh))


class TestProblemInput:
    """The load f is a weight per mesh node on the core interface."""

    @pytest.mark.parametrize("change, message", [
        (lambda f, m: f[:-1], "one weight per mesh node"),
        (lambda f, m: np.stack([f, f]), "one weight per mesh node"),
        (lambda f, m: f + (np.linalg.norm(m.nodes, axis=1) > 1.5),
         "nonzero weight off the core interface"),
    ], ids=["short", "two-rows", "off-interface"])
    def test_refuses_a_load_that_is_not_interface_weights(
            self, mesh_coarse, lambda0_coarse, change, message):
        disk = make_disk_problem(mesh_coarse, lambda0_coarse)
        with pytest.raises(InputError, match=f"^DesignProblem: .*{message}"):
            DesignProblem(mesh_coarse, lambda0_coarse,
                          change(disk.f, mesh_coarse))

    def test_refuses_a_load_whose_area_overflows(self, mesh_coarse):
        # A0 = <f, 1> / lambda0 = 8e301 / 1e-8 overflows at a lambda0 above
        # the window's floor (3.8e-10 on this mesh); the refusal comes
        # without a RuntimeWarning (which the test run turns into an error)
        f = np.zeros(mesh_coarse.n_nodes)
        f[mesh_coarse.boundary_nodes(INTERFACE)] = 1e300
        with pytest.raises(InputError,
                           match="^DesignProblem: A0 = .* overflows"):
            DesignProblem(mesh_coarse, 1e-8, f)


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
        # J(0) = sum area * max(-lambda0 * 0, 0) + <f, 0> = 0.
        prob = disk_problem
        assert dual_objective(np.zeros(prob.mesh.n_nodes), prob) == 0.0

    def test_energy_density_of_linear_field(self, disk_problem):
        # w = x has |grad w|^2 = 1 and mean x on each element.
        prob = disk_problem
        w = prob.mesh.nodes[:, 0].copy()
        dens = energy_density(w, prob)
        cx = element_centroids(prob.mesh, prob.elements)[:, 0]
        assert dens == pytest.approx(0.5 - prob.lambda0 * cx, rel=1e-12)

    def test_smoothing_upper_bounds_plus(self, disk_problem):
        # p_beta(x) >= max(x, 0), so the smoothed dual dominates the sharp
        # one for the same field.
        prob = disk_problem
        w = minimize_dual(prob).values
        sharp = dual_objective(w, prob)
        smooth_fun, _ = design._make_objective(prob, 1e-3)
        assert smooth_fun(w[prob.nodes]) >= sharp


class TestConvergence:
    EXITS = ("gtol", "rounding floor", "max_iter", "line-search failure")

    def test_no_stage_capped_and_few_factorizations(self, disk_problem,
                                                    monkeypatch):
        # Two beta stages used to stall at the 60-step cap here, with 189
        # Hessian factorizations in all; quartering beta without a
        # predictor took 39, and running every stage to the final
        # tolerance 1e-8 * load took 26 (17 with the beta-scaled one, 11
        # with chord steps on the held factor).
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(args[0].shape[0])
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        w = minimize_dual(disk_problem)
        assert w.stages and all(s.exit != "max_iter" for s in w.stages)
        assert len(calls) <= 12
        assert w.converged

    def test_one_hessian_factor_alive_at_a_time(self, disk_problem,
                                                monkeypatch):
        # A SuperLU object takes no weak reference, so each factor is
        # wrapped, and the wrapper is all that the solver holds.
        class Factor:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, b):
                return self.lu.solve(b)

        finalizers, alive = [], []
        splu = spla.splu

        def wrapping(*args, **kwargs):
            fac = Factor(splu(*args, **kwargs))
            finalizers.append(weakref.finalize(fac, lambda: None))
            alive.append(sum(f.alive for f in finalizers))
            return fac

        monkeypatch.setattr(spla, "splu", wrapping)
        w = minimize_dual(disk_problem)
        assert w.converged and sum(s.chords for s in w.stages) > 0
        assert alive and max(alive) == 1
        assert not any(f.alive for f in finalizers)

    @pytest.mark.parametrize("name", ["disk_problem", "off_disk_problem"])
    def test_kept_chord_steps_descend_and_contract(self, request, name,
                                                   monkeypatch):
        # Each kept chord step lowers J, or is taken where the decrement
        # is at J's rounding level, and cuts |g| by the contraction ratio.
        prob = request.getfixturevalue(name)
        kept = []
        chord_step = design._chord_step

        def checking(fun, jac, x, fx, g, gnorm, lu):
            out = chord_step(fun, jac, x, fx, g, gnorm, lu)
            if out is not None:
                x_new = out[0]
                f_old, f_new = fun(x), fun(x_new)
                g_old = jac(x)
                floor = design.ROUNDING_FLOOR * max(1.0, abs(f_old))
                assert f_new < f_old or -(g_old @ (x_new - x)) <= floor
                assert (np.linalg.norm(jac(x_new))
                        <= design.CHORD_CONTRACTION * np.linalg.norm(g_old))
                kept.append(x_new)
            return out

        monkeypatch.setattr(design, "_chord_step", checking)
        w = minimize_dual(prob)
        assert w.converged
        assert kept and len(kept) == sum(s.chords for s in w.stages)

    def test_off_disk_load_converges_in_few_steps(self, off_disk_problem):
        # Quartering beta without a predictor took 81 Newton steps here,
        # and running every stage to the final tolerance took 43 (32 with
        # the beta-scaled one); the dual value is pinned from the first
        # run.
        w = minimize_dual(off_disk_problem)
        assert w.converged
        assert sum(s.steps for s in w.stages) <= 36
        assert dual_objective(w.values, off_disk_problem) == pytest.approx(
            -8.365880207660453, rel=1e-12)

    def test_stage_records(self, disk_problem, dual_state):
        w = minimize_dual(disk_problem)
        for rec in w.stages:
            assert rec.exit in self.EXITS
            assert rec.evaluations >= rec.steps >= 0
            assert rec.chords >= 0
            assert np.isfinite(rec.gnorm) and rec.gnorm >= 0
        betas = [rec.beta for rec in w.stages]
        assert betas == sorted(betas, reverse=True)
        # The predictor is taken where the path moves far; on the last
        # stage it lowers J only at its rounding level and is not kept.
        assert not w.stages[0].predicted
        assert all(rec.predicted for rec in w.stages[1:4])
        assert not w.stages[-1].predicted
        assert dual_state.converged

    def test_stage_tolerance_scales_with_beta(self, disk_problem):
        # A stage's relative gradient tolerance is its relative smoothing,
        # so only the last stage runs to the final 1e-8 * load.
        prob = disk_problem
        w = minimize_dual(prob)
        load = max(1.0, float(np.linalg.norm(prob.f_r)))
        for rec in w.stages:
            assert rec.exit != "gtol" or rec.gnorm <= rec.gtol
        for prev, rec in zip(w.stages, w.stages[1:]):
            assert rec.gtol == pytest.approx(0.1 * prev.gtol, rel=1e-12)
        assert w.stages[-1].gtol == pytest.approx(1e-8 * load)

    def test_stage_records_do_not_depend_on_blas_threads(self):
        runs = stage_records_per_blas_threads(0.04)
        assert len(runs[0]) == design.BETA_STAGES
        assert runs[0] == runs[1]

    def test_rounding_floor_exit_converges(self):
        # The ×(1 + 1.5x) load on the h = 0.08 disk: its last beta stage
        # ends where the Newton decrement sits at J's rounding level and
        # the full step no longer lowers |g| (74 Newton steps in all; 61
        # at h = 0.16), under either BLAS thread count.
        runs = stage_records_per_blas_threads(0.08, "1.0 + 1.5 * x")
        assert runs[0] == runs[1]
        exits = [rec[2] for rec in runs[0]]
        assert exits == ["gtol"] * (design.BETA_STAGES - 1) + [
            "rounding floor"]
        assert set(exits) <= set(CONVERGED_EXITS)

    def test_line_search_failure_is_not_converged(self, mesh_coarse,
                                                  lambda0_coarse,
                                                  monkeypatch):
        # An objective that rises at every evaluation fails every Armijo
        # test: the stage ends at its first Newton step with x unmoved,
        # its record counts as unconverged, and the continuation refuses
        # the unmoved point rather than report it.
        prob = make_disk_problem(mesh_coarse, lambda0_coarse)
        real = design._make_objective

        def rising(prob, beta):
            _, jac = real(prob, beta)
            calls = itertools.count()
            return (lambda x: float(next(calls))), jac

        monkeypatch.setattr(design, "_make_objective", rising)
        x0 = np.zeros(prob.nodes.size)
        x, rec, _ = design._newton_stage(prob, x0, 1.0, 1e-12)
        assert (rec.exit, rec.steps) == ("line-search failure", 1)
        assert np.array_equal(x, x0)
        assert not DualSolution(prob.expand(x), (rec,)).converged
        with pytest.raises(NumericalError, match="stationarity not reached"):
            minimize_dual(prob)

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
        # a solution with no stage records shows no convergence
        bare = DualSolution(dual_state.w)
        assert recover_design(disk_problem, bare).converged is False


class TestNewtonPieces:
    def test_design_nodes_match_np_unique(self, off_disk_problem):
        # the relabelling by bincount is np.unique's, inverse included
        prob = off_disk_problem
        tris = prob.mesh.triangles[prob.elements]
        nodes, inverse = np.unique(tris, return_inverse=True)
        assert np.array_equal(prob.nodes, nodes)
        assert np.array_equal(prob.conn, inverse.reshape(-1, 3))
        assert np.array_equal(prob.nodes, prob.mesh.region_nodes((1, 2)))

    @pytest.mark.parametrize("seed, beta", [(0, 1.0), (1, 1e-3), (2, 1e-8)])
    def test_hessian_on_fixed_pattern(self, off_disk_problem, seed, beta):
        # Reference: the element blocks of the Hessian summed by scipy's
        # COO-to-CSR conversion.
        prob = off_disk_problem
        x = np.random.default_rng(seed).standard_normal(prob.nodes.size)
        hess = design._hessian(prob, x, beta)
        wx, wy, _, p1, p2 = design._dual_parts(prob, x, beta)
        dg = design._density_grad(prob, wx, wy)
        blocks = (dg[:, :, None] * dg[:, None, :]
                  * (prob.areas * p2)[:, None, None]
                  + _gradient_blocks(prob.gx, prob.gy)
                  * (prob.areas * p1)[:, None, None])
        ref = coo_reference(prob.conn, blocks, prob.nodes.size)
        assert np.array_equal(hess.indptr, ref.indptr)
        assert np.array_equal(hess.indices, ref.indices)
        # The pattern is symmetric, so CSC and CSR share their arrays.
        assert (np.abs(hess.data - ref.data).max()
                <= 1e-13 * np.abs(ref.data).max())

    def test_density_matches_axis_sums(self, off_disk_problem):
        # The explicit column arithmetic keeps the summation order of the
        # axis reductions it replaced, so the results are bit-identical.
        prob = off_disk_problem
        rng = np.random.default_rng(4)
        for scale in (1.0, 1e3):
            x = scale * rng.standard_normal(prob.nodes.size)
            wl = x[prob.conn]
            wx = (prob.gx * wl).sum(axis=1)
            wy = (prob.gy * wl).sum(axis=1)
            dens = 0.5 * (wx * wx + wy * wy) - prob.lambda0 * wl.mean(axis=1)
            for got, ref in zip(design._density(prob, x), (wx, wy, dens)):
                assert np.array_equal(got, ref)

    def test_failed_factor_retries_with_shifted_hessian(
            self, off_disk_problem, monkeypatch):
        # No run on record needs the shift: a factorization that fails
        # once is made to, and the retry must factor H + 1e-12*lambda0*I.
        prob = off_disk_problem
        x = np.random.default_rng(3).standard_normal(prob.nodes.size)
        g = design._make_objective(prob, 0.1)[1](x)
        factored = []

        def fail_first(A):
            factored.append(A)
            if len(factored) == 1:
                raise RuntimeError("Factor is exactly singular")
            return factor_spd(A)

        monkeypatch.setattr(design, "factor_spd", fail_first)
        step, lu = design._newton_step(prob, x, 0.1, g)
        hess = design._hessian(prob, x, 0.1)
        shift = 1e-12 * prob.lambda0
        assert len(factored) == 2
        assert np.array_equal(factored[0].data, hess.data)
        ref = hess + shift * sp.eye(prob.nodes.size)
        assert abs(factored[1] - ref).max() == 0.0
        assert lu is not None and g @ step < 0
        assert np.array_equal(step, lu.solve(-g))

    def test_every_factor_failing_gives_steepest_descent(
            self, off_disk_problem, monkeypatch):
        prob = off_disk_problem
        x = np.random.default_rng(3).standard_normal(prob.nodes.size)
        g = design._make_objective(prob, 0.1)[1](x)

        def fail(A):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(design, "factor_spd", fail)
        step, lu = design._newton_step(prob, x, 0.1, g)
        assert lu is None and np.array_equal(step, -g)

    def test_predictor_kept_only_if_it_lowers_the_objective(
            self, off_disk_problem):
        # A factor of a tiny multiple of the identity sends the predicted
        # point far uphill, so x must come back unchanged.
        prob = off_disk_problem
        beta = 1e-2
        x, _, lu = design._newton_stage(prob, np.zeros(prob.nodes.size),
                                        beta, 1e-8)
        x_good, kept = design._predict(prob, x, beta, 0.1 * beta, lu)
        assert kept and not np.array_equal(x_good, x)
        tiny = factor_spd(sp.identity(prob.nodes.size, format="csc") * 1e-12)
        x_bad, kept = design._predict(prob, x, beta, 0.1 * beta, tiny)
        assert not kept and x_bad is x


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

    @pytest.mark.parametrize("name", ["disk_problem", "off_disk_problem",
                                      "stretched_problem"])
    def test_recovered_state_is_gauged(self, request, name):
        # One bathtub serves recover_design: projecting the gauged field's
        # own density again gives the same theta, at a level of 0 up to
        # rounding, and the history holds (value, J(w)).
        prob = request.getfixturevalue(name)
        state = recover_design(prob, minimize_dual(prob))
        d = energy_density(state.w, prob)
        theta, z0 = bathtub_projection(d, prob.areas, prob.A0)
        assert np.array_equal(theta, state.theta)
        assert abs(z0) <= 1e-12 * np.abs(d).max()
        assert state.history[0] == (state.value,
                                    dual_objective(state.w, prob))

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
        lump = region_operator(m, SHELL).m[shell]
        exact -= (lump @ exact) / lump.sum()
        got = dual_state.w[shell]
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

    def test_saddle_agrees_with_dual(self, disk_problem, dual_state,
                                     monkeypatch):
        calls = record_splu(monkeypatch)
        ss = saddle_solve(disk_problem)
        assert ss.converged
        assert ss.value == pytest.approx(dual_state.value, rel=1e-6)
        # The first bathtub update from the uniform start lands on the
        # annulus, so the second iteration closes the gap: one SPD
        # factorization per iteration, every one at the floor eps.
        assert len(ss.history) == 2
        assert len(calls) == 2
        # Weak duality holds along the whole iteration history.
        for primal, dual in ss.history:
            assert primal <= dual + 1e-9 * abs(dual)

    @pytest.mark.parametrize("target", [7.5, 9.0, 11.5])
    def test_saddle_agrees_with_dual_at_other_targets(self, target):
        # Thick (7.5), standard (9.0) and thin (11.5) optimal shells on the
        # h = 0.08 disk.
        from enzres.mesh import build_concentric_mesh
        from enzres.perturbation import find_lambda0
        mesh = build_concentric_mesh(1.0, disk_case(target).r0, 0.08,
                                     r_b=2.0)
        prob = make_disk_problem(
            mesh, find_lambda0(mesh, (target - 1.0, target + 1.0)))
        dual = recover_design(prob, minimize_dual(prob))
        ss = saddle_solve(prob)
        assert ss.converged and len(ss.history) == 2
        assert ss.value == pytest.approx(dual.value, rel=1e-6)
        for primal, dual_value in ss.history:
            assert primal <= dual_value + 1e-9 * abs(dual_value)

    @pytest.mark.parametrize("name", ["off_disk_problem",
                                      "stretched_problem"])
    def test_saddle_off_the_disk_is_right_or_refused(self, request, name):
        # On the ×(1 + 0.6x) load and on the stretched core the dual still
        # converges.  The saddle cross-check (bathtub update with step 1)
        # does not: a primal solve fails the mean-zero residual check, and
        # the refusal names the saddle, the iteration and the floor eps
        # before the solver's own words.
        prob = request.getfixturevalue(name)
        dual = recover_design(prob, minimize_dual(prob))
        assert dual.converged
        with pytest.raises(NumericalError, match=(
                r"^saddle_solve: iteration \d+ at eps = 1e-06: "
                r"MeanZeroFactor\.solve: relative residual")):
            saddle_solve(prob)

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


def stage_records_per_blas_threads(h, load=None):
    """[steps, chords, exit, predicted] of every beta stage of
    `minimize_dual` on the h disk, under BLAS thread counts 1 and 2.  The
    load is the disk's interface flux, times the expression `load` in the
    node's x if given.  BLAS reads its thread count when it loads, so each
    count gets a fresh interpreter; rounding noise differs between them."""
    script = (
        "import json\n"
        "from enzres.bessel_oracle import disk_case\n"
        "from enzres.design import DesignProblem, make_disk_problem, "
        "minimize_dual\n"
        "from enzres.mesh import build_concentric_mesh\n"
        "from enzres.perturbation import find_lambda0\n"
        f"m = build_concentric_mesh(1.0, disk_case(9.0).r0, {h}, r_b=2.0)\n"
        "prob = make_disk_problem(m, find_lambda0(m, (6.0, 14.0)))\n"
        + ("" if load is None else
           "x = m.nodes[:, 0]\n"
           f"prob = DesignProblem(m, prob.lambda0, prob.f * ({load}))\n")
        + "w = minimize_dual(prob)\n"
        "print(json.dumps([[r.steps, r.chords, r.exit, r.predicted] "
        "for r in w.stages]))\n")
    src = os.path.dirname(os.path.dirname(enzres.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=path, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        runs.append(json.loads(out.stdout))
    return runs


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

    @pytest.mark.parametrize("text", ["enzmesh v1\n", "[1, 2]", "3.5"])
    def test_rejects_documents_that_are_not_objects(self, text):
        with pytest.raises(InputError, match="^design_from_json: "):
            design_from_json(text)

    def test_csv_layout(self, disk_problem, dual_state):
        lines = design_to_csv(dual_state, disk_problem).strip().split("\n")
        assert lines[0] == "centroid_x,centroid_y,theta,density"
        assert len(lines) == 1 + disk_problem.elements.size
        row = lines[1].split(",")
        assert len(row) == 4
        float(row[0]), float(row[1]), float(row[2]), float(row[3])
