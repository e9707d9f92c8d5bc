"""Base eigenvalue recovery, the expansion recursion and its discrete
invariants, evaluation, and JSON round trip."""

import contextlib
import io
import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from enzres.bessel_oracle import annulus_lambda1, annulus_phi1
from enzres import cli, perturbation
from enzres.design import DesignProblem, make_disk_problem
from enzres.dispersion import read_series
from enzres.errors import InputError, NumericalError
from enzres.fem import region_operator
from enzres.mesh import CORE, SHELL, build_concentric_mesh, save_mesh
from enzres.perturbation import (CoreProfile, eval_lambda, expand_series,
                                 find_lambda0)

from conftest import (HS, consistency_residual, eval_field, record_solves,
                      record_splu, stretched_mesh)


class TestFindLambda0:
    def test_disk_interval_recovers_nine(self, disk_lambda0s):
        for h, lam0 in disk_lambda0s.items():
            assert lam0 == pytest.approx(9.0, rel=0.01), h

    def test_residual_is_zeroed(self, disk_meshes, disk_lambda0s):
        h = max(HS)
        m = disk_meshes[h]
        area = m.areas().sum()
        assert abs(consistency_residual(m, disk_lambda0s[h])) < 1e-10 * area

    def test_no_sign_change_raises(self, mesh_coarse):
        with pytest.raises(InputError, match="sign"):
            find_lambda0(mesh_coarse, (0.1, 1.0))

    def test_interval_must_be_increasing(self, mesh_coarse):
        with pytest.raises(InputError):
            find_lambda0(mesh_coarse, (14.0, 6.0))

    @pytest.mark.parametrize("bracket", [(5e-324, 0.3), (1e-16, 1e-13),
                                         (1e-16, 1e-15)])
    def test_pencil_zero_mode_is_no_root(self, mesh_coarse, bracket,
                                         monkeypatch):
        # the collapsed pencil's exact eigenvalue 0 has a constant
        # eigenvector: nonzero shell value, but nonzero mean over Omega.
        # In the first bracket it comes back at 7.7e-14 and is skipped as
        # no root.  The midpoints of the other two lie within rounding of
        # it (below eps times the pencil bound, 3.8e-10 here), where a
        # shift cannot tell a root from 0; they are refused before any
        # factorization
        calls = record_splu(monkeypatch)
        if bracket[1] > 1e-3:
            with pytest.raises(InputError, match="sign"):
                find_lambda0(mesh_coarse, bracket)
            assert len(calls) == 1
        else:
            with pytest.raises(InputError, match="within rounding"):
                find_lambda0(mesh_coarse, bracket)
            assert calls == []

    def test_singular_shift_at_zero_eigenvalue_is_input_error(
            self, mesh_coarse, monkeypatch):
        # the midpoint 2.09e-14 is a tiny shift at which the LU of
        # K_c - sigma M_c meets an exactly zero pivot; it lies within
        # rounding of the eigenvalue 0, so the interval is refused, naming
        # it, before anything is factored
        calls = record_splu(monkeypatch)
        with pytest.raises(InputError, match="eigenvalue 0"):
            find_lambda0(mesh_coarse, (2.4e-38, 4.18e-14))
        assert calls == []

    def test_two_roots_raise(self, mesh_coarse):
        # (6, 40) holds the roots near 9.01 and 34.97
        with pytest.raises(InputError, match="narrow") as err:
            find_lambda0(mesh_coarse, (6.0, 40.0))
        assert "9.01" in str(err.value) and "34.9" in str(err.value)


@pytest.fixture(scope="module")
def mesh_r13():
    return build_concentric_mesh(1.0, 1.3, 0.15)


@pytest.mark.parametrize("bracket", [(6.0, 14.0), (6.0, 40.0), (6.0, 1e6),
                                     (6.0, 1e12), (6.0, 1e308),
                                     (1e-300, 1e300)])
def test_wide_interval_gives_root_or_narrow(mesh_r13, bracket):
    # each interval holds the root near 9.60; one whose shift cannot
    # resolve the spectrum (sigma near 5e307 for the last two) is refused
    # as too wide, never answered "no sign change"
    try:
        root = find_lambda0(mesh_r13, bracket)
    except InputError as exc:
        assert "narrow" in str(exc)
    else:
        assert root == pytest.approx(9.6, abs=0.01)


def interface_load(mesh):
    """A positive load on the core interface, made without a solve."""
    weights = np.zeros(mesh.n_nodes)
    weights[mesh.boundary_nodes(0)] = 1.0
    return weights


#: public entry points that take lambda0, or an interval for it
TAKES_LAMBDA0 = {
    "expand_series": expand_series,
    "make_disk_problem": make_disk_problem,
    "DesignProblem": lambda mesh, value: DesignProblem(
        mesh, value, interface_load(mesh)),
    "find_lambda0": lambda mesh, value: find_lambda0(mesh,
                                                     (value / 2, value)),
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, 0.0,
                                   9 + 1j, 9 + 0j, 1e300, 1e308,
                                   5e-324, 1e-320, 1e-16])
@pytest.mark.parametrize("name", sorted(TAKES_LAMBDA0))
def test_bad_lambda0_refused_by_its_caller(mesh_coarse, name, value,
                                           monkeypatch):
    # a non-finite, non-positive or complex lambda0 (the top of the
    # interval (value / 2, value) for find_lambda0), one past the bound on
    # the collapsed pencil's largest eigenvalue, or one within rounding of
    # its eigenvalue 0 (eps times that bound, 3.8e-10 here), is an input
    # error named after the function called, refused before anything is
    # factored.  A complex one had raised a bare TypeError, 1e300 had
    # failed the core factor's condition estimate as a NumericalError, and
    # all but DesignProblem factored the tiny ones first (expand_series
    # overflowing a division at 5e-324)
    calls = record_splu(monkeypatch)
    with pytest.raises(InputError, match=f"^{name}: "):
        TAKES_LAMBDA0[name](mesh_coarse, value)
    assert calls == []


@pytest.mark.parametrize("stretch", [1.0, 1.3])
def test_lambda0_gate_bounds_the_collapsed_pencil(mesh_r13, stretch):
    # the gate's bound, taken from the core alone, lies above every
    # eigenvalue of the collapsed pencil, also on the area-preserving
    # stretch (x, y) -> (1.3x, y/1.3), whose core is not round
    mesh = stretched_mesh(mesh_r13, stretch)
    K_c, M_c, _ = perturbation._collapsed_pencil(mesh)
    top = scipy.linalg.eigh(K_c.toarray(), M_c.toarray(),
                            eigvals_only=True)[-1]
    with pytest.raises(InputError) as gate:
        expand_series(mesh, 1e300)
    bound = re.search(r"exceeds (\S+), a bound", str(gate.value))[1]
    assert float(bound) >= top
    # find_lambda0 quotes the same bound for an interval past it
    with pytest.raises(InputError) as interval:
        find_lambda0(mesh, (6.0, 1e300))
    assert f"reaches past {bound}, a bound" in str(interval.value)


def core_dim(mesh):
    return np.setdiff1d(mesh.region_nodes(0), mesh.boundary_nodes(0)).size


class TestPencilRoot:
    def test_one_factorization_and_brentq_agreement(self, mesh_coarse,
                                                    monkeypatch):
        ref = brentq(lambda lam: consistency_residual(mesh_coarse, lam),
                     6.0, 14.0, xtol=1e-13, rtol=8.9e-16)
        calls = record_splu(monkeypatch)
        root = find_lambda0(mesh_coarse, (6.0, 14.0))
        # one factor of the collapsed pencil (the core interior plus the
        # shell value); the root is certified from its Ritz pair, with no
        # core factorization and no symmetric positive definite factor
        n = core_dim(mesh_coarse)
        assert [dim for dim, _ in calls] == [n + 1]
        assert all(kw.get("diag_pivot_thresh") != 0 for _, kw in calls)
        assert root == pytest.approx(ref, rel=1e-11)

    def test_lanczos_cost(self, mesh_coarse, monkeypatch):
        # one factor, no ARPACK call, and at most 16 back-solves: the
        # start vector's and one per Lanczos step
        eigsh_calls = []
        monkeypatch.setattr(spla, "eigsh",
                            lambda *args, **kwargs: eigsh_calls.append(args))
        solves = record_solves(monkeypatch)
        find_lambda0(mesh_coarse, (6.0, 14.0))
        assert eigsh_calls == []
        assert len(solves) == 1 and solves[0] <= 16

    def test_inaccurate_ritz_value_raises(self, mesh_coarse, monkeypatch):
        # the root's Ritz vector, tilted by 1e-3 toward the Ritz vector of
        # its nearest neighbour (near 14.69), keeps a residual whose error
        # bound exceeds ROOT_TOL at every step
        real_eigh = perturbation.eigh_tridiagonal

        def tilted(*args, **kwargs):
            nu, S = real_eigh(*args, **kwargs)
            if nu.size > 1:
                theta = 10.0 + 1 / nu  # sigma = 10 for (6, 14)
                i = np.argmin(np.abs(theta - 9.0))
                k = np.argsort(np.abs(theta - theta[i]))[1]
                S = S.copy()
                S[:, i] = (S[:, i] + 1e-3 * S[:, k]) / np.sqrt(1 + 1e-6)
            return nu, S

        monkeypatch.setattr(perturbation, "eigh_tridiagonal", tilted)
        monkeypatch.setattr(perturbation, "MAX_LANCZOS_STEPS", 20)
        with pytest.raises(NumericalError, match="not certified within 20 "
                           "Lanczos steps; Rayleigh quotient .* error bound"):
            find_lambda0(mesh_coarse, (6.0, 14.0))

    @pytest.mark.parametrize("bracket", [(6.0, 14.0), (6.0, 16.0),
                                         (6.0, 28.0), (5.0, 14.0)])
    def test_brentq_agreement_and_repeatable(self, mesh_coarse, bracket):
        # (6, 16) holds the zero-mean Dirichlet pair near 14.69, which is
        # an eigenvalue of the collapsed pencil but no root; (6, 28) needs
        # more than the first three eigenvalues about the midpoint; (5, 14)
        # holds the pole near 5.78 (the first core Dirichlet eigenvalue)
        ref = brentq(lambda lam: consistency_residual(mesh_coarse, lam),
                     6.0, 14.0, xtol=1e-13, rtol=8.9e-16)
        root = find_lambda0(mesh_coarse, bracket)
        assert root == pytest.approx(ref, rel=1e-11)
        assert find_lambda0(mesh_coarse, bracket) == root

    def test_eigenvalue_cap_raises(self, mesh_coarse, monkeypatch):
        # Ritz values in the interval prove as many eigenvalues there
        # (Cauchy interlacing): the recurrence finds those near 9.01, 14.69
        # and 26.37, one copy of each double Dirichlet eigenvalue, and 3
        # exceed a cap of 2
        monkeypatch.setattr(perturbation, "MAX_PENCIL_EIGS", 2)
        with pytest.raises(InputError, match="collapsed pencil.*narrow"):
            find_lambda0(mesh_coarse, (6.0, 28.0))


class TestRecursionInvariants:
    def test_core_factored_once(self, mesh_coarse, lambda0_coarse,
                                monkeypatch):
        # psi_d and all four core correctors share one factorization of
        # the core interior block, and all four shell correctors one of the
        # shell block without its pinned node; psi_d keeps both.
        m = mesh_coarse
        calls = record_splu(monkeypatch)
        s = expand_series(m, lambda0_coarse, order=4)
        shell_dim = m.region_nodes(1).size
        assert sorted(dim for dim, _ in calls) == sorted(
            [core_dim(m), shell_dim - 1])
        assert s.psi_d.core_factor.lam == lambda0_coarse
        assert s.psi_d.shell_factor is not None


    def test_mean_zero_correctors(self, series_fine):
        # Every shell and core corrector splits off its constant part, so
        # the remaining fields integrate to zero over their regions.
        s = series_fine
        m = s.mesh
        lump_shell = region_operator(m, SHELL).m
        lump_core = region_operator(m, CORE).m
        scale = max(abs(l) for l in s.all_lambdas())
        for phi in s.shell_fields:
            assert abs(lump_shell @ phi) < 1e-8 * scale
        for psi in s.core_fields:
            assert abs(lump_core @ psi) < 1e-8 * scale

    def test_normalization_defect(self, series_fine):
        # Order-n normalization: int_shell phi_n + int_D psi_n = 0 once the
        # constants e_n are folded in (consistent-mass inner products).
        s = series_fine
        m = s.mesh
        M = region_operator(m, CORE).M
        lump_shell = region_operator(m, SHELL).m
        lump_core = region_operator(m, CORE).m
        shell_area = m.areas()[m.regions == 1].sum()
        core_psi_d = float(np.ones(m.n_nodes) @ (M @ s.psi_d.values))
        for n in range(1, s.order + 1):
            e_n = s.constants[n - 1]
            total = (lump_shell @ s.shell_fields[n - 1]
                     + e_n * shell_area
                     + lump_core @ s.core_fields[n - 1]
                     + e_n * core_psi_d)
            assert abs(total) < 1e-8 * max(1.0, abs(e_n))

    def test_orthogonality_defect(self, series_fine):
        # The constants are fixed by the cancellation condition
        # psi_n^T M psi_d + e_n * norm_const = 0, which removes the secular
        # psi_d component from every core corrector.
        s = series_fine
        M = region_operator(s.mesh, CORE).M
        pd = s.psi_d.values
        for n in range(1, s.order + 1):
            e_n = s.constants[n - 1]
            raw = float(s.core_fields[n - 1] @ (M @ pd))
            assert abs(raw + e_n * s.norm_const) < 1e-8 * max(
                1.0, abs(e_n) * s.norm_const)

    def test_lambda1_two_routes_agree(self, series_fine, case9):
        # Route 1: the recursion's first coefficient.  Route 2: the
        # Rayleigh-type quotient -int|grad phi1|^2 / norm_const evaluated
        # from the stored first shell field.
        s = series_fine
        K = region_operator(s.mesh, SHELL).K
        phi1 = s.shell_fields[0]
        quotient = -float(phi1 @ (K @ phi1)) / s.norm_const
        assert s.lambda_coeffs[0] == pytest.approx(quotient, rel=1e-8)

    def test_first_shell_field_matches_oracle(self, series_fine, case9):
        s = series_fine
        m = s.mesh
        shell = sorted(m.region_nodes(1))
        r = np.clip(np.linalg.norm(m.nodes[shell], axis=1), 1.0, case9.r0)
        exact = np.array([annulus_phi1(case9, ri) for ri in r])
        # The oracle profile is normalized to shell-mean zero as well.
        lump = region_operator(m, SHELL).m[shell]
        exact -= (lump @ exact) / lump.sum()
        got = s.shell_fields[0][shell]
        assert np.abs(got - exact).max() < 0.05

    def test_rejects_bad_order(self, mesh_coarse, lambda0_coarse):
        with pytest.raises(InputError):
            expand_series(mesh_coarse, lambda0_coarse, order=0)

    def test_rejects_order_past_cap(self, mesh_coarse, lambda0_coarse,
                                    monkeypatch):
        # |lambda_n| falls through order 13 on the disk and then grows as
        # rounding takes over, so order 14 is refused before any work
        calls = record_splu(monkeypatch)
        assert perturbation.MAX_ORDER == 13
        with pytest.raises(InputError, match="in \\[1, 13\\]"):
            expand_series(mesh_coarse, lambda0_coarse, order=14)
        assert calls == []


class TestConsistencyCheck:
    """`expand_series` checks the consistency condition once, in its
    order-1 Neumann defect, which is lambda0 * (|shell| + int_D psi_d)."""

    @pytest.mark.parametrize("r", [1e-7, 1e-6, 1e-5, 1e-3])
    def test_lambda0_off_root_is_input_error(self, mesh_coarse,
                                             lambda0_coarse, r,
                                             monkeypatch):
        # 1e-7 and 1e-6 passed a looser entry check and were then refused
        # as a NumericalError by the order-1 defect check; the refusal
        # comes before the shell factor solves anything
        counts = record_solves(monkeypatch)
        with pytest.raises(InputError, match="no root of this mesh: its "
                           "consistency residual .*run find_lambda0"):
            expand_series(mesh_coarse, lambda0_coarse * (1 + r), order=3)
        assert counts[1:] == [0]

    def test_lambda0_within_tolerance_of_root_expands(self, mesh_coarse,
                                                      lambda0_coarse):
        # 1e-8 off the root passes the defect check; the coefficients are
        # those the series gave with its former entry check too
        s = expand_series(mesh_coarse, lambda0_coarse * (1 + 1e-8), order=3)
        assert s.lambda_coeffs == pytest.approx(
            [-1.032181387402722, -0.12827813472037275, 0.01306751438129943],
            rel=1e-12)
        assert s.constants == pytest.approx(
            [0.1577092113072875, 0.016417035270645683,
             -0.0026773135773655835], rel=1e-12)

    def test_tiny_lambda0_is_input_error(self, mesh_coarse):
        # psi_d is about 1 at lambda0 = 1e-9, so the consistency residual is
        # about |Omega| while the order-1 defect, lambda0 times it, is about
        # 1e-9 |Omega|; the order-1 tolerance scales with lambda0 as well
        with pytest.raises(InputError, match="no root of this mesh: its "
                           "consistency residual"):
            expand_series(mesh_coarse, 1e-9, order=3)


class TestEvaluation:
    def test_eval_lambda_is_horner_polynomial(self, series_fine):
        s = series_fine
        delta = 0.01 * np.exp(1j * math.pi / 4)
        direct = s.lambda0 + sum(
            c * delta ** (n + 1) for n, c in enumerate(s.lambda_coeffs))
        assert eval_lambda(s, delta) == pytest.approx(direct, rel=1e-14)

    def test_eval_field_at_zero_delta(self, series_fine):
        s = series_fine
        u = eval_field(s, 0.0)
        m = s.mesh
        shell = sorted(m.region_nodes(1))
        core = sorted(m.region_nodes(0))
        assert np.allclose(u[shell], 1.0)
        assert u[core] == pytest.approx(
            s.psi_d.values[core], rel=1e-12)

    def test_psi_d_from_compute(self, mesh_coarse, lambda0_coarse):
        pd = expand_series(mesh_coarse, lambda0_coarse, order=1).psi_d.values
        interface = np.unique(
            mesh_coarse.boundary_edges[mesh_coarse.edge_tags == 0])
        assert np.allclose(pd[interface], 1.0, atol=1e-12)
        assert isinstance(pd, np.ndarray) and pd.shape == (
            mesh_coarse.n_nodes,)

    def test_core_profile_needs_its_factors(self, series_fine):
        # a CoreProfile is made only with the two factors it was solved
        # on, which resonance_near solves with
        pd = series_fine.psi_d
        with pytest.raises(TypeError, match="core_factor.*shell_factor"):
            CoreProfile(pd.mesh, pd.values)


@pytest.fixture(scope="module")
def series_document(series_fine, tmp_path_factory):
    """The document `enzres expand -o` writes for series_fine's mesh,
    lambda0 and order."""
    d = tmp_path_factory.mktemp("series")
    (d / "disk.mesh").write_text(save_mesh(series_fine.mesh))
    argv = ["expand", "--mesh", str(d / "disk.mesh"), "--lambda0",
            repr(series_fine.lambda0), "--order", str(series_fine.order),
            "-o", str(d / "s.json")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    return (d / "s.json").read_text()


class TestSerialization:
    def test_round_trip(self, series_fine, series_document):
        # the document is the coefficients alone, and they read back exactly
        s = series_fine
        assert read_series(series_document) == s.all_lambdas().tolist()
        payload = json.loads(series_document)
        assert payload["e"] == s.constants
        assert payload["norm_const"] == s.norm_const
        assert payload["order"] == s.order
        assert not {"psi_d", "shell_fields", "core_fields"} & set(payload)
        assert len(series_document) < 1024

    def test_round_trip_without_mesh(self, series_fine, series_document):
        # the document reads with no mesh, and its coefficients evaluate
        # lambda(delta) exactly as the series in memory does
        lambda0, *coeffs = read_series(series_document)
        read = SimpleNamespace(lambda0=lambda0, lambda_coeffs=coeffs)
        for delta in (0.01, -0.02, 0.01 * np.exp(1j * math.pi / 4)):
            assert eval_lambda(read, delta) == eval_lambda(series_fine, delta)

    def test_schema_version_present(self, series_document):
        assert json.loads(series_document)["schema_version"] == 1

    def test_rejects_bad_schema(self, series_document):
        payload = json.loads(series_document)
        payload["schema_version"] = 99
        with pytest.raises(InputError):
            read_series(json.dumps(payload))


#: a well-formed series document of order 2, as written before the series
#: document held only coefficients: its fields are ignored
SMALL_SERIES = {"schema_version": 1, "lambda0": 9.0, "lambda": [-1.0, 0.5],
                "e": [0.1, 0.2], "norm_const": 3.0, "psi_d": [1.0, 2.0],
                "shell_fields": [[0.0, 1.0], [2.0, 3.0]],
                "core_fields": [[4.0, 5.0], [6.0, 7.0]]}
#: the keys `read_series` requires
SERIES_KEYS = ("lambda0", "lambda", "e", "norm_const")


class TestSeriesFromJsonRefusals:
    """`dispersion.read_series` on series documents."""

    def test_small_document_reads(self):
        assert read_series(json.dumps(SMALL_SERIES)) == [9.0, -1.0, 0.5]

    def test_other_keys_are_ignored(self):
        # a document of any age reads the same, with its fields malformed,
        # non-finite or gone
        junk = {"psi_d": "x", "shell_fields": [[math.nan]], "core_fields": 1}
        for doc in ({**SMALL_SERIES, **junk},
                    {k: SMALL_SERIES[k] for k in ("schema_version",
                                                  *SERIES_KEYS)}):
            assert read_series(json.dumps(doc)) == [9.0, -1.0, 0.5]

    @pytest.mark.parametrize("text, message", [
        ("enzmesh v1\nnodes 3\n", "not a JSON document"),
        ("[1, 2]", "expected a JSON object, got list"),
        ('"psi_d"', "expected a JSON object, got str"),
        ('{"schema_version": 2}', "unsupported schema_version 2"),
    ])
    def test_refuses_documents_that_are_not_series(self, text, message):
        with pytest.raises(InputError, match=f"^read_series: {message}"):
            read_series(text)

    @pytest.mark.parametrize("key", sorted(SERIES_KEYS))
    def test_missing_key_is_named(self, key):
        doc = {k: v for k, v in SMALL_SERIES.items() if k != key}
        with pytest.raises(InputError, match=f"missing key '{key}'"):
            read_series(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("lambda0", None), ("lambda0", "9"), ("lambda0", [9.0]),
        ("norm_const", {"a": 1}), ("lambda", [-1.0, "x"]), ("e", 0.1),
        ("lambda", [[-1.0], [0.5]]), ("e", [True, False]),
        ("lambda0", 10 ** 400),
    ])
    def test_wrong_type_is_named(self, key, value):
        doc = {**SMALL_SERIES, key: value}
        with pytest.raises(InputError, match=f"'{key}' must be"):
            read_series(json.dumps(doc))

    @pytest.mark.parametrize("key, value", [
        ("lambda0", math.inf), ("lambda0", math.nan), ("norm_const", math.nan),
        ("lambda", [-1.0, math.nan]), ("e", [0.1, -math.inf]),
    ])
    def test_non_finite_number_is_named(self, key, value):
        # json reads NaN and Infinity; each once passed silently or failed
        # downstream under another name
        doc = {**SMALL_SERIES, key: value}
        with pytest.raises(InputError, match=f"'{key}' must be finite"):
            read_series(json.dumps(doc))

    @pytest.mark.parametrize("n_lambda, n_e", [(2, 1), (1, 2), (0, 2)])
    def test_orders_must_agree(self, n_lambda, n_e):
        # a hand-truncated document once traced its resonance and exited 0
        doc = {**SMALL_SERIES, "lambda": SMALL_SERIES["lambda"][:n_lambda],
               "e": SMALL_SERIES["e"][:n_e]}
        with pytest.raises(InputError, match=f"'lambda' holds {n_lambda} "
                                             f"coefficients but 'e' {n_e}"):
            read_series(json.dumps(doc))

    @pytest.mark.parametrize("key", ["psi_d", "shell_fields", "core_fields"])
    def test_field_length_checked_against_mesh(self, series_fine,
                                               series_document, key):
        # a field once read back had to be checked against the mesh it was
        # read with; fields now never leave the series, which holds them
        # one value per node of its own mesh, and the document none of them
        fields = getattr(series_fine, key)
        fields = [fields.values] if key == "psi_d" else fields
        assert len(fields) == (1 if key == "psi_d" else series_fine.order)
        for f in fields:
            assert f.shape == (series_fine.mesh.n_nodes,)
        assert key not in json.loads(series_document)
