"""Command-line interface: JSON output, file artifacts, and exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from enzres import cli
from enzres import dispersion as disp
from enzres.mesh import save_mesh

from conftest import overflowing_mesh

R0 = "1.3671899114809272"


def run_cli(*args, timeout=None):
    cmd = [sys.executable, "-m", "enzres.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "disk.mesh"
    res = run_cli("mesh", "--kind", "concentric", "--rd", "1.0",
                  "--r0", R0, "--rb", "2.0", "--h", "0.08",
                  "-o", str(path))
    assert res.returncode == 0, res.stderr
    return path


@pytest.fixture(scope="module")
def series_file(mesh_file, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "series.json"
    res = run_cli("expand", "--mesh", str(mesh_file), "--lo", "6",
                  "--hi", "14", "--order", "3", "-o", str(path))
    assert res.returncode == 0, res.stderr
    return path


class TestMesh:
    def test_emits_metrics_json(self, mesh_file):
        res = run_cli("mesh", "--kind", "file", "--in", str(mesh_file))
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["schema_version"] == 1
        assert payload["metrics"]["n_nodes"] > 0

    def test_round_trip_byte_identical(self, mesh_file, tmp_path):
        out = tmp_path / "copy.mesh"
        res = run_cli("mesh", "--kind", "file", "--in", str(mesh_file),
                      "-o", str(out))
        assert res.returncode == 0
        assert out.read_bytes() == mesh_file.read_bytes()

    def test_bad_radii_exit_2(self, tmp_path):
        res = run_cli("mesh", "--kind", "concentric", "--rd", "2.0",
                      "--r0", "1.0", "--h", "0.1",
                      "-o", str(tmp_path / "x.mesh"))
        assert res.returncode == 2
        assert "error" in res.stderr.lower()

    @pytest.mark.parametrize("h", ["nan", "inf"])
    def test_non_finite_float_exit_2(self, h):
        res = run_cli("mesh", "--rd", "1", "--r0", "1.3", "--h", h)
        assert res.returncode == 2
        assert "must be finite" in res.stderr
        assert "internal error" not in res.stderr

    def test_node_budget_exit_2(self):
        # 1e-9 would need about 1e19 nodes; the budget refuses it before
        # anything is allocated.
        res = run_cli("mesh", "--kind", "concentric", "--rd", "1",
                      "--r0", "1.3", "--h", "1e-9", timeout=30)
        assert res.returncode == 2
        assert "MAX_NODES" in res.stderr

    @pytest.mark.parametrize("argv", [
        ["mesh", "--kind", "concentric", "--rd", "1", "--r0", "1.3"],
        ["validate-disk"]], ids=["mesh", "validate-disk"])
    def test_node_count_past_float_range_exit_2(self, argv):
        # h = 1e-300 needs about 1e601 nodes, a count that once failed to
        # format in the MAX_NODES refusal
        code, err = run_main([*argv, "--h", "1e-300"])
        assert code == 2
        assert "MAX_NODES" in err
        assert "internal error" not in err

    def test_underflowing_triangle_area_exit_2(self):
        # a core of radius 1e-300 has counter-clockwise triangles whose
        # areas underflow to 0; they were blamed on their orientation
        code, err = run_main(["mesh", "--kind", "concentric", "--rd",
                              "1e-300", "--r0", "1", "--h", "0.1"])
        assert code == 2
        assert "zero triangle area" in err and "orient" not in err
        assert "internal error" not in err

    @pytest.mark.parametrize("argv, flags", [
        (["--kind", "concentric", "--rd", "1", "--r0", "1.3", "--h", "0.2",
          "--in", "no-such.mesh"], ["--in"]),
        (["--kind", "file", "--in", "MESH", "--rd", "5", "--r0", "9",
          "--h", "7", "--rb", "11"], ["--rd", "--r0", "--rb", "--h"]),
        (["--kind", "file", "--in", "MESH", "--h", "0.1"], ["--h"])],
        ids=["concentric-in", "file-all", "file-h"])
    def test_other_kinds_flags_exit_2(self, mesh_file, tmp_path, argv,
                                      flags):
        # each kind once dropped the other kind's flags and exited 0
        out = tmp_path / "x.mesh"
        argv = [str(mesh_file) if a == "MESH" else a for a in argv]
        code, err = run_main(["mesh", *argv, "-o", str(out)])
        assert code == 2
        assert all(flag in err for flag in flags), err
        assert "internal error" not in err
        assert not out.exists()

    def test_missing_file_exit_2(self):
        res = run_cli("mesh", "--kind", "file", "--in", "no-such.mesh")
        assert res.returncode == 2

    @pytest.mark.parametrize("data", [
        b"enzmesh v1\nnodes 99999999999999\n", b"enzmesh v1\n# \xff\n",
        pytest.param(save_mesh(overflowing_mesh()).encode(),
                     id="area-overflow")])
    def test_bad_mesh_file_exit_2(self, tmp_path, data):
        # a count far beyond the file, a byte that is not text, and finite
        # coordinates whose triangle areas overflow
        path = tmp_path / "bad.mesh"
        path.write_bytes(data)
        code, err = run_main(["mesh", "--kind", "file", "--in", str(path)])
        assert code == 2
        assert "internal error" not in err


class TestLambda0:
    def test_recovers_nine(self, mesh_file):
        res = run_cli("lambda0", "--mesh", str(mesh_file),
                      "--lo", "6", "--hi", "14")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert abs(payload["lambda0"] - 9.0) < 0.1

    def test_bad_interval_exit_2(self, mesh_file):
        res = run_cli("lambda0", "--mesh", str(mesh_file),
                      "--lo", "0.1", "--hi", "1.0")
        assert res.returncode == 2

    @pytest.mark.parametrize("lo, hi", [("6", "1e308"), ("1e-300", "1e300")])
    def test_unresolvable_interval_exit_2(self, mesh_file, lo, hi):
        # the shift, near 5e307, once ended in an ARPACK internal error
        code, err = run_main(["lambda0", "--mesh", str(mesh_file),
                              "--lo", lo, "--hi", hi])
        assert code == 2
        assert "narrow" in err
        assert "internal error" not in err

    def test_singular_shift_at_zero_eigenvalue_exit_2(self, mesh_file):
        # the midpoint meets an exactly singular pencil factor, and the
        # interval holds no root: an input error, not a numerical one
        code, err = run_main(["lambda0", "--mesh", str(mesh_file),
                              "--lo", "2.4e-38", "--hi", "4.18e-14"])
        assert code == 2
        assert "eigenvalue 0" in err
        assert "internal error" not in err


class TestExpand:
    def test_writes_series(self, series_file):
        # the coefficients only: 326 KB on this mesh while it held fields
        payload = json.loads(series_file.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["lambda"]) == len(payload["e"]) == 3
        assert series_file.stat().st_size < 1024

    def test_document_is_the_printed_object(self, mesh_file, tmp_path):
        # -o writes the JSON object expand prints, byte for byte
        out = tmp_path / "s.json"
        res = run_cli("expand", "--mesh", str(mesh_file), "--lo", "6",
                      "--hi", "14", "--order", "2", "-o", str(out))
        assert res.returncode == 0, res.stderr
        assert out.read_text() == res.stdout

    @pytest.mark.parametrize("command", ["expand", "optimize"])
    @pytest.mark.parametrize("lambda0", ["1e300", "1e308"])
    def test_lambda0_past_pencil_bound_exit_2(self, tmp_path, command,
                                              lambda0):
        # no eigenvalue of the collapsed pencil lies past its Gershgorin
        # bound, so no root does; these once failed the first factor's
        # condition estimate (exit 1)
        path = tmp_path / "disk.mesh"
        assert run_main(["mesh", "--rd", "1", "--r0", "1.3", "--rb", "2",
                         "--h", "0.15", "-o", str(path)])[0] == 0
        code, err = run_main([command, "--mesh", str(path), "--lambda0",
                              lambda0])
        assert code == 2
        assert re.search(r"exceeds \d+, a bound on the largest eigenvalue",
                         err)
        assert "internal error" not in err

    def test_lambda0_off_root_exit_2(self, mesh_file):
        # 1e-6 off the root once passed the consistency entry check and
        # failed the recursion's order-1 defect check (exit 1)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["lambda0", "--mesh", str(mesh_file), "--lo",
                             "6", "--hi", "14"]) == 0
        lam = json.loads(out.getvalue())["lambda0"] * (1 + 1e-6)
        code, err = run_main(["expand", "--mesh", str(mesh_file),
                              "--lambda0", repr(lam)])
        assert code == 2
        assert "no root of this mesh" in err
        assert "internal error" not in err

    def test_tiny_lambda0_exit_2(self, mesh_file):
        # the order-1 defect at lambda0 = 1e-9 is about 1e-9 |Omega|, but
        # the consistency residual it is lambda0 times is about |Omega|
        code, err = run_main(["expand", "--mesh", str(mesh_file),
                              "--lambda0", "1e-9"])
        assert code == 2
        assert "no root of this mesh" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command, lambda0", [("expand", "5e-324"),
                                                  ("optimize", "1e-16")])
    def test_lambda0_below_floor_exit_2(self, mesh_file, command, lambda0):
        # eps times the collapsed pencil's bound is 3.8e-10 on this disk,
        # and a lambda0 at or below it cannot be told from the pencil's
        # eigenvalue 0.  expand once overflowed a division at 5e-324 (exit
        # 1 with the warning an error), and optimize refused 1e-16 for a
        # rounding-level <f, 1>; both now meet the floor before any work
        code, err = run_main([command, "--mesh", str(mesh_file),
                              "--lambda0", lambda0])
        assert code == 2
        assert (f"lambda0 {lambda0} lies within rounding (3.8e-10) of the "
                "collapsed pencil's eigenvalue 0") in err
        assert "internal error" not in err and "Warning" not in err

    @pytest.mark.parametrize("command", ["expand", "optimize"])
    @pytest.mark.parametrize("flags", [
        ["--lambda0", "9.6", "--lo", "100", "--hi", "200"],
        ["--lambda0", "9.6", "--lo", "6"], ["--lambda0", "9.6", "--hi", "14"],
        ["--lambda0", "9", "--lo", "6", "--hi", "14"]],
        ids=["lo-hi", "lo", "hi", "root-interval"])
    def test_lambda0_with_interval_exit_2(self, mesh_file, command, flags):
        # the interval was dropped without a word, and a --lambda0 off the
        # root then failed the consistency check instead; an interval
        # around the root is refused as well
        code, err = run_main([command, "--mesh", str(mesh_file), *flags])
        assert code == 2
        assert "--lambda0" in err and "--lo" in err
        assert "internal error" not in err

    def test_oversized_order_exit_2(self, mesh_file):
        # orders past 13 are rounding noise on the disk
        for order in ("14", "1000000"):
            res = run_cli("expand", "--mesh", str(mesh_file), "--lambda0",
                          "9", "--order", order)
            assert res.returncode == 2
            assert "order must be in [1, 13]" in res.stderr

    def test_stdout_summary(self, mesh_file):
        res = run_cli("expand", "--mesh", str(mesh_file), "--lo", "6",
                      "--hi", "14", "--order", "2")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["order"] == 2
        assert payload["lambda"][0] < 0.0


def resonate_argv(series_file):
    """`resonate` with CI's SiC flags; a flag repeated after it wins."""
    return ["resonate", "--series", str(series_file), "--eps-inf", "6.7",
            "--omega-p", "0.7", "--omega-0", "1.0", "--gamma-max", "0.006",
            "--steps", "3"]


class TestResonate:
    def test_trace_csv(self, series_file, tmp_path):
        out = tmp_path / "trace.csv"
        res = run_cli("resonate", "--series", str(series_file),
                      "--eps-inf", "6.7", "--omega-p", "0.7",
                      "--omega-0", "1.0", "--gamma-max", "0.006",
                      "--steps", "4", "-o", str(out))
        assert res.returncode == 0, res.stderr
        payload = json.loads(res.stdout)
        assert payload["omega_prime0"][1] < 0.0
        # t = sqrt(lambda0 / lambda*) from the stored lambda0, with
        # lambda* = omega*^2 * eps_D = (0.7^2 + 1.0^2) * 1.0
        lam0 = json.loads(series_file.read_text())["lambda0"]
        assert payload["calibration_scale_t"] == math.sqrt(
            lam0 / disp.lambda_star(disp.LorentzParams(6.7, 0.7, 1.0),
                                    disp.CoreDielectric(1.0)))
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("gamma,")
        assert len(lines) == 6

    def test_oversized_steps_exit_2(self, series_file):
        res = run_cli("resonate", "--series", str(series_file),
                      "--eps-inf", "6.7", "--omega-p", "0.7",
                      "--omega-0", "1.0", "--gamma-max", "0.006",
                      "--steps", "10000000000000")
        assert res.returncode == 2
        assert "internal error" not in res.stderr

    @pytest.mark.parametrize("flags, message", [
        (["--eps-inf", "1e308", "--omega-p", "1e308"], "LorentzParams"),
        (["--gamma-max", "1e308"], "gamma_max <= 100 \\* omega\\*")],
        ids=["eps-inf-omega-p", "gamma-max"])
    def test_overflowing_lorentz_input_exit_2(self, series_file, flags,
                                               message):
        # both overflowed the Lorentz arithmetic into an internal error
        argv = ["resonate", "--series", str(series_file), "--eps-inf", "6.7",
                "--omega-p", "0.7", "--omega-0", "1.0", "--gamma-max",
                "0.006", "--steps", "3", *flags]
        code, err = run_main(argv)
        assert code == 2
        assert re.search(message, err)
        assert "internal error" not in err

    @pytest.mark.parametrize("omega_p", ["1e5", "1e10", "1e25", "1e50"])
    def test_large_omega_p_exit_0(self, series_file, tmp_path, omega_p):
        # the finite-difference check of the sensitivities once used an
        # absolute step and refused these
        code, err = run_main([*resonate_argv(series_file), "--omega-p",
                              omega_p, "-o", str(tmp_path / "t.csv")])
        assert code == 0, err

    @pytest.mark.parametrize("flags, message", [
        (["--omega-p", "1e-200"], "LorentzParams"),
        (["--eps-inf", "1e-320"], "LorentzParams"),
        (["--eps-d", "1e-320"], "CoreDielectric"),
        (["--omega-0", "1e50", "--omega-p", "1e25"], "omega_p >= 0.01"),
        (["--omega-0", "1e5"], "omega_p >= 0.01")],
        ids=["omega-p-tiny", "eps-inf-subnormal", "eps-d-subnormal",
             "omega-0-1e50", "omega-0-1e5"])
    def test_out_of_model_range_exit_2(self, series_file, tmp_path, flags,
                                       message):
        # a vanishing omega_p once divided by zero, a subnormal eps_d failed
        # the finite-difference check, and omega_0 >> omega_p leaves
        # omega*^2 - omega_0^2 without the digits of omega_p^2
        code, err = run_main([*resonate_argv(series_file), *flags,
                              "-o", str(tmp_path / "t.csv")])
        assert code == 2
        assert message in err
        assert "internal error" not in err

    def test_bad_series_file_exit_2(self):
        res = run_cli("resonate", "--series", "missing.json",
                      "--eps-inf", "6.7", "--omega-p", "0.7",
                      "--omega-0", "1.0", "--gamma-max", "0.006",
                      "--steps", "3")
        assert res.returncode == 2

    @pytest.mark.parametrize("data", [
        b"\x7fELF\x02\x01\xd0\xff", b'{"schema_version": 1}', b"[1, 2]",
        b"enzmesh v1\nnodes 3\n", "MESH"],
        ids=["binary", "no-keys", "list", "mesh", "saved-mesh"])
    def test_malformed_series_file_exit_2(self, mesh_file, tmp_path, data):
        # MESH: the whole saved disk mesh given as --series
        path = tmp_path / "bad.json"
        path.write_bytes(mesh_file.read_bytes() if data == "MESH" else data)
        code, err = run_main(resonate_argv(path))
        assert code == 2
        assert "internal error" not in err

    @pytest.mark.parametrize("key, index, value", [
        ("e", 0, math.nan), ("norm_const", None, math.nan),
        ("lambda", 2, math.nan), ("lambda0", None, math.inf)])
    def test_non_finite_series_number_exit_2(self, series_file, tmp_path,
                                             key, index, value):
        # NaN in e or norm_const was accepted silently, a NaN lambda_3
        # ended in "Newton diverged" (exit 1) after a RuntimeWarning, and
        # an infinite lambda0 was refused under another key
        doc = json.loads(series_file.read_text())
        if index is None:
            doc[key] = value
        else:
            doc[key][index] = value
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, err = run_main([*resonate_argv(path), "-o",
                              str(tmp_path / "t.csv")])
        assert code == 2
        assert f"'{key}' must be finite" in err
        assert "internal error" not in err
        assert "RuntimeWarning" not in err

    def test_newton_not_converging_is_no_internal_error(self, series_file,
                                                        tmp_path):
        # eps_inf = 1.2e29 (inside the model's range) puts delta far past
        # where the order-3 series answers; Newton then stops at its step
        # limit, which names the gamma.  Exit 1 (a numerical failure) or 2
        # (refused as input) both say so; 0 would be an answer.
        out = tmp_path / "t.csv"
        code, err = run_main([*resonate_argv(series_file), "--eps-inf",
                              "123456789012345678901234567890", "--steps",
                              "20", "-o", str(out)])
        assert code in (1, 2)
        assert re.search(r"gamma = [0-9.e-]+", err), err
        assert "internal error" not in err
        assert not out.exists()

    def test_document_with_fields_traces_the_same(self, series_file,
                                                  tmp_path):
        # a document that also holds the series' fields, as written before
        # the document held only coefficients, gives the same trace
        doc = json.loads(series_file.read_text())
        old = {**doc, "psi_d": [1.0, 0.5], "shell_fields": [[0.0]] * 3,
               "core_fields": [[0.0]] * 3}
        path = tmp_path / "old.json"
        path.write_text(json.dumps(old))
        csv = []
        for series in (series_file, path):
            out = tmp_path / f"{series.stem}.csv"
            code, err = run_main([*resonate_argv(series), "-o", str(out)])
            assert code == 0, err
            csv.append(out.read_bytes())
        assert csv[0] == csv[1]

    def test_truncated_series_exit_2(self, series_file, tmp_path):
        # 3 lambda and 1 e: the orders disagree, and the trace once ran on
        # such a document and exited 0
        doc = json.loads(series_file.read_text())
        doc["e"] = doc["e"][:1]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(doc))
        code, err = run_main([*resonate_argv(path), "-o",
                              str(tmp_path / "t.csv")])
        assert code == 2
        assert "'lambda' holds 3 coefficients but 'e' 1" in err
        assert "internal error" not in err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("order, expected", [(13, 0), (14, 2)])
    def test_series_past_max_order_exit_2(self, series_file, tmp_path,
                                          order, expected):
        # the order-3 document padded with zeros: 10,000 orders once traced
        # for 1.4 s and exited 0, though no series runs past MAX_ORDER
        doc = json.loads(series_file.read_text())
        pad = [0.0] * (order - len(doc["lambda"]))
        doc["lambda"] += pad
        doc["e"] += pad
        path, out = tmp_path / "s.json", tmp_path / "t.csv"
        path.write_text(json.dumps(doc))
        code, err = run_main([*resonate_argv(path), "-o", str(out)])
        assert code == expected, err
        if expected == 2:
            assert f"holds {order} coefficients, past the highest order " \
                   "MAX_ORDER = 13" in err
            assert not out.exists()


class TestOptimize:
    def test_dual_design_converges(self, mesh_file, tmp_path):
        out = tmp_path / "design.json"
        res = run_cli("optimize", "--mesh", str(mesh_file), "--lo", "6",
                      "--hi", "14", "-o", str(out),
                      "--csv", str(tmp_path / "design.csv"))
        assert res.returncode == 0, res.stderr
        dual = json.loads(res.stdout)
        assert (tmp_path / "design.csv").exists()
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert dual["converged"] is True and payload["converged"] is True

    @pytest.mark.parametrize("method", ["dual", "saddle"])
    def test_method_is_no_option(self, mesh_file, method):
        # the dual is the one design path; the saddle iteration is a
        # library cross-check (test_design)
        code, err = run_main(["optimize", "--mesh", str(mesh_file), "--lo",
                              "6", "--hi", "14", "--method", method])
        assert code == 2
        assert "unrecognized arguments: --method" in err
        assert "internal error" not in err

    def test_underflowing_lambda0_exit_2(self, mesh_file):
        # <f, 1> / lambda0 once overflowed here; lambda0 now meets the
        # window's floor before any work (test_design covers the overflow
        # refusal), without a RuntimeWarning (which the test run turns into
        # an error)
        code, err = run_main(["optimize", "--mesh", str(mesh_file),
                              "--lambda0", "5e-324"])
        assert code == 2
        assert "within rounding (3.8e-10)" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("h", ["0.16", "0.12", "0.1", "0.08"])
    def test_mesh_without_slack_ring_exit_2(self, tmp_path, h):
        # without a slack ring the design region is the shell, whose area
        # A0 equals at the root up to rounding of either sign: refused
        # whichever way it falls, never answered with the whole shell
        path = tmp_path / "noslack.mesh"
        assert run_main(["mesh", "--rd", "1", "--r0", R0, "--h", h,
                         "-o", str(path)])[0] == 0
        code, err = run_main(["optimize", "--mesh", str(path), "--lo", "6",
                              "--hi", "14"])
        assert code == 2
        assert "the design region must exceed A0" in err
        assert "slack ring (region 2, --rb)" in err
        assert "internal error" not in err


#: every file a command writes, as (argv with OUT for the path) pairs
WRITES = {
    "mesh": ["mesh", "--rd", "1", "--r0", R0, "--h", "0.3", "-o", "OUT"],
    "lambda0": ["lambda0", "--mesh", "MESH", "--lo", "6", "--hi", "14",
                "-o", "OUT"],
    "expand": ["expand", "--mesh", "MESH", "--lo", "6", "--hi", "14",
               "--order", "1", "-o", "OUT"],
    "resonate": ["resonate", "--series", "SERIES", "--eps-inf", "6.7",
                 "--omega-p", "0.7", "--omega-0", "1.0", "--gamma-max",
                 "0.006", "--steps", "3", "-o", "OUT"],
    "optimize-o": ["optimize", "--mesh", "MESH", "--lambda0", "9",
                   "-o", "OUT"],
    "optimize-csv": ["optimize", "--mesh", "MESH", "--lambda0", "9",
                     "--csv", "OUT"],
}


@pytest.fixture
def no_work(monkeypatch):
    """The mesh build, the root find, the dual design and the trace each
    fail the test if they start."""
    from enzres import design, perturbation

    def fail(*args, **kwargs):
        pytest.fail("work started before the output path was checked")

    for owner, name in ((cli, "build_concentric_mesh"),
                        (perturbation, "find_lambda0"),
                        (design, "minimize_dual"), (disp, "trace_resonance")):
        monkeypatch.setattr(owner, name, fail)


@pytest.mark.parametrize("name", sorted(WRITES))
def test_unwritable_output_exit_2(name, mesh_file, series_file, tmp_path,
                                  no_work):
    # refused before any work
    paths = {"MESH": str(mesh_file), "SERIES": str(series_file),
             "OUT": str(tmp_path / "missing" / "out")}
    code, err = run_main([paths.get(a, a) for a in WRITES[name]])
    assert code == 2
    assert "cannot write" in err
    assert "internal error" not in err


#: an output path that names an input file, or the other output: argv
#: with MESH, SERIES and OUT for copies in one directory, and the two flags
#: the refusal names; expand's -o spells the mesh's path another way
CLOBBERS = {
    "mesh": (["mesh", "--kind", "file", "--in", "MESH", "-o", "MESH"],
             ["--in", "-o"]),
    "lambda0": (["lambda0", "--mesh", "MESH", "--lo", "6", "--hi", "14",
                 "-o", "MESH"], ["--mesh", "-o"]),
    "expand": (["expand", "--mesh", "MESH", "--lo", "6", "--hi", "14",
                "-o", "DOT/MESH"], ["--mesh", "-o"]),
    "resonate": ([*WRITES["resonate"][:-1], "SERIES"], ["--series", "-o"]),
    "optimize": (["optimize", "--mesh", "MESH", "--lambda0", "9", "-o", "OUT",
                  "--csv", "OUT"], ["-o", "--csv"]),
}


@pytest.mark.parametrize("name", sorted(CLOBBERS))
def test_output_naming_an_input_exit_2(name, mesh_file, series_file,
                                       tmp_path, no_work):
    # expand once wrote its series over the mesh it read (exit 0, and the
    # next command on the mesh failed), and optimize -o X --csv X left the
    # CSV alone; both are refused before any work, and no file changes
    mesh, series = tmp_path / "disk.mesh", tmp_path / "s.json"
    mesh.write_bytes(mesh_file.read_bytes())
    series.write_bytes(series_file.read_bytes())
    paths = {"MESH": str(mesh), "SERIES": str(series),
             "DOT/MESH": os.path.join(tmp_path, ".", "disk.mesh"),
             "OUT": str(tmp_path / "out")}
    argv, flags = CLOBBERS[name]
    code, err = run_main([paths.get(a, a) for a in argv])
    assert code == 2
    assert all(f"{flag} " in err for flag in flags), err
    assert "internal error" not in err
    assert mesh.read_bytes() == mesh_file.read_bytes()
    assert series.read_bytes() == series_file.read_bytes()
    assert not (tmp_path / "out").exists()


def test_import_leaves_the_oracle_unloaded():
    # only the solver commands need scipy, and only validate-disk the
    # closed forms, so importing the CLI (timed in every benchmark setup)
    # loads neither
    code = ("import sys, enzres.cli; "
            "print(sorted(m for m in sys.modules if m == "
            "'enzres.bessel_oracle' or m.split('.')[0] == 'scipy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


def test_resonate_loads_no_scipy(series_file, tmp_path):
    # a trace needs only the stored coefficients
    code = ("import contextlib, io, sys\n"
            "from enzres import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    status = cli.main(sys.argv[1:])\n"
            "print(status, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    argv = [*resonate_argv(series_file), "-o", str(tmp_path / "t.csv")]
    res = subprocess.run([sys.executable, "-c", code, *argv],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "0 []"


class TestValidateDisk:
    def test_passes_and_prints_lines(self):
        res = run_cli("validate-disk", "--h", "0.08")
        assert res.returncode == 0, res.stderr
        for line in res.stdout.splitlines():
            if line.startswith(("PASS", "FAIL")):
                assert line.startswith("PASS")
                # three significant digits; past them E_2 and the flux
                # identity are rounding noise
                value = line.rsplit(" ", 1)[1]
                assert value == f"{float(value):#.3g}"
        # criterion 2 runs on the series' factors; the JSON follows the
        # PASS/FAIL lines
        doc = json.loads(res.stdout[res.stdout.index("{"):])
        assert doc["schema_version"] == 1
        r1, r2 = doc["remainder_ratios"]
        assert 2 <= r1 <= 8 and 4 <= r2 <= 16

    @pytest.mark.parametrize("h", ["1e-3", "1.5e-3"])
    def test_oversized_h_refused_before_any_root(self, h, monkeypatch):
        # the finest mesh is built first: its node budget refuses the h
        # given, before a coarser mesh's lambda0 is searched for
        from enzres import perturbation

        def no_root(*args):
            raise AssertionError("find_lambda0 called")

        monkeypatch.setattr(perturbation, "find_lambda0", no_root)
        code, err = run_main(["validate-disk", "--h", h])
        assert code == 2
        assert f"h = {float(h)} " in err

    @pytest.mark.parametrize("h", ["0.4", "0.6", "1.2"])
    def test_coarse_h_names_the_h_given(self, h, monkeypatch):
        # the mesh at h is fine, but the convergence order's mesh at 4h is
        # too coarse; the refusal once named 4h alone, an h never given
        from enzres import perturbation

        def no_root(*args):
            raise AssertionError("find_lambda0 called")

        monkeypatch.setattr(perturbation, "find_lambda0", no_root)
        code, err = run_main(["validate-disk", "--h", h])
        assert code == 2
        assert f"--h {h}:" in err and "4h" in err


class ClosedPipe(io.TextIOBase):
    """A stdout whose reader has left: every write raises BrokenPipeError.
    It reports the file descriptor it is given."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_closed_stdout_is_not_an_internal_error(tmp_path, monkeypatch,
                                                capsys):
    # `enzres ... | head`: the reader may close the pipe before the JSON is
    # written; main returns 1 quietly and points stdout at the null device
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fh.fileno()))
        code = cli.main(["mesh", "--kind", "concentric", "--rd", "1",
                         "--r0", R0, "--h", "0.3"])
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert code == 1
    assert "internal error" not in capsys.readouterr().err


def run_main(argv):
    """Run the CLI in-process; returns (exit code, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, err.getvalue()


#: number arguments argparse must refuse (1e400 parses as inf)
BAD_NUMBERS = ["nan", "inf", "-inf", "1e400", "abc", ""]


def numbers(lo, hi):
    """Argument text: a finite float in [lo, hi] or a refused number."""
    return st.one_of(
        st.floats(min_value=lo, max_value=hi).map(repr),
        st.sampled_from(BAD_NUMBERS))


def as_float(text):
    """The value argparse accepts, or None for a refused number."""
    try:
        val = float(text)
    except ValueError:
        return None
    return val if math.isfinite(val) else None


class TestFuzzArguments:
    """Argument vectors for `mesh` and `lambda0`: the exit code is 0, 1 or
    2 (never 1 for a valid `lambda0` bracket), a refused number or an
    invalid value gives 2, and no failure is reported as internal.  Valid
    mesh sizes stay at h >= 0.08; smaller ones are only tried where the
    node budget must refuse them."""

    @settings(max_examples=40, deadline=None)
    @given(rd=numbers(-0.5, 2.0), r0=numbers(-0.5, 2.5),
           rb=st.none() | numbers(-0.5, 3.0),
           h=numbers(0.08, 1.5) | st.sampled_from(["0", "-0.1", "1e-9"]))
    def test_mesh(self, rd, r0, rb, h):
        argv = ["mesh", "--kind", "concentric", "--rd", rd, "--r0", r0,
                "--h", h] + ([] if rb is None else ["--rb", rb])
        code, err = run_main(argv)
        assert "internal error" not in err
        assert code in (0, 1, 2)
        values = [as_float(t) for t in (rd, r0, h, rb) if t is not None]
        if None in values:
            assert code == 2
            return
        radii = [0.0] + values[:2] + values[3:]
        h = values[2]
        bands = [b - a for a, b in zip(radii, radii[1:])]
        if min(bands) <= 0 or h < 0.08:
            assert code == 2
        elif min(bands) > 1e-6:  # thinner bands may fail mesh validation
            coarse = math.ceil(2 * math.pi * radii[-1] / h) < 8
            assert code == (2 if coarse else 0), err

    @settings(max_examples=30, deadline=None)
    @given(lo=numbers(-2.0, 40.0), hi=numbers(-2.0, 40.0))
    def test_lambda0(self, mesh_file, lo, hi):
        code, err = run_main(["lambda0", "--mesh", str(mesh_file),
                              "--lo", lo, "--hi", hi])
        assert "internal error" not in err
        assert code in (0, 1, 2)
        t_lo, t_hi = as_float(lo), as_float(hi)
        if t_lo is None or t_hi is None or not 0 < t_lo < t_hi:
            assert code == 2
        else:
            # a valid bracket gives its one root or a refusal; a numerical
            # failure (say, a spurious root failing the final residual
            # check) would exit with 1
            assert code in (0, 2), err
