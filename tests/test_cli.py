"""Command-line interface: JSON output, file artifacts, and exit codes."""

import contextlib
import io
import json
import math
import os
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


class TestExpand:
    def test_writes_series(self, series_file):
        payload = json.loads(series_file.read_text())
        assert payload["schema_version"] == 1
        assert len(payload["lambda"]) == 3

    def test_stdout_summary(self, mesh_file):
        res = run_cli("expand", "--mesh", str(mesh_file), "--lo", "6",
                      "--hi", "14", "--order", "2")
        assert res.returncode == 0
        payload = json.loads(res.stdout)
        assert payload["order"] == 2
        assert payload["lambda"][0] < 0.0


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

    def test_bad_series_file_exit_2(self):
        res = run_cli("resonate", "--series", "missing.json",
                      "--eps-inf", "6.7", "--omega-p", "0.7",
                      "--omega-0", "1.0", "--gamma-max", "0.006",
                      "--steps", "3")
        assert res.returncode == 2


class TestOptimize:
    def test_dual_and_saddle_agree(self, mesh_file, tmp_path):
        out = tmp_path / "design.json"
        res = run_cli("optimize", "--mesh", str(mesh_file), "--lo", "6",
                      "--hi", "14", "-o", str(out),
                      "--csv", str(tmp_path / "design.csv"))
        assert res.returncode == 0, res.stderr
        dual = json.loads(res.stdout)
        res2 = run_cli("optimize", "--mesh", str(mesh_file), "--lo", "6",
                       "--hi", "14", "--method", "saddle")
        assert res2.returncode == 0, res2.stderr
        saddle = json.loads(res2.stdout)
        assert abs(dual["lambda1"] - saddle["lambda1"]) < 1e-6
        assert (tmp_path / "design.csv").exists()
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert dual["converged"] is True and payload["converged"] is True


class TestValidateDisk:
    def test_passes_and_prints_lines(self):
        res = run_cli("validate-disk", "--h", "0.08")
        assert res.returncode == 0, res.stderr
        for line in res.stdout.splitlines():
            if line.startswith(("PASS", "FAIL")):
                assert line.startswith("PASS")


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
