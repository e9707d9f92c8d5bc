"""Command-line interface: JSON output, file artifacts, and exit codes."""

import json
import subprocess
import sys

import pytest

R0 = "1.3671899114809272"


def run_cli(*args, env=None):
    cmd = [sys.executable, "-m", "enzres.cli", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env)


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

    def test_missing_file_exit_2(self):
        res = run_cli("mesh", "--kind", "file", "--in", "no-such.mesh")
        assert res.returncode == 2


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


class TestThreadsEnv:
    def test_garbage_value_exit_2(self, mesh_file):
        import os
        env = dict(os.environ, ENZRES_THREADS="zebra")
        res = run_cli("lambda0", "--mesh", str(mesh_file),
                      "--lo", "6", "--hi", "14", env=env)
        assert res.returncode == 2

    def test_valid_value_recorded(self, mesh_file):
        import os
        env = dict(os.environ, ENZRES_THREADS="2")
        res = run_cli("lambda0", "--mesh", str(mesh_file),
                      "--lo", "6", "--hi", "14", env=env)
        assert res.returncode == 0
        assert json.loads(res.stdout)["threads"] == 2
