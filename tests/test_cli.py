"""Command-line surface: file formats, determinism, exit codes."""

import importlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphase
from triphase import cli
from triphase.triplet import sweep_phi

TWO_PI = 2.0 * math.pi


def run(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhaseCurve:
    def test_csv_output_and_roundtrip(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["phase-curve", "--theta", "10", "--chi", "120", "--phi", "0:360:721",
             "--format", "csv", "--out", "curve.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        text = (tmp_path / "curve.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "phi_deg,gamma_rad_unwrapped,gamma_deg_unwrapped"
        assert len(lines) - 1 >= 721  # base grid plus refined rows
        parsed = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        curve = sweep_phi(10, 120, np.linspace(0, 360, 721))
        assert parsed.shape[0] == curve.phi_deg.size
        assert np.allclose(parsed[:, 0], curve.phi_deg, rtol=1e-12, atol=1e-12)
        assert np.allclose(parsed[:, 1], curve.gamma_rad, rtol=1e-12, atol=1e-12)
        assert np.allclose(parsed[:, 2], np.degrees(curve.gamma_rad), rtol=1e-12, atol=1e-12)

    def test_json_jump_diagnostics(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["phase-curve", "--theta", "10", "--chi", "120", "--format", "json",
             "--out", "curve.json"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "curve.json").read_text())
        assert doc["params"]["theta_deg"] == 10.0
        centers = sorted(j["phi_center_deg"] for j in doc["jumps"])
        assert len(centers) == 2
        assert abs(centers[0] - 120.0) < 0.1 and abs(centers[1] - 240.0) < 0.1
        for j in doc["jumps"]:
            assert abs(abs(j["rise_rad"]) - TWO_PI) < 1e-6

    def test_chi_zero_merged_jump(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["phase-curve", "--theta", "10", "--chi", "0", "--format", "json",
             "--out", "c0.json"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "c0.json").read_text())
        assert len(doc["jumps"]) == 1
        assert abs(doc["jumps"][0]["phi_center_deg"] - 180.0) < 0.1
        assert abs(abs(doc["jumps"][0]["rise_rad"]) - 2 * TWO_PI) < 1e-6

    def test_degenerate_theta_rejected(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["phase-curve", "--theta", "0", "--chi", "120"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert "theta" in err

    def test_bad_phi_specs_rejected(self, tmp_path, monkeypatch, capsys):
        for spec in ("10:5:100", "0:360:2", "0:360", "a:b:c", "0:inf:5", "nan:360:5",
                     "-inf:0:5", "0:360:1000001", "0:1e12:3", "-2e7:2e7:3"):
            code, _, err = run(
                ["phase-curve", "--theta", "10", "--chi", "120", f"--phi={spec}"],
                tmp_path, monkeypatch, capsys,
            )
            assert code == 2, spec
            assert err.startswith("error: phi:"), err

    def test_theta_above_90_default_grid(self, tmp_path, monkeypatch, capsys):
        # the steep region sits at phi = 0 here, not at the formula pole 180
        code, out, err = run(
            ["phase-curve", "--theta", "179.9", "--chi", "0", "--out", "c.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0, err
        assert "jumps: 0.000 deg (rise -4.000000 pi" in out


class TestFringe:
    def test_stdout_phase_matches_prediction(self, tmp_path, monkeypatch, capsys):
        code, out, _ = run(
            ["fringe", "--theta", "10", "--chi", "0", "--phi", "0", "--out", "f.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        m = re.search(r"phase_rad=([-0-9.e+]+) visibility=([-0-9.e+]+)", out)
        assert m is not None
        # both arm overlaps are real positive here, so the maximum sits at 0
        assert abs(float(m.group(1))) < 1e-9
        assert float(m.group(2)) == pytest.approx(1.0, abs=1e-9)

    def test_noise_determinism(self, tmp_path, monkeypatch, capsys):
        args = ["fringe", "--theta", "10", "--chi", "120", "--phi", "30",
                "--noise-photons", "10000", "--seed", "42"]
        code1, _, _ = run(args + ["--out", "a.csv"], tmp_path, monkeypatch, capsys)
        code2, _, _ = run(args + ["--out", "b.csv"], tmp_path, monkeypatch, capsys)
        assert code1 == 0 and code2 == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_orthogonal_projector_exits_3(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["fringe", "--theta", "0", "--chi", "0", "--phi", "180", "--out", "f.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 3
        assert "orthogonal" in err

    def test_json_contains_fit_block(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(
            ["fringe", "--theta", "10", "--chi", "120", "--phi", "30",
             "--format", "json", "--out", "f.json"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        doc = json.loads((tmp_path / "f.json").read_text())
        assert set(doc["fit"]) == {"phase_rad", "visibility"}
        assert len(doc["samples"]) == 100

    def test_validation_errors(self, tmp_path, monkeypatch, capsys):
        cases = [
            (["--delta-steps", "2"], "delta-steps"),
            (["--delta-steps", "1000001"], "delta-steps"),  # rejected before any allocation
            (["--noise-photons", "100", "--seed", "-1"], "seed"),
            (["--noise-photons", "-1"], "noise-photons"),
            (["--noise-photons", "inf"], "noise-photons"),
            (["--noise-photons", "nan"], "noise-photons"),
            (["--noise-photons", "2e15"], "noise-photons"),
            (["--theta", "200"], "theta"),
            (["--phi", "400"], "phi"),
        ]
        for extra, field in cases:
            args = ["fringe", "--theta", "10", "--chi", "120", *extra]
            code, _, err = run(args, tmp_path, monkeypatch, capsys)
            assert code == 2, extra
            assert err.startswith(f"error: {field}:"), err

    def test_largest_noise_photons_accepted(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["fringe", "--theta", "10", "--chi", "120", "--noise-photons", "1e15", "--out", "f.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0, err


class TestReproduceFigures:
    def test_panel_count_and_shared_code_path(self, tmp_path, monkeypatch, capsys):
        code, _, _ = run(["reproduce-figures", "--out", "figs"], tmp_path, monkeypatch, capsys)
        assert code == 0
        files = sorted(p.name for p in (tmp_path / "figs").glob("*.csv"))
        assert len(files) == 16
        assert "theta-sweep_chi120_theta2.csv" in files
        assert "theta-sweep_chi180_theta45.csv" in files
        assert "chi-sweep_theta10_chi60.csv" in files
        code, _, _ = run(
            ["phase-curve", "--theta", "10", "--chi", "120", "--out", "direct.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0
        assert (tmp_path / "figs" / "chi-sweep_theta10_chi120.csv").read_bytes() == (
            tmp_path / "direct.csv"
        ).read_bytes()


def _strip_timing(report: str) -> str:
    return re.sub(r" \[[0-9.]+s\]", "", re.sub(r" in [0-9.]+s$", "", report, flags=re.M))


class TestVerify:
    def test_all_pass_and_report_deterministic(self, tmp_path, monkeypatch, capsys):
        code1, out1, _ = run(["verify"], tmp_path, monkeypatch, capsys)
        assert code1 == 0
        lines = [ln for ln in out1.strip().splitlines() if ln and ln[0] in "PF"]
        assert len(lines) == 10
        assert all(ln.startswith("PASS") for ln in lines)
        code2, out2, _ = run(["verify"], tmp_path, monkeypatch, capsys)
        assert code2 == 0
        assert _strip_timing(out1) == _strip_timing(out2)


def _assert_phase_curve_help(argv, env=None):
    proc = subprocess.run(
        argv + ["phase-curve", "--help"], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "--theta" in proc.stdout


def _pyproject() -> dict:
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with (Path(__file__).resolve().parents[1] / "pyproject.toml").open("rb") as fh:
        return tomllib.load(fh)


def test_runtime_depends_on_numpy_only():
    deps = _pyproject()["project"]["dependencies"]
    assert [re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower() for d in deps] == ["numpy"], deps


def test_console_script_installed():
    # `python -m triphase` launches the same `cli.main` as the console script and needs
    # no install; the child imports the package this test imported.
    package_root = str(Path(triphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    _assert_phase_curve_help([sys.executable, "-m", "triphase"], env)
    installed = shutil.which("triphase")
    if installed:
        _assert_phase_curve_help([installed])

    # the [project.scripts] entry names a real callable: cli.main
    target = _pyproject()["project"]["scripts"]["triphase"]
    module_name, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attr, None)
    assert entry is cli.main, target
