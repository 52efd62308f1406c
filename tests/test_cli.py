"""Command-line surface: file formats, determinism, exit codes."""

import hashlib
import importlib
import json
import math
import os
import platform
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphase
from triphase import cli, verify
from triphase.core import UndefinedPhase
from triphase.eraser import default_delta_grid, extract_fringe_phase, fringe_trace
from triphase.triplet import TripletParams, make_triplet, sweep_phi

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

    def test_rejected_theta_is_printed_exactly(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["phase-curve", "--theta", "180.0000001", "--chi", "120"], tmp_path, monkeypatch, capsys
        )
        assert code == 2
        assert err == "error: theta: must lie in (0, 180), got 180.0000001\n"

    def test_bad_phi_specs_rejected(self, tmp_path, monkeypatch, capsys):
        for spec in ("10:5:100", "0:360:2", "0:360", "a:b:c", "0:inf:5", "nan:360:5",
                     "-inf:0:5", "0:360:1000001", "0:1e12:3", "-2e7:2e7:3", "0:5e-324:3",
                     "1e16:1.0000000000000004e16:5", "1e15:1.000000000001e15:3"):
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
            (["--delta-steps", "2"], "delta-steps", "2"),
            (["--delta-steps", "3"], "delta-steps", "3"),  # spans less than the fit needs
            (["--delta-steps", "9"], "delta-steps", "9"),
            (["--delta-steps", "1000001"], "delta-steps", "1000001"),  # rejected before any allocation
            (["--noise-photons", "100", "--seed", "-1"], "seed", "-1"),
            (["--noise-photons", "-1"], "noise-photons", "-1.0"),
            (["--noise-photons", "inf"], "noise-photons", "inf"),
            (["--noise-photons", "nan"], "noise-photons", "nan"),
            (["--noise-photons", "2e15"], "noise-photons", "2000000000000000.0"),
            (["--theta", "200"], "theta", "200.0"),
            (["--phi", "400"], "phi", "400.0"),
        ]
        for extra, field, value in cases:
            args = ["fringe", "--theta", "10", "--chi", "120", *extra]
            code, _, err = run(args, tmp_path, monkeypatch, capsys)
            assert code == 2, extra
            assert err.startswith(f"error: {field}:"), err
            assert err.endswith(f", got {value}\n"), err  # the value exactly as read

    def test_non_numeric_phi_is_a_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["fringe", "--theta", "10", "--chi", "120", "--phi", "abc"])
        assert exc.value.code == 2
        assert "argument --phi: invalid float value: 'abc'" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_largest_noise_photons_accepted(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["fringe", "--theta", "10", "--chi", "120", "--noise-photons", "1e15", "--out", "f.csv"],
            tmp_path, monkeypatch, capsys,
        )
        assert code == 0, err

    def test_fewest_delta_steps_accepted(self, tmp_path, monkeypatch, capsys):
        code, _, err = run(
            ["fringe", "--theta", "10", "--chi", "120", "--delta-steps", "10", "--out", "f.csv"],
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


@pytest.mark.parametrize("argv", [
    ["phase-curve", "--theta", "10", "--chi", "120", "--out", "a-dir"],
    ["phase-curve", "--theta", "10", "--chi", "120", "--format", "json", "--out", "a-file/c.json"],
    ["fringe", "--theta", "10", "--chi", "120", "--out", "a-dir"],
    ["fringe", "--theta", "10", "--chi", "120", "--out", "a-file/f.csv"],
    ["reproduce-figures", "--out", "a-file"],
])
def test_unwritable_out_is_a_validation_error(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "a-dir").mkdir()
    (tmp_path / "a-file").write_text("")
    code, out, err = run(argv, tmp_path, monkeypatch, capsys)
    assert code == 2, err
    assert re.fullmatch(r"error: out: a-(dir|file)\S*: [A-Z][^\n]+\n", err), err
    assert out == ""


def _sha256(data) -> str:
    return hashlib.sha256(data).hexdigest()


def _curve_numbers(theta):
    curve = sweep_phi(theta, 120.0, np.linspace(0.0, 360.0, 721))
    jumps = [x for j in curve.jumps for x in (j.phi_center_deg, j.rise_rad, j.width_deg)]
    return [curve.phi_deg, curve.gamma_rad, jumps]


def _fringe_numbers():
    s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
    trace = fringe_trace(s1, s2, s3, default_delta_grid(100), noise_mean_photons=1e5, rng=7)
    return [trace.delta_rad, trace.intensity, extract_fringe_phase(trace)]


# sha256 of the numbers each command computes and of the CSV and JSON files it
# wrote before the writers formatted all rows in one pass, in PINNED_ON. numpy's
# SIMD paths, libm and BLAS can move a number by an ulp on another machine; there
# the file digests cannot hold and the test skips, and the oracle property test in
# test_properties.py still checks every byte. In PINNED_ON a moved number fails.
GOLDEN = [
    (["phase-curve", "--theta", "10", "--chi", "120"], lambda: _curve_numbers(10.0),
     "705a19c648083a7b016fd3b174cafc89492080fcad2ace32e7dfdfd743a3515c",
     "af3b932ca03fb203f24ed4c745ecddb33ec9608731c7887ac9a360bb444fe841",
     "a14e75130902dcdd509973f3a8ad6adf5c51fddd7debecde2af74264445dbe87"),
    # 729 rows: the 721 grid points and 8 refined ones
    (["phase-curve", "--theta", "0.5", "--chi", "120"], lambda: _curve_numbers(0.5),
     "293d0594e69ee9338ed240866c193026230165a0b6610f817f3f3ce75d5c47d7",
     "700aceabb7a00e38d6387947ec0e46099dcd5c56d561632767351ac5e93f2fd6",
     "b9cded1b46dcc543bfbdd73964d5a3e9b4ea0c18736d401671475e16eba10a36"),
    (["fringe", "--theta", "10", "--chi", "120", "--phi", "30", "--noise-photons", "1e5", "--seed", "7"],
     _fringe_numbers,
     "65540d338ba6e5f59ca77863b0b1e59631cde13954bfffd16402dffe3af8774e",
     "ca37c3b0503c51bf72be40c4b0f8295e68e9ce24f8cef7fdd8c16324496750f4",
     "8a46b13c6718b6fe2665d87c747931350af7a7632a06cf38d341b229e865bf43"),
]


# numpy, glibc (libm), machine and numpy's AVX-512 dispatch targets where the digests come from
PINNED_ON = ("2.4.6", ("glibc", "2.36"), "x86_64", "X86_V4 AVX512_ICL AVX512_SPR")


def _environment():
    return np.__version__, platform.libc_ver(), platform.machine(), _avx512_targets()


@pytest.mark.parametrize("argv, numbers, numbers_sha, csv_sha, json_sha", GOLDEN,
                         ids=["phase-curve", "phase-curve-refined", "fringe-noise"])
def test_output_bytes_are_pinned(argv, numbers, numbers_sha, csv_sha, json_sha, tmp_path, monkeypatch, capsys):
    moved = _sha256(np.concatenate([np.ravel(a) for a in numbers()]).tobytes()) != numbers_sha
    if moved and _environment() != PINNED_ON:
        pytest.skip("this machine computes other numbers than the pinned files hold")
    assert not moved, f"the numbers moved in {PINNED_ON}, where the digests were made"
    for fmt, digest in (("csv", csv_sha), ("json", json_sha)):
        code, _, err = run(argv + ["--format", fmt, "--out", f"out.{fmt}"], tmp_path, monkeypatch, capsys)
        assert code == 0, err
        assert _sha256((tmp_path / f"out.{fmt}").read_bytes()) == digest, fmt


def _avx512_targets() -> str:
    """The AVX-512 dispatch targets this numpy build can use on this machine.
    Dispatch targets are never baseline features, which numpy refuses to disable."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return " ".join(
        t for t in ("X86_V4", "AVX512_ICL", "AVX512_SPR")
        if t in umath.__cpu_dispatch__ and umath.__cpu_features__.get(t)
    )


def _leaves(doc, path=""):
    """Every leaf of a JSON document by key path; the items of a list share its path."""
    if isinstance(doc, dict):
        items = [(f"{path}.{key}", value) for key, value in doc.items()]
    elif isinstance(doc, list):
        items = [(path, value) for value in doc]
    else:
        return {path: [doc]}
    leaves = {}
    for item_path, value in items:
        for key, found in _leaves(value, item_path).items():
            leaves.setdefault(key, []).extend(found)
    return leaves


@pytest.mark.parametrize("argv", [
    ["phase-curve", "--theta", "10", "--chi", "120"],
    ["fringe", "--theta", "10", "--chi", "120", "--phi", "30", "--noise-photons", "1e5", "--seed", "7"],
], ids=["phase-curve", "fringe-noise"])
def test_simd_dispatch_moves_numbers_by_ulps_only(argv, tmp_path):
    # The pinned bytes above hold only on one dispatch path; every other path must
    # still give the same rows, jumps and fit within a few ulp of each column's scale.
    targets = _avx512_targets()
    if not targets:
        pytest.skip("this numpy uses no AVX-512 dispatch target here")
    env = dict(os.environ, PYTHONPATH=str(Path(triphase.__file__).resolve().parents[1]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    docs = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": targets}):
        out = tmp_path / f"out{len(docs)}.json"
        argv_json = [sys.executable, "-m", "triphase", *argv, "--format", "json", "--out", str(out)]
        proc = subprocess.run(argv_json, env={**env, **disabled}, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        docs.append(_leaves(json.loads(out.read_text())))
    native, reduced = docs
    assert native.keys() == reduced.keys()
    for path, values in native.items():
        assert len(reduced[path]) == len(values), path
        if isinstance(values[0], str):
            assert reduced[path] == values, path
        else:
            scale = np.max(np.abs(values))
            assert np.max(np.abs(np.subtract(reduced[path], values))) <= 4 * np.spacing(scale), path


def test_curve_and_fringe_commands_import_neither_verify_nor_figures(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(triphase.__file__).resolve().parents[1]))
    code = (
        "import sys\n"
        "from triphase import cli\n"
        "assert cli.main(['phase-curve', '--theta', '10', '--chi', '120', '--out', 'c.csv']) == 0\n"
        "assert cli.main(['fringe', '--theta', '10', '--chi', '120', '--phi', '30', '--out', 'f.csv']) == 0\n"
        "print(sorted({'triphase.figures', 'triphase.verify'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


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

    def test_raising_criterion_is_a_fail_line(self, tmp_path, monkeypatch, capsys):
        def undefined(*args):
            raise UndefinedPhase("overlap product is zero")

        monkeypatch.setattr(verify, "three_vertex_phase", undefined)
        code, out, _ = run(["verify"], tmp_path, monkeypatch, capsys)
        assert code == 1
        lines = [ln for ln in out.strip().splitlines() if ln and ln[0] in "PF"]
        assert [int(ln.split()[1]) for ln in lines if ln.startswith("FAIL")] == [1, 4, 6]
        assert len(lines) == 10
        for ln in lines:
            assert ln.startswith("PASS") or "UndefinedPhase: overlap product is zero" in ln, ln


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
