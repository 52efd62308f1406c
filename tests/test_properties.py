"""Property tests of `wrap_angle`, the phase-curve sweep, the waveplate solver, the CLI
writers and the CLI's exit codes over the whole documented domain."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from triphase import cli  # noqa: E402
from triphase.core import QubitState, wrap_angle  # noqa: E402
from triphase.eraser import (  # noqa: E402
    FringeFit,
    Unreachable,
    WaveplateSetting,
    default_delta_grid,
    fringe_trace,
    solve_waveplates,
    waveplate_matrix,
)
from triphase.triplet import TripletParams, make_triplet, sweep_phi, total_phase_continuous  # noqa: E402

TWO_PI = 2.0 * math.pi

thetas = st.floats(0.01, 179.99)
chis = st.floats(0.0, 360.0, exclude_max=True)
spans = st.one_of(st.sampled_from([360.0, 720.0]), st.floats(0.5, 720.0))
PROPERTY = settings(max_examples=200, derandomize=True, deadline=None, database=None)


@PROPERTY
@given(thetas, chis, st.floats(-720.0, 720.0), spans, st.integers(3, 2001))
def test_sweep_over_the_domain(theta, chi, start, span, count):
    grid = np.linspace(start, start + span, count)
    curve = sweep_phi(theta, chi, grid)
    phi, gamma = curve.phi_deg, curve.gamma_rad
    assert np.isin(grid, phi).all()
    assert np.max(np.abs(gamma - total_phase_continuous(theta, chi, phi))) < 1e-9
    assert np.max(np.abs(np.diff(gamma))) < math.pi / 2
    periods = span / 360.0
    if periods == round(periods):
        assert curve.net_change_rad == pytest.approx(-2 * TWO_PI * periods, abs=1e-9)
    if curve.jumps:
        rises = sum(j.rise_rad for j in curve.jumps)
        assert rises == pytest.approx(curve.net_change_rad, abs=1e-9)


@PROPERTY
@given(thetas, chis)
def test_mirror_law(theta, chi):
    # 180 - theta flips the sign of cos(theta), which turns z(phi) into
    # -z(phi + 180): the curve shifts by 180 deg and drops by 2 pi
    phi = np.linspace(0.0, 360.0, 721)
    mirror = 180.0 - theta
    shifted = total_phase_continuous(mirror, chi, phi + 180.0)
    assert np.max(np.abs(shifted - (total_phase_continuous(theta, chi, phi) - TWO_PI))) < 1e-9
    centers = sorted(j.phi_center_deg for j in sweep_phi(theta, chi, phi).jumps)
    mirror_centers = sorted(j.phi_center_deg for j in sweep_phi(mirror, chi, phi).jumps)
    assert len(mirror_centers) == len(centers)
    expected = sorted((c + 180.0) % 360.0 for c in centers)
    for got, want in zip(mirror_centers, expected):
        assert min(abs(got - want), 360.0 - abs(got - want)) < 1e-9


odd_pi = st.integers(-10**6, 10**6).map(lambda k: (2 * k + 1) * math.pi)


@PROPERTY
@given(st.one_of(st.floats(), odd_pi, st.floats(-1e4, 1e4)))
@example(0.0)
@example(-0.0)
@example(math.pi)
@example(-math.pi)
@example(1e300)
@example(-1e300)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_wrap_angle_of_a_float_matches_the_array_path(x):
    with np.errstate(invalid="ignore"):  # np.mod of an infinity is NaN, with a warning
        want = wrap_angle(np.array([x]))[0]
    for scalar in (x, np.float64(x)):
        got = wrap_angle(scalar)
        assert type(got) is float
        if math.isnan(want):  # NaN or an infinity in
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == want.tobytes()


def _qubit(polar, azimuth):
    """The state at Bloch angles (degrees) polar from H and azimuth from D."""
    half, phi = math.radians(polar) / 2.0, math.radians(azimuth)
    return QubitState.of(math.cos(half), complex(math.cos(phi), math.sin(phi)) * math.sin(half))


qubits = st.builds(_qubit, st.floats(0.0, 180.0), st.floats(0.0, 360.0))
CHAINS = [["half"], ["quarter"], ("quarter", "half"), ("half", "quarter"), ("half", "half")]


def _scan_infidelity(target, kinds, start, angles_deg):
    """1 - |<target|chain|start>|^2 over a grid of angles, one axis per plate."""
    outs = start.vec
    for kind in kinds:
        plates = np.array([waveplate_matrix(WaveplateSetting(kind, a)) for a in angles_deg])
        outs = np.einsum("kij,...j->...ki", plates, outs)
    return 1.0 - np.abs(outs @ target.vec.conj()) ** 2


@PROPERTY
@given(qubits, qubits, st.sampled_from(CHAINS))
def test_waveplate_solution_is_the_least_infidelity(start, target, kinds):
    try:
        solution = solve_waveplates(target, kinds, start)
    except Unreachable as exc:
        printed = float(re.search(r"best infidelity found (\S+)$", str(exc)).group(1))
        scan = _scan_infidelity(target, kinds, start, np.arange(0.0, 180.0, 0.25))
        assert printed <= float(scan.min()) * (1.0 + 1e-3)  # the slack covers the 3-digit print
        return
    out = start.vec
    for setting in solution.settings:
        out = waveplate_matrix(setting) @ out
    assert solution.infidelity <= 1e-6
    assert 1.0 - abs(np.vdot(target.vec, out)) ** 2 == pytest.approx(solution.infidelity, abs=1e-12)


@PROPERTY
@given(st.floats(0.0, 180.0), st.floats(0.0, 360.0), qubits)
@example(0.0, 0.0, _qubit(90.0, 90.0))  # circular targets, exactly and nearly so
@example(30.0, 0.0, _qubit(90.0 - 1e-6, 270.0))
def test_quarter_then_half_wave_plate_reach_every_state_from_linear_light(angle, phase, target):
    # Simon & Mukunda, Phys. Lett. A 143, 165 (1990); linear light up to a global phase
    a = math.radians(angle)
    start = QubitState.of(*np.exp(1j * math.radians(phase)) * np.array([math.cos(a), math.sin(a)]))
    assert solve_waveplates(target, ("quarter", "half"), start).infidelity <= 1e-24


# The writers as they were before they formatted all rows in one pass: one
# format() or one dict per row, then json.dumps(doc, indent=2) + "\n".
def _oracle_csv(header, rows):
    return "\n".join([header] + [",".join(format(float(x), ".15g") for x in row) for row in rows]) + "\n"


@PROPERTY
@given(thetas, chis, st.floats(-720.0, 720.0), spans, st.integers(3, 2001))
def test_curve_writers_match_the_per_row_formulation(theta, chi, start, span, count):
    curve = sweep_phi(theta, chi, np.linspace(start, start + span, count))
    rows = [(phi, gam, math.degrees(gam)) for phi, gam in zip(curve.phi_deg.tolist(), curve.gamma_rad.tolist())]
    assert cli.phase_curve_csv(curve) == _oracle_csv("phi_deg,gamma_rad_unwrapped,gamma_deg_unwrapped", rows)
    doc = {
        "command": "phase-curve",
        "params": {"theta_deg": theta, "chi_deg": chi, "phi": {"start": start, "stop": start + span, "count": count}},
        "samples": [dict(zip(("phi_deg", "gamma_rad_unwrapped", "gamma_deg_unwrapped"), row)) for row in rows],
        "jumps": [{"phi_center_deg": j.phi_center_deg, "rise_rad": j.rise_rad, "width_deg": j.width_deg}
                  for j in curve.jumps],
    }
    assert cli.phase_curve_json(curve, (start, start + span, count)) == json.dumps(doc, indent=2) + "\n"


@PROPERTY
@given(st.floats(0.0, 180.0), chis, st.floats(0.0, 360.0, exclude_max=True), st.integers(10, 500),
       st.one_of(st.none(), st.floats(1.0, 1e15)), st.integers(0, 2**32 - 1),
       st.floats(-math.pi, math.pi), st.floats(0.0, 1.0))
def test_fringe_writers_match_the_per_row_formulation(theta, chi, phi, steps, photons, seed, phase, visibility):
    s1, s2, s3 = make_triplet(TripletParams(theta, chi, phi))
    trace = fringe_trace(s1, s2, s3, default_delta_grid(steps), noise_mean_photons=photons, rng=seed)
    rows = list(zip(trace.delta_rad.tolist(), trace.intensity.tolist()))
    assert cli.fringe_csv(trace) == _oracle_csv("delta_rad,intensity", rows)
    params = {"theta_deg": theta, "chi_deg": chi, "phi_deg": phi, "delta_steps": steps,
              "noise_photons": photons, "seed": seed}
    fit = FringeFit(phase, visibility)
    doc = {
        "command": "fringe",
        "params": params,
        "samples": [{"delta_rad": d, "intensity": i} for d, i in rows],
        "fit": {"phase_rad": phase, "visibility": visibility},
    }
    assert cli.fringe_json(trace, fit, params) == json.dumps(doc, indent=2) + "\n"


# Floats past the edges of the --phi domain, whose ends lie within +-3.6e7
# degrees: non-finite, huge, and the next float past the bound.
EDGES = [math.inf, -math.inf, math.nan, math.nextafter(3.6e7, math.inf), -1e15, 1e16, 1e300]
any_float = st.one_of(st.floats(), st.sampled_from(EDGES))


@st.composite
def phi_specs(draw, starts=st.floats(-3.6e7, 3.6e7)):
    start = draw(starts)
    kind = draw(st.sampled_from(["span", "ulps", "edge"]))
    if kind == "span":  # a span small enough to keep the rows few
        stop = start + draw(st.one_of(st.floats(-1.0, 720.0), st.sampled_from([5e-324, 1e-300, 1e-9])))
    elif kind == "ulps":  # a grid finer than the floats between its ends
        stop = start
        for _ in range(draw(st.integers(0, 4))):
            stop = math.nextafter(stop, math.inf)
    else:
        stop = draw(st.sampled_from(EDGES))
    count = draw(st.integers(3, 40))
    return f"{start!r}:{stop!r}:{count}"


@st.composite
def cli_argv(draw):
    """phase-curve or fringe argv, valid but for at most one field, which then
    takes any value of its type (for --phi of phase-curve, a grid from any float)."""
    if draw(st.booleans()):
        command, fields = "phase-curve", {"theta": thetas, "chi": chis, "phi": phi_specs()}
    else:
        command, fields = "fringe", {
            "theta": st.floats(0.0, 180.0, exclude_max=True), "chi": chis, "phi": chis,
            "delta-steps": st.integers(10, 300), "noise-photons": st.none() | st.floats(1.0, 1e15),
            "seed": st.integers(0, 2**64),
        }
    bad = {"delta-steps": st.integers(-10, 9) | st.just(10**6 + 1), "seed": st.integers(-(2**64), -1)}
    if command == "phase-curve":
        bad["phi"] = phi_specs(any_float)
    spoilt = draw(st.sampled_from([None, *fields]))
    argv = [command, f"--format={draw(st.sampled_from(['csv', 'json']))}"]
    for name, valid in fields.items():
        value = draw(bad.get(name, any_float) if name == spoilt else valid)
        if value is not None:
            argv.append(f"--{name}={value if isinstance(value, str) else repr(value)}")
    return argv


FIELDS = ("theta", "chi", "phi", "delta-steps", "noise-photons", "seed", "out")


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@PROPERTY
@given(cli_argv())
def test_cli_exit_codes_over_the_domain(out_dir, argv):
    # An exception other than the documented ones escapes main as a traceback.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([*argv, f"--out={out_dir / 'out'}"])
    message = err.getvalue()
    if code == 0:
        assert out.getvalue().count("\n") == 2 and not message, message
    elif code == 2:  # a validation error names its field
        assert message.startswith(tuple(f"error: {field}: " for field in FIELDS)), message
    else:  # degenerate physics has no field to name
        assert code == 3 and message.startswith("error: ") and message.count("\n") == 1, message
