"""Property tests of `wrap_angle`, the phase-curve sweep, the three-vertex phase and its
area law, the waveplate solver, the offset fit, the CLI writers and the CLI's exit codes
over the whole documented domain."""

import contextlib
import io
import json
import math
import re

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from triphase import cli  # noqa: E402
from triphase.core import (  # noqa: E402
    ANTIPODAL_TOL,
    PHASE_SINGULAR_TOL,
    QubitState,
    UndefinedPhase,
    bloch_from_qubit,
    inner,
    normalize,
    spherical_triangle_signed_area,
    three_vertex_phase,
    wrap_angle,
)
from triphase.eraser import (  # noqa: E402
    FringeFit,
    Unreachable,
    WaveplateSetting,
    default_delta_grid,
    fringe_trace,
    solve_waveplates,
    waveplate_matrix,
)
from triphase.triplet import (  # noqa: E402
    TripletParams,
    fit_offset,
    make_states,
    make_triplet,
    sweep_phi,
    total_phase_continuous,
)

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
    assert np.array_equal(gamma, total_phase_continuous(theta, chi, phi))
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


@st.composite
def angle_axes(draw):
    """theta, chi and phi (deg) on shapes that broadcast together, with size-1 axes and 0-d arrays among
    them, each an array or its list (a float where 0-d); at least one an array, so the array path runs."""
    shapes = draw(hnp.mutually_broadcastable_shapes(num_shapes=3, min_dims=0, max_dims=3, max_side=4)).input_shapes
    axes = []
    for shape, high in zip(shapes, (180.0, 360.0, 360.0)):
        angle = st.one_of(st.floats(0.0, high, exclude_max=True), st.just(-0.0))
        x = np.reshape(draw(st.lists(angle, min_size=math.prod(shape), max_size=math.prod(shape))), shape)
        axes.append(x.tolist() if draw(st.booleans()) else x)
    if not any(isinstance(x, np.ndarray) for x in axes):
        axes[0] = np.asarray(axes[0])
    return axes


@PROPERTY
@given(angle_axes())
def test_states_on_broadcastable_axes_equal_those_of_the_broadcast_angles(axes):
    # each state is made on the shape of its own angles and then written to the grid: the bits, dtype
    # and shape of the states made from the angles broadcast to the grid first
    params, grid = TripletParams(*axes), TripletParams(*np.broadcast_arrays(*axes))
    for got, want in ((make_states(params), make_states(grid)), (make_triplet(params), make_triplet(grid))):
        assert [(g.dtype, g.shape) for g in got] == [(w.dtype, w.shape) for w in want]
        assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


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


@st.composite
def state_triples(draw):
    """States a, b, c as arrays of shape (n, d), d in 2..4 and n in 1..3, and a global phase for
    each state.  Each complex component is Gaussian, zero, or Gaussian times 1e-4 or 1e-7, one
    in four each, so that orthogonal and nearly orthogonal pairs come up."""
    d, n = draw(st.integers(2, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    z = rng.normal(size=(3, n, d)) + 1j * rng.normal(size=(3, n, d))
    z *= np.array([1.0, 0.0, 1e-4, 1e-7])[rng.integers(0, 4, (3, n, d))]
    assume(z.any(-1).all())
    phases = draw(st.lists(st.floats(-math.pi, math.pi), min_size=3 * n, max_size=3 * n))
    return normalize(z), np.reshape(phases, (3, n, 1))


@PROPERTY
@given(state_triples())
def test_three_vertex_phase_laws_on_arrays(triple):
    states, phases = triple
    a, b, c = states
    overlaps = np.abs([np.sum(x.conj() * y, -1) for x, y in ((a, c), (c, b), (b, a))])
    smallest = float(np.min(np.prod(overlaps, 0)))
    assume(abs(smallest - PHASE_SINGULAR_TOL) > 1e-9 * PHASE_SINGULAR_TOL)  # rounding decides the boundary
    if smallest < PHASE_SINGULAR_TOL:
        with pytest.raises(UndefinedPhase):
            three_vertex_phase(a, b, c)
        return
    gamma = three_vertex_phase(a, b, c)
    # an overlap of unit vectors is good to a few ulps absolutely, so its phase to that over its size
    tol = 1e-13 / np.min(overlaps, 0)
    gauged = states * np.exp(1j * phases)
    for got, want in (
        (three_vertex_phase(*gauged), gamma),
        (three_vertex_phase(b, c, a), gamma),
        (three_vertex_phase(c, a, b), gamma),
        (three_vertex_phase(b, a, c), -gamma),
        (three_vertex_phase(a, c, b), -gamma),
        (three_vertex_phase(c, b, a), -gamma),
    ):
        assert (np.abs(wrap_angle(got - want)) <= tol).all()


@PROPERTY
@given(qubits, qubits, qubits)
@example(_qubit(0.0, 0.0), _qubit(179.996, 0.0), _qubit(90.0, 90.0))  # a pair just outside the antipodal tolerance
def test_area_phase_law_over_the_whole_sphere(a, b, c):
    # criterion 4's law, bound and overlap floor on triples anywhere on the sphere
    assume(abs(inner(a, c) * inner(c, b) * inner(b, a)) >= 1e-6)
    va, vb, vc = (bloch_from_qubit(s) for s in (a, b, c))
    assume(min(inner(va, vb), inner(vb, vc), inner(vc, va)) > -1.0 + 2.0 * ANTIPODAL_TOL)
    omega = spherical_triangle_signed_area(va, vb, vc)
    assert abs(wrap_angle(three_vertex_phase(a, b, c) + omega / 2.0)) <= 1e-9


OFFSET_THEORY = sweep_phi(10.0, 120.0, np.linspace(0.0, 300.0, 601))


@st.composite
def measured_sets(draw):
    """1 to 3 measured sets of one length, each of n in 2..40 points inside the theory range, with
    any residuals about an offset anywhere, filled up with points outside the range, in any order."""
    counts = draw(st.lists(st.integers(2, 40), min_size=1, max_size=3))
    length = max(counts) + draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    sets = []
    for n in counts:
        outside = rng.uniform(301.0, 720.0, length - n)
        outside = np.where(rng.random(length - n) < 0.5, 300.0 - outside, outside)
        residuals = draw(st.lists(st.floats(-2.0 * TWO_PI, 2.0 * TWO_PI), min_size=n, max_size=n))
        points = np.column_stack([
            np.concatenate([rng.uniform(0.0, 300.0, n), outside]),
            np.concatenate([residuals, rng.uniform(-1e3, 1e3, length - n)]) + draw(st.floats(-1e6, 1e6)),
        ])
        points[:, 1] += np.interp(points[:, 0], OFFSET_THEORY.phi_deg, OFFSET_THEORY.gamma_rad)
        sets.append(rng.permutation(points))
    return np.array(sets)


@PROPERTY
@given(measured_sets())
def test_offset_fit_is_the_global_minimum_of_its_cost(batch):
    fit = fit_offset(batch, OFFSET_THEORY)
    scan = np.linspace(-math.pi, math.pi, 5001)
    for k, measured in enumerate(batch):
        one = fit_offset(measured, OFFSET_THEORY)
        assert (one.offset_rad, one.rms_rad) == (fit.offset_rad[k], fit.rms_rad[k])
        phi, gamma = measured[(measured[:, 0] >= 0.0) & (measured[:, 0] <= 300.0)].T
        resid = gamma - np.interp(phi, OFFSET_THEORY.phi_deg, OFFSET_THEORY.gamma_rad)
        x = wrap_angle(resid)  # the fit's cost is that of the wrapped residuals

        def cost(c):  # wrap(x - c)^2, as x and c lie in (-pi, pi]
            distance = np.abs(x - np.asarray(c)[..., None])
            return np.sum(np.minimum(distance, TWO_PI - distance) ** 2, -1)

        at_fit = float(cost(one.offset_rad))
        assert at_fit <= float(cost(scan).min()) + 1e-9
        assert -math.pi < one.offset_rad <= math.pi
        rms = math.sqrt(float(np.mean(wrap_angle(resid - one.offset_rad) ** 2)))
        assert one.rms_rad == pytest.approx(rms, rel=1e-9, abs=1e-12)


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
