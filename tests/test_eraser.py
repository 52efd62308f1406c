"""Eraser interferometer: waveplates, angle solving, projection chain,
fringes, phase extraction, noise statistics."""

import gc
import math
import re
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from triphase import eraser
from triphase.core import (
    QubitState,
    SymmetricState,
    inner,
    random_states,
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from triphase.eraser import (
    FringeTrace,
    Unreachable,
    WaveplateSetting,
    ZeroVisibility,
    default_delta_grid,
    extract_fringe_phase,
    fringe_trace,
    phase_variation,
    projection_chain_amplitude,
    solve_waveplates,
    waveplate_matrix,
)
from triphase.triplet import TripletParams, make_states, make_triplet, total_phase_continuous

TWO_PI = 2.0 * math.pi

H = QubitState(1, 0)
V = QubitState(0, 1)
D = QubitState.of(1, 1)
R = QubitState.of(1, 1j)


def angdiff(a, b):
    return abs(wrap_angle(a - b))


def fidelity_after(matrix, state, target):
    out = matrix @ state.vec
    return abs(np.vdot(target.vec, out))


def poisson_fit_covariance(delta, lam):
    """The least-squares coefficients (A, B, C) of A + B cos(delta) + C sin(delta)
    for the expected counts ``lam``, and their covariance when each sample is a
    Poisson draw (variance = expected count): the linear-fit formula."""
    design = np.column_stack([np.ones_like(delta), np.cos(delta), np.sin(delta)])
    normal_inv = np.linalg.inv(design.T @ design)
    cov = normal_inv @ design.T @ np.diag(lam) @ design @ normal_inv
    return normal_inv @ design.T @ lam, cov


def expected_counts(s1, s2, s3, delta, mean_photons):
    """The Poisson means of fringe_trace's noisy samples."""
    r, q = inner(s3, s1), inner(s3, s2)
    return mean_photons * np.abs(r * np.exp(1j * delta) + q) ** 2 / (abs(r) + abs(q)) ** 2


class TestWaveplates:
    def test_setting_validation(self):
        with pytest.raises(ValueError):
            WaveplateSetting("third", 10.0)
        for angle in (math.nan, math.inf):
            with pytest.raises(ValueError, match="angle_deg"):
                WaveplateSetting("half", angle)
        assert WaveplateSetting("half", 200.0).angle_deg == pytest.approx(20.0)
        with pytest.raises(ValueError, match="^angle_deg: must not be empty$"):
            WaveplateSetting("half", np.array([]))

    def test_a_kind_that_cannot_be_a_key_is_named(self):
        for kind in (["half"], {"half": 1}, "third", None):
            with pytest.raises(ValueError, match=re.escape(f"kind must be 'quarter' or 'half', got {kind!r}")):
                WaveplateSetting(kind, 10)

    def test_hwp_at_zero(self):
        w = waveplate_matrix(WaveplateSetting("half", 0))
        assert np.allclose(w @ H.vec, H.vec, atol=1e-15)
        assert np.allclose(w @ V.vec, -V.vec, atol=1e-15)

    def test_hwp_rotates_h_to_diagonal(self):
        w = waveplate_matrix(WaveplateSetting("half", 22.5))
        assert fidelity_after(w, H, D) == pytest.approx(1.0, abs=1e-12)

    def test_qwp_at_45_makes_circular(self):
        w = waveplate_matrix(WaveplateSetting("quarter", 45))
        assert fidelity_after(w, H, R) == pytest.approx(1.0, abs=1e-12)

    def test_unitarity_and_half_square(self):
        for kind in ("quarter", "half"):
            for ang in (0.0, 13.0, 90.0, 131.5):
                w = waveplate_matrix(WaveplateSetting(kind, ang))
                assert np.allclose(w.conj().T @ w, np.eye(2), atol=1e-12)
        for ang in (0.0, 37.0, 120.0):
            w = waveplate_matrix(WaveplateSetting("half", ang))
            assert np.allclose(w @ w, np.eye(2), atol=1e-12)


class TestSolveWaveplates:
    def test_single_half_to_diagonal(self):
        sol = solve_waveplates(D, ["half"], H)
        assert sol.infidelity <= 1e-9
        # valid angles are 22.5 mod 90
        assert min(abs(sol.settings[0].angle_deg - a) for a in (22.5, 112.5)) < 1e-6

    def test_single_half_cannot_make_circular(self):
        with pytest.raises(Unreachable):
            solve_waveplates(R, ["half"], H)

    def test_single_quarter_to_circular(self):
        sol = solve_waveplates(R, ["quarter"], H)
        assert sol.infidelity <= 1e-9
        assert abs(sol.settings[0].angle_deg - 45.0) < 1e-6

    def test_half_quarter_chain_reaches_anchor_state(self):
        target = make_states(TripletParams(34, 0, 0))[0]
        sol = solve_waveplates(target, ["half", "quarter"], H)
        out = H.vec
        for s in sol.settings:
            out = waveplate_matrix(s) @ out
        assert abs(np.vdot(target.vec, out)) >= 1.0 - 1e-9

    def test_half_quarter_chain_reaches_random_targets(self):
        rng = np.random.default_rng(60)
        for _ in range(25):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            target = QubitState.of(z[0], z[1])
            sol = solve_waveplates(target, ["half", "quarter"], H)
            out = H.vec
            for s in sol.settings:
                out = waveplate_matrix(s) @ out
            assert abs(np.vdot(target.vec, out)) >= 1.0 - 1e-9

    def test_quarter_half_chain_from_linear_starts(self):
        # the chain that prepares the anchor states reaches every state from
        # any linear polarization (Simon & Mukunda, Phys. Lett. A 143, 165)
        rng = np.random.default_rng(61)
        for _ in range(25):
            a = rng.uniform(0, math.pi)
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            start, target = QubitState(math.cos(a), math.sin(a)), QubitState.of(z[0], z[1])
            sol = solve_waveplates(target, ("quarter", "half"), start)
            out = start.vec
            for s in sol.settings:
                out = waveplate_matrix(s) @ out
            assert sol.infidelity <= 1e-12
            assert 1.0 - abs(np.vdot(target.vec, out)) ** 2 <= 1e-12

    def test_half_half_chain_cannot_make_circular(self):
        # half-wave plates keep linear light linear
        with pytest.raises(Unreachable):
            solve_waveplates(R, ("half", "half"), H)

    def test_unreachable_message_reports_the_lowest_infidelity(self):
        # a single quarter-wave plate cannot reach this target; the message
        # reports the exact least infidelity, which a dense angle scan bounds
        start = QubitState.of(-0.6075 - 0.0498j, -0.1091 + 0.7852j)
        target = QubitState.of(-0.4397 + 0.0972j, -0.0497 - 0.8915j)
        with pytest.raises(Unreachable) as info:
            solve_waveplates(target, ["quarter"], start)
        printed = float(re.search(r"best infidelity found (\S+)$", str(info.value)).group(1))
        two_a = np.linspace(0.0, TWO_PI, 360001)[:, None]
        c, s = np.cos(two_a), np.sin(two_a)
        retard = -1j  # quarter wave: (1 + r)/2 I + (1 - r)/2 (cos 2a sigma_z + sin 2a sigma_x)
        out = 0.5 * (1 + retard) * start.vec + 0.5 * (1 - retard) * np.column_stack(
            [c[:, 0] * start.amp_h + s[:, 0] * start.amp_v, s[:, 0] * start.amp_h - c[:, 0] * start.amp_v]
        )
        scan_min = float(np.min(1.0 - np.abs(out @ target.vec.conj()) ** 2))
        assert scan_min == pytest.approx(0.1113, abs=1e-4)
        assert scan_min <= printed <= 0.12

    def test_array_states_solve_and_are_checked_as_their_wrappers(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            target, start = random_states(rng, (), 2), np.array([1.0, 0.0])
            want = solve_waveplates(QubitState(*target), ("quarter", "half"), QubitState(*start))
            assert solve_waveplates(target, ("quarter", "half"), start) == want
            assert solve_waveplates(QubitState(*target), ("quarter", "half"), start) == want
        with pytest.raises(ValueError, match="^qubit amplitudes are not normalized"):
            solve_waveplates(np.array([1.0, 1.0]), ["half"], H)
        with pytest.raises(ValueError, match="^qubit amplitudes are not normalized"):
            solve_waveplates(D, ["half"], np.array([0.0, 0.0]))
        with pytest.raises(TypeError, match="^QubitState takes 2 components, got 3$"):
            solve_waveplates(np.array([1.0, 0.0, 0.0]), ["half"], H)

    @pytest.mark.parametrize(
        "kinds", [[], ["quarter", "quarter"], ["quarter", "half", "quarter"]], ids=["empty", "qq", "three"]
    )
    def test_unsupported_chain_rejected(self, kinds):
        with pytest.raises(ValueError, match=re.escape(f"chain {kinds}")):
            solve_waveplates(D, kinds, H)


class TestProjection:
    def test_self_projection_unit_magnitude(self):
        s = SymmetricState.of(1, 1j, 0.5)
        assert abs(inner(s, s)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projection_zero(self):
        a = SymmetricState(1, 0, 0)
        b = SymmetricState(0, 1, 0)
        assert inner(b, a) == 0.0

    def test_standard_triplet_amplitude_oracle(self):
        # independent oracle: raw numpy expansion of the states
        arm = make_triplet(TripletParams(10, 120, 0))[0]
        proj = make_triplet(TripletParams(10, 120, 0))[2]
        c, s = np.cos(np.radians(5)), np.sin(np.radians(5))
        psi1 = np.array([c, 1j * s])
        arm4 = np.kron(psi1, psi1)
        a_ang = np.radians(30.0)
        psi3 = np.array([np.cos(a_ang), np.sin(a_ang)])
        psi3m = np.array([np.cos(a_ang), -np.sin(a_ang)])
        proj4 = np.kron(psi3, psi3m) + np.kron(psi3m, psi3)
        proj4 = proj4 / np.linalg.norm(proj4)
        expected = np.vdot(proj4, arm4)
        assert abs(inner(proj, arm) - expected) < 1e-12


class TestProjectionChain:
    def test_rejects_non_linear_states(self):
        arm = symmetrize(H, D)
        elliptical = np.array([1.0, 1e-8j]) / math.hypot(1.0, 1e-8)  # Bloch y 2e-8
        for psi3, psi3_mirror in ((R, D), (D, QubitState.of(1, 0.2j)), (D, elliptical)):
            with pytest.raises(ValueError, match="not a linear polarization"):
                projection_chain_amplitude(arm, psi3, psi3_mirror)

    def test_chain_equals_direct_projection_on_haar_random_arms(self):
        # one arm-independent phase per setting: the chain's amplitude of the projector itself
        rng = np.random.default_rng(41)
        angles = rng.uniform((0.0, 0.0, 0.0), (178.0, 360.0, 360.0), size=(300, 3))
        _, _, psi3, psi3m = make_states(TripletParams(*angles.T))
        proj = symmetrize(psi3, psi3m)
        phase = projection_chain_amplitude(proj, psi3, psi3m)
        assert np.max(np.abs(np.abs(phase) - 1.0)) < 1e-15
        arms = random_states(rng, (4, 300), 3)
        chain = projection_chain_amplitude(arms, psi3, psi3m)
        assert np.max(np.abs(chain - phase * inner(proj, arms))) < 1e-14

    def test_global_phases_of_linear_states_keep_the_amplitude(self):
        psi1, psi2, psi3, psi3m = make_states(TripletParams(30, 100, 50))
        arms = np.stack([symmetrize(psi1, psi1).vec, symmetrize(psi2, psi2).vec])
        want = np.abs(projection_chain_amplitude(arms, psi3, psi3m))
        for p3, p3m in ((1j * psi3.vec, psi3m), (psi3, -psi3m.vec), (QubitState(*(1j * psi3.vec)), QubitState(*(-psi3m.vec)))):
            assert np.max(np.abs(np.abs(projection_chain_amplitude(arms, p3, p3m)) - want)) < 1e-15

    def test_chain_equals_direct_projection(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            p = TripletParams(rng.uniform(2, 88), rng.uniform(0, 360), rng.uniform(0, 360))
            psi1, psi2, psi3, psi3m = make_states(p)
            proj = symmetrize(psi3, psi3m)
            arms = [symmetrize(psi1, psi1), symmetrize(psi2, psi2)]
            direct = [inner(proj, a) for a in arms]
            chained = [projection_chain_amplitude(a, psi3, psi3m) for a in arms]
            for c, d in zip(chained, direct):
                assert abs(abs(c) - abs(d)) < 1e-12
            if min(abs(direct[0]), abs(direct[1])) > 0.05:
                assert abs(chained[0] / chained[1] - direct[0] / direct[1]) < 1e-12


class TestFringe:
    def test_equal_arms_cosine(self):
        s1, _, s3 = make_triplet(TripletParams(10, 120, 20))
        delta = default_delta_grid(256)
        trace = fringe_trace(s1, s1, s3, delta)
        amp = abs(inner(s3, s1))
        expected = 2 * amp**2 * (1 + np.cos(delta))
        assert np.allclose(trace.intensity, expected, atol=1e-12)
        assert trace.intensity.argmax() == 0

    def test_orthogonal_arm_flat_trace(self):
        hh = SymmetricState(1, 0, 0)
        vv = SymmetricState(0, 0, 1)
        sym = SymmetricState(0, 1, 0)
        trace = fringe_trace(hh, sym, vv, default_delta_grid(64))
        assert np.allclose(trace.intensity, trace.intensity[0], atol=1e-15)

    def test_maximum_at_overlap_phase_difference(self):
        s1, s2, s3 = make_triplet(TripletParams(25, 70, 40))
        r = inner(s3, s1)
        q = inner(s3, s2)
        predicted = wrap_angle(np.angle(q) - np.angle(r))
        delta = default_delta_grid(4096)
        trace = fringe_trace(s1, s2, s3, delta)
        coarse_max = trace.delta_rad[trace.intensity.argmax()]
        assert angdiff(coarse_max, predicted) < TWO_PI / 4096 + 1e-12
        fit = extract_fringe_phase(trace)
        assert angdiff(fit.phase_rad, predicted) < 1e-9

    def test_intensity_bounds(self):
        s1, s2, s3 = make_triplet(TripletParams(25, 70, 40))
        r = abs(inner(s3, s1))
        q = abs(inner(s3, s2))
        trace = fringe_trace(s1, s2, s3, default_delta_grid(512))
        assert np.all(trace.intensity >= -1e-15)
        assert np.all(trace.intensity <= (r + q) ** 2 + 1e-12)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            FringeTrace(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            FringeTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]))
        delta = default_delta_grid(20)
        with pytest.raises(ValueError, match="^delta_rad must be 1-d and intensity"):
            FringeTrace(delta[None, :], np.ones((1, 20)))
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        with pytest.raises(ValueError, match="^delta_rad must be 1-d$"):
            fringe_trace(s1, s2, s3, delta.reshape(4, 5))

    def test_trace_rejects_non_finite_samples(self):
        delta = default_delta_grid(20)
        for bad in (np.nan, np.inf, -np.inf):
            inten = np.ones(20)
            inten[3] = bad
            with pytest.raises(ValueError, match="intensity"):
                FringeTrace(delta, inten)
            for k in (0, 7, 19):
                d = delta.copy()
                d[k] = bad
                with pytest.raises(ValueError, match="delta_rad"):
                    FringeTrace(d, np.ones(20))

    @pytest.mark.parametrize("noise", [None, 1e3])
    @pytest.mark.parametrize("which", ["arm_a", "arm_b", "projector"])
    def test_non_finite_states_are_rejected_by_name(self, which, noise):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        for bad in (math.nan, math.inf):
            for batch in (False, True):
                states = dict(arm_a=s1.vec, arm_b=s2.vec, projector=s3.vec)
                v = states[which].copy()
                v[1] = bad
                states[which] = np.stack([states[which], v]) if batch else v
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)  # checked before any inner product
                    with pytest.raises(ValueError, match="^arm_a, arm_b and projector must be finite"):
                        fringe_trace(**states, delta_rad=default_delta_grid(), noise_mean_photons=noise, rng=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^arm_a, arm_b and projector must be finite, and arm_ratio"):
                fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=noise, rng=1, arm_ratio=1e160)

    def test_noisy_overflow_is_rejected_by_name(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 30))
        delta = default_delta_grid(100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for states in ((s1, s2, s3), (np.stack([s1.vec, s2.vec]), s2.vec, s3.vec)):
                # the ideal peak is some 1e294, below the 1e154 bound on its root
                fringe_trace(*states, delta, arm_ratio=1e147)
                fringe_trace(*states, delta, arm_ratio=1e147, noise_mean_photons=1e5, rng=1)
                with pytest.raises(ValueError, match="^arm_ratio .* noise_mean_photons 1e[+]15: "):
                    fringe_trace(*states, delta, arm_ratio=1e147, noise_mean_photons=1e15, rng=1)

    def test_noise_requires_rng(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        with pytest.raises(ValueError):
            fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=100.0)
        with pytest.raises(ValueError):
            phase_variation(s1, s2, s3, s3, noise_mean_photons=100.0)
        for bad in (0.0, np.nan, np.inf, 1e30):
            with pytest.raises(ValueError, match="^noise_mean_photons"):
                fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=bad, rng=1)

    def test_arm_ratio_must_be_positive(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in (0.0, -1.0, np.nan, np.inf):
                with pytest.raises(ValueError, match="^arm_ratio"):
                    fringe_trace(s1, s2, s3, default_delta_grid(), arm_ratio=bad)
            with pytest.raises(ValueError, match="^arm_ratio: must not be empty$"):
                fringe_trace(s1, s2, s3, default_delta_grid(), arm_ratio=np.array([]))

    def test_built_traces_hold_what_the_checked_constructor_holds(self):
        # fringe_trace builds its traces unchecked; FringeTrace would keep every field as it is
        rng = np.random.default_rng(72)
        for k in range(48):
            theta, chi, phi = 2.0 + 43.0 * rng.random(), 360.0 * rng.random(), 360.0 * rng.random()
            if k % 3 == 2:  # a batch of four settings
                phi = (phi + 90.0 * np.arange(4)) % 360.0
            delta = np.sort(rng.uniform(0.0, TWO_PI, int(rng.integers(3, 300))))
            noise = 1e5 if k % 2 else None
            trace = fringe_trace(*make_triplet(TripletParams(theta, chi, phi)), delta,
                                 noise_mean_photons=noise, rng=k, arm_ratio=10.0 ** rng.uniform(-3.0, 3.0))
            checked = FringeTrace(trace.delta_rad, trace.intensity, trace.mean_photons)
            assert type(trace) is FringeTrace and trace.intensity.dtype == np.float64
            assert checked.delta_rad is trace.delta_rad and checked.intensity is trace.intensity
            assert checked.mean_photons == trace.mean_photons == (None if noise is None else float(noise))
            # a trace a user builds from the same samples is still checked
            for bad in (math.nan, -1.0):
                inten = trace.intensity.copy()
                inten[..., -1] = bad
                with pytest.raises(ValueError, match="^intensity must be finite and non-negative$"):
                    FringeTrace(trace.delta_rad, inten, trace.mean_photons)

    def test_same_seed_same_trace(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        t1 = fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=1e4, rng=42)
        t2 = fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=1e4, rng=42)
        assert np.array_equal(t1.intensity, t2.intensity)


class TestExtractFringePhase:
    def test_synthesized_phase_roundtrip(self):
        delta = default_delta_grid(100)
        trace = FringeTrace(delta, 1.0 + 0.8 * np.cos(delta - 0.7))
        fit = extract_fringe_phase(trace)
        assert fit.phase_rad == pytest.approx(0.7, abs=1e-9)
        assert fit.visibility == pytest.approx(0.8, abs=1e-9)

    def test_flat_trace_zero_visibility(self):
        delta = default_delta_grid(100)
        with pytest.raises(ZeroVisibility):
            extract_fringe_phase(FringeTrace(delta, np.ones_like(delta)))
        with pytest.raises(ZeroVisibility):
            extract_fringe_phase(FringeTrace(delta, np.zeros_like(delta)))

    @pytest.mark.parametrize("shape, bad, pair", [
        pytest.param(shape, bad, pair, id=f"shape{i}-{bad}" + ("-two-samples" if pair else ""))
        for pair in (False, True) for i, shape in enumerate([(100,), (3, 100)]) for bad in (math.nan, math.inf)
    ])
    def test_non_finite_intensity_written_later_raises(self, shape, bad, pair):
        # the trace checks its samples when it is built; a fit must not return NaN.
        # On the non-uniform grid the fit's weights of A take both signs, so an inf
        # sample fits to A = -inf at some samples and +inf at others, and inf written
        # into two samples of either sign gives inf - inf inside the product
        uneven = np.concatenate([np.linspace(0.0, 1.5, 90, endpoint=False), np.linspace(1.5, 6.2, 10)])
        basis = np.array([np.ones_like(uneven), np.cos(uneven), np.sin(uneven)])
        weights = np.linalg.solve(basis @ basis.T, basis)[0]
        assert weights.min() < 0.0 < weights.max() and weights[45] * weights[95] < 0.0
        writes = [(uneven, [[45, 95]])] if pair else [(default_delta_grid(100), [7]), (uneven, range(uneven.size))]
        for delta, samples in writes:
            for k in samples:
                trace = FringeTrace(delta, np.broadcast_to(2.0 + np.cos(delta), shape).copy())
                trace.intensity[..., k] = bad
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ZeroVisibility, match="^fitted visibility nan below 1e-03$"):
                        extract_fringe_phase(trace)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            extract_fringe_phase(FringeTrace(np.array([0.0, 1.0]), np.array([1.0, 1.0])))
        short = np.linspace(0, 2.0, 50)
        with pytest.raises(ValueError):
            extract_fringe_phase(FringeTrace(short, 1 + np.cos(short)))

    def test_arm_imbalance_changes_visibility_not_phase(self):
        s1, s2, s3 = make_triplet(TripletParams(25, 70, 40))
        delta = default_delta_grid(200)
        fit_even = extract_fringe_phase(fringe_trace(s1, s2, s3, delta))
        fit_skew = extract_fringe_phase(fringe_trace(s1, s2, s3, delta, arm_ratio=2.5))
        assert angdiff(fit_even.phase_rad, fit_skew.phase_rad) < 1e-9
        assert fit_skew.visibility < fit_even.visibility

    def test_poisson_noise_statistics(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 30))
        delta = default_delta_grid(100)
        truth = extract_fringe_phase(fringe_trace(s1, s2, s3, delta)).phase_rad

        # visibility uncertainty from the linear-fit covariance (delta method)
        (a0, b0, c0), cov = poisson_fit_covariance(delta, expected_counts(s1, s2, s3, delta, 1e5))
        amp0 = math.hypot(b0, c0)
        grad = np.array([-amp0 / a0**2, b0 / (amp0 * a0), c0 / (amp0 * a0)])
        sigma_vis = math.sqrt(grad @ cov @ grad)

        rng = np.random.default_rng(4242)
        errors = []
        for _ in range(200):
            trace = fringe_trace(s1, s2, s3, delta, noise_mean_photons=1e5, rng=rng)
            fit = extract_fringe_phase(trace)
            errors.append(angdiff(fit.phase_rad, truth))
            assert fit.visibility <= 1.0 + 3.0 * sigma_vis
        errors = np.array(errors)
        assert np.mean(errors < 5e-3) >= 0.99

    def test_shot_noise_phase_sigma_closed_form(self):
        # On a uniform grid over one period with n >= 4 samples, the delta-method
        # phase sigma of the covariance formula is sqrt(2 / sum(I)) / visibility,
        # the closed form criterion 8 predicts its spread with.
        for n in (4, 10, 100, 1000):
            delta = default_delta_grid(n)
            for visibility in (1.0, 0.9, 0.5, 0.2, 0.05, 0.02):
                lam = 1e5 * (1.0 + visibility * np.cos(delta - 0.1 * n))
                (a, b, c), cov = poisson_fit_covariance(delta, lam)
                grad = np.array([0.0, -c, b]) / (b * b + c * c)
                closed = math.sqrt(2.0 / lam.sum()) / (math.hypot(b, c) / a)
                assert closed == pytest.approx(math.sqrt(grad @ cov @ grad), rel=1e-12, abs=0.0)

        # criterion 8's 1000 seeded fits spread as the closed form predicts
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 30))
        delta = default_delta_grid(100)
        ideal = extract_fringe_phase(fringe_trace(s1, s2, s3, delta))
        closed = math.sqrt(2.0 / expected_counts(s1, s2, s3, delta, 1e5).sum()) / ideal.visibility
        trials = np.broadcast_to(np.asarray(s3), (1000, 3))
        fits = extract_fringe_phase(fringe_trace(s1, s2, trials, delta, noise_mean_photons=1e5, rng=987654321))
        rms = math.sqrt(np.mean(wrap_angle(fits.phase_rad - ideal.phase_rad) ** 2))
        assert rms == pytest.approx(closed, rel=0.05)


class TestBatchedFringes:
    """Batch axes of the fringe functions against calls on single elements."""

    @staticmethod
    def _states(shape):
        rng = np.random.default_rng(60)
        z = rng.normal(size=(4, *shape, 3)) + 1j * rng.normal(size=(4, *shape, 3))
        return z / np.linalg.norm(z, axis=-1, keepdims=True)

    @pytest.mark.parametrize("shape", [(5,), (2, 3)])
    def test_batch_matches_single_elements(self, shape):
        arm_a, arm_b, p1, p2 = self._states(shape)
        delta = default_delta_grid(64)
        trace = fringe_trace(arm_a, arm_b, p1, delta, arm_ratio=1.5)
        fit = extract_fringe_phase(trace)
        shift = phase_variation(arm_a, arm_b, p1, p2, delta)
        assert trace.intensity.shape == (*shape, 64)
        assert fit.phase_rad.shape == fit.visibility.shape == shift.shape == shape
        for index in np.ndindex(*shape):
            states = [SymmetricState(*v[index]) for v in (arm_a, arm_b, p1, p2)]
            one = fringe_trace(*states[:3], delta, arm_ratio=1.5)
            assert np.allclose(trace.intensity[index], one.intensity, rtol=0, atol=1e-12)
            one_fit = extract_fringe_phase(one)
            assert isinstance(one_fit.phase_rad, float) and isinstance(one_fit.visibility, float)
            assert angdiff(fit.phase_rad[index], one_fit.phase_rad) <= 1e-12
            assert abs(fit.visibility[index] - one_fit.visibility) <= 1e-12
            assert angdiff(shift[index], phase_variation(*states, delta)) <= 1e-12

    def test_noisy_batch_draws_like_a_loop(self):
        arm_a, arm_b, p1, p2 = self._states((2, 3))
        delta = default_delta_grid(50)
        batch = fringe_trace(arm_a, arm_b, p1, delta, noise_mean_photons=1e4, rng=5)
        rng = np.random.default_rng(5)
        for index in np.ndindex(2, 3):
            one = fringe_trace(arm_a[index], arm_b[index], p1[index], delta, noise_mean_photons=1e4, rng=rng)
            assert np.array_equal(batch.intensity[index], one.intensity)
        # phase_variation draws an element's first fringe, then its second
        rng = np.random.default_rng(6)
        loop = [
            phase_variation(arm_a[i], arm_b[i], p1[i], p2[i], noise_mean_photons=1e4, rng=rng)
            for i in np.ndindex(2, 3)
        ]
        batch = phase_variation(arm_a, arm_b, p1, p2, noise_mean_photons=1e4, rng=6)
        assert np.array_equal(batch.ravel(), loop)

    def test_arms_of_different_shapes_broadcast(self):
        arm_a, arm_b, p1, _ = self._states((2, 3))
        delta = default_delta_grid(64)
        one_a = SymmetricState(*arm_a[0, 0])
        # <p1|arm_a> of one element against <p1|arm_b> of a batch, from wrappers and from arrays
        for a, b, proj in ((one_a, arm_b, SymmetricState(*p1[0, 0])), (arm_a[:1, :1], arm_b, p1[:1, :1])):
            trace = fringe_trace(a, b, proj, delta, noise_mean_photons=1e4, rng=7)
            shape = np.broadcast_shapes(np.shape(a), np.shape(b), np.shape(proj))[:-1]
            assert trace.intensity.shape == (*shape, 64)
            rng = np.random.default_rng(7)
            for index in np.ndindex(*shape):
                single = [np.broadcast_to(v, (*shape, 3))[index] for v in (a, b, proj)]
                one = fringe_trace(*single, delta, noise_mean_photons=1e4, rng=rng)
                assert np.array_equal(trace.intensity[index], one.intensity)

    def test_a_noisy_batch_holds_one_complex_field_and_one_intensity(self):
        s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
        delta = default_delta_grid(100)
        trials = np.broadcast_to(np.asarray(s3), (1000, 3))
        fringe_trace(s1, s2, trials, delta, noise_mean_photons=1e5, rng=1)  # the grid's set-up is kept
        tracemalloc.start()
        try:
            trace = fringe_trace(s1, s2, trials, delta, noise_mean_photons=1e5, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 16 bytes of complex field and 8 of real intensity per sample; two
        # complex temporaries alive at once would take 34
        assert peak / trace.intensity.size <= 25

    def test_one_flat_element_raises(self):
        delta = default_delta_grid(100)
        inten = 1.0 + np.array([[0.5], [0.0], [0.3]]) * np.cos(delta)
        with pytest.raises(ZeroVisibility) as info:
            extract_fringe_phase(FringeTrace(delta, inten))
        # the message reports the smallest visibility of the batch
        assert float(re.search(r"visibility (\S+) below", str(info.value)).group(1)) < 1e-12

    def test_non_uniform_grid_recovers_phase(self):
        rng = np.random.default_rng(61)
        delta = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 5.8, 25)), [TWO_PI - 0.1]])
        fit = extract_fringe_phase(FringeTrace(delta, 2.0 * (1.0 + 0.6 * np.cos(delta - 1.1))))
        assert fit.phase_rad == pytest.approx(1.1, abs=1e-9)
        assert fit.visibility == pytest.approx(0.6, abs=1e-9)

    def test_clustered_grid_rejected(self):
        # samples at two phases only cannot determine three coefficients
        for delta in ([0.0, math.pi, TWO_PI], [0.0, 1e-9, 2e-9, 5.9, 5.9 + 1e-9]):
            delta = np.array(delta)
            with pytest.raises(ValueError, match="clustered"):
                extract_fringe_phase(FringeTrace(delta, 1.0 + np.cos(delta)))

    def test_projection_chain_batch_matches_single_settings(self):
        angles = np.random.default_rng(62).uniform((2.0, 0.0, 0.0), (88.0, 360.0, 360.0), size=(12, 3))
        params = TripletParams(*angles.T)
        arm1, arm2, _ = make_triplet(params)
        _, _, psi3, psi3m = make_states(params)
        arms = np.stack([arm1, arm2])
        chain = projection_chain_amplitude(arms, psi3, psi3m)
        assert chain.shape == (2, 12)
        for k, single in enumerate(angles):
            _, _, p3, p3m = make_states(TripletParams(*map(float, single)))
            for a in range(2):
                assert abs(chain[a, k] - projection_chain_amplitude(SymmetricState(*arms[a, k]), p3, p3m)) <= 1e-12
        # one elliptical element fails the whole batch
        with pytest.raises(ValueError, match="linear"):
            projection_chain_amplitude(arms, np.concatenate([psi3[:-1], R.vec[None]]), psi3m)


class TestKeptGrid:
    """The fit set-up of the last small grid is kept; no result depends on it."""

    @staticmethod
    def _fit_sequence():
        rng = np.random.default_rng(63)
        a = default_delta_grid(100)
        b = np.concatenate([[0.0], np.sort(rng.uniform(0.2, 5.8, 62)), [TWO_PI - 0.1]])
        fits = []

        def fit(delta):
            inten = 1e4 * (1.0 + 0.7 * np.cos(delta - 0.4)) + rng.normal(0.0, 30.0, delta.size)
            fits.append(extract_fringe_phase(FringeTrace(delta, inten)))
            fits.append(extract_fringe_phase(FringeTrace(delta, np.stack([inten, inten[::-1]]))))

        for delta in (a, b, a, default_delta_grid(5000)):
            fit(delta)
        grid = b.copy()
        FringeTrace(grid, np.ones(grid.size))  # checked, not yet fitted
        grid[1:-1] += 0.01  # the same array, changed in place
        fit(b)
        fit(grid)
        grid[1:-1] -= 0.02
        fit(grid)
        return [np.asarray(f, dtype=float).tobytes() for f in fits]

    def test_fits_equal_fits_set_up_afresh(self, monkeypatch):
        kept = self._fit_sequence()
        monkeypatch.setattr(eraser, "_KEPT_SAMPLES", -1)  # keep no grid
        assert kept == self._fit_sequence()

    def test_invalid_grid_after_a_valid_one_is_rejected(self):
        valid = np.array([0.0, 1.5, 3.0, 4.5, 6.0])
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        unordered = "^delta_rad must be finite and strictly increasing$"
        for bad in (valid[[0, 2, 1, 3, 4]], np.array([0.0, 1.5, 1.5, 4.5, 6.0]), np.append(valid[:4], np.nan)):
            extract_fringe_phase(fringe_trace(s1, s2, s3, valid))
            with pytest.raises(ValueError, match=unordered):
                FringeTrace(bad, np.ones(5))
            with pytest.raises(ValueError, match=unordered):
                fringe_trace(s1, s2, s3, bad)
        grid = valid.copy()
        trace = FringeTrace(grid, 1.0 + np.cos(grid))
        extract_fringe_phase(trace)
        grid[2] = grid[1]  # changed in place after the trace was built
        with pytest.raises(ValueError, match=unordered):
            extract_fringe_phase(trace)
        clustered = np.array([0.0, 1e-9, 2e-9, 5.9, 5.9 + 1e-9])
        extract_fringe_phase(FringeTrace(valid, 1.0 + np.cos(valid)))
        with pytest.raises(ValueError, match="^delta_rad samples are too clustered to determine the fringe$"):
            extract_fringe_phase(FringeTrace(clustered, 1.0 + np.cos(clustered)))

    def test_grid_of_a_built_trace_changed_in_place_is_rejected(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        for noise in (None, 1e4):
            grid = default_delta_grid(100)
            trace = fringe_trace(s1, s2, s3, grid, noise_mean_photons=noise, rng=3)
            extract_fringe_phase(trace)
            grid[2] = grid[1]  # the trace's own grid, changed after the trace was built
            with pytest.raises(ValueError, match="^delta_rad must be finite and strictly increasing$"):
                extract_fringe_phase(trace)

    def test_a_setting_looks_its_grid_up_twice(self):
        # once to build the trace and once to fit it: the built trace is not checked again
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        delta = default_delta_grid(100)
        for noise in (1e5, None):
            before = eraser._kept_grid.cache_info()
            extract_fringe_phase(fringe_trace(s1, s2, s3, delta, noise_mean_photons=noise, rng=1))
            after = eraser._kept_grid.cache_info()
            assert after.hits + after.misses - before.hits - before.misses == 2

    def test_threads_on_different_grids_get_their_own_fits(self):
        grids = [default_delta_grid(n) for n in (60, 100, 140)]
        traces = [FringeTrace(d, 2.0 + np.cos(d - 0.3 * k)) for k, d in enumerate(grids)]
        want = [extract_fringe_phase(t) for t in traces]
        failures = []

        def work(k):
            try:
                for i in range(k, k + 300):
                    assert extract_fringe_phase(traces[i % 3]) == want[i % 3]
            except Exception as exc:  # a wrong fit, or a basis of another grid's size
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and not failures

    def test_a_large_grid_is_let_go_after_its_fit(self):
        delta = default_delta_grid(200_000)  # above _KEPT_SAMPLES
        trace = FringeTrace(delta, 2.0 + np.cos(delta))
        tracemalloc.start()
        try:
            extract_fringe_phase(trace)
            del trace
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 1e6  # kept, the grid's fit operator alone would hold 4.8 MB

    def test_kept_operator_fits_as_the_normal_equations_do(self):
        # M = G^-1 B, solved once per grid, against one solve of the normal equations
        # G x = B I per trace.  Both round differently; the phase error times the
        # visibility and the visibility error grow with cond(G), which is 2 on a grid
        # spread evenly over whole periods.  The bounds are about twice the largest
        # errors over cond(G) / 2 seen here, 2.8 ulp(pi) and 8.5 ulp(1).
        rng = np.random.default_rng(66)
        grids = [
            default_delta_grid(100),
            default_delta_grid(37),
            np.concatenate([[0.0], np.sort(rng.uniform(0.0, TWO_PI, 78)), [TWO_PI - 1e-3]]),
            np.concatenate([np.linspace(0.0, 0.8, 50), np.linspace(5.66, 6.46, 50)]),  # two clusters
        ]
        n = 2000
        for delta in grids:
            basis = np.array([np.ones_like(delta), np.cos(delta), np.sin(delta)])
            gram = basis @ basis.T
            scale = np.linalg.cond(gram) / 2.0
            peak = rng.uniform(-math.pi, math.pi, (n, 1))
            photons, visibility = 10.0 ** rng.uniform(3.0, 6.0, (n, 1)), rng.uniform(0.05, 1.0, (n, 1))
            inten = rng.poisson(photons * (1.0 + visibility * np.cos(delta - peak)) / 2.0).astype(float)
            a, b, c = np.linalg.solve(gram, (inten @ basis.T).T)
            oracle = np.arctan2(c, b), np.hypot(b, c) / a
            assert oracle[1].min() > 1e-3  # every trace fits
            single = np.array([extract_fringe_phase(FringeTrace(delta, i)) for i in inten]).T
            batch = extract_fringe_phase(FringeTrace(delta, inten))
            for (phase, vis), (ref_phase, ref_vis) in [(single, oracle), (batch, oracle), (batch, single)]:
                phase_err = np.abs(wrap_angle(phase - ref_phase)) * ref_vis / math.ulp(math.pi)
                assert phase_err.max() <= 5.0 * scale
                assert np.abs(vis - ref_vis).max() / math.ulp(1.0) <= 17.0 * scale

    def test_batch_of_one_matches_the_single_fit(self):
        delta = default_delta_grid(100)
        inten = np.random.default_rng(64).poisson(1e4 * (1.0 + 0.5 * np.cos(delta + 2.0))).astype(float)
        one = extract_fringe_phase(FringeTrace(delta, inten))
        batch = extract_fringe_phase(FringeTrace(delta, inten[None]))
        assert isinstance(one.phase_rad, float) and batch.phase_rad.shape == batch.visibility.shape == (1,)
        assert angdiff(batch.phase_rad[0], one.phase_rad) <= 1e-12
        assert abs(batch.visibility[0] - one.visibility) <= 1e-12


class TestPhaseVariation:
    def test_same_projector_zero(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        assert phase_variation(s1, s2, s3, s3) == pytest.approx(0.0, abs=1e-12)

    def test_matches_analytic_difference(self):
        p0 = TripletParams(10, 120, 0)
        p1 = TripletParams(10, 120, 60)
        s1, s2, s3a = make_triplet(p0)
        s3b = make_triplet(p1)[2]
        got = phase_variation(s1, s2, s3a, s3b)
        expected = wrap_angle(
            total_phase_continuous(10, 120, 60) - total_phase_continuous(10, 120, 0)
        )
        assert angdiff(got, expected) < 1e-9

    def test_matches_direct_difference_random(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            while True:
                states = [SymmetricState(*random_states(rng, (), 3)) for _ in range(4)]
                pairs = [
                    abs(inner(states[i], states[j]))
                    for i in range(4)
                    for j in range(i + 1, 4)
                ]
                if min(pairs) >= 0.05:
                    break
            s1, s2, pa, pb = states
            got = phase_variation(s1, s2, pa, pb)
            want = wrap_angle(
                three_vertex_phase(s1, s2, pb) - three_vertex_phase(s1, s2, pa)
            )
            assert angdiff(got, want) < 1e-9

    def test_stitched_scan_reproduces_curve(self):
        # cumulative fringe shifts across a phi scan rebuild the unwrapped curve
        theta, chi = 10.0, 120.0
        phis = np.arange(0.0, 360.1, 5.0)
        s1, s2, _ = make_triplet(TripletParams(theta, chi, 0))
        projectors = [make_triplet(TripletParams(theta, chi, p % 360.0))[2] for p in phis]
        total = 0.0
        for a, b in zip(projectors, projectors[1:]):
            total += phase_variation(s1, s2, a, b)
        expected = total_phase_continuous(theta, chi, 360.0) - total_phase_continuous(theta, chi, 0.0)
        assert abs(total - expected) < 1e-6
