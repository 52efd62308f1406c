"""Eraser interferometer: waveplates, angle solving, projection chain,
fringes, phase extraction, noise statistics."""

import math
import re

import numpy as np
import pytest

from triphase.core import (
    QubitState,
    SymmetricState,
    inner,
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from triphase.eraser import (
    FringeTrace,
    Unreachable,
    WaveplateSetting,
    ZeroVisibility,
    analyzer_hwp_settings,
    default_delta_grid,
    delta_from_path_difference,
    extract_fringe_phase,
    fringe_trace,
    path_difference_from_delta,
    phase_variation,
    projection_amplitude,
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


class TestWaveplates:
    def test_setting_validation(self):
        with pytest.raises(ValueError):
            WaveplateSetting("third", 10.0)
        assert WaveplateSetting("half", 200.0).angle_deg == pytest.approx(20.0)

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
        # the final Gauss-Newton iterates need not hold the lowest infidelity
        # seen; the message reports the lowest over the grid and every iterate
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

    def test_empty_chain_rejected(self):
        with pytest.raises(ValueError):
            solve_waveplates(D, [], H)


class TestProjection:
    def test_self_projection_unit_magnitude(self):
        s = SymmetricState.of(1, 1j, 0.5)
        assert abs(projection_amplitude(s, s)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_projection_zero(self):
        a = SymmetricState(1, 0, 0)
        b = SymmetricState(0, 1, 0)
        assert projection_amplitude(a, b) == 0.0

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
        assert abs(projection_amplitude(arm, proj) - expected) < 1e-12


class TestProjectionChain:
    def test_analyzer_settings_map_pair_to_h_and_v(self):
        _, _, psi3, psi3m = make_states(TripletParams(10, 130, 40))
        hwp_h, hwp_v = analyzer_hwp_settings(psi3, psi3m)
        w_h = waveplate_matrix(hwp_h)
        w_v = waveplate_matrix(hwp_v)
        assert abs(np.vdot(H.vec, w_h @ psi3.vec)) == pytest.approx(1.0, abs=1e-12)
        assert abs(np.vdot(V.vec, w_v @ psi3m.vec)) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_non_linear_states(self):
        with pytest.raises(ValueError):
            analyzer_hwp_settings(R, D)

    def test_chain_equals_direct_projection(self):
        rng = np.random.default_rng(40)
        for _ in range(50):
            p = TripletParams(rng.uniform(2, 88), rng.uniform(0, 360), rng.uniform(0, 360))
            psi1, psi2, psi3, psi3m = make_states(p)
            proj = symmetrize(psi3, psi3m)
            arms = [symmetrize(psi1, psi1), symmetrize(psi2, psi2)]
            direct = [projection_amplitude(a, proj) for a in arms]
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
        amp = abs(projection_amplitude(s1, s3))
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
        r = projection_amplitude(s1, s3)
        q = projection_amplitude(s2, s3)
        predicted = wrap_angle(np.angle(q) - np.angle(r))
        delta = default_delta_grid(4096)
        trace = fringe_trace(s1, s2, s3, delta)
        coarse_max = trace.delta_rad[trace.intensity.argmax()]
        assert angdiff(coarse_max, predicted) < TWO_PI / 4096 + 1e-12
        fit = extract_fringe_phase(trace)
        assert angdiff(fit.phase_rad, predicted) < 1e-9

    def test_intensity_bounds(self):
        s1, s2, s3 = make_triplet(TripletParams(25, 70, 40))
        r = abs(projection_amplitude(s1, s3))
        q = abs(projection_amplitude(s2, s3))
        trace = fringe_trace(s1, s2, s3, default_delta_grid(512))
        assert np.all(trace.intensity >= -1e-15)
        assert np.all(trace.intensity <= (r + q) ** 2 + 1e-12)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            FringeTrace(np.array([0.0, 0.0, 1.0]), np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ValueError):
            FringeTrace(np.array([0.0, 1.0]), np.array([1.0, -1.0]))

    def test_noise_requires_rng(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        with pytest.raises(ValueError):
            fringe_trace(s1, s2, s3, default_delta_grid(), noise_mean_photons=100.0)
        with pytest.raises(ValueError):
            phase_variation(s1, s2, s3, s3, noise_mean_photons=100.0)

    def test_arm_ratio_must_be_positive(self):
        s1, s2, s3 = make_triplet(TripletParams(10, 120, 20))
        with pytest.raises(ValueError):
            fringe_trace(s1, s2, s3, default_delta_grid(), arm_ratio=0.0)

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
        r = projection_amplitude(s1, s3)
        q = projection_amplitude(s2, s3)
        lam = 1e5 * np.abs(r * np.exp(1j * delta) + q) ** 2 / (abs(r) + abs(q)) ** 2
        design = np.column_stack([np.ones_like(delta), np.cos(delta), np.sin(delta)])
        normal_inv = np.linalg.inv(design.T @ design)
        cov = normal_inv @ design.T @ np.diag(lam) @ design @ normal_inv
        a0, b0, c0 = normal_inv @ design.T @ lam
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
        from triphase.core import random_symmetric

        for _ in range(100):
            while True:
                states = [random_symmetric(rng) for _ in range(4)]
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


class TestPathConversion:
    def test_roundtrip_and_default_wavelength(self):
        x = 1.234e-6
        delta = delta_from_path_difference(x)
        assert delta == pytest.approx(TWO_PI * x / 391e-9, rel=1e-12)
        assert path_difference_from_delta(delta) == pytest.approx(x, rel=1e-12)

    def test_custom_wavelength(self):
        assert delta_from_path_difference(782e-9, wavelength_m=782e-9) == pytest.approx(TWO_PI)
        with pytest.raises(ValueError):
            delta_from_path_difference(1.0, wavelength_m=0.0)
