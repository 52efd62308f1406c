"""Standard-triplet family: analytic formulas vs direct arithmetic, sweeps,
jump diagnostics, offset fitting."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphase
from triphase.core import (
    QubitState,
    UndefinedPhase,
    bloch_from_qubit,
    majorana_decompose,
    inner,
    three_vertex_phase,
    wrap_angle,
)
from triphase.triplet import (
    GridTooCoarse,
    InsufficientData,
    TripletParams,
    analytic_qubit_phase,
    analytic_total_phase,
    fit_offset,
    make_states,
    make_triplet,
    phase_slope,
    sweep_phi,
    total_phase_continuous,
)

TWO_PI = 2.0 * math.pi

H = QubitState(1, 0)


def angdiff(a, b):
    return abs(wrap_angle(a - b))


class TestMakeStates:
    def test_theta_zero_collapses_anchors(self):
        psi1, psi2, _, _ = make_states(TripletParams(0, 45, 10))
        assert psi1.amp_h == 1.0 and psi1.amp_v == 0.0
        assert psi2.amp_h == 1.0 and psi2.amp_v == 0.0

    def test_chi_phi_zero_collapses_analyzers(self):
        _, _, psi3, psi3m = make_states(TripletParams(10, 0, 0))
        assert psi3.amp_h == 1.0 and psi3.amp_v == 0.0
        assert psi3m.amp_h == 1.0 and psi3m.amp_v == 0.0

    def test_theta_90_gives_circular_pair(self):
        psi1, psi2, _, _ = make_states(TripletParams(90, 0, 0))
        assert np.allclose(psi1.vec, np.array([1, 1j]) / math.sqrt(2), atol=1e-15)
        assert np.allclose(psi2.vec, np.array([1, -1j]) / math.sqrt(2), atol=1e-15)
        assert np.allclose(bloch_from_qubit(psi1).vec, [0, 1, 0], atol=1e-15)
        assert np.allclose(bloch_from_qubit(psi2).vec, [0, -1, 0], atol=1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TripletParams(-1, 0, 0)
        with pytest.raises(ValueError):
            TripletParams(180, 0, 0)
        with pytest.raises(ValueError):
            TripletParams(10, 360, 0)
        with pytest.raises(ValueError):
            TripletParams(10, 0, -5)


class TestMakeTriplet:
    def test_all_collapse_to_hh(self):
        s1, s2, s3 = make_triplet(TripletParams(0, 0, 0))
        for s in (s1, s2, s3):
            assert s.amp_hh == 1.0 and s.amp_sym == 0.0 and s.amp_vv == 0.0

    def test_chi_180_diagonal_pair(self):
        p = TripletParams(10, 180, 0)
        _, _, psi3, psi3m = make_states(p)
        assert np.allclose(psi3.vec, np.array([1, 1]) / math.sqrt(2), atol=1e-15)
        assert np.allclose(psi3m.vec, np.array([1, -1]) / math.sqrt(2), atol=1e-15)
        s3 = make_triplet(p)[2]
        # expansion oracle: |D>|A> + |A>|D> = (|HH> - |VV>) normalized
        assert np.allclose(s3.vec, np.array([1, 0, -1]) / math.sqrt(2), atol=1e-15)

    def test_majorana_recovers_analyzer_pair(self):
        p = TripletParams(25, 130, 70)
        _, _, psi3, psi3m = make_states(p)
        s3 = make_triplet(p)[2]
        got = majorana_decompose(s3)
        fid_direct = min(abs(inner(got[0], psi3)), abs(inner(got[1], psi3m)))
        fid_swapped = min(abs(inner(got[0], psi3m)), abs(inner(got[1], psi3)))
        assert max(fid_direct, fid_swapped) >= 1.0 - 1e-9


class TestAnalyticPhase:
    def test_phi_zero_cancellation(self):
        for theta in (5, 10, 45, 89, 120):
            for chi in (0, 60, 120, 180, 300):
                assert analytic_total_phase(theta, chi, 0.0) == 0.0

    def test_spec_point_theta90(self):
        assert analytic_qubit_phase(90, 0, 90) == pytest.approx(-math.pi / 2, abs=1e-12)
        assert analytic_qubit_phase(90, 0, 90, mirrored=True) == pytest.approx(-math.pi / 2, abs=1e-12)
        assert analytic_total_phase(90, 0, 90) == pytest.approx(-math.pi, abs=1e-12)

    def test_formula_value_theta10_chi120_phi60(self):
        expected = -2.0 * math.atan(math.tan(math.radians(5)) * math.tan(math.radians(60)))
        assert analytic_qubit_phase(10, 120, 60) == pytest.approx(expected, abs=1e-15)
        assert analytic_qubit_phase(10, 120, 60, mirrored=True) == 0.0
        assert analytic_total_phase(10, 120, 60) == pytest.approx(expected, abs=1e-15)

    def test_agrees_with_direct_qubit_phase(self):
        for theta, chi, phi in [(10, 120, 60), (2, 60, 200), (45, 0, 77), (20, 180, 311)]:
            psi1, psi2, psi3, psi3m = make_states(TripletParams(theta, chi, phi))
            direct = three_vertex_phase(psi1, psi2, psi3)
            assert angdiff(analytic_qubit_phase(theta, chi, phi), direct) < 1e-9
            direct_m = three_vertex_phase(psi1, psi2, psi3m)
            assert angdiff(analytic_qubit_phase(theta, chi, phi, mirrored=True), direct_m) < 1e-9

    def test_agrees_with_direct_qutrit_phase_grid(self):
        for theta in (2, 10, 45):
            for chi in (0, 120):
                for phi in np.arange(0.0, 360.0, 10.0):
                    if min(abs(phi - p) for p in (180 - chi / 2, 180 + chi / 2)) < 1.0:
                        continue
                    s1, s2, s3 = make_triplet(TripletParams(theta, chi, float(phi)))
                    direct = three_vertex_phase(s1, s2, s3)
                    assert angdiff(analytic_total_phase(theta, chi, phi), direct) < 1e-9

    def test_theta90_direct_route_is_singular(self):
        # at theta = 90 the anchors are orthogonal, so the overlap product
        # underflows; the analytic value is validated as the limit instead
        s1, s2, s3 = make_triplet(TripletParams(90, 0, 90))
        assert abs(inner(s2, s1)) < 1e-12
        with pytest.raises(UndefinedPhase):
            three_vertex_phase(s1, s2, s3)
        lim = three_vertex_phase(*make_triplet(TripletParams(90 - 1e-3, 0, 90)))
        assert angdiff(analytic_total_phase(90, 0, 90), lim) < 1e-4
        assert analytic_total_phase(90, 0, 90) == pytest.approx(-math.pi, abs=1e-12)

    def test_wrapped_periodicity(self):
        for phi in np.arange(0.0, 360.0, 17.0):
            a = analytic_total_phase(10, 120, phi)
            b = analytic_total_phase(10, 120, phi + 360.0)
            assert angdiff(a, b) < 1e-9

    def test_antisymmetry_in_phi(self):
        for theta, chi in [(10, 120), (45, 60), (2, 180)]:
            for phi in np.arange(3.0, 360.0, 11.0):
                a = analytic_total_phase(theta, chi, float(phi))
                b = analytic_total_phase(theta, chi, -float(phi))
                assert angdiff(b, -a) < 1e-9


class TestContinuousBranch:
    def test_matches_principal_modulo_two_pi(self):
        phis = np.linspace(0, 720, 1441)
        cont = total_phase_continuous(10, 120, phis)
        princ = analytic_total_phase(10, 120, phis)
        assert np.max(np.abs(wrap_angle(cont - princ))) < 1e-9

    def test_continuous_across_poles(self):
        for chi in (0, 60, 120, 180):
            for pole in (180 - chi / 2, 180 + chi / 2):
                phis = np.linspace(pole - 0.5, pole + 0.5, 2001)
                vals = np.asarray(total_phase_continuous(10, chi, phis))
                assert np.max(np.abs(np.diff(vals))) < 0.2

    def test_on_branch_just_past_a_pole(self):
        # the pole of (10, 120) sits at phi = 120; the curve is steep there
        # but continuous, not 2 pi off within 1e-9 deg past it
        step = total_phase_continuous(10, 120, 120 + 5e-10) - total_phase_continuous(10, 120, 119.9)
        assert abs(step) < 0.1

    def test_grid_nodes_next_to_poles(self):
        # a node just past the pole at 120, and a pole just past the anchor
        # phi = 0 (chi a rounding short of 360)
        for theta, chi, grid in [
            (10, 120, [0, 60, 120 + 5e-10, 200, 360]),
            (1, 359.9999999999999, np.linspace(0, 360, 3)),
        ]:
            assert sweep_phi(theta, chi, grid).net_change_rad == pytest.approx(-2 * TWO_PI, abs=1e-9)

    def test_full_period_drop_is_4pi(self):
        for theta in (2, 10, 45, 89):
            for chi in (0, 60, 120, 180):
                net = total_phase_continuous(theta, chi, 360.0) - total_phase_continuous(theta, chi, 0.0)
                assert net == pytest.approx(-2.0 * TWO_PI, abs=1e-9)

    def test_half_period_value(self):
        # antisymmetry plus the 4pi period pin gamma(180) = -2pi exactly
        for theta, chi in [(10, 120), (20, 60), (5, 180), (10, 0)]:
            assert total_phase_continuous(theta, chi, 180.0) == pytest.approx(-TWO_PI, abs=1e-9)

    def test_slope_is_negative_everywhere(self):
        phis = np.linspace(0, 360, 721)
        for theta in (2, 10, 45, 89):
            s = np.asarray(phase_slope(theta, 120, phis))
            assert np.all(s < 0.0)


class TestSweep:
    def test_rejects_degenerate_theta(self):
        grid = np.linspace(0, 360, 721)
        with pytest.raises(ValueError):
            sweep_phi(0.0, 120, grid)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            sweep_phi(10, 120, [0.0, 10.0])
        with pytest.raises(ValueError):
            sweep_phi(10, 120, [0.0, 10.0, 5.0])

    def test_rejects_non_finite_inputs(self):
        grid = np.linspace(0, 360, 721)
        for chi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="chi_deg"):
                sweep_phi(10, chi, grid)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="phi grid"):
                sweep_phi(10, 120, [0.0, 10.0, bad])

    @pytest.mark.parametrize(
        "theta, grid",
        [(178, np.linspace(0, 360, 5)), (1e-6, np.linspace(0, 360, 721))],
    )
    def test_steep_or_coarse_whole_period(self, theta, grid):
        # theta > 90 puts the steep region at phi = +-chi/2, away from the
        # formula poles; theta = 1e-6 makes it narrower than 1e-4 deg
        curve = sweep_phi(theta, 120, grid)
        assert curve.net_change_rad == pytest.approx(-2 * TWO_PI, abs=1e-9)
        assert np.max(np.abs(np.diff(curve.gamma_rad))) < math.pi / 2
        assert np.isin(grid, curve.phi_deg).all()

    def test_equal_maxima_both_reported(self):
        # the slope's two maxima are equal by symmetry about phi = 180
        curve = sweep_phi(15, 30, np.linspace(0, 360, 721))
        assert len(curve.jumps) == 2
        left, right = sorted(curve.jumps, key=lambda j: j.phi_center_deg)
        assert left.phi_center_deg + right.phi_center_deg == pytest.approx(360.0, abs=1e-9)
        assert left.phi_center_deg < 180.0
        for j in curve.jumps:
            assert j.rise_rad == pytest.approx(-TWO_PI, abs=1e-9)

    def test_merged_jump_on_period_boundary(self):
        curve = sweep_phi(80, 240, np.linspace(0, 360, 721))
        assert len(curve.jumps) == 1
        jump = curve.jumps[0]
        assert min(jump.phi_center_deg % 360.0, -jump.phi_center_deg % 360.0) < 1e-9
        assert jump.rise_rad == pytest.approx(-2 * TWO_PI, abs=1e-9)

    def test_refinement_keeps_steps_small(self):
        curve = sweep_phi(2, 120, np.linspace(0, 360, 721))
        assert np.max(np.abs(np.diff(curve.gamma_rad))) < math.pi / 2

    def test_jump_centers_chi120(self):
        curve = sweep_phi(10, 120, np.linspace(0, 360, 721))
        centers = sorted(j.phi_center_deg for j in curve.jumps)
        assert len(centers) == 2
        assert abs(centers[0] - 120.0) < 0.1 and abs(centers[1] - 240.0) < 0.1
        for j in curve.jumps:
            assert abs(abs(j.rise_rad) - TWO_PI) < 1e-6

    def test_merged_jump_chi0(self):
        curve = sweep_phi(10, 0, np.linspace(0, 360, 721))
        assert len(curve.jumps) == 1
        jump = curve.jumps[0]
        assert abs(jump.phi_center_deg - 180.0) < 0.1
        assert abs(abs(jump.rise_rad) - 2 * TWO_PI) < 1e-6

    def test_jumps_chi180(self):
        curve = sweep_phi(10, 180, np.linspace(0, 360, 721))
        centers = sorted(j.phi_center_deg for j in curve.jumps)
        assert len(centers) == 2
        assert abs(centers[0] - 90.0) < 0.1 and abs(centers[1] - 270.0) < 0.1

    def test_jump_center_law_small_theta(self):
        # At theta=20, chi=60 the two jumps (10-90% width ~93 deg) overlap so
        # strongly that the measured steepest points sit ~0.66 deg from the
        # poles; every narrower configuration resolves to within 0.1 deg.
        grid = np.linspace(0, 360, 721)
        for theta in (2, 5, 10, 20):
            for chi in (60, 120, 180):
                if (theta, chi) == (20, 60):
                    continue
                curve = sweep_phi(theta, chi, grid)
                centers = sorted(j.phi_center_deg for j in curve.jumps)
                expected = sorted([180.0 - chi / 2.0, 180.0 + chi / 2.0])
                assert len(centers) == 2
                for got, want in zip(centers, expected):
                    assert abs(got - want) < 0.1

    def test_two_period_sweep(self):
        curve = sweep_phi(10, 120, np.linspace(0, 720, 1441))
        assert curve.net_change_rad == pytest.approx(-4 * TWO_PI, abs=1e-6)
        assert len(curve.jumps) == 4

    def test_net_change_magnitude(self):
        curve = sweep_phi(10, 120, np.linspace(0, 360, 721))
        assert abs(abs(curve.net_change_rad) - 2 * TWO_PI) < 1e-6

    def test_matches_continuous_branch(self):
        curve = sweep_phi(7, 90, np.linspace(0, 360, 721))
        ref = np.asarray(total_phase_continuous(7, 90, curve.phi_deg))
        assert np.max(np.abs((curve.gamma_rad - curve.gamma_rad[0]) - (ref - ref[0]))) < 1e-9

    def test_coarse_grid_still_resolves_sharp_jump(self):
        # 0.5 deg spacing would alias a theta = 0.1 jump without pole seeding
        curve = sweep_phi(0.1, 120, np.linspace(0, 360, 721))
        assert abs(abs(curve.net_change_rad) - 2 * TWO_PI) < 1e-6

    def test_grid_too_coarse_for_absurd_theta(self):
        with pytest.raises(GridTooCoarse):
            sweep_phi(1e-13, 120, np.linspace(0, 360, 721))

    def test_steepening_with_theta(self):
        widths = []
        for theta in (20, 10, 5, 2):
            curve = sweep_phi(theta, 120, np.linspace(0, 360, 721))
            widths.append([j.width_deg for j in curve.jumps])
        for k in range(2):
            seq = [w[k] for w in widths]
            assert all(b < a for a, b in zip(seq, seq[1:]))

    def test_near_uniform_slope_has_no_jumps(self):
        curve = sweep_phi(89.9, 120, np.linspace(0, 360, 721))
        assert curve.jumps == []


class TestFitOffset:
    def _theory(self):
        return sweep_phi(10, 120, np.linspace(0, 360, 721))

    def test_exact_offset(self):
        theory = self._theory()
        phis = np.linspace(5, 355, 40)
        gammas = np.interp(phis, theory.phi_deg, theory.gamma_rad) + 0.3
        fit = fit_offset(np.column_stack([phis, gammas]), theory)
        assert fit.offset_rad == pytest.approx(0.3, abs=1e-9)
        assert fit.rms_rad < 1e-9

    def test_wrap_boundary_offset(self):
        theory = self._theory()
        phis = np.linspace(5, 355, 40)
        gammas = np.interp(phis, theory.phi_deg, theory.gamma_rad) + math.pi
        fit = fit_offset(np.column_stack([phis, gammas]), theory)
        assert angdiff(fit.offset_rad, math.pi) < 1e-9

    def test_noisy_offset_statistics(self):
        theory = self._theory()
        rng = np.random.default_rng(77)
        bound = 3 * 0.05 / math.sqrt(50)
        hits = 0
        for _ in range(100):
            phis = rng.uniform(0, 360, 50)
            gammas = np.interp(phis, theory.phi_deg, theory.gamma_rad) + 0.3 + rng.normal(0, 0.05, 50)
            fit = fit_offset(np.column_stack([phis, gammas]), theory)
            hits += abs(wrap_angle(fit.offset_rad - 0.3)) <= bound
        assert hits >= 97

    def test_cost_at_offset_is_the_minimum(self):
        theory = self._theory()
        rng = np.random.default_rng(12)
        scan = np.linspace(-math.pi, math.pi, 200001)
        for sigma in (0.05, 0.5, 1.0, 2.0, 3.0):
            phis = rng.uniform(0, 360, 40)
            curve = np.interp(phis, theory.phi_deg, theory.gamma_rad)
            gammas = curve + rng.uniform(-math.pi, math.pi) + rng.normal(0, sigma, 40)
            fit = fit_offset(np.column_stack([phis, gammas]), theory)
            resid = gammas - curve

            def cost(c):
                return sum(np.asarray(wrap_angle(r - c)) ** 2 for r in resid)

            at_fit = float(cost(np.array([fit.offset_rad]))[0])
            assert at_fit <= float(np.min(cost(scan)))
            assert fit.rms_rad == pytest.approx(math.sqrt(at_fit / resid.size), rel=1e-12)

    def test_insufficient_data(self):
        theory = self._theory()
        with pytest.raises(InsufficientData):
            fit_offset(np.array([[400.0, 0.0], [500.0, 1.0]]), theory)
        with pytest.raises(InsufficientData):
            fit_offset(np.array([[100.0, 0.0], [400.0, 1.0]]), theory)


def test_import_does_not_load_scipy_signal():
    # numpy is the only runtime dependency: no scipy module at all, through
    # the package, the command line or the acceptance suite
    package_root = str(Path(triphase.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    code = (
        "import sys, triphase, triphase.cli, triphase.verify; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
