"""Standard-triplet family: analytic formulas vs direct arithmetic, sweeps,
jump diagnostics, offset fitting."""

import math
import os
import re
import subprocess
import sys
import warnings
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
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from triphase.triplet import (
    GridTooCoarse,
    InsufficientData,
    PhaseCurve,
    TripletParams,
    analytic_total_phase,
    fit_offset,
    make_states,
    make_triplet,
    sweep_phi,
    total_phase_continuous,
)

TWO_PI = 2.0 * math.pi

H = QubitState(1, 0)


def angdiff(a, b):
    return abs(wrap_angle(a - b))


def slope_oracle(theta_deg, chi_deg, phi_deg):
    """Oracle: d(gamma)/d(phi) of the continuous curve, in rad per rad, as the derivative of
    the two closed-form qubit phases (see analytic_qubit_phase); broadcasts over phi."""
    t = math.tan(math.radians(theta_deg) / 2.0)
    quarter, half = chi_deg / 4.0, np.asarray(phi_deg, dtype=float) / 2.0

    def g(x):
        return t / (np.cos(x) ** 2 + (t * np.sin(x)) ** 2)

    return -(g(np.radians(quarter + half)) + g(np.radians(quarter - half)))


def analytic_qubit_phase(theta_deg, chi_deg, phi_deg, mirrored=False):
    """Oracle: the closed-form three-vertex phase of (psi1, psi2, psi3 or its mirror).

    Unmirrored: -2*atan(tan(theta/2) * tan(chi/4 + phi/2));
    mirrored:   +2*atan(tan(theta/2) * tan(chi/4 - phi/2)).
    The principal branch, in (-pi, pi); at the tangent poles floating point
    lands on the left one-sided limit.  Broadcasts over array inputs.
    """
    t = np.tan(np.radians(np.asarray(theta_deg, dtype=float)) / 2.0)
    quarter, half = np.asarray(chi_deg, dtype=float) / 4.0, np.asarray(phi_deg, dtype=float) / 2.0
    if mirrored:
        out = 2.0 * np.arctan(t * np.tan(np.radians(quarter - half)))
    else:
        out = -2.0 * np.arctan(t * np.tan(np.radians(quarter + half)))
    return float(out) if np.ndim(out) == 0 else out


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

    def test_array_states_equal_the_wrappers_of_each_setting(self):
        # element by element, array params give the states and the triplet of the scalar path, within the
        # batch-vs-scalar bound (numpy's sin and cos need not round as math's do); on broadcastable axes too
        theta, chi, phi = np.random.default_rng(25).uniform(0.0, (180.0, 360.0, 360.0), (60, 3)).T
        for angles in (theta, chi, phi), (theta[:4, None, None], chi[:5, None], phi[:6]):
            params = TripletParams(*angles)
            batch = make_states(params) + make_triplet(params)
            settings = np.broadcast_arrays(*angles)
            assert all(b.shape[:-1] == settings[0].shape for b in batch)
            for index in np.ndindex(settings[0].shape):
                single = TripletParams(*(float(x[index]) for x in settings))
                for got, want in zip(batch, make_states(single) + make_triplet(single)):
                    assert np.allclose(got[index], want.vec, rtol=0, atol=1e-15)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            TripletParams(-1, 0, 0)
        with pytest.raises(ValueError):
            TripletParams(180, 0, 0)
        with pytest.raises(ValueError):
            TripletParams(10, 360, 0)
        with pytest.raises(ValueError):
            TripletParams(10, 0, -5)
        with pytest.raises(ValueError, match="theta_deg: must not be empty"):
            TripletParams(np.array([]), 0.0, 0.0)
        with pytest.raises(ValueError, match="phi_deg: must not be empty"):
            TripletParams(10.0, np.array([0.0]), np.array([]))
        with pytest.raises(ValueError, match=re.escape("shapes (), (1, 2), (3,) do not broadcast")):
            TripletParams(10.0, np.ones((1, 2)), np.ones(3))


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

    def test_wrappers_hold_the_bits_of_the_checked_route(self):
        # make_states hands the trusted constructor parts already complex; the
        # checked constructor, which converts every part, must hold the same bits
        def checked_states(theta, chi, phi):
            th = math.radians(theta)
            c, s = math.cos(th / 2.0), math.sin(th / 2.0)
            a, b = math.radians(chi / 4.0 + phi / 2.0), math.radians(chi / 4.0 - phi / 2.0)
            return QubitState(c, 1j * s), QubitState(c, -1j * s), QubitState(math.cos(a), math.sin(a)), \
                QubitState(math.cos(b), -math.sin(b))

        rng = np.random.default_rng(22)
        settings = rng.uniform(0.0, (180.0, 360.0, 360.0), size=(1000, 3)).tolist()
        for theta, chi, phi in settings + [[0.0, -0.0, -0.0], [90.0, 0.0, 0.0], [10.0, 180.0, 0.0]]:
            params = TripletParams(theta, chi, phi)
            want = checked_states(theta, chi, phi)
            got = make_states(params)
            assert all(type(x) is complex for state in got for x in state)
            assert np.array(got).tobytes() == np.array(want).tobytes()
            triplet = make_triplet(params)
            want = [symmetrize(want[0], want[0]), symmetrize(want[1], want[1]), symmetrize(want[2], want[3])]
            assert np.array(triplet).tobytes() == np.array(want).tobytes()

    def test_kept_anchor_pair_holds_the_bits_of_make_states(self):
        # scalar angles reuse the anchor pair of the last theta; over a sequence that
        # keeps, revisits and changes theta, every triplet must hold the bits that
        # symmetrize gives on make_states' four wrappers
        rng = np.random.default_rng(23)
        thetas = [0.0, -0.0, 0.0, 10, 10.0, np.float64(10.0), 10, -0.0, 90.0, 1e-300]
        thetas += rng.choice(rng.uniform(0.0, 180.0, 12), 60).tolist()
        for theta in thetas:
            for chi, phi in rng.uniform(0.0, 360.0, (int(rng.integers(1, 5)), 2)).tolist() + [[60.0, 35.0]]:
                params = TripletParams(theta, chi, phi)
                psi1, psi2, psi3, psi3_mirror = make_states(params)
                want = symmetrize(psi1, psi1), symmetrize(psi2, psi2), symmetrize(psi3, psi3_mirror)
                got = make_triplet(params)
                assert all(type(s) is type(w) and all(type(x) is complex for x in s) for s, w in zip(got, want))
                assert np.array(got).tobytes() == np.array(want).tobytes()
        # the reason the sign is part of the key: 0.0 and -0.0 compare equal, their states do not
        zero = make_triplet(TripletParams(0.0, 60.0, 35.0))
        negative_zero = make_triplet(TripletParams(-0.0, 60.0, 35.0))
        assert zero == negative_zero and np.array(zero).tobytes() != np.array(negative_zero).tobytes()

    def test_array_triplet_equals_symmetrize_of_make_states(self):
        # an array s2 is s1 with its middle part conjugated, not symmetrize(psi2, psi2): the same bits,
        # but for the sign of a zero where a part underflows (theta below about 1e-150 degrees); on
        # broadcastable axes each state is made on the shape of its own angles, then written to the grid's
        rng = np.random.default_rng(24)
        theta = np.concatenate([[0.0, -0.0, 5e-324, 1e-300, 90.0], rng.uniform(0.0, 180.0, 3000),
                                10.0 ** rng.uniform(-300.0, 2.0, 300)])
        chi, phi = rng.uniform(0.0, 360.0, theta.size), rng.uniform(0.0, 360.0, theta.size)
        axes = np.concatenate([theta[:5], theta[5::20]])[:, None, None], chi[:12, None], phi[:30]
        for theta, chi, phi in (theta, chi, phi), axes:
            params = TripletParams(theta, chi, phi)
            psi1, psi2, psi3, psi3_mirror = make_states(params)
            want = symmetrize(psi1, psi1), symmetrize(psi2, psi2), symmetrize(psi3, psi3_mirror)
            got = make_triplet(params)
            assert [(g.dtype, g.shape) for g in got] == [(w.dtype, w.shape) for w in want]
            assert got[0].tobytes() == want[0].tobytes() and got[2].tobytes() == want[2].tobytes()
            assert np.array_equal(got[1], want[1])  # +0 and -0 compare equal
            normal = np.broadcast_to(theta > 1e-100, got[1].shape[:-1])
            assert got[1][normal].tobytes() == want[1][normal].tobytes()

    def test_a_scan_at_one_theta_builds_its_anchor_pair_once(self):
        kept = triphase.triplet._anchor_pair
        make_triplet(TripletParams(3.0, 0.0, 0.0))  # another theta kept before the scan
        before = kept.cache_info()
        for chi in (0.0, 60.0, 120.0, 180.0):
            for phi in range(0, 360, 5):
                make_triplet(TripletParams(17.25, chi, float(phi)))
        after = kept.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 4 * 72 - 1)

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
            # the library's total is the sum of the oracle's two qubit phases
            total = analytic_qubit_phase(theta, chi, phi) + analytic_qubit_phase(theta, chi, phi, mirrored=True)
            assert analytic_total_phase(theta, chi, phi) == total

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

    def test_float32_inputs_are_computed_in_float64(self):
        # a float32 array equals its float64 copy exactly, so the results must too
        theta, chi, phi = np.float32([2.5, 10.0, 44.75]), np.float32([0.0, 120.0, 60.5]), np.float32([30.25, 150.0, 300.5])
        for f in (analytic_total_phase, total_phase_continuous):
            for args in [(theta, chi, phi), (theta, 120, phi), (10.0, chi, phi), (theta, chi, 60.0)]:
                want = f(*(np.asarray(a, dtype=float) for a in args))
                assert f(*args).tobytes() == want.tobytes()


    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_angles_are_named(self, bad):
        for f in (analytic_total_phase, total_phase_continuous):
            for k, name in enumerate(("theta_deg", "chi_deg", "phi_deg")):
                for as_array in (False, True):
                    args = [np.array([10.0, 20.0, 30.0]), 120.0, np.array([0.0, 60.0, 90.0])] if as_array else [10.0, 120.0, 60.0]
                    args[k] = np.array([30.0, bad, 90.0]) if as_array else bad
                    domain = "[0, 180)" if name == "theta_deg" else "(-inf, inf)"
                    with pytest.raises(ValueError, match=re.escape(f"{name}: must lie in {domain}, got {bad}")):
                        f(*args)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bad", [500, 180, -1])
    def test_theta_outside_the_family_is_named(self, bad):
        # the family's theta domain is [0, 180): a finite theta outside it has no curve
        for f in (analytic_total_phase, total_phase_continuous):
            for theta in (bad, float(bad), np.array([30.0, bad, 90.0])):
                with pytest.raises(ValueError, match=re.escape(f"theta_deg: must lie in [0, 180), got {bad}")):
                    f(theta, 120.0, np.array([0.0, 60.0, 90.0]))

    # (theta, chi, phi, the closed form evaluated by hand at 50 digits on these floats, rounded to a float)
    HUGE_PHI = [
        (5.210485664475038, 322.34003496480625, -34315587.69795145, -1.272192030154627),
        (48.21173995097804, 9.056113811402998, 35329487.823448196, -5.35248606803355),
        (35.16058658042889, 250.16007388548752, 34601664.125705376, -1.5719183718403558),
        (9.829975272795565, 46.67082563900695, -7061965.490442179, -3.0854166126907208),
    ]

    def test_huge_phi_is_reduced_exactly(self):
        # unreduced, phi / 2 in radians lost its low bits before tan reduced it: errors up to 4.8e-10 rad here
        theta, chi, phi, want = map(np.array, zip(*self.HUGE_PHI))
        assert np.abs(analytic_total_phase(theta, chi, phi) - want).max() < 1e-13
        for point in self.HUGE_PHI:
            assert abs(analytic_total_phase(*point[:3]) - point[3]) < 1e-13

    def test_empty_angles(self):
        # an empty theta is a range check with nothing to check; empty chi or phi arrays broadcast
        for f in (analytic_total_phase, total_phase_continuous):
            with pytest.raises(ValueError, match="theta_deg: must not be empty"):
                f(np.array([]), 120.0, 60.0)
            assert f(10.0, 120.0, np.array([])).shape == (0,)


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
        """The continuous curve is monotone: its slope is negative for 0 < theta < 180,
        so it strictly decreases on a fine grid."""
        phis = np.linspace(0, 360, 7201)
        for theta in (2, 10, 45, 89):
            assert np.all(np.diff(total_phase_continuous(theta, 120, phis)) < 0.0)


class TestSweep:
    def test_rejects_degenerate_theta(self):
        grid = np.linspace(0, 360, 721)
        with pytest.raises(ValueError):
            sweep_phi(0.0, 120, grid)

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError, match="^phi grid must be one-dimensional with at least 3 points$"):
            sweep_phi(10, 120, [0.0, 10.0])
        for grid in ([0.0, 10.0, 5.0], [0.0, 10.0, 10.0, 20.0]):  # a repeated point is not increasing either
            with pytest.raises(ValueError, match="^phi grid must be strictly increasing$"):
                sweep_phi(10, 120, grid)

    def test_complex_grid_is_a_value_error_naming_it(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            for grid in (np.array([0, 1, 2j]), [0, 1, 2j], np.linspace(0, 360, 5) + 0j):
                with pytest.raises(ValueError, match=r"^phi grid: must be real, got "):
                    sweep_phi(10, 120, grid)

    def test_rejects_non_finite_inputs(self):
        grid = np.linspace(0, 360, 721)
        for chi in (math.nan, math.inf):
            with pytest.raises(ValueError, match="chi_deg"):
                sweep_phi(10, chi, grid)
        for bad in (math.nan, math.inf, -math.inf):
            for grid in ([0.0, 10.0, bad], np.array([bad, 0.0, 10.0])):
                with pytest.raises(ValueError, match=re.escape(f"phi grid: must lie in (-inf, inf), got {bad}")):
                    sweep_phi(10, 120, grid)

    @pytest.mark.parametrize("chi", [720e12 + 120.0, 1e16, 1e300, -1e300])
    def test_huge_chi_is_taken_modulo_its_period(self, chi):
        # unreduced, chi / 4 +- phi / 2 loses phi: at chi = 1e16 the jumps moved by 0.3 deg,
        # and at +-1e300 the sweep raised a false GridTooCoarse
        grid = np.linspace(0, 360, 721)
        curve, reduced = sweep_phi(10, chi, grid), sweep_phi(10, math.fmod(chi, 720.0), grid)
        assert np.array_equal(curve.phi_deg, reduced.phi_deg)
        assert np.array_equal(curve.gamma_rad, reduced.gamma_rad)
        assert curve.jumps == reduced.jumps
        assert curve.net_change_rad == pytest.approx(-2 * TWO_PI, abs=1e-6)

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

    def test_jumps_follow_the_five_percent_slope_rule(self):
        # A curve has jumps unless the peak of |slope| exceeds its least, at phi = 0 or 180,
        # by less than 5% of the peak; the oracle finds the peak on a phi grid, refined about
        # its maximum, and pairs within 1e-6 of the line (where the grid could decide) are left out.
        rng = np.random.default_rng(2105)
        thetas = np.concatenate([rng.uniform(80.0, 100.0, 1800), rng.uniform(1.0, 179.0, 400)])
        chis = rng.uniform(0.0, 360.0, thetas.size)
        grid, coarse = np.linspace(0, 360, 13), np.linspace(0.0, 180.0, 361)
        decided = {True: 0, False: 0}
        for theta, chi in zip(thetas.tolist(), chis.tolist()):
            slope = np.abs(slope_oracle(theta, chi, coarse))
            peak = coarse[np.argmax(slope)]
            top = np.abs(slope_oracle(theta, chi, np.linspace(peak - 0.5, peak + 0.5, 2001))).max()
            spread = (top - min(slope[0], slope[-1])) / top
            if abs(spread - 0.05) < 1e-6:
                continue
            decided[spread >= 0.05] += 1
            assert bool(sweep_phi(theta, chi, grid).jumps) == (spread >= 0.05), (theta, chi, spread)
        assert min(decided.values()) > 500 and sum(decided.values()) > 2000

    @pytest.mark.parametrize(
        "theta, chi, grid",
        [(10, 120, np.linspace(0, 360, 721)), (10, 0, np.linspace(0, 360, 721)), (2, 180, np.linspace(0, 360, 13)),
         (45, 60, np.linspace(0, 360, 721)), (120, 90, np.linspace(0, 360, 721)), (80, 240, np.linspace(0, 360, 721)),
         (10, 120, np.linspace(0, 720, 1441)), (10, 120, np.linspace(30, 200, 341)), (5, 60, np.linspace(-90, 300, 79))],
    )
    def test_jump_widths_match_bisection(self, theta, chi, grid):
        # Each jump's window runs between the midpoints to its neighbouring centers, cyclically on a
        # whole-period range; its width is the phi distance between 10% and 90% of its rise, found
        # here by bisecting the monotone continuous curve.
        curve = sweep_phi(theta, chi, grid)
        centers = [j.phi_center_deg for j in curve.jumps]
        assert centers
        lo, hi = float(grid[0]), float(grid[-1])
        span, mids = hi - lo, [(a + b) / 2.0 for a, b in zip(centers, centers[1:])]
        if span % 360.0 == 0.0:  # whole periods: the first and the last window wrap around
            wrap = (centers[-1] - span + centers[0]) / 2.0
            bounds = [wrap, *mids, wrap + span]
        else:
            bounds = [lo, *mids, hi]

        def crossing(level, a, b):
            while True:
                mid = (a + b) / 2.0
                if mid in (a, b):
                    return mid
                a, b = (mid, b) if total_phase_continuous(theta, chi, mid) > level else (a, mid)

        for jump, a, b in zip(curve.jumps, bounds, bounds[1:]):
            start, end = total_phase_continuous(theta, chi, a), total_phase_continuous(theta, chi, b)
            assert jump.rise_rad == pytest.approx(end - start, abs=1e-12)
            width = crossing(start + 0.9 * (end - start), a, b) - crossing(start + 0.1 * (end - start), a, b)
            assert abs(jump.width_deg - width) < 1e-9, (jump.width_deg, width)


class TestGammaAt:
    @pytest.mark.parametrize("count", [721, 13])
    def test_equals_np_interp(self, count):
        grid = np.linspace(0.0, 360.0, count)
        curve = sweep_phi(10.0, 120.0, grid)
        assert (curve.phi_deg.size > grid.size) == (count == 13)  # the coarse grid gets refined rows
        nodes = curve.phi_deg
        rng = np.random.default_rng(41)
        # unsorted points in and out of range, repeated points, nodes and both ends
        points = np.concatenate([
            rng.uniform(-60.0, 420.0, 40), nodes[rng.integers(0, nodes.size, 12)], [nodes[0], nodes[-1]],
            [200.0, 200.0, -1e300, 1e300, -np.inf, np.inf],
        ])
        rng.shuffle(points)
        rows = points.reshape(6, 10)
        batch = rng.uniform(-10.0, 370.0, (500, 50))  # criterion 9's trials: one ascending order over all rows
        for phi in (points[5], float(points[6]), points, rows, rows[:, ::3], list(points), batch):
            want = np.interp(phi, curve.phi_deg, curve.gamma_rad)
            got = curve.gamma_at(phi)
            assert got.shape == np.shape(want)
            assert np.array_equal(got, want)
            assert got.tobytes() == np.asarray(want).tobytes()
        assert np.isnan(curve.gamma_at([np.nan, 10.0, np.nan])[[0, 2]]).all()


class TestFitOffset:
    def _theory(self):
        return sweep_phi(10, 120, np.linspace(0, 360, 721))

    def test_complex_measured_is_a_value_error_naming_it(self):
        theory = self._theory()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's ComplexWarning included
            for measured in ([[0, 1j], [1, 2]], np.array([[0, 1j], [1, 2]]), [(0.0, 1.0), (1.0, 2.0 + 0j)]):
                with pytest.raises(ValueError, match=r"^measured: must be real, got "):
                    fit_offset(measured, theory)

    def test_sorted_lookup_keeps_the_bits_of_np_interp(self, monkeypatch):
        # the oracle is the same fit reading the curve with np.interp, in the points' own order
        theory = sweep_phi(10, 120, np.linspace(0, 300, 601))  # some points fall outside 0..300
        rng = np.random.default_rng(29)
        corpus = []
        for shape in [(), (), (6,), (2, 3), (500,)]:
            phis = rng.uniform(-40.0, 360.0, size=(*shape, 50))
            gammas = (
                np.interp(phis, theory.phi_deg, theory.gamma_rad)
                + rng.uniform(-math.pi, math.pi, size=(*shape, 1))
                + rng.normal(0.0, rng.uniform(0.01, 2.0, size=(*shape, 1)), size=(*shape, 50))
            )
            corpus.append(np.stack([phis, gammas], -1))
        got = [fit_offset(measured, theory) for measured in corpus]
        monkeypatch.setattr(PhaseCurve, "gamma_at", lambda self, phi: np.interp(phi, self.phi_deg, self.gamma_rad))
        want = [fit_offset(measured, theory) for measured in corpus]
        for one, other in zip(got, want):
            for a, b in zip(one, other):
                assert type(a) is type(b)
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
        assert all(np.any((m[..., 0] < 0.0) | (m[..., 0] > 300.0)) for m in corpus)

    def test_exact_offset(self):
        theory = self._theory()
        phis = np.linspace(5, 355, 40)
        gammas = np.interp(phis, theory.phi_deg, theory.gamma_rad) + 0.3
        fit = fit_offset(np.column_stack([phis, gammas]), theory)
        assert fit.offset_rad == pytest.approx(0.3, abs=1e-9)
        assert fit.rms_rad < 1e-9

    def test_non_finite_measurement_rejected(self):
        theory = self._theory()
        phis = np.linspace(5, 355, 40)
        for column, bad in ((1, np.nan), (1, np.inf), (0, np.nan), (0, -np.inf)):
            measured = np.column_stack([phis, np.interp(phis, theory.phi_deg, theory.gamma_rad)])
            measured[7, column] = bad
            with pytest.raises(ValueError, match=re.escape(f"measured: must lie in (-inf, inf), got {bad}")):
                fit_offset(measured, theory)
        with pytest.raises(ValueError, match="^measured must be a sequence of"):
            fit_offset(np.column_stack([phis, phis, phis]), theory)

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
        # a batch raises if any set has too few points inside
        batch = np.array([[[100.0, 0.0], [200.0, 1.0]], [[100.0, 0.0], [400.0, 1.0]]])
        with pytest.raises(InsufficientData, match="got 1"):
            fit_offset(batch, theory)

    @pytest.mark.parametrize("shape", [(6,), (2, 3)])
    def test_batch_matches_single_sets(self, shape):
        # a theory range of 0..300 leaves some measured points outside
        theory = sweep_phi(10, 120, np.linspace(0, 300, 601))
        rng = np.random.default_rng(19)
        phis = rng.uniform(-40.0, 360.0, size=(*shape, 30))
        gammas = (
            np.interp(phis, theory.phi_deg, theory.gamma_rad)
            + rng.uniform(-math.pi, math.pi, size=(*shape, 1))
            + rng.normal(0.0, rng.uniform(0.01, 2.0, size=(*shape, 1)), size=(*shape, 30))
        )
        measured = np.stack([phis, gammas], -1)
        fit = fit_offset(measured, theory)
        assert fit.offset_rad.shape == fit.rms_rad.shape == shape
        for index in np.ndindex(*shape):
            one = fit_offset(measured[index], theory)
            assert isinstance(one.offset_rad, float) and isinstance(one.rms_rad, float)
            assert abs(fit.offset_rad[index] - one.offset_rad) <= 1e-12
            assert abs(fit.rms_rad[index] - one.rms_rad) <= 1e-12
        assert np.any((phis < 0.0) | (phis > 300.0))


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
