"""Property tests of the phase-curve sweep over the whole documented domain."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from triphase.triplet import sweep_phi, total_phase_continuous  # noqa: E402

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
