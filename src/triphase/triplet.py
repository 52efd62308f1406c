"""Parametrized standard-triplet family of two-photon polarization qutrits.

Provides the family's four constituent qubit states, the analytic phase
formulas and their continuous (branch-tracked) extension, closed-form sweeps
over the rotation angle with jump diagnostics, and circular least-squares
offset fitting of measured phase data against a theory curve.

The family is controlled by three angles (degrees at every interface):
``theta`` (half-angle between the two anchor states), ``chi`` (opening angle
between the analyzer pair), and ``phi`` (rotation of the analyzer pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import QubitState, symmetrize, wrap_angle

TWO_PI = 2.0 * math.pi


class GridTooCoarse(RuntimeError):
    """A sweep step of pi/2 or more is left after the level crossings are inserted."""


class InsufficientData(ValueError):
    """Not enough measured points inside the theory curve's range."""


@dataclass(frozen=True)
class TripletParams:
    """Angles of the standard-triplet family, in degrees: numbers, or numpy
    arrays that broadcast together (make_states and make_triplet then return arrays)."""

    theta_deg: float
    chi_deg: float
    phi_deg: float

    def __post_init__(self):
        theta, chi, phi = self.theta_deg, self.chi_deg, self.phi_deg
        if isinstance(theta, np.ndarray) or isinstance(chi, np.ndarray) or isinstance(phi, np.ndarray):
            # an array passes where its extremes pass (NaN stays NaN)
            theta, chi, phi = (np.min(x) if np.min(x) < 0.0 else np.max(x) for x in (theta, chi, phi))
        if not 0.0 <= theta < 180.0:
            raise ValueError(f"theta_deg must lie in [0, 180), got {theta}")
        if not 0.0 <= chi < 360.0:
            raise ValueError(f"chi_deg must lie in [0, 360), got {chi}")
        if not 0.0 <= phi < 360.0:
            raise ValueError(f"phi_deg must lie in [0, 360), got {phi}")


def make_states(p: TripletParams):
    """The four constituent qubit states (psi1, psi2, psi3, psi3_mirror).

    psi1/psi2 are the +-i anchor pair at half-angle theta from H; psi3 and
    its mirror are linear polarizations at chi/4 +- phi/2 from horizontal
    (the mirror with the opposite V sign).  Arrays of shape (..., 2) for array params.
    """
    theta, chi, phi = p.theta_deg, p.chi_deg, p.phi_deg
    m, state = math, QubitState
    if isinstance(theta, np.ndarray) or isinstance(chi, np.ndarray) or isinstance(phi, np.ndarray):
        theta, chi, phi = np.broadcast_arrays(theta, chi, phi)
        m, state = np, lambda *parts: np.stack(parts, -1)
    th = m.radians(theta)
    c, s = m.cos(th / 2.0), m.sin(th / 2.0)
    a = m.radians(chi / 4.0 + phi / 2.0)
    b = m.radians(chi / 4.0 - phi / 2.0)
    return state(c, 1j * s), state(c, -1j * s), state(m.cos(a), m.sin(a)), state(m.cos(b), -m.sin(b))


def make_triplet(p: TripletParams):
    """The standard triplet: two coincident-pair states and the symmetrized pair."""
    psi1, psi2, psi3, psi3_mirror = make_states(p)
    return symmetrize(psi1, psi1), symmetrize(psi2, psi2), symmetrize(psi3, psi3_mirror)


def analytic_qubit_phase(theta_deg, chi_deg, phi_deg, mirrored: bool = False):
    """Closed-form three-vertex phase of (psi1, psi2, psi3 or mirror).

    Unmirrored: -2*atan(tan(theta/2) * tan(chi/4 + phi/2));
    mirrored:   +2*atan(tan(theta/2) * tan(chi/4 - phi/2)).
    Returns the formula's principal branch (in (-pi, pi)); at the tangent
    poles floating point lands on the left one-sided limit.  Broadcasts over
    array inputs.
    """
    sign = 1.0 if mirrored else -1.0
    t = np.tan(np.radians(np.asarray(theta_deg, dtype=float)) / 2.0)
    arg = np.radians(np.asarray(chi_deg, dtype=float) / 4.0 - sign * np.asarray(phi_deg, dtype=float) / 2.0)
    out = 2.0 * sign * np.arctan(t * np.tan(arg))
    return float(out) if np.ndim(out) == 0 else out


def analytic_total_phase(theta_deg, chi_deg, phi_deg):
    """Qutrit three-vertex phase of the standard triplet: sum of the two
    qubit phases.  Principal-branch value in (-2pi, 2pi); broadcasts."""
    return analytic_qubit_phase(theta_deg, chi_deg, phi_deg) + analytic_qubit_phase(
        theta_deg, chi_deg, phi_deg, mirrored=True
    )


def total_phase_continuous(theta_deg, chi_deg, phi_deg):
    """Continuous-branch total phase, anchored to 0 at phi = 0.

    The principal analytic value, moved by the multiple of 2pi nearest to
    -2 arg z (the continuous curve, see _phi_at_level; it only picks the
    branch, as kappa + cos(phi) cancels near a pole).  A full 360 degree
    period changes the phase by exactly -4pi.  Broadcasts over phi.
    """
    base = analytic_total_phase(theta_deg, chi_deg, phi_deg)
    th, ph = np.radians(theta_deg), np.radians(np.asarray(phi_deg, dtype=float))
    z = np.cos(th) * np.cos(np.radians(chi_deg) / 2.0) + np.cos(ph) + 1j * np.sin(th) * np.sin(ph)
    arg = np.angle(z)
    arg = arg + TWO_PI * np.round((ph - arg) / TWO_PI)
    out = base - TWO_PI * np.round((base + 2.0 * arg) / TWO_PI)
    return float(out) if np.ndim(out) == 0 else out


def phase_slope(theta_deg, chi_deg, phi_deg):
    """d(gamma)/d(phi) of the continuous curve, in rad per rad; broadcasts.

    Strictly negative for 0 < theta < 180: the curve is monotone decreasing.
    """
    t = np.tan(np.radians(np.asarray(theta_deg, dtype=float)) / 2.0)
    a = np.radians(np.asarray(chi_deg, dtype=float) / 4.0 + np.asarray(phi_deg, dtype=float) / 2.0)
    b = np.radians(np.asarray(chi_deg, dtype=float) / 4.0 - np.asarray(phi_deg, dtype=float) / 2.0)

    def g(x):
        return t / (np.cos(x) ** 2 + (t * np.sin(x)) ** 2)

    out = -(g(a) + g(b))
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class PhaseJump:
    """One rapid 2pi-multiple change of the unwrapped curve."""

    phi_center_deg: float
    rise_rad: float
    width_deg: float


@dataclass(frozen=True)
class PhaseCurve:
    """Unwrapped phase samples over a phi grid, plus jump diagnostics."""

    theta_deg: float
    chi_deg: float
    phi_deg: np.ndarray
    gamma_rad: np.ndarray
    jumps: list[PhaseJump]

    @property
    def net_change_rad(self) -> float:
        return float(self.gamma_rad[-1] - self.gamma_rad[0])


def _phi_at_level(theta_deg: float, chi_deg: float, level) -> np.ndarray:
    """Where the continuous curve takes the value ``level`` (rad), in degrees.

    With kappa = cos(theta) cos(chi/2) the curve is gamma = -2 arg z, where
    z = kappa + cos(phi) + i sin(theta) sin(phi) traces an ellipse around the
    origin.  A level fixes the ray arg z = psi = -level/2; the ray meets the
    ellipse where sin(theta) cos(psi) sin(phi) - sin(psi) cos(phi) =
    kappa sin(psi), at the root of positive radius.  arg z and phi share
    their half-plane, so the continuous branch is the copy within pi of psi.
    Vectorized over ``level``.
    """
    th = math.radians(theta_deg)
    kappa = math.cos(th) * math.cos(math.radians(chi_deg) / 2.0)
    psi = -0.5 * np.asarray(level, dtype=float)
    a, b = math.sin(th) * np.cos(psi), -np.sin(psi)
    # a sin(phi) + b cos(phi) = hypot(a, b) sin(phi + atan2(b, a))
    base = np.arcsin(np.clip(kappa * np.sin(psi) / np.hypot(a, b), -1.0, 1.0))
    roots = np.stack([base, math.pi - base]) - np.arctan2(b, a)
    radius = (kappa + np.cos(roots)) * np.cos(psi) + math.sin(th) * np.sin(roots) * np.sin(psi)
    phi = np.where(radius[0] >= radius[1], roots[0], roots[1])
    return np.degrees(phi + TWO_PI * np.round((psi - phi) / TWO_PI))


def _detect_jumps(theta_deg: float, chi_deg: float, lo: float, hi: float) -> list[PhaseJump]:
    """Every strict local maximum of |slope| in the range, with its rise and width.

    |slope| = 2 sin(theta) (1 + kappa u) / |z|^2 (see _phi_at_level) depends
    on phi only through u = cos(phi), and its u-derivative has the sign of
    -q(u), q(u) = kappa c2 u^2 + 2 c2 u + kappa (1 + c2 - kappa^2) with
    c2 = cos^2(theta).  q' = 2 c2 (1 + kappa u) > 0 on [-1, 1], so |slope|
    peaks at phi = +-acos(u0), u0 being the root of q there, clipped to -1
    (q(-1) >= 0) or 1 (q(1) <= 0): two jumps symmetric about 180 degrees, or
    one merged jump at 0 or 180.
    """
    th = math.radians(theta_deg)
    c2 = math.cos(th) ** 2
    kappa = math.cos(th) * math.cos(math.radians(chi_deg) / 2.0)
    c0 = kappa * (1.0 + c2 - kappa * kappa)
    if kappa * c2 - 2.0 * c2 + c0 >= 0.0:
        u0 = -1.0
    elif kappa * c2 + 2.0 * c2 + c0 <= 0.0:
        u0 = 1.0
    else:  # the root of smaller magnitude, in a cancellation-free form
        u0 = -c0 / (c2 + math.sqrt(c2 * (c2 - kappa * c0)))
    peak = math.degrees(math.acos(u0))
    mag = -np.asarray(phase_slope(theta_deg, chi_deg, [peak, 0.0, 180.0]))
    if mag[0] - mag[1:].min() < 0.05 * mag[0]:
        return []  # slope is essentially uniform; no localized jumps

    span = hi - lo
    periods = round(span / 360.0)
    peaks = {peak % 360.0, -peak % 360.0}
    if periods >= 1 and abs(span - 360.0 * periods) < 1e-9:
        # Each maximum once modulo the span.  The windows (midpoints to the
        # cyclic neighbours) reach past the range ends, where the continuous
        # branch is defined too, so every rise is a whole multiple of 2 pi.
        centers = np.sort([lo + (p - lo) % 360.0 + 360.0 * k for p in peaks for k in range(periods)])
        edges = np.concatenate([[centers[-1] - span], centers, [centers[0] + span]])
        bounds = (edges[:-1] + edges[1:]) / 2.0
    else:
        centers = np.sort([
            c
            for p in peaks
            for c in p + 360.0 * np.arange(math.ceil((lo - p) / 360.0), math.floor((hi - p) / 360.0) + 1)
            if lo < c < hi
        ])
        bounds = np.concatenate([[lo], (centers[:-1] + centers[1:]) / 2.0, [hi]])
    if not centers.size:
        return []
    gamma = np.asarray(total_phase_continuous(theta_deg, chi_deg, bounds))
    rises = np.diff(gamma)
    phi_10, phi_90 = _phi_at_level(theta_deg, chi_deg, gamma[:-1] + np.outer([0.1, 0.9], rises))
    return [PhaseJump(float(c), float(r), float(w)) for c, r, w in zip(centers, rises, phi_90 - phi_10)]


def sweep_phi(theta_deg: float, chi_deg: float, phi_grid_deg) -> PhaseCurve:
    """The continuous total phase over a phi grid, with jump diagnostics.

    Rows are total_phase_continuous at the grid, plus, inside every interval
    whose step reaches pi/2, the points where the curve crosses evenly
    spaced levels (found in closed form, see _phi_at_level), so that every
    step is below pi/2.  GridTooCoarse is raised if a step of pi/2 or more
    is still left (curves too steep for floating point, theta close to 0).
    """
    if not 0.0 < theta_deg < 180.0:
        raise ValueError(f"theta_deg must lie in (0, 180) for a sweep, got {theta_deg}")
    if not math.isfinite(chi_deg):
        raise ValueError(f"chi_deg must be finite, got {chi_deg}")
    grid = np.asarray(phi_grid_deg, dtype=float)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("phi grid must be one-dimensional with at least 3 points")
    if not np.all(np.isfinite(grid)):
        raise ValueError("phi grid must be finite")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("phi grid must be strictly increasing")

    quarter = math.pi / 2.0
    gamma = np.asarray(total_phase_continuous(theta_deg, chi_deg, grid))
    steps = np.diff(gamma)
    extra = []
    for i in np.flatnonzero(np.abs(steps) >= quarter):
        # an odd count: a step a rounding short of a multiple of 2 pi (from
        # phi = 0 to a pole at a symmetry point of the curve, such as phi = 180
        # at chi = 0) would otherwise split into steps of pi/2 up to rounding
        parts = (int(abs(steps[i]) // quarter) + 1) | 1
        phi = _phi_at_level(theta_deg, chi_deg, gamma[i] + steps[i] * np.arange(1, parts) / parts)
        extra.append(np.clip(phi, grid[i], grid[i + 1]))
    nodes = grid
    if extra:
        nodes = np.unique(np.concatenate([grid, *extra]))
        gamma = np.asarray(total_phase_continuous(theta_deg, chi_deg, nodes))
    worst = float(np.max(np.abs(np.diff(gamma))))
    if not worst < quarter:
        raise GridTooCoarse(
            f"a step of {worst:.3e} rad remains after inserting level crossings; the curve "
            f"is too steep to resolve in floating point (theta_deg = {theta_deg})"
        )

    return PhaseCurve(
        theta_deg=theta_deg,
        chi_deg=chi_deg,
        phi_deg=nodes,
        gamma_rad=gamma,
        jumps=_detect_jumps(theta_deg, chi_deg, float(nodes[0]), float(nodes[-1])),
    )


class OffsetFit(NamedTuple):
    offset_rad: float
    rms_rad: float


def fit_offset(measured, theory: PhaseCurve) -> OffsetFit:
    """Constant offset minimizing the wrapped squared residuals.

    ``measured`` is a sequence of (phi_deg, gamma_rad) pairs; the theory curve
    is linearly interpolated at the measured phi.  The circular objective
    sum(wrap(measured - theory - c)^2) is minimized exactly (the intrinsic
    mean on the circle): near any c it is the quadratic cost of the sorted
    wrapped residuals with the j smallest lifted by 2 pi, least at their
    mean, so the best of those n means is the global minimum.  The offset is
    reported in (-pi, pi] together with the residual RMS.
    """
    arr = np.asarray(measured, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("measured must be a sequence of (phi_deg, gamma_rad) pairs")
    inside = (arr[:, 0] >= theory.phi_deg[0]) & (arr[:, 0] <= theory.phi_deg[-1])
    if int(inside.sum()) < 2:
        raise InsufficientData(
            f"need at least 2 measured points inside the theory range, got {int(inside.sum())}"
        )
    phi_m = arr[inside, 0]
    gam_m = arr[inside, 1]
    resid = gam_m - np.interp(phi_m, theory.phi_deg, theory.gamma_rad)

    x = np.sort(np.asarray(wrap_angle(resid)))
    lifted = np.arange(x.size)
    sums = x.sum() + TWO_PI * lifted
    squares = np.sum(x * x) + 2.0 * TWO_PI * np.concatenate([[0.0], np.cumsum(x[:-1])]) + TWO_PI**2 * lifted
    c_best = float(sums[int(np.argmin(squares - sums * sums / x.size))] / x.size)
    cost = float(np.sum(np.asarray(wrap_angle(resid - c_best)) ** 2))
    return OffsetFit(wrap_angle(c_best), math.sqrt(cost / resid.size))
