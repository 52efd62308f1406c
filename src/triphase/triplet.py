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
from collections import namedtuple
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .core import QubitState, Record, check_range, symmetrize, wrap_angle

# the domain [low, high) of each angle (deg) of the family
ANGLES_DEG = {"theta": (0.0, 180.0), "chi": (0.0, 360.0), "phi": (0.0, 360.0)}


class GridTooCoarse(RuntimeError):
    """A sweep step of pi/2 or more is left after the level crossings are inserted."""


class InsufficientData(ValueError):
    """Not enough measured points inside the theory curve's range."""


def _real(name, value):
    """``value`` as a float array; a ValueError naming it if complex, where numpy warns or raises TypeError."""
    try:
        if isinstance(value, np.ndarray) and value.dtype.kind == "c":
            raise TypeError
        return np.asarray(value, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must be real, got {value}") from None


class TripletParams(Record, namedtuple("TripletParams", "theta_deg chi_deg phi_deg")):
    """Angles of the standard-triplet family, in degrees: numbers, or numpy arrays (a list or
    tuple as its array) that broadcast together (make_states and make_triplet then return arrays)."""

    __slots__ = ()

    def __new__(cls, theta_deg, chi_deg, phi_deg):
        theta_deg = check_range("theta_deg", theta_deg, ANGLES_DEG["theta"])
        chi_deg = check_range("chi_deg", chi_deg, ANGLES_DEG["chi"])
        phi_deg = check_range("phi_deg", phi_deg, ANGLES_DEG["phi"])
        fields = theta_deg, chi_deg, phi_deg
        if isinstance(theta_deg, np.ndarray) or isinstance(chi_deg, np.ndarray) or isinstance(phi_deg, np.ndarray):
            try:
                np.broadcast_shapes(*map(np.shape, fields))
            except ValueError:
                shapes = ", ".join(str(np.shape(x)) for x in fields)
                raise ValueError(f"theta_deg, chi_deg, phi_deg: shapes {shapes} do not broadcast") from None
        return tuple.__new__(cls, fields)


def _anchor_parts(theta, m=math, cx=complex):
    """The parts of psi1 and psi2 (see make_states), in math or numpy."""
    th = m.radians(theta)
    c, s = cx(m.cos(th / 2.0)), m.sin(th / 2.0)
    return (c, 1j * s), (c, -1j * s)


def _analyzer_parts(chi, phi, m=math, cx=complex):
    """The parts of psi3 and psi3_mirror (see make_states), in math or numpy."""
    a, b = m.radians(chi / 4.0 + phi / 2.0), m.radians(chi / 4.0 - phi / 2.0)
    return (cx(m.cos(a)), cx(m.sin(a))), (cx(m.cos(b)), cx(-m.sin(b)))


def make_states(p: TripletParams):
    """The four constituent qubit states (psi1, psi2, psi3, psi3_mirror).

    psi1/psi2 are the +-i anchor pair at half-angle theta from H; psi3 and
    its mirror are linear polarizations at chi/4 +- phi/2 from horizontal
    (the mirror with the opposite V sign).  Arrays of shape (..., 2) for array params.
    """
    theta, chi, phi = p.theta_deg, p.chi_deg, p.phi_deg
    m, cx, state = math, complex, QubitState._trusted  # unit parts of finite angles, made complex once
    if isinstance(theta, np.ndarray) or isinstance(chi, np.ndarray) or isinstance(phi, np.ndarray):
        theta, chi, phi = np.broadcast_arrays(theta, chi, phi)
        m, cx, state = np, np.asarray, lambda parts: np.stack(parts, -1)
    return tuple(map(state, (*_anchor_parts(theta, m, cx), *_analyzer_parts(chi, phi, m, cx))))


@lru_cache(maxsize=1)
def _anchor_pair(theta, sign):
    """The anchor pair of a scalar theta; the sign keys -0.0 apart from 0.0, whose bits differ."""
    psi1, psi2 = map(QubitState._trusted, _anchor_parts(theta))
    return symmetrize(psi1, psi1), symmetrize(psi2, psi2)


def make_triplet(p: TripletParams):
    """The standard triplet: two coincident-pair states and the symmetrized pair.
    The anchor pair of the last scalar theta is kept for the next; no result depends on this."""
    if isinstance(p.theta_deg, np.ndarray) or isinstance(p.chi_deg, np.ndarray) or isinstance(p.phi_deg, np.ndarray):
        psi1, _, psi3, psi3_mirror = make_states(p)
        s1 = symmetrize(psi1, psi1)
        # psi2 = conj(psi1) and only s1's middle part is not real: symmetrize(psi2, psi2) but for a zero's sign
        s2 = s1.copy()
        np.conjugate(s1[..., 1], out=s2[..., 1])
        return s1, s2, symmetrize(psi3, psi3_mirror)
    psi3, psi3_mirror = map(QubitState._trusted, _analyzer_parts(p.chi_deg, p.phi_deg))
    return (*_anchor_pair(p.theta_deg, math.copysign(1.0, p.theta_deg)), symmetrize(psi3, psi3_mirror))


def analytic_total_phase(theta_deg, chi_deg, phi_deg):
    """Qutrit three-vertex phase of the standard triplet: sum of the two
    qubit phases.  Principal-branch value in (-2pi, 2pi); broadcasts.
    ValueError naming the angle for a theta outside [0, 180) (an empty theta
    array too), a complex angle, or a NaN or +-inf chi or phi, in a scalar or any element."""
    check_range("theta_deg", theta_deg, ANGLES_DEG["theta"])
    for name, x in ("chi_deg", chi_deg), ("phi_deg", phi_deg):
        if not (math.isfinite(x) if isinstance(x, float) else np.isrealobj(x) and np.isfinite(x).all()):
            check_range(name, x, (-math.inf, math.inf), "()")
    t = np.tan(np.radians(np.asarray(theta_deg, dtype=float)) / 2.0)
    # chi modulo 720, its period, lest a huge chi swamp phi
    quarter, half = np.fmod(np.asarray(chi_deg, dtype=float), 720.0) / 4.0, np.asarray(phi_deg, dtype=float) / 2.0
    a, b = np.radians(quarter + half), np.radians(quarter - half)
    out = -2.0 * np.arctan(t * np.tan(a)) + 2.0 * np.arctan(t * np.tan(b))
    return float(out) if np.ndim(out) == 0 else out


def total_phase_continuous(theta_deg, chi_deg, phi_deg):
    """Continuous-branch total phase, anchored to 0 at phi = 0.

    The principal analytic value, moved by the multiple of 2pi nearest to
    -2 arg z (the continuous curve, see _phi_at_level; it only picks the
    branch, as kappa + cos(phi) cancels near a pole).  A full 360 degree
    period changes the phase by exactly -4pi.  Broadcasts over phi.
    """
    base = analytic_total_phase(theta_deg, chi_deg, phi_deg)
    th, ph = np.radians(np.asarray(theta_deg, dtype=float)), np.radians(np.asarray(phi_deg, dtype=float))
    kappa = np.cos(th) * np.cos(np.radians(np.fmod(chi_deg, 720.0)) / 2.0)
    arg = np.arctan2(np.sin(th) * np.sin(ph), kappa + np.cos(ph))
    arg = arg + math.tau * np.rint((ph - arg) / math.tau)
    out = base - math.tau * np.rint((base + 2.0 * arg) / math.tau)
    return float(out) if np.ndim(out) == 0 else out


class PhaseJump(NamedTuple):
    """One rapid 2pi-multiple change of the unwrapped curve."""

    phi_center_deg: float
    rise_rad: float
    width_deg: float


class PhaseCurve(NamedTuple):
    """Unwrapped phase samples over a phi grid, plus jump diagnostics."""

    theta_deg: float
    chi_deg: float
    phi_deg: np.ndarray
    gamma_rad: np.ndarray
    jumps: list[PhaseJump]

    @property
    def net_change_rad(self) -> float:
        return float(self.gamma_rad[-1] - self.gamma_rad[0])

    def gamma_at(self, phi_deg) -> np.ndarray:
        """np.interp(phi_deg, self.phi_deg, self.gamma_rad), value for value, for points of any shape:
        looked up in ascending phi, which spares np.interp a binary search per point and changes no value."""
        flat = np.asarray(phi_deg, dtype=float).ravel()
        order, out = np.argsort(flat), np.empty(flat.size)
        out[order] = np.interp(flat.take(order), self.phi_deg, self.gamma_rad)
        return out.reshape(np.shape(phi_deg))


def _phi_at_level(th: float, kappa: float, level) -> np.ndarray:
    """Where the continuous curve takes the value ``level`` (rad), in degrees.

    With kappa = cos(theta) cos(chi/2) the curve is gamma = -2 arg z, where
    z = kappa + cos(phi) + i sin(theta) sin(phi) traces an ellipse around the
    origin.  A level fixes the ray arg z = psi = -level/2; the ray meets the
    ellipse where sin(theta) cos(psi) sin(phi) - sin(psi) cos(phi) =
    kappa sin(psi), at the root of positive radius.  arg z and phi share
    their half-plane, so the continuous branch is the copy within pi of psi.
    th is theta in radians.  Vectorized over ``level``.
    """
    psi = -0.5 * np.asarray(level, dtype=float)
    sin_th, cos_psi, sin_psi = math.sin(th), np.cos(psi), np.sin(psi)
    a, b = sin_th * cos_psi, -sin_psi
    # a sin(phi) + b cos(phi) = hypot(a, b) sin(phi + atan2(b, a))
    base = np.arcsin(np.clip(kappa * sin_psi / np.hypot(a, b), -1.0, 1.0))
    roots = np.array([base, math.pi - base]) - np.arctan2(b, a)
    radius = (kappa + np.cos(roots)) * cos_psi + sin_th * np.sin(roots) * sin_psi
    phi = np.where(radius[0] >= radius[1], roots[0], roots[1])
    return np.degrees(phi + math.tau * np.rint((psi - phi) / math.tau))


def _jump_windows(th: float, kappa: float, lo: float, hi: float):
    """The centers of the jumps in the range and the bounds of their windows.

    A jump is a strict local maximum of |slope| = 2 sin(theta) (1 + kappa u)
    / |z|^2, |z|^2 = (kappa + u)^2 + sin^2(theta) (1 - u^2) (see _phi_at_level;
    th is theta in radians), which depends on phi only through u = cos(phi);
    its u-derivative has the sign of -q(u), q(u) = kappa c2 u^2 + 2 c2 u +
    kappa (1 + c2 - kappa^2) with c2 = cos^2(theta).  q' = 2 c2 (1 + kappa u)
    > 0 on [-1, 1], so |slope| peaks at phi = +-acos(u0), u0 being the root of
    q there, clipped to -1 (q(-1) >= 0) or 1 (q(1) <= 0): two jumps symmetric
    about 180 degrees, or one merged jump at 0 or 180.  There are none if the
    peak exceeds the least |slope|, 2 sin(theta) / (1 + |kappa|) at u = +-1,
    by less than 5% of the peak; the test multiplies out both denominators,
    so no division fails or underflows as theta nears 0.  Window k is
    [bounds[k], bounds[k + 1]]; a range without jumps gives [], [].
    """
    c2 = math.cos(th) ** 2
    c0 = kappa * (1.0 + c2 - kappa * kappa)
    if kappa * c2 - 2.0 * c2 + c0 >= 0.0:
        u0 = -1.0
    elif kappa * c2 + 2.0 * c2 + c0 <= 0.0:
        u0 = 1.0
    else:  # the root of smaller magnitude, in a cancellation-free form
        u0 = -c0 / (c2 + math.sqrt(c2 * (c2 - kappa * c0)))
    if 0.95 * (1.0 + kappa * u0) * (1.0 + abs(kappa)) < (kappa + u0) ** 2 + math.sin(th) ** 2 * (1.0 - u0 * u0):
        return [], []
    peak = math.degrees(math.acos(u0))
    span = hi - lo
    periods = round(span / 360.0)
    peaks = {peak % 360.0, -peak % 360.0}
    if periods >= 1 and abs(span - 360.0 * periods) < 1e-9:
        # Each maximum once modulo the span.  The windows (midpoints to the
        # cyclic neighbours) reach past the range ends, where the continuous
        # branch is defined too, so every rise is a whole multiple of 2 pi.
        centers = sorted(lo + (p - lo) % 360.0 + 360.0 * k for p in peaks for k in range(periods))
        edges = [centers[-1] - span, *centers, centers[0] + span]
        bounds = [(a + b) / 2.0 for a, b in zip(edges, edges[1:])]
    else:
        centers = sorted(
            c
            for p in peaks
            for c in (p + 360.0 * k for k in range(math.ceil((lo - p) / 360.0), math.floor((hi - p) / 360.0) + 1))
            if lo < c < hi
        )
        bounds = [lo, *((a + b) / 2.0 for a, b in zip(centers, centers[1:])), hi]
    return (centers, bounds) if centers else ([], [])


def sweep_phi(theta_deg: float, chi_deg: float, phi_grid_deg) -> PhaseCurve:
    """The continuous total phase over a phi grid, with jump diagnostics.

    Rows are total_phase_continuous at the grid, plus, inside every interval
    whose step reaches pi/2, the points where the curve crosses evenly
    spaced levels (found in closed form, see _phi_at_level), so that every
    step is below pi/2.  GridTooCoarse is raised if a step of pi/2 or more
    is still left (curves too steep for floating point, theta close to 0).
    """
    check_range("theta_deg", theta_deg, ANGLES_DEG["theta"], "()")  # theta = 0 has no curve to sweep
    check_range("chi_deg", chi_deg, (-math.inf, math.inf), "()")  # taken modulo 720 below
    grid = _real("phi grid", phi_grid_deg)
    if grid.ndim != 1 or grid.size < 3:
        raise ValueError("phi grid must be one-dimensional with at least 3 points")
    if not np.isfinite(grid).all():
        raise ValueError("phi grid must be finite")
    if (grid[1:] <= grid[:-1]).any():
        raise ValueError("phi grid must be strictly increasing")

    try:
        th = math.radians(theta_deg)
        kappa = math.cos(th) * math.cos(math.radians(math.fmod(chi_deg, 720.0)) / 2.0)
    except TypeError:  # an array or sequence of angles
        name, value = ("theta_deg", theta_deg) if np.ndim(theta_deg) else ("chi_deg", chi_deg)
        raise ValueError(f"{name}: takes one number, got {value}") from None
    # The jump windows need only the grid ends, which refined rows keep: one curve evaluation
    # covers grid and window bounds, one _phi_at_level call 10%/90% jump levels and refined ones.
    centers, bounds = _jump_windows(th, kappa, float(grid[0]), float(grid[-1]))
    gamma = total_phase_continuous(theta_deg, chi_deg, np.concatenate([grid, bounds]))
    gamma, ends = gamma[: grid.size], gamma[grid.size :]
    rises = ends[1:] - ends[:-1]
    quarter = math.pi / 2.0
    steps = gamma[1:] - gamma[:-1]
    size = np.abs(steps)
    wide = (size >= quarter).nonzero()[0]
    nodes, levels = grid, [ends[:-1] + 0.1 * rises, ends[:-1] + 0.9 * rises]
    if wide.size:
        # an odd count: a step a rounding short of a multiple of 2 pi (from
        # phi = 0 to a pole at a symmetry point of the curve, such as phi = 180
        # at chi = 0) would otherwise split into steps of pi/2 up to rounding
        parts = ((size[wide] // quarter).astype(int) + 1) | 1
        inside = parts - 1  # the levels k / parts of interval i, k = 1 .. parts - 1
        i, n = wide.repeat(inside), parts.repeat(inside)
        k = np.arange(1, i.size + 1) - (inside.cumsum() - inside).repeat(inside)
        levels.append(gamma[i] + steps[i] * k / n)
    phi = _phi_at_level(th, kappa, np.concatenate(levels))
    phi_10, phi_90, crossings = phi[: rises.size], phi[rises.size : 2 * rises.size], phi[2 * rises.size :]
    if wide.size:
        nodes = np.unique(np.concatenate([grid, np.clip(crossings, grid[i], grid[i + 1])]))
        gamma = total_phase_continuous(theta_deg, chi_deg, nodes)
        size = np.abs(gamma[1:] - gamma[:-1])
    worst = float(size.max())
    if not worst < quarter:
        raise GridTooCoarse(
            f"a step of {worst:.3e} rad remains after inserting level crossings; the curve "
            f"is too steep to resolve in floating point (theta_deg = {theta_deg})"
        )
    jumps = [PhaseJump(c, float(r), float(w)) for c, r, w in zip(centers, rises, phi_90 - phi_10)]
    return PhaseCurve(theta_deg=theta_deg, chi_deg=chi_deg, phi_deg=nodes, gamma_rad=gamma, jumps=jumps)


class OffsetFit(NamedTuple):
    offset_rad: float
    rms_rad: float


def fit_offset(measured, theory: PhaseCurve) -> OffsetFit:
    """Constant offset minimizing the wrapped squared residuals.

    ``measured`` holds (phi_deg, gamma_rad) pairs, shape (n, 2), or a batch of such sets, shape
    (..., n, 2), which gives arrays; points outside the theory curve's phi range are left out, and
    theory.gamma_at interpolates the curve at the others, in ascending phi (the lookup order changes
    no value).  The circular objective sum(wrap(measured - theory - c)^2) is minimized exactly (the
    intrinsic mean on the circle): near any c it is the quadratic cost of the sorted wrapped
    residuals with the j smallest lifted by 2 pi, least at their mean, so the best of those means is
    the global minimum.  The offset is reported in (-pi, pi] together with the residual RMS.  Raises
    InsufficientData if any set has fewer than 2 points inside.
    """
    arr = _real("measured", measured)
    if arr.ndim < 2 or arr.shape[-1] != 2:
        raise ValueError("measured must be a sequence of (phi_deg, gamma_rad) pairs")
    if not np.isfinite(arr).all():
        raise ValueError("measured must hold finite values only")
    phi, gam = arr[..., 0], arr[..., 1]
    inside = (phi >= theory.phi_deg[0]) & (phi <= theory.phi_deg[-1])
    count = inside.sum(-1)
    smallest = int(np.min(count, initial=2))
    if smallest < 2:
        raise InsufficientData(f"need at least 2 measured points inside the theory range, got {smallest}")
    resid = np.where(inside, gam - theory.gamma_at(phi), 0.0)

    # points outside sort last, as +inf, and then count as zeros
    x = np.sort(np.where(inside, wrap_angle(resid), np.inf), axis=-1)
    lifted = np.arange(x.shape[-1])
    n = count[..., None]
    x = np.where(lifted < n, x, 0.0)
    prefix = np.zeros_like(x)
    np.cumsum(x[..., :-1], axis=-1, out=prefix[..., 1:])
    sums = x.sum(-1, keepdims=True) + math.tau * lifted
    squares = np.sum(x * x, -1, keepdims=True) + 2.0 * math.tau * prefix + math.tau**2 * lifted
    cost = np.where(lifted < n, squares - sums * sums / n, np.inf)
    c_best = np.take_along_axis(sums, np.argmin(cost, -1)[..., None], -1) / n
    rms = np.sqrt(np.sum(np.where(inside, wrap_angle(resid - c_best) ** 2, 0.0), -1) / count)
    return OffsetFit(wrap_angle(c_best[..., 0]), rms if arr.ndim > 2 else float(rms))
