"""Jones-calculus simulation of the quantum-eraser interferometer.

State preparation through waveplates, projection of both interferometer arms
onto a symmetrized two-photon state (either directly or through the
HWP/PBS + up-conversion analyzer chain), fringe synthesis versus the
relative path phase delta, optional shot noise, and phase extraction from
the fringes.

Retarder convention (used everywhere): a waveplate with fast axis at angle
``a`` from horizontal is R(a) @ diag(1, r) @ R(-a) with r = -i for a quarter
wave and r = -1 for a half wave, i.e. the fast-axis component leads.  With
this choice a quarter-wave plate at 45 degrees maps H to (|H> + i|V>)/sqrt(2)
up to a global phase, and a half-wave plate at a maps a linear polarization
at angle L to the linear polarization at 2a - L with no extra phase.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .core import (QubitState, Record, SymmetricState, bloch_from_qubit, check_number, check_range, inner,
                   symmetrize, wrap_angle)

MIN_FRINGE_SPAN_RAD = 0.9 * math.tau  # the samples of a fit span at least this much
MIN_VISIBILITY = 1e-3  # a fringe fainter than this has no meaningful phase
MAX_NOISE_PHOTONS = 1e15  # mean photons at the fringe maximum, well inside Poisson sampling
_NON_FINITE = "arm_a, arm_b and projector must be finite, and arm_ratio times a projection below 1e154"

_RETARDANCE = {"quarter": -1j, "half": -1.0 + 0j}


class Unreachable(RuntimeError):
    """The waveplate chain cannot produce the target state."""


class ZeroVisibility(RuntimeError):
    """Fringe contrast too small for a meaningful phase."""


class WaveplateSetting(Record, namedtuple("WaveplateSetting", "kind angle_deg")):
    """A retarder kind plus its fast-axis angle from horizontal (degrees), kept in [0, 180)."""

    __slots__ = ()

    def __new__(cls, kind, angle_deg):
        try:
            if kind not in _RETARDANCE:
                raise TypeError
        except TypeError:  # an unknown kind, or one that cannot be a key, such as a list
            raise ValueError(f"kind must be 'quarter' or 'half', got {kind!r}") from None
        return tuple.__new__(cls, (kind, check_number("angle_deg", angle_deg, (-math.inf, math.inf), "()") % 180.0))


def _jones(retardance: complex, angle_rad):
    """R(a) diag(1, r) R(-a) = (1 + r)/2 I + (1 - r)/2 (cos 2a sigma_z + sin 2a sigma_x),
    stacked over the shape of ``angle_rad``."""
    c, s = np.cos(2.0 * angle_rad), np.sin(2.0 * angle_rad)
    p, m = 0.5 * (1.0 + retardance), 0.5 * (1.0 - retardance)
    return np.stack([np.stack([p + m * c, m * s], -1), np.stack([m * s, p - m * c], -1)], -2)


def waveplate_matrix(setting: WaveplateSetting) -> np.ndarray:
    """Unitary Jones matrix of a quarter- or half-wave plate."""
    return _jones(_RETARDANCE[setting.kind], math.radians(setting.angle_deg))


class WaveplateSolution(NamedTuple):
    settings: list[WaveplateSetting]
    infidelity: float


_INFIDELITY_TOL = 1e-6
_SOLVABLE_CHAINS = (("half",), ("quarter",), ("quarter", "half"), ("half", "quarter"), ("half", "half"))
_DFT5 = np.exp(-0.4j * math.pi * np.outer(np.arange(-2, 3), np.arange(5))) / 5.0  # harmonics -2..2


def _stationary_angles(f):
    """Plate angles a (rad) at the stationary points of f, a trigonometric
    polynomial of degree 2 in x = 2a: with z = e^(ix), z^2 f'(x) / i is the
    quartic sum_k k F_k z^(k+2) in the harmonics F_k of five samples."""
    harmonics = _DFT5 @ f(0.2 * math.pi * np.arange(5))
    return np.angle(np.roots(harmonics[::-1] * np.arange(2, -3, -1))) / 2.0


def solve_waveplates(target: QubitState, kinds: Sequence[str], start: QubitState) -> WaveplateSolution:
    """Fast-axis angles sending ``start`` to ``target`` through one plate, or
    two plates of which one is half-wave.

    The infidelity 1 - |<target|chain|start>|^2, the squared leak into the
    target's orthogonal complement, is least at one of a few candidate angles
    in closed form.  Raises Unreachable when it exceeds 1e-6 (e.g. a single
    half-wave plate cannot make circular light from linear light), and
    ValueError for other chains.  ``target`` and ``start`` are QubitStates or
    two amplitudes each, wrapped (and so checked) as QubitState(*x).
    """
    target, start = QubitState(*target), QubitState(*start)
    kinds = list(kinds)
    if tuple(kinds) not in _SOLVABLE_CHAINS:
        raise ValueError(f"chain {kinds} is not supported: use one plate, or two with a half-wave plate")
    retardances = [_RETARDANCE[k] for k in kinds]

    def infidelity(angles):  # angles (rad) of shape (m, len(kinds))
        out = start.vec
        for k, r in enumerate(retardances):
            out = np.einsum("...ij,...j->...i", _jones(r, angles[:, k]), out)
        return np.abs(out[:, 1] * target.amp_h - out[:, 0] * target.amp_v) ** 2

    if len(kinds) == 1:  # a trigonometric polynomial of degree 2 in 2a; a = 0 if it is constant
        angles = np.append(_stationary_angles(lambda a: infidelity(a[:, None])), 0.0)[:, None]
    else:
        # A plate at angle a turns the Bloch vector (H at +z, D at +x) about
        # (sin 2a, 0, cos 2a).  The half-wave plate takes u to v iff u_y = -v_y, at
        # 4a = atan2(u_x v_z + u_z v_x, u_z v_z - u_x v_x), and leaves the infidelity
        # (1 - cos(asin w_y + asin e_y))/2 between the fixed state e on its side and
        # w = W s on the other: s = start, or s = target and W^dagger (retardance
        # conj(r)) when it comes first.  w_y = Im(r) (s_x cos 2a - s_z sin 2a) is extreme
        # at 2a + atan2(s_z, s_x) = 0, pi and meets -e_y at +-t (sine exact for linear light).
        half_last = kinds[1] == "half"
        source, fixed = (start, target) if half_last else (target, start)
        r = retardances[0] if half_last else retardances[1].conjugate()
        (s_x, s_y, s_z), (e_x, e_y, e_z) = bloch_from_qubit(source.vec), bloch_from_qubit(fixed.vec)
        root = math.sqrt(max((s_x * s_x + s_z * s_z) * (e_x * e_x + e_z * e_z) - (s_y * e_y) ** 2, 0.0))
        t = math.atan2(root, -r.imag * e_y)
        other = (np.array([0.0, math.pi, t, -t]) - math.atan2(s_z, s_x)) / 2.0
        w_x, _, w_z = bloch_from_qubit(_jones(r, other) @ source.vec).T
        half = np.arctan2(w_x * e_z + w_z * e_x, w_z * e_z - w_x * e_x) / 4.0
        angles = np.stack([other, half] if half_last else [half, other], -1)
    infidelities = infidelity(angles)
    best = int(np.argmin(infidelities))
    least = float(infidelities[best])
    if least > _INFIDELITY_TOL:
        raise Unreachable(f"chain {kinds} cannot reach the target; best infidelity found {least:.3e}")
    settings = [WaveplateSetting(k, math.degrees(a)) for k, a in zip(kinds, angles[best])]
    return WaveplateSolution(settings, least)


# Kept for perfbench/workloads.py, which calls it; not exported from triphase: use inner(projector, arm).
def projection_amplitude(arm_state: SymmetricState, projector_state: SymmetricState) -> complex:
    """<projector|arm> in the symmetric subspace."""
    return inner(projector_state, arm_state)


def _half_wave_onto(state, offset):
    """Jones matrix of the half-wave plate that turns the linear ``state`` onto
    H (offset 0) or V (offset pi/4): a plate at a quarter of its Bloch azimuth
    atan2(x, z), plus the offset.  ValueError if |y| > 1e-9."""
    x, y, z = np.moveaxis(np.asarray(bloch_from_qubit(state)), -1, 0)
    if np.max(np.abs(y)) > 1e-9:
        raise ValueError("state is not a linear polarization")
    return _jones(_RETARDANCE["half"], np.arctan2(x, z) / 4.0 + offset)


def projection_chain_amplitude(arm_state, psi3, psi3_mirror):
    """Amplitude through the composed analyzer chain, normalized to a unit bra.

    Half-wave plates turn psi3 onto H, the transmitted port of the polarizing
    splitter, and psi3_mirror onto V, the reflected port; the up-conversion
    crystal then projects onto the symmetric HV state.  The chain's bra is
    the symmetrization of the H row of the first plate and the V row of the
    second: rows of a unitary are unit vectors, and these are real, so each
    is its own ket.  Equals the direct projection onto symmetrize(psi3,
    psi3_mirror) up to one arm-independent global phase.  ValueError unless
    psi3 and psi3_mirror are linear, as the standard triplet's are.  States
    are wrappers or arrays that broadcast over their leading axes; a batch
    gives an array.
    """
    h_plate, v_plate = _half_wave_onto(psi3, 0.0), _half_wave_onto(psi3_mirror, math.pi / 4.0)
    out = inner(symmetrize(h_plate[..., 0, :], v_plate[..., 1, :]), arm_state)
    return complex(out) if np.ndim(out) == 0 else out


class _Grid:
    """What the fringe code derives from one delta grid: the phasor
    e^(i delta) of the synthesis and the fit operator, each computed on first
    use.  ValueError unless the 1-d float64 samples are finite and strictly
    increasing."""

    def __init__(self, delta):
        # NaN fails every comparison; an infinite end leaves the span non-finite
        if delta.size and not ((delta[1:] > delta[:-1]).all() and math.isfinite(delta[-1] - delta[0])):
            raise ValueError("delta_rad must be finite and strictly increasing")
        self.delta = delta

    @cached_property
    def phasor(self):
        return np.exp(1j * self.delta)

    @cached_property
    def fit(self):
        """The least-squares operator M = G^-1 B (3 x N) of the basis B = (1,
        cos delta, sin delta) and its Gram matrix G = B B^T, which maps the
        samples I of a trace to its coefficients M I; ValueError for a grid
        that cannot determine the fit."""
        delta = self.delta
        if delta.size < 3:
            raise ValueError("need at least 3 samples")
        if float(delta[-1] - delta[0]) < MIN_FRINGE_SPAN_RAD:
            raise ValueError("samples must span at least one fringe period")
        basis = np.array([np.ones_like(delta), np.cos(delta), np.sin(delta)])
        gram = basis @ basis.T
        # det(gram) / n^3 lies in [0, 8/27] (1/4 for an even grid), near 0 when the
        # samples sit at (nearly) two phases only and leave the fit undetermined
        if not np.linalg.det(gram) > 1e-9 * delta.size**3:
            raise ValueError("delta_rad samples are too clustered to determine the fringe")
        return np.linalg.solve(gram, basis)


# A scan fits many traces on one grid, so the set-up of the last grid is kept
# under the bytes of its samples: a grid changed in place is a new grid.  Only
# grids of at most _KEPT_SAMPLES samples are kept, about 0.2 MB with phasor
# and fit operator.  The set-up's fixed cost of some 40 us (100 samples: the
# checks, the phasor, the basis and one solve for the operator) matters next to
# the per-trace work on a small grid, not on a large one, and a large kept
# grid would hold its megabytes alive after its last fit.
_KEPT_SAMPLES = 4096
# a kept grid reads its key's own read-only bytes, which no caller can change later
_kept_grid = lru_cache(maxsize=1)(lambda key: _Grid(np.frombuffer(key)))


def _grid(delta: np.ndarray) -> _Grid:
    """The set-up of a 1-d float64 grid, checked as _Grid checks it."""
    return _kept_grid(delta.tobytes()) if delta.size <= _KEPT_SAMPLES else _Grid(delta)


class FringeTrace(Record, namedtuple("FringeTrace", "delta_rad intensity mean_photons")):
    """Sampled interference intensity versus the relative path phase delta.

    ``intensity`` has shape (..., N) over the N samples of a 1-d ``delta_rad``;
    leading axes hold a batch of traces on the same grid.  Both are kept as
    float64 arrays.
    """

    __slots__ = ()

    def __new__(cls, delta_rad, intensity, mean_photons=None):
        delta = np.asarray(delta_rad, dtype=float)
        inten = np.asarray(intensity, dtype=float)
        if delta.ndim != 1 or inten.shape[-1:] != delta.shape:
            raise ValueError("delta_rad must be 1-d and intensity of shape (..., len(delta_rad))")
        _grid(delta)
        if inten.size and not (inten.min() >= 0.0 and inten.max() < math.inf):
            raise ValueError("intensity must be finite and non-negative")
        return tuple.__new__(cls, (delta, inten, mean_photons))


def default_delta_grid(n: int = 100) -> np.ndarray:
    return np.linspace(0.0, math.tau, n, endpoint=False)


def fringe_trace(
    arm_a, arm_b, projector, delta_rad, *,
    noise_mean_photons: float | None = None, rng=None, arm_ratio: float = 1.0,
) -> FringeTrace:
    """Interference fringe of the two projected arms.

    Ideal intensity P(delta) = |k * <proj|arm_a> * e^(i delta) + <proj|arm_b>|^2
    with balanced arms (k = arm_ratio = 1) by default; an arm amplitude
    imbalance changes the visibility but provably not the fringe phase.  The
    states are wrappers or arrays of shape (..., 3) that broadcast, and the
    intensity has shape (..., N) for N delta samples.  With Poisson noise each
    sample is an independent draw whose mean is the ideal value scaled so the
    ideal maximum equals ``noise_mean_photons``; the rng (seed or numpy
    Generator) must then be supplied explicitly.  A batch is one draw in C
    order, the draws of a loop over its elements with the same generator.
    ValueError for NaN or infinite states, or an intensity (or, with noise,
    noise_mean_photons times the ideal maximum) that would overflow.  A batch
    allocates one complex field and one real intensity, the trace's own array.
    """
    arm_ratio = check_range("arm_ratio", arm_ratio, (0.0, math.inf), "()")  # a list or tuple as its array
    delta = np.asarray(delta_rad, dtype=float)
    if delta.ndim != 1:
        raise ValueError("delta_rad must be 1-d")
    # an array state is checked before inner, where inf times a zero amplitude
    # would warn; a wrapper is finite by construction
    for s in (arm_a, arm_b, projector):
        if not (isinstance(s, SymmetricState) or np.isfinite(s).all()):
            raise ValueError(_NON_FINITE)
    r, q = arm_ratio * inner(projector, arm_a), inner(projector, arm_b)
    scale = abs(r) + abs(q)  # the root of the ideal maximum, which bounds every sample
    finite = scale < 1e154  # NaN fails too; past 1e154 the square overflows
    if not (isinstance(r, complex) and isinstance(q, complex)):  # a batch: one trace per element
        r, q = (x[..., None] for x in np.broadcast_arrays(r, q))  # r * phasor then has the shape of the sum
        scale, finite = scale[..., None], finite.all()
    if not finite:
        raise ValueError(_NON_FINITE)
    peak = scale**2
    # one complex field, then one real intensity reused in place: two complex
    # temporaries alive at once would be handed back to the system after each
    # batch and faulted in again by the next
    ideal = r * _grid(delta).phasor
    ideal += q
    ideal = np.abs(ideal)  # rebinding the name releases the field
    ideal *= ideal  # in place here and below, on this call's own array
    if noise_mean_photons is None:
        return FringeTrace._trusted((delta, ideal, None))  # float64 grid checked, samples finite, >= 0
    noise_mean_photons = check_number("noise_mean_photons", noise_mean_photons, (0.0, MAX_NOISE_PHOTONS), "(]")
    if rng is None:
        raise ValueError("Poisson noise requires an explicit rng seed or Generator")
    # noise_mean_photons * ideal below must not overflow; in Python floats an overflow is inf, not a warning
    top = peak if isinstance(peak, float) else float(np.max(peak, initial=0.0))
    if not math.isfinite(noise_mean_photons * top):
        raise ValueError(f"arm_ratio times a projection is too large for noise_mean_photons {noise_mean_photons:g}: "
                         f"the ideal peak {top:.3e} times the photons overflows")
    # the Poisson mean; a zero peak has an all-zero ideal trace, which is divided by 1 instead
    ideal *= noise_mean_photons
    ideal /= peak + (peak == 0.0)
    ideal[...] = np.random.default_rng(rng).poisson(ideal)  # the counts, cast as astype(float) casts
    return FringeTrace._trusted((delta, ideal, noise_mean_photons))


class FringeFit(NamedTuple):
    phase_rad: float
    visibility: float


def extract_fringe_phase(trace: FringeTrace) -> FringeFit:
    """Least-squares fit of I = A + B cos(delta) + C sin(delta), for one trace
    (floats) or a batch (arrays): one product of the samples with the grid's
    kept operator G^-1 B (see _Grid.fit), solved once per grid.

    The phase atan2(C, B) locates the fringe maximum, so a trace synthesized
    as A (1 + v cos(delta - p)) returns p, and phase differences between
    projector settings equal geometric-phase differences.  Raises
    ZeroVisibility if any trace falls below MIN_VISIBILITY or fits to NaN,
    as an intensity set to NaN or inf after the trace was built does.
    """
    inten = trace.intensity
    op = _grid(trace.delta_rad).fit
    if inten.ndim == 1:  # one trace on Python floats, in math rather than numpy's SIMD-dispatched ufuncs
        try:
            a, b, c = op.dot(inten).tolist()
        except RuntimeWarning:  # inf - inf in the product, with warnings raised as errors
            a = b = c = math.nan
        visibility = math.hypot(b, c) / (a if a > 0.0 else math.inf)  # 0 where A <= 0
        if not visibility >= MIN_VISIBILITY:  # NaN too
            raise ZeroVisibility(f"fitted visibility {visibility:.3e} below {MIN_VISIBILITY:.0e}")
        return FringeFit(wrap_angle(math.atan2(c, b)), visibility)
    with np.errstate(invalid="ignore"):  # an inf sample written in later fits to NaN, raised below
        a, b, c = np.moveaxis(inten @ op.T, -1, 0)
        visibility = np.hypot(b, c) / np.where(a > 0.0, a, np.inf)  # 0 where A <= 0
    if not (visibility >= MIN_VISIBILITY).all():
        raise ZeroVisibility(f"fitted visibility {visibility.min():.3e} below {MIN_VISIBILITY:.0e}")
    return FringeFit(wrap_angle(np.arctan2(c, b)), visibility)


def phase_variation(
    arm_a, arm_b, projector_1, projector_2, delta_rad=None, *, noise_mean_photons=None, rng=None
):
    """Fringe-phase shift between two projector settings, wrapped to (-pi, pi].

    States are wrappers or arrays of shape (..., 3) that broadcast; a batch
    gives an array.  Both fringes come from one fringe_trace over a stacked
    projector axis, so with noise each element draws its first fringe, then
    its second.  Noiseless, the shift equals the difference of the two
    three-vertex geometric phases (the arm-overlap term is common to both
    fringes and cancels).
    """
    if delta_rad is None:
        delta_rad = default_delta_grid()
    projectors = np.stack(np.broadcast_arrays(projector_1, projector_2), -2)
    fit = extract_fringe_phase(fringe_trace(
        np.expand_dims(arm_a, -2), np.expand_dims(arm_b, -2), projectors, delta_rad,
        noise_mean_photons=noise_mean_photons, rng=rng,
    ))
    return wrap_angle(fit.phase_rad[..., 1] - fit.phase_rad[..., 0])
