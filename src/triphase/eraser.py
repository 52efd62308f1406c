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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .core import QubitState, SymmetricState, bloch_from_qubit, inner, wrap_angle

TWO_PI = 2.0 * math.pi
DEFAULT_WAVELENGTH_M = 391e-9
MIN_FRINGE_SPAN_RAD = 0.9 * TWO_PI  # the samples of a fit span at least this much
MIN_VISIBILITY = 1e-3  # a fringe fainter than this has no meaningful phase
MAX_NOISE_PHOTONS = 1e15  # mean photons at the fringe maximum, well inside Poisson sampling

_RETARDANCE = {"quarter": -1j, "half": -1.0 + 0j}


class Unreachable(RuntimeError):
    """The waveplate chain cannot produce the target state."""


class ZeroVisibility(RuntimeError):
    """Fringe contrast too small for a meaningful phase."""


@dataclass(frozen=True)
class WaveplateSetting:
    """A retarder kind plus its fast-axis angle from horizontal (degrees)."""

    kind: str
    angle_deg: float

    def __post_init__(self):
        if self.kind not in _RETARDANCE:
            raise ValueError(f"kind must be 'quarter' or 'half', got {self.kind!r}")
        object.__setattr__(self, "angle_deg", float(self.angle_deg) % 180.0)


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
    ValueError for other chains.
    """
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


def projection_amplitude(arm_state: SymmetricState, projector_state: SymmetricState) -> complex:
    """<projector|arm> in the symmetric subspace."""
    return inner(projector_state, arm_state)


def _linear_angle_deg(state):
    """Polarization angle of linear states (real amplitudes up to a global phase)."""
    v = np.asarray(state)
    ref = np.take_along_axis(v, np.argmax(np.abs(v), -1)[..., None], -1)
    u = v * np.exp(-1j * np.angle(ref))
    if float(np.max(np.abs(u.imag))) > 1e-9:
        raise ValueError("state is not a linear polarization")
    return np.degrees(np.arctan2(u[..., 1].real, u[..., 0].real))


def _analyzer_angles_deg(psi3, psi3_mirror):
    """Fast-axis angles of the two analyzer half-wave plates; broadcasts."""
    return _linear_angle_deg(psi3) / 2.0, (_linear_angle_deg(psi3_mirror) + 90.0) / 2.0


def analyzer_hwp_settings(
    psi3: QubitState, psi3_mirror: QubitState
) -> tuple[WaveplateSetting, WaveplateSetting]:
    """Half-wave plate settings of the analyzer chain.

    The first plate rotates psi3 onto H (transmitted PBS port), the second
    rotates psi3_mirror onto V (reflected port).  Only defined for linear
    polarizations, which is what the standard-triplet family produces.
    """
    return tuple(WaveplateSetting("half", a) for a in _analyzer_angles_deg(psi3, psi3_mirror))


# columns: |HH>, (|HV>+|VH>)/sqrt(2), |VV> in the product basis (|HH>, |HV>, |VH>, |VV>)
_SYM_BASIS = np.array([[1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]]) / np.array([1.0, math.sqrt(2.0), 1.0])
_SYM_HV = _SYM_BASIS[:, 1]


def projection_chain_amplitude(arm_state, psi3, psi3_mirror):
    """Amplitude through the composed analyzer chain, normalized to a unit bra.

    Each photon passes the half-wave plates of analyzer_hwp_settings and the
    polarizing splitter; the transmitted H port carries the psi3 component
    and the reflected V port the psi3_mirror component; the up-conversion
    crystal then projects onto the symmetric HV state.  Equals the direct
    projection onto symmetrize(psi3, psi3_mirror) up to one arm-independent
    global phase.  States are wrappers or arrays that broadcast over their
    leading axes; a batch gives an array.
    """
    hwp_h, hwp_v = np.radians(_analyzer_angles_deg(psi3, psi3_mirror))
    half = _RETARDANCE["half"]
    single = np.stack([_jones(half, hwp_h)[..., 0, :], _jones(half, hwp_v)[..., 1, :]], -2)  # H, V ports
    pair = np.einsum("...ij,...kl->...ikjl", single, single).reshape(single.shape[:-2] + (4, 4))
    row = _SYM_HV @ pair  # real _SYM_HV: the chain's bra is conj(row), of the same norm
    out = np.sum(row @ _SYM_BASIS * np.asarray(arm_state), -1) / np.linalg.norm(row, axis=-1)
    return complex(out) if np.ndim(out) == 0 else out


class _Grid:
    """What the fringe code derives from one valid delta grid: the phasor
    e^(i delta) of the synthesis and the basis and Gram matrix of the fit,
    each computed on first use.  A kept grid has the bytes of its samples
    as ``key``."""

    def __init__(self, delta, key=None):
        self.delta, self.key = delta, key

    @cached_property
    def phasor(self):
        return np.exp(1j * self.delta)

    @cached_property
    def fit(self):
        """(basis, gram); ValueError for a grid that cannot determine the fit."""
        delta = self.delta
        if delta.size < 3:
            raise ValueError("need at least 3 samples")
        if float(delta[-1] - delta[0]) < MIN_FRINGE_SPAN_RAD:
            raise ValueError("samples must span at least one fringe period")
        basis = np.array([np.ones_like(delta), np.cos(delta), np.sin(delta)])
        gram = basis @ basis.T
        # det(gram) / n^3 lies in [0, 8/27] (1/4 for an even grid), near 0 when the
        # samples sit at (nearly) two phases only and leave the fit undetermined
        (g00, g01, g02), (_, g11, g12), (_, _, g22) = gram.tolist()
        det = g00 * (g11 * g22 - g12 * g12) - g01 * (g01 * g22 - g12 * g02) + g02 * (g01 * g12 - g11 * g02)
        if not det > 1e-9 * delta.size**3:
            raise ValueError("delta_rad samples are too clustered to determine the fringe")
        return basis, gram


# A scan fits many traces on one grid, so the set-up of the last grid is kept
# under the bytes of its samples: a grid changed in place is a new grid.  Only
# grids of at most _KEPT_SAMPLES samples are kept, about 0.2 MB with phasor
# and basis.  The set-up's fixed cost of some 40 us matters next to the
# per-trace work on a small grid, not on a large one, and a large kept grid
# would hold its megabytes alive after its last fit.
_KEPT_SAMPLES = 4096
_kept = _Grid(None)  # replaced whole, so a reader never sees a key with another grid


def _grid(delta: np.ndarray) -> _Grid:
    """The set-up of a 1-d float64 grid; ValueError unless its samples are
    finite and strictly increasing, and then nothing is derived from it."""
    global _kept
    kept, key = _kept, delta.tobytes() if delta.size <= _KEPT_SAMPLES else None
    if key is not None and key == kept.key:
        return kept
    # NaN fails every comparison; an infinite end leaves the span non-finite
    if delta.size and not ((delta[1:] > delta[:-1]).all() and math.isfinite(delta[-1] - delta[0])):
        raise ValueError("delta_rad must be finite and strictly increasing")
    if key is None:
        return _Grid(delta)
    # the key's own read-only bytes, which no caller can change later
    _kept = _Grid(np.frombuffer(key), key)
    return _kept


@dataclass(frozen=True)
class FringeTrace:
    """Sampled interference intensity versus the relative path phase delta.

    ``intensity`` has shape (..., N) over the N samples of a 1-d ``delta_rad``;
    leading axes hold a batch of traces on the same grid.
    """

    delta_rad: np.ndarray
    intensity: np.ndarray
    mean_photons: float | None = None

    def __post_init__(self):
        delta = np.asarray(self.delta_rad, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if delta.ndim != 1 or inten.shape[-1:] != delta.shape:
            raise ValueError("delta_rad must be 1-d and intensity of shape (..., len(delta_rad))")
        _grid(delta)
        if inten.size and not (inten.min() >= 0.0 and inten.max() < math.inf):
            raise ValueError("intensity must be finite and non-negative")
        object.__setattr__(self, "delta_rad", delta)
        object.__setattr__(self, "intensity", inten)


def default_delta_grid(n: int = 100) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


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
    """
    if not 0.0 < arm_ratio < math.inf:
        raise ValueError(f"arm_ratio must be finite and positive, got {arm_ratio}")
    delta = np.asarray(delta_rad, dtype=float)
    if delta.ndim != 1:
        raise ValueError("delta_rad must be 1-d")
    r = arm_ratio * projection_amplitude(arm_a, projector)
    q = projection_amplitude(arm_b, projector)
    if not (isinstance(r, complex) and isinstance(q, complex)):  # a batch: one trace per element
        r, q = np.asarray(r)[..., None], np.asarray(q)[..., None]
    ideal = np.abs(r * _grid(delta).phasor + q) ** 2
    if noise_mean_photons is None:
        return FringeTrace(delta, ideal, None)
    if not 0.0 < noise_mean_photons <= MAX_NOISE_PHOTONS:
        raise ValueError(f"noise_mean_photons {noise_mean_photons} is not in (0, {MAX_NOISE_PHOTONS:g}]")
    if rng is None:
        raise ValueError("Poisson noise requires an explicit rng seed or Generator")
    peak = (abs(r) + abs(q)) ** 2
    # a zero peak has an all-zero ideal trace, which is divided by 1 instead
    lam = noise_mean_photons * ideal / (peak + (peak == 0.0))
    counts = np.random.default_rng(rng).poisson(lam)
    return FringeTrace(delta, counts.astype(float), float(noise_mean_photons))


class FringeFit(NamedTuple):
    phase_rad: float
    visibility: float


def extract_fringe_phase(trace: FringeTrace) -> FringeFit:
    """Least-squares fit of I = A + B cos(delta) + C sin(delta), for one trace
    (floats) or a batch (arrays): one solve of the normal equations, whose
    matrix is the Gram matrix of the basis (1, cos delta, sin delta).

    The phase atan2(C, B) locates the fringe maximum, so a trace synthesized
    as A (1 + v cos(delta - p)) returns p, and phase differences between
    projector settings equal geometric-phase differences.  Raises
    ZeroVisibility if any trace falls below MIN_VISIBILITY.
    """
    inten = trace.intensity
    basis, gram = _grid(trace.delta_rad).fit
    if inten.ndim == 1:  # numpy scalars: the same arithmetic without 0-d arrays
        a, b, c = np.linalg.solve(gram, inten @ basis.T)
        visibility = np.hypot(b, c) / (a if a > 0.0 else math.inf)  # 0 where A <= 0
        if visibility < MIN_VISIBILITY:
            raise ZeroVisibility(f"fitted visibility {visibility:.3e} below {MIN_VISIBILITY:.0e}")
        return FringeFit(wrap_angle(np.arctan2(c, b)), float(visibility))
    rhs = (inten @ basis.T).reshape(-1, 3).T
    a, b, c = np.linalg.solve(gram, rhs).reshape((3,) + inten.shape[:-1])
    visibility = np.hypot(b, c) / np.where(a > 0.0, a, np.inf)  # 0 where A <= 0
    if (visibility < MIN_VISIBILITY).any():
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


def delta_from_path_difference(path_m, wavelength_m: float = DEFAULT_WAVELENGTH_M):
    """Relative phase delta = 2 pi x / lambda for a path difference x."""
    if not 0.0 < wavelength_m < math.inf:
        raise ValueError("wavelength must be finite and positive")
    out = TWO_PI * np.asarray(path_m, dtype=float) / wavelength_m
    return float(out) if np.ndim(out) == 0 else out


def path_difference_from_delta(delta_rad, wavelength_m: float = DEFAULT_WAVELENGTH_M):
    """Inverse of delta_from_path_difference."""
    if not 0.0 < wavelength_m < math.inf:
        raise ValueError("wavelength must be finite and positive")
    out = np.asarray(delta_rad, dtype=float) * wavelength_m / TWO_PI
    return float(out) if np.ndim(out) == 0 else out
