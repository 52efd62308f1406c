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
from typing import NamedTuple, Sequence

import numpy as np

from .core import QubitState, SymmetricState, qutrit_inner, wrap_angle

TWO_PI = 2.0 * math.pi
DEFAULT_WAVELENGTH_M = 391e-9

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


def _reflection(two_a):
    """cos(2a) sigma_z + sin(2a) sigma_x, stacked over the shape of ``two_a``."""
    c, s = np.cos(two_a), np.sin(two_a)
    return np.stack([np.stack([c, s], -1), np.stack([s, -c], -1)], -2)


def _jones(retardance: complex, angle_rad):
    """R(a) diag(1, r) R(-a) = (1 + r)/2 I + (1 - r)/2 (cos 2a sigma_z + sin 2a sigma_x)."""
    return 0.5 * (1.0 + retardance) * np.eye(2) + 0.5 * (1.0 - retardance) * _reflection(2.0 * angle_rad)


def waveplate_matrix(setting: WaveplateSetting) -> np.ndarray:
    """Unitary Jones matrix of a quarter- or half-wave plate."""
    return _jones(_RETARDANCE[setting.kind], math.radians(setting.angle_deg))


class WaveplateSolution(NamedTuple):
    settings: list[WaveplateSetting]
    infidelity: float


_COARSE_STEP_DEG = 15.0
_REFINE_STARTS = 8
_GAUSS_NEWTON_STEPS = 12
_INFIDELITY_TOL = 1e-6


def _leak(retardances, angles, start_vec, perp):
    """<perp|W_n ... W_1|start> and its gradient, for angles (radians) of shape (..., n).

    Each plate's derivative is dW/da = (1 - r) (cos 2a' sigma_z + sin 2a' sigma_x), a' = a + pi/4.
    """
    states = [np.broadcast_to(start_vec, angles.shape[:-1] + (2,))]
    for k, r in enumerate(retardances[:-1]):
        states.append(np.einsum("...ij,...j->...i", _jones(r, angles[..., k]), states[-1]))
    row = np.broadcast_to(perp.conj(), states[0].shape)
    grad = np.empty(angles.shape, dtype=complex)
    for k in reversed(range(len(retardances))):
        r, a = retardances[k], angles[..., k]
        d_plate = (1.0 - r) * _reflection(2.0 * a + 0.5 * math.pi)
        grad[..., k] = np.einsum("...i,...ij,...j->...", row, d_plate, states[k])
        row = np.einsum("...i,...ij->...j", row, _jones(r, a))
    return row @ start_vec, grad


def solve_waveplates(target: QubitState, kinds: Sequence[str], start: QubitState) -> WaveplateSolution:
    """Fast-axis angles sending ``start`` to ``target`` through the chain.

    Minimizes the infidelity 1 - |<target|chain|start>|^2, the squared leak
    into the target's orthogonal complement: the leak is evaluated on a
    coarse angle grid at once, and the best starts take Gauss-Newton steps
    together (pseudo-inverse steps also cover the underdetermined chains of
    three or more plates).  Raises Unreachable when the best infidelity stays
    above 1e-6 (e.g. a single half-wave plate cannot make circular light
    from linear light).
    """
    kinds = list(kinds)
    if not kinds:
        raise ValueError("the waveplate chain must be non-empty")
    for k in kinds:
        if k not in _RETARDANCE:
            raise ValueError(f"unknown waveplate kind {k!r}")

    retardances = [_RETARDANCE[k] for k in kinds]
    perp = np.array([-target.amp_v.conjugate(), target.amp_h.conjugate()], dtype=complex)
    coarse = np.radians(np.arange(0.0, 180.0, _COARSE_STEP_DEG))
    grid = np.stack(np.meshgrid(*[coarse] * len(kinds), indexing="ij"), -1).reshape(-1, len(kinds))
    leak, _ = _leak(retardances, grid, start.vec, perp)
    angles = grid[np.argsort(np.abs(leak), kind="stable")[:_REFINE_STARTS]]

    for _ in range(_GAUSS_NEWTON_STEPS):
        leak, grad = _leak(retardances, angles, start.vec, perp)
        jac = np.stack([grad.real, grad.imag], -2)
        residual = np.stack([leak.real, leak.imag], -1)
        angles = (angles - np.einsum("...ij,...j->...i", np.linalg.pinv(jac), residual)) % math.pi
    infidelity = np.abs(_leak(retardances, angles, start.vec, perp)[0]) ** 2
    best = int(np.argmin(infidelity))
    if infidelity[best] > _INFIDELITY_TOL:
        raise Unreachable(
            f"chain {kinds} cannot reach the target; best infidelity found {infidelity[best]:.3e}"
        )
    settings = [WaveplateSetting(k, math.degrees(a)) for k, a in zip(kinds, angles[best])]
    return WaveplateSolution(settings, float(infidelity[best]))


def projection_amplitude(arm_state: SymmetricState, projector_state: SymmetricState) -> complex:
    """<projector|arm> in the symmetric subspace."""
    return qutrit_inner(projector_state, arm_state)


def _linear_angle_deg(state: QubitState) -> float:
    """Polarization angle of a linear state (real amplitudes up to a global phase)."""
    v = state.vec
    ref = v[int(np.argmax(np.abs(v)))]
    u = v * np.exp(-1j * np.angle(ref))
    if float(np.max(np.abs(u.imag))) > 1e-9:
        raise ValueError("state is not a linear polarization")
    return math.degrees(math.atan2(u[1].real, u[0].real))


def analyzer_hwp_settings(
    psi3: QubitState, psi3_mirror: QubitState
) -> tuple[WaveplateSetting, WaveplateSetting]:
    """Half-wave plate angles of the analyzer chain.

    The first plate rotates psi3 onto H (transmitted PBS port), the second
    rotates psi3_mirror onto V (reflected port).  Only defined for linear
    polarizations, which is what the standard-triplet family produces.
    """
    lam3 = _linear_angle_deg(psi3)
    lam3m = _linear_angle_deg(psi3_mirror)
    return (
        WaveplateSetting("half", lam3 / 2.0),
        WaveplateSetting("half", (lam3m + 90.0) / 2.0),
    )


_SYM_HV = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / math.sqrt(2.0)


def projection_chain_amplitude(
    arm_state: SymmetricState, psi3: QubitState, psi3_mirror: QubitState
) -> complex:
    """Amplitude through the composed analyzer chain, normalized to a unit bra.

    Each photon passes the half-wave plates and the polarizing splitter; the
    transmitted H port carries the psi3 component and the reflected V port the
    psi3_mirror component; the up-conversion crystal then projects onto the
    symmetric HV state.  Equals the direct projection onto
    symmetrize(psi3, psi3_mirror) up to one arm-independent global phase.
    """
    hwp_h, hwp_v = analyzer_hwp_settings(psi3, psi3_mirror)
    single = np.vstack(
        [
            waveplate_matrix(hwp_h)[0, :],  # H output port
            waveplate_matrix(hwp_v)[1, :],  # V output port
        ]
    )
    pair = np.kron(single, single)
    bra = pair.conj().T @ _SYM_HV
    return complex(np.vdot(_SYM_HV, pair @ arm_state.product_basis_vec) / np.linalg.norm(bra))


@dataclass(frozen=True)
class FringeTrace:
    """Sampled interference intensity versus the relative path phase delta."""

    delta_rad: np.ndarray
    intensity: np.ndarray
    mean_photons: float | None = None

    def __post_init__(self):
        delta = np.asarray(self.delta_rad, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if delta.shape != inten.shape or delta.ndim != 1:
            raise ValueError("delta and intensity must be 1-d arrays of equal length")
        if np.any(np.diff(delta) <= 0.0):
            raise ValueError("delta samples must be strictly increasing")
        if np.any(inten < 0.0):
            raise ValueError("intensity must be non-negative")
        object.__setattr__(self, "delta_rad", delta)
        object.__setattr__(self, "intensity", inten)


def default_delta_grid(n: int = 100) -> np.ndarray:
    return np.linspace(0.0, TWO_PI, n, endpoint=False)


def fringe_trace(
    arm_a: SymmetricState,
    arm_b: SymmetricState,
    projector: SymmetricState,
    delta_rad,
    *,
    noise_mean_photons: float | None = None,
    rng=None,
    arm_ratio: float = 1.0,
) -> FringeTrace:
    """Interference fringe of the two projected arms.

    Ideal intensity P(delta) = |k * <proj|arm_a> * e^(i delta) + <proj|arm_b>|^2
    with balanced arms (k = arm_ratio = 1) by default; an arm amplitude
    imbalance changes the visibility but provably not the fringe phase.  With
    Poisson noise each sample is an independent draw whose mean is the ideal
    value scaled so the ideal maximum equals ``noise_mean_photons``; the rng
    (seed or numpy Generator) must then be supplied explicitly.
    """
    if arm_ratio <= 0.0:
        raise ValueError("arm_ratio must be positive")
    delta = np.asarray(delta_rad, dtype=float)
    r = arm_ratio * projection_amplitude(arm_a, projector)
    q = projection_amplitude(arm_b, projector)
    ideal = np.abs(r * np.exp(1j * delta) + q) ** 2
    if noise_mean_photons is None:
        return FringeTrace(delta, ideal, None)
    if noise_mean_photons <= 0.0:
        raise ValueError("noise_mean_photons must be positive")
    if rng is None:
        raise ValueError("Poisson noise requires an explicit rng seed or Generator")
    rng = np.random.default_rng(rng)
    peak = (abs(r) + abs(q)) ** 2
    lam = noise_mean_photons * ideal / peak if peak > 0.0 else np.zeros_like(ideal)
    return FringeTrace(delta, rng.poisson(lam).astype(float), float(noise_mean_photons))


class FringeFit(NamedTuple):
    phase_rad: float
    visibility: float


def extract_fringe_phase(trace: FringeTrace, *, min_visibility: float = 1e-3) -> FringeFit:
    """Least-squares fit of I = A + B cos(delta) + C sin(delta).

    The phase atan2(C, B) locates the fringe maximum, so a trace synthesized
    as A (1 + v cos(delta - p)) returns p, and phase differences between
    projector settings equal geometric-phase differences.  Raises
    ZeroVisibility below ``min_visibility``.
    """
    delta, inten = trace.delta_rad, trace.intensity
    if delta.size < 3:
        raise ValueError("need at least 3 samples")
    if float(delta[-1] - delta[0]) < 0.9 * TWO_PI:
        raise ValueError("samples must span at least one fringe period")
    design = np.column_stack([np.ones_like(delta), np.cos(delta), np.sin(delta)])
    (a, b, c), *_ = np.linalg.lstsq(design, inten, rcond=None)
    amp = math.hypot(b, c)
    if a <= 0.0 or amp / a < min_visibility:
        raise ZeroVisibility(
            f"fitted visibility {0.0 if a <= 0 else amp / a:.3e} below {min_visibility:.0e}"
        )
    return FringeFit(wrap_angle(math.atan2(c, b)), amp / a)


def phase_variation(
    arm_a: SymmetricState,
    arm_b: SymmetricState,
    projector_1: SymmetricState,
    projector_2: SymmetricState,
    delta_rad=None,
    *,
    noise_mean_photons: float | None = None,
    rng=None,
) -> float:
    """Fringe-phase shift between two projector settings, wrapped to (-pi, pi].

    Noiseless, this equals the difference of the two three-vertex geometric
    phases (the arm-overlap term is common to both fringes and cancels).
    """
    if delta_rad is None:
        delta_rad = default_delta_grid()
    if noise_mean_photons is not None:
        if rng is None:
            raise ValueError("Poisson noise requires an explicit rng seed or Generator")
        rng = np.random.default_rng(rng)
    fit_1 = extract_fringe_phase(
        fringe_trace(arm_a, arm_b, projector_1, delta_rad, noise_mean_photons=noise_mean_photons, rng=rng)
    )
    fit_2 = extract_fringe_phase(
        fringe_trace(arm_a, arm_b, projector_2, delta_rad, noise_mean_photons=noise_mean_photons, rng=rng)
    )
    return wrap_angle(fit_2.phase_rad - fit_1.phase_rad)


def delta_from_path_difference(path_m, wavelength_m: float = DEFAULT_WAVELENGTH_M):
    """Relative phase delta = 2 pi x / lambda for a path difference x."""
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    out = TWO_PI * np.asarray(path_m, dtype=float) / wavelength_m
    return float(out) if np.ndim(out) == 0 else out


def path_difference_from_delta(delta_rad, wavelength_m: float = DEFAULT_WAVELENGTH_M):
    """Inverse of delta_from_path_difference."""
    if wavelength_m <= 0.0:
        raise ValueError("wavelength must be positive")
    out = np.asarray(delta_rad, dtype=float) * wavelength_m / TWO_PI
    return float(out) if np.ndim(out) == 0 else out
