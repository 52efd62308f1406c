"""Acceptance verification suite with pinned tolerances.

Each criterion is one self-contained check, registered in CRITERIA with its
index and name, whose run returns a timed CriterionResult; the CLI command
``triphase verify`` and tests/test_acceptance.py both consume the same
functions, so a green suite here is the definition of done.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, NamedTuple

import numpy as np
import numpy.random  # numpy loads it lazily; here its import is not timed as part of the first criterion that draws

from . import figures
from .core import (
    PHASE_SINGULAR_TOL,
    bloch_from_qubit,
    inner,
    majorana_decompose,
    normalize,
    random_states,
    spherical_triangle_signed_area,
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from .eraser import (
    default_delta_grid,
    extract_fringe_phase,
    fringe_trace,
    phase_variation,
    projection_chain_amplitude,
)
from .triplet import (
    TripletParams,
    analytic_total_phase,
    fit_offset,
    make_states,
    make_triplet,
    sweep_phi,
)


class Measurement(NamedTuple):
    """One measured worst value of a criterion against its bound.

    An upper bound passes strictly below (``value < bound``); a lower bound
    (``upper=False``, for counts) passes at or above.  Both comparisons are
    false for NaN, so a NaN fails.  ``over`` is the sample count with its noun.
    """

    name: str
    value: float
    bound: float
    over: str = ""
    upper: bool = True

    @property
    def passed(self) -> bool:
        return bool(self.value < self.bound if self.upper else self.value >= self.bound)

    def fragment(self) -> str:
        """``name=value (< bound) over n things``, or ``k/n things name (>= bound)`` for a count."""
        if self.upper:
            return f"{self.name}={self.value:.3e} (< {self.bound:g})" + (self.over and f" over {self.over}")
        return f"{self.value}{self.over and '/' + self.over} {self.name} (>= {self.bound:g})"


class CriterionResult(NamedTuple):
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float
    measurements: tuple[Measurement, ...]

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.index:02d} {self.name}: {self.detail} [{self.seconds * 1e3:.2f} ms]"


class CriterionSpec(NamedTuple):
    index: int
    name: str
    run: Callable[[], CriterionResult]


CRITERIA: list[CriterionSpec] = []


def _criterion(index: int, name: str, seconds_limit: float = math.inf):
    """Register a check returning its Measurements as criterion ``index``.

    The registered run times the check and passes it when every measurement
    is within its bound and the check ends within ``seconds_limit``; a check
    that raises fails, with the exception as its detail.
    """
    def register(check):
        @functools.wraps(check)
        def run() -> CriterionResult:
            t0 = time.perf_counter()
            try:
                measurements = tuple(check())
                passed = all(m.passed for m in measurements)
                detail = "; ".join(m.fragment() for m in measurements)
            except Exception as exc:
                measurements, passed, detail = (), False, f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            passed = passed and seconds < seconds_limit
            return CriterionResult(index, name, passed, detail, seconds, measurements)
        CRITERIA.append(CriterionSpec(index, name, run))
        return run
    return register


def _off_poles(margin: float, *axes):
    """The ``axes`` as arrays that broadcast to their grid, the first varying slowest, and the flat indices into the
    grid of its points whose phi (deg, last axis) lies at least ``margin`` from a pole 180 +- chi/2 (chi in [0, 360),
    second to last), circularly; no value is negative, so fmod is %."""
    axes = [np.reshape(x, (-1,) + (1,) * (len(axes) - k)) for k, x in enumerate(axes, 1)]
    chi, phi = axes[-2], axes[-1]
    keep = True
    for pole in (np.fmod(180.0 - chi / 2.0, 360.0), np.fmod(180.0 + chi / 2.0, 360.0)):
        d = np.fmod(np.abs(phi - pole), 360.0)
        keep = keep & (np.minimum(d, 360.0 - d) >= margin)
    return axes, np.flatnonzero(np.broadcast_to(keep, [x.size for x in axes]))


def _first_passing(draw, passes, n: int):
    """The first n candidates that pass, in draw order, and the number rejected.

    ``draw(m)`` returns m candidates, consuming the generator as m single draws
    would, and ``passes`` maps them to a mask.  Each round draws only the number
    still missing, so the draws are those of a loop that redraws each rejection.
    """
    kept, found, drawn = [], 0, 0
    while found < n:
        batch = draw(n - found)
        drawn += len(batch)
        batch = batch[passes(batch)]
        kept.append(batch)
        found += len(batch)
    return np.concatenate(kept), drawn - n


@_criterion(1, "oracle-equivalence", seconds_limit=5.0)
def criterion_oracle_equivalence() -> list[Measurement]:
    """Analytic curve formulas against direct overlap-product arithmetic.

    Grid: theta in {2,10,20,45,90} x chi in {0,60,120,180} x phi step 1 deg,
    excluding 0.5 deg around the formula poles.  At theta = 90 the two anchor
    states are orthogonal, so the direct route (three_vertex_phase's product and
    phase, the product made once) is singular for every phi; those samples are
    tallied, required to occur only there, and the theta = 90 analytic values
    are validated against the direct route just inside the singular point instead.
    """
    axes, keep = _off_poles(0.5, (2.0, 10.0, 20.0, 45.0, 90.0), (0.0, 60.0, 120.0, 180.0), np.arange(360.0))
    s1, s2, s3 = make_triplet(TripletParams(*axes))
    anchors = inner(s2, s1).take(keep)
    product = (inner(s1, s3) * inner(s3, s2)).take(keep) * anchors
    singular = np.abs(product) < PHASE_SINGULAR_TOL
    ok = np.flatnonzero(~singular)
    direct = wrap_angle(np.angle(product.take(ok)))
    diff = np.abs(wrap_angle(analytic_total_phase(*axes).take(keep.take(ok)) - direct))

    # theta = 90 row: validate the analytic values in the limit.  The offset
    # keeps the anchor overlap above the UndefinedPhase guard while bounding
    # the curve shift by |dgamma/dtheta| <= 2, i.e. below ~4e-5 rad.
    eps = 1e-3
    (chi, phi), keep = _off_poles(1.0, (0.0, 60.0, 120.0, 180.0), np.arange(3.0, 360.0, 7.0))
    lim = three_vertex_phase(*(s.reshape(-1, 3)[keep] for s in make_triplet(TripletParams(90.0 - eps, chi, phi))))
    lim_err = np.abs(wrap_angle(analytic_total_phase(90.0, chi, phi).take(keep) - lim))
    return [
        Measurement("max|diff|", np.max(diff, initial=0.0), 1e-9, f"{diff.size} samples"),
        Measurement("singular skips", int(singular.sum()), 1, upper=False),
        # only the theta = 90 row, whose anchors are orthogonal, may be singular
        Measurement("max|<s2|s1>| at the skips", np.max(np.abs(anchors[singular]), initial=0.0), 1e-12),
        Measurement("theta=90 limit err", np.max(lim_err), 1e-4, f"{lim_err.size} samples"),
    ]


@_criterion(2, "jump-law")
def criterion_jump_law() -> list[Measurement]:
    """Jump centers at 180 +- chi/2 (0.1 deg), each rise -4pi over their count
    (1e-6): two -2pi rises, merged into a single -4pi rise at 180 for chi = 0."""
    grid = np.linspace(0.0, 360.0, 721)
    n_ok, center_err, rise_err, sum_err = 0, [], [], []
    for chi in (0.0, 60.0, 120.0, 180.0):
        curve = sweep_phi(10.0, chi, grid)
        expected = sorted({180.0 - chi / 2.0, 180.0 + chi / 2.0})
        rises = np.array([j.rise_rad for j in curve.jumps])
        centers = np.sort([j.phi_center_deg for j in curve.jumps])
        sum_err.append(abs(rises.sum() - curve.net_change_rad))
        if len(rises) == len(expected):
            n_ok += 1
            center_err += list(np.abs(centers - expected))
            rise_err += list(np.abs(rises + 2.0 * math.tau / len(rises)))
    return [
        Measurement("with the expected jump count", n_ok, 4, "4 curves", upper=False),
        Measurement("max center err (deg)", np.max(center_err, initial=0.0), 0.1, f"{len(center_err)} jumps"),
        Measurement("max rise err (rad)", np.max(rise_err, initial=0.0), 1e-6, f"{len(rise_err)} jumps"),
        Measurement("max|sum of rises - net change| (rad)", np.max(sum_err), 1e-6, "4 curves"),
    ]


@_criterion(3, "steepening")
def criterion_steepening() -> list[Measurement]:
    """10-90% jump widths strictly decrease for theta 20 -> 10 -> 5 -> 2 at chi=120."""
    grid = np.linspace(0.0, 360.0, 721)
    curves = [sweep_phi(theta, 120.0, grid) for theta in (20.0, 10.0, 5.0, 2.0)]
    widths = [[j.width_deg for j in c.jumps] if len(c.jumps) == 2 else [math.nan] * 2 for c in curves]
    steps = np.diff(widths, axis=0)
    return [Measurement("max jump-width change (deg)", np.max(steps), 0.0, f"{steps.size} theta steps")]


@_criterion(4, "area-phase-law")
def criterion_area_phase() -> list[Measurement]:
    """1000 random qubit triples: wrap(gamma + Omega/2) = 0 within 1e-9."""
    rng = np.random.default_rng(20260810)
    triples, redraws = _first_passing(
        lambda m: random_states(rng, (m, 3), 2),
        lambda t: np.abs(inner(t[:, 0], t[:, 2]) * inner(t[:, 2], t[:, 1]) * inner(t[:, 1], t[:, 0])) >= 1e-6,
        1000,
    )
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    gamma = three_vertex_phase(a, b, c)
    omega = spherical_triangle_signed_area(bloch_from_qubit(a), bloch_from_qubit(b), bloch_from_qubit(c))
    worst = np.max(np.abs(wrap_angle(gamma + omega / 2.0)))
    over = f"{len(triples)} triples ({redraws} redraws)"
    return [Measurement("max|wrap(gamma + Omega/2)|", worst, 1e-9, over)]


def _majorana_states(rng: np.random.Generator) -> np.ndarray:
    """Criterion 5's 1000 symmetric states: 900 Haar-random, then 100
    near-degenerate pairs symmetrized.  A pair draws a qubit as random_states
    does, its distance 10^u, then its offset direction, in turn; the draws go
    into arrays, and each side of the pairs is normalized once."""
    states = random_states(rng, (900,), 3)
    z, offset, eps = np.empty((100, 2, 2)), np.empty((100, 2, 2)), np.empty((100, 1))
    for k in range(100):  # each (2, 2) draw: the real parts of a vector, then its imaginary parts
        z[k], eps[k], offset[k] = rng.normal(size=(2, 2)), 10.0 ** rng.uniform(-10.0, -4.0), rng.normal(size=(2, 2))
    p = normalize(z[:, 0] + 1j * z[:, 1])
    q = normalize(p + eps * (offset[:, 0] + 1j * offset[:, 1]))
    return np.concatenate([states, symmetrize(p, q)])


@_criterion(5, "majorana-roundtrip")
def criterion_majorana_roundtrip() -> list[Measurement]:
    """1000 random symmetric states (100 near-degenerate): roundtrip fidelity >= 1 - 1e-9."""
    states = _majorana_states(np.random.default_rng(6021023))
    worst = np.max(1.0 - np.abs(inner(symmetrize(*majorana_decompose(states)), states)))
    return [Measurement("max roundtrip infidelity", worst, 1e-9, f"{len(states)} states")]


@_criterion(6, "eraser-equivalence")
def criterion_eraser_equivalence() -> list[Measurement]:
    """500 random state sets (pairwise overlaps >= 0.05): noiseless fringe-shift
    difference equals the direct three-vertex phase difference within 1e-9."""
    rng = np.random.default_rng(31415926)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    sets, _ = _first_passing(
        lambda m: random_states(rng, (m, 4), 3),
        lambda s: np.min([np.abs(inner(s[:, i], s[:, j])) for i, j in pairs], axis=0) >= 0.05,
        500,
    )
    s1, s2, p_a, p_b = (sets[:, k] for k in range(4))
    direct = wrap_angle(three_vertex_phase(s1, s2, p_b) - three_vertex_phase(s1, s2, p_a))
    shift = phase_variation(s1, s2, p_a, p_b)
    worst = np.max(np.abs(wrap_angle(shift - direct)))
    return [Measurement("max|shift - direct|", worst, 1e-9, f"{len(sets)} state sets")]


@_criterion(7, "projection-chain")
def criterion_projection_chain() -> list[Measurement]:
    """Composed waveplate/PBS/up-conversion chain vs direct projection:
    200 random settings, |amplitude| and arm-amplitude ratios within 1e-12."""
    rng = np.random.default_rng(8086)

    def passes(angles):
        arm1, arm2, proj = make_triplet(TripletParams(*angles.T))
        d1, d2 = inner(proj, arm1), inner(proj, arm2)
        return np.minimum(abs(d1), abs(d2)) >= 0.05

    settings, _ = _first_passing(
        lambda m: rng.uniform((2.0, 0.0, 0.0), (88.0, 360.0, 360.0), size=(m, 3)), passes, 200
    )
    params = TripletParams(*settings.T)
    (arm1, arm2, proj), (_, _, psi3, psi3m) = make_triplet(params), make_states(params)
    arms = np.stack([arm1, arm2])
    direct, chain = inner(proj, arms), projection_chain_amplitude(arms, psi3, psi3m)
    ratio_err = np.abs(chain[0] / chain[1] - direct[0] / direct[1])
    over = f"{len(settings)} settings"
    return [
        Measurement("max |amp| err", np.max(np.abs(np.abs(chain) - np.abs(direct))), 1e-12, over),
        Measurement("max arm-ratio err", np.max(ratio_err), 1e-12, over),
    ]


@_criterion(8, "noise-robustness", seconds_limit=30.0)
def criterion_noise_robustness() -> list[Measurement]:
    """Poisson noise at 1e5 mean photons, 100 samples/trace, 1000 trials:
    phase error < 5 mrad in >= 99% of trials, and the 5 mrad bound is at least
    4 predicted sigma in every trial."""
    params = TripletParams(10.0, 120.0, 30.0)
    s1, s2, s3 = make_triplet(params)
    delta = default_delta_grid(100)
    mean_photons = 1e5
    truth = extract_fringe_phase(fringe_trace(s1, s2, s3, delta)).phase_rad

    # 1000 trials in one draw, the draws of 1000 single traces in turn
    trials = np.broadcast_to(np.asarray(s3), (1000, 3))
    traces = fringe_trace(s1, s2, trials, delta, noise_mean_photons=mean_photons, rng=987654321)
    fits = extract_fringe_phase(traces)
    n_ok = int(np.sum(np.abs(wrap_angle(fits.phase_rad - truth)) < 5e-3))
    # The delta-method sigma of a Poisson fit, sqrt(2 / sum(I)) / visibility,
    # in closed form on a uniform grid of n >= 4 samples over one full period.
    sigma_pred = np.max(np.sqrt(2.0 / traces.intensity.sum(-1)) / fits.visibility)
    return [
        Measurement("under 5 mrad", n_ok, 990, f"{len(fits.phase_rad)} trials", upper=False),
        Measurement("max predicted sigma (rad)", sigma_pred, 5e-3 / 4.0, f"{len(fits.phase_rad)} trials"),
    ]


def _offset_trials(rng: np.random.Generator):
    """Criterion 9's 500 trials of 50 phis (deg) and their noise, the numbers of per-trial uniform(0, 360, 50) and
    normal(0, 0.05, 50) draws: numpy makes those as 0 + 360 U and 0 + 0.05 Z, from unit draws filled in turn."""
    draws = np.empty((2, 500, 50))
    for phi_row, noise_row in zip(*draws):
        rng.random(out=phi_row)
        rng.standard_normal(out=noise_row)
    draws *= np.reshape((360.0, 0.05), (2, 1, 1))
    return draws


@_criterion(9, "offset-fitting")
def criterion_offset_fitting() -> list[Measurement]:
    """Recover a 0.3 rad offset from 50 noisy points (sigma = 0.05) within
    3*sigma/sqrt(n) in >= 99% of 500 trials."""
    theory = sweep_phi(10.0, 120.0, np.linspace(0.0, 360.0, 721))
    bound = 3.0 * 0.05 / math.sqrt(50.0)
    phis, noise = _offset_trials(np.random.default_rng(55555))
    gammas = analytic_total_phase(10.0, 120.0, phis) + 0.3 + noise  # the principal branch: the fit wraps
    fit = fit_offset(np.stack([phis, gammas], -1), theory)
    hits = int(np.sum(np.abs(wrap_angle(fit.offset_rad - 0.3)) <= bound))
    return [Measurement(f"within {bound:.4f} rad of the offset", hits, 495, "500 trials", upper=False)]


@_criterion(10, "figure-reproduction")
def criterion_figure_reproduction() -> list[Measurement]:
    """All figure panels present; every curve changes by exactly 4pi in
    magnitude per 360 deg (1e-6) and stays continuous (steps < pi/2)."""
    curves = [curve for _, curve in figures.figure_curves()]
    net_err = [abs(abs(c.net_change_rad) - 2.0 * math.tau) for c in curves]
    steps = [np.max(np.abs(np.diff(c.gamma_rad))) for c in curves]
    over = f"{len(curves)} curves"
    return [
        Measurement("panel curves", len(curves), len(figures.FIGURE_PANELS), upper=False),
        Measurement("max||net| - 4pi| (rad)", np.max(net_err), 1e-6, over),
        Measurement("max|step| (rad)", np.max(steps), math.pi / 2.0, over),
    ]


def run_all() -> list[CriterionResult]:
    return [spec.run() for spec in CRITERIA]
