"""Acceptance verification suite with pinned tolerances.

Each criterion runs one self-contained check and returns a CriterionResult;
the CLI command ``triphase verify`` and tests/test_acceptance.py both consume
the same functions, so a green suite here is the definition of done.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import figures
from .core import (
    PHASE_SINGULAR_TOL,
    QubitState,
    SymmetricState,
    _unit,
    bloch_from_qubit,
    inner,
    majorana_decompose,
    random_qubit,
    random_symmetric,
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
    projection_amplitude,
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

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self, with_timing: bool = True) -> str:
        status = "PASS" if self.passed else "FAIL"
        suffix = f" [{self.seconds:.2f}s]" if with_timing else ""
        return f"{status} {self.index:02d} {self.name}: {self.detail}{suffix}"


def _off_poles(margin: float, *grid):
    """The grid points whose phi (deg, last) is at least ``margin`` from both
    formula poles 180 +- chi/2 (chi second to last), circularly."""
    keep = True
    for pole in ((180.0 - grid[-2] / 2.0) % 360.0, (180.0 + grid[-2] / 2.0) % 360.0):
        d = np.abs(grid[-1] - pole) % 360.0
        keep = keep & (np.minimum(d, 360.0 - d) >= margin)
    return [x[keep] for x in grid]


def _haar(rng: np.random.Generator, shape: tuple, dim: int) -> np.ndarray:
    """Haar-random states of shape (*shape, dim), drawn as the same number of
    random_qubit (dim 2) or random_symmetric (dim 3) calls would draw them."""
    z = rng.normal(size=(*shape, 2, dim))
    return np.stack(_unit(list(np.moveaxis(z[..., 0, :] + 1j * z[..., 1, :], -1, 0))), -1)


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


def criterion_oracle_equivalence(total_phase_fn=analytic_total_phase) -> CriterionResult:
    """Analytic curve formulas against direct overlap-product arithmetic.

    Grid: theta in {2,10,20,45,90} x chi in {0,60,120,180} x phi step 1 deg,
    excluding 0.5 deg around the formula poles.  At theta = 90 the two anchor
    states are orthogonal, so the direct route is singular for every phi
    (its UndefinedPhase guard fires); those samples are tallied, required to
    occur only there, and the theta = 90 analytic values are validated
    against the direct route just inside the singular point instead.
    ``total_phase_fn`` broadcasts over arrays.
    """
    t0 = time.perf_counter()
    theta, chi, phi = _off_poles(0.5, *np.meshgrid(
        (2.0, 10.0, 20.0, 45.0, 90.0), (0.0, 60.0, 120.0, 180.0), np.arange(0.0, 360.0, 1.0), indexing="ij"
    ))
    s1, s2, s3 = make_triplet(TripletParams(theta, chi, phi))
    singular = np.abs(inner(s1, s3) * inner(s3, s2) * inner(s2, s1)) < PHASE_SINGULAR_TOL
    n_singular = int(singular.sum())
    n_bad_singular = int(np.sum(singular & (np.abs(inner(s2, s1)) >= 1e-12)))
    ok = ~singular
    direct = three_vertex_phase(s1[ok], s2[ok], s3[ok])
    diff = np.abs(wrap_angle(total_phase_fn(theta[ok], chi[ok], phi[ok]) - direct))
    worst = float(np.max(diff, initial=0.0))
    n_compared = int(ok.sum())

    # theta = 90 row: validate the analytic values in the limit.  The offset
    # keeps the anchor overlap above the UndefinedPhase guard while bounding
    # the curve shift by |dgamma/dtheta| <= 2, i.e. below ~4e-5 rad.
    eps = 1e-3
    chi, phi = _off_poles(
        1.0, *np.meshgrid((0.0, 60.0, 120.0, 180.0), np.arange(3.0, 360.0, 7.0), indexing="ij")
    )
    lim = three_vertex_phase(*make_triplet(TripletParams(90.0 - eps, chi, phi)))
    worst_limit = float(np.max(np.abs(wrap_angle(total_phase_fn(90.0, chi, phi) - lim))))

    seconds = time.perf_counter() - t0
    passed = (
        worst < 1e-9
        and n_bad_singular == 0
        and n_singular > 0
        and worst_limit < 1e-4
        and seconds < 5.0
    )
    detail = (
        f"max|diff|={worst:.3e} over {n_compared} samples; "
        f"{n_singular} singular skips (theta=90 row only: {n_bad_singular == 0}); "
        f"theta=90 limit err={worst_limit:.3e}"
    )
    return CriterionResult(1, "oracle-equivalence", passed, detail, seconds)


def criterion_jump_law() -> CriterionResult:
    """Jump centers at 180 +- chi/2 (0.1 deg), |rise| = 2pi (1e-6);
    merged single |4pi| rise at 180 for chi = 0."""
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 360.0, 721)
    problems = []
    worst_center = 0.0
    worst_rise = 0.0
    for chi in (60.0, 120.0, 180.0):
        curve = sweep_phi(10.0, chi, grid)
        expected = sorted([180.0 - chi / 2.0, 180.0 + chi / 2.0])
        if len(curve.jumps) != 2:
            problems.append(f"chi={chi:g}: {len(curve.jumps)} jumps")
            continue
        centers = sorted(j.phi_center_deg for j in curve.jumps)
        for got, want in zip(centers, expected):
            worst_center = max(worst_center, abs(got - want))
        rises = [j.rise_rad for j in curve.jumps]
        for r in rises:
            worst_rise = max(worst_rise, abs(abs(r) - TWO_PI))
        if len({math.copysign(1.0, r) for r in rises}) != 1:
            problems.append(f"chi={chi:g}: mixed jump signs")
        if abs(sum(rises) - curve.net_change_rad) > 1e-6:
            problems.append(f"chi={chi:g}: rises do not add up to the net change")
    curve0 = sweep_phi(10.0, 0.0, grid)
    if len(curve0.jumps) != 1:
        problems.append(f"chi=0: {len(curve0.jumps)} jumps (expected 1 merged)")
    else:
        jump = curve0.jumps[0]
        worst_center = max(worst_center, abs(jump.phi_center_deg - 180.0))
        worst_rise = max(worst_rise, abs(abs(jump.rise_rad) - 2.0 * TWO_PI))
    seconds = time.perf_counter() - t0
    passed = not problems and worst_center < 0.1 and worst_rise < 1e-6
    detail = (
        f"max center err={worst_center:.3e} deg, max |rise| err={worst_rise:.3e} rad"
        + ("; " + "; ".join(problems) if problems else "")
    )
    return CriterionResult(2, "jump-law", passed, detail, seconds)


def criterion_steepening() -> CriterionResult:
    """10-90% jump widths strictly decrease for theta 20 -> 10 -> 5 -> 2 at chi=120."""
    t0 = time.perf_counter()
    grid = np.linspace(0.0, 360.0, 721)
    widths = []
    ok = True
    for theta in (20.0, 10.0, 5.0, 2.0):
        curve = sweep_phi(theta, 120.0, grid)
        if len(curve.jumps) != 2:
            ok = False
            break
        widths.append([j.width_deg for j in curve.jumps])
    if ok:
        for j in range(2):
            seq = [w[j] for w in widths]
            ok = ok and all(b < a for a, b in zip(seq, seq[1:]))
    seconds = time.perf_counter() - t0
    detail = "widths(deg) per theta 20/10/5/2: " + (
        "; ".join(",".join(f"{w:.4f}" for w in row) for row in widths) if widths else "n/a"
    )
    return CriterionResult(3, "steepening", ok, detail, seconds)


def criterion_area_phase() -> CriterionResult:
    """1000 random qubit triples: wrap(gamma + Omega/2) = 0 within 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    triples, redraws = _first_passing(
        lambda m: _haar(rng, (m, 3), 2),
        lambda t: np.abs(inner(t[:, 0], t[:, 2]) * inner(t[:, 2], t[:, 1]) * inner(t[:, 1], t[:, 0])) >= 1e-6,
        1000,
    )
    a, b, c = triples[:, 0], triples[:, 1], triples[:, 2]
    gamma = three_vertex_phase(a, b, c)
    omega = spherical_triangle_signed_area(bloch_from_qubit(a), bloch_from_qubit(b), bloch_from_qubit(c))
    worst = float(np.max(np.abs(wrap_angle(gamma + omega / 2.0))))
    seconds = time.perf_counter() - t0
    passed = worst < 1e-9
    detail = f"max|wrap(gamma + Omega/2)|={worst:.3e} over {len(triples)} triples ({redraws} redraws)"
    return CriterionResult(4, "area-phase-law", passed, detail, seconds)


def criterion_majorana_roundtrip() -> CriterionResult:
    """1000 random symmetric states (100 near-degenerate): roundtrip fidelity >= 1 - 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6021023)
    worst = 1.0
    for _ in range(900):
        s = random_symmetric(rng)
        p, q = majorana_decompose(s)
        worst = min(worst, abs(inner(symmetrize(p, q), s)))
    for _ in range(100):
        p = random_qubit(rng)
        eps = 10.0 ** rng.uniform(-10.0, -4.0)
        dz = rng.normal(size=2) + 1j * rng.normal(size=2)
        q = QubitState.of(*(p.vec + eps * dz))
        s = symmetrize(p, q)
        pp, qq = majorana_decompose(s)
        worst = min(worst, abs(inner(symmetrize(pp, qq), s)))
    seconds = time.perf_counter() - t0
    passed = worst >= 1.0 - 1e-9
    detail = f"min roundtrip fidelity={worst:.15f} over 1000 states"
    return CriterionResult(5, "majorana-roundtrip", passed, detail, seconds)


def criterion_eraser_equivalence() -> CriterionResult:
    """500 random state sets (pairwise overlaps >= 0.05): noiseless fringe-shift
    difference equals the direct three-vertex phase difference within 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(31415926)
    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    sets, _ = _first_passing(
        lambda m: _haar(rng, (m, 4), 3),
        lambda s: np.min([np.abs(inner(s[:, i], s[:, j])) for i, j in pairs], axis=0) >= 0.05,
        500,
    )
    s1, s2, p_a, p_b = (sets[:, k] for k in range(4))
    direct = wrap_angle(three_vertex_phase(s1, s2, p_b) - three_vertex_phase(s1, s2, p_a))
    shift = np.array([phase_variation(*(SymmetricState(*v) for v in states)) for states in sets])
    worst = float(np.max(np.abs(wrap_angle(shift - direct))))
    seconds = time.perf_counter() - t0
    passed = worst < 1e-9
    detail = f"max|shift - direct|={worst:.3e} over {len(sets)} state sets"
    return CriterionResult(6, "eraser-equivalence", passed, detail, seconds)


def criterion_projection_chain() -> CriterionResult:
    """Composed waveplate/PBS/up-conversion chain vs direct projection:
    200 random settings, |amplitude| and arm-amplitude ratios within 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(8086)

    def passes(angles):
        arm1, arm2, proj = make_triplet(TripletParams(*angles.T))
        d1, d2 = projection_amplitude(arm1, proj), projection_amplitude(arm2, proj)
        return np.minimum(abs(d1), abs(d2)) >= 0.05

    settings, _ = _first_passing(
        lambda m: rng.uniform((2.0, 0.0, 0.0), (88.0, 360.0, 360.0), size=(m, 3)), passes, 200
    )
    worst_mag = 0.0
    worst_ratio = 0.0
    for angles in settings:
        params = TripletParams(*map(float, angles))
        (arm1, arm2, proj), (_, _, psi3, psi3m) = make_triplet(params), make_states(params)
        d1, d2 = projection_amplitude(arm1, proj), projection_amplitude(arm2, proj)
        c1 = projection_chain_amplitude(arm1, psi3, psi3m)
        c2 = projection_chain_amplitude(arm2, psi3, psi3m)
        worst_mag = max(worst_mag, abs(abs(c1) - abs(d1)), abs(abs(c2) - abs(d2)))
        worst_ratio = max(worst_ratio, abs(c1 / c2 - d1 / d2))
    seconds = time.perf_counter() - t0
    passed = worst_mag < 1e-12 and worst_ratio < 1e-12
    detail = (
        f"max |amp| err={worst_mag:.3e}, max arm-ratio err={worst_ratio:.3e} over {len(settings)} settings"
    )
    return CriterionResult(7, "projection-chain", passed, detail, seconds)


def criterion_noise_robustness() -> CriterionResult:
    """Poisson noise at 1e5 mean photons, 100 samples/trace, 1000 trials:
    phase error < 5 mrad in >= 99% of trials; the 5 mrad bound is pre-validated
    against the linear-fit covariance."""
    t0 = time.perf_counter()
    params = TripletParams(10.0, 120.0, 30.0)
    s1, s2, s3 = make_triplet(params)
    delta = default_delta_grid(100)
    mean_photons = 1e5
    truth = extract_fringe_phase(fringe_trace(s1, s2, s3, delta)).phase_rad

    # Covariance oracle for the tolerance: per-sample Poisson variance equals
    # the expected count; the fit is linear so the phase error follows by the
    # delta method from cov(B, C).
    r = projection_amplitude(s1, s3)
    q = projection_amplitude(s2, s3)
    ideal = np.abs(r * np.exp(1j * delta) + q) ** 2
    lam = mean_photons * ideal / (abs(r) + abs(q)) ** 2
    design = np.column_stack([np.ones_like(delta), np.cos(delta), np.sin(delta)])
    normal_inv = np.linalg.inv(design.T @ design)
    cov = normal_inv @ design.T @ np.diag(lam) @ design @ normal_inv
    coef = normal_inv @ design.T @ lam
    b, c = coef[1], coef[2]
    grad = np.array([-c, b]) / (b * b + c * c)
    sigma_pred = math.sqrt(grad @ cov[1:, 1:] @ grad)
    tolerance_validated = 5e-3 > 4.0 * sigma_pred

    rng = np.random.default_rng(987654321)
    n_ok = 0
    for _ in range(1000):
        trace = fringe_trace(s1, s2, s3, delta, noise_mean_photons=mean_photons, rng=rng)
        fit = extract_fringe_phase(trace)
        if abs(wrap_angle(fit.phase_rad - truth)) < 5e-3:
            n_ok += 1
    seconds = time.perf_counter() - t0
    passed = n_ok >= 990 and tolerance_validated and seconds < 30.0
    detail = (
        f"{n_ok}/1000 trials under 5 mrad; predicted sigma={sigma_pred * 1e3:.3f} mrad "
        f"(tolerance = {5e-3 / sigma_pred:.1f} sigma)"
    )
    return CriterionResult(8, "noise-robustness", passed, detail, seconds)


def criterion_offset_fitting() -> CriterionResult:
    """Recover a 0.3 rad offset from 50 noisy points (sigma = 0.05) within
    3*sigma/sqrt(n) in >= 99% of 500 trials."""
    t0 = time.perf_counter()
    theory = sweep_phi(10.0, 120.0, np.linspace(0.0, 360.0, 721))
    rng = np.random.default_rng(55555)
    bound = 3.0 * 0.05 / math.sqrt(50.0)
    hits = 0
    for _ in range(500):
        phis = rng.uniform(0.0, 360.0, size=50)
        gammas = (
            np.interp(phis, theory.phi_deg, theory.gamma_rad)
            + 0.3
            + rng.normal(0.0, 0.05, size=50)
        )
        fit = fit_offset(np.column_stack([phis, gammas]), theory)
        if abs(wrap_angle(fit.offset_rad - 0.3)) <= bound:
            hits += 1
    seconds = time.perf_counter() - t0
    passed = hits >= 495
    detail = f"{hits}/500 trials within {bound:.4f} rad of the injected offset"
    return CriterionResult(9, "offset-fitting", passed, detail, seconds)


def criterion_figure_reproduction() -> CriterionResult:
    """All figure panels present; every curve changes by exactly 4pi in
    magnitude per 360 deg (1e-6) and stays continuous (steps < pi/2)."""
    t0 = time.perf_counter()
    curves = figures.figure_curves()
    problems = []
    if len(curves) != len(figures.FIGURE_PANELS):
        problems.append(f"{len(curves)} curves for {len(figures.FIGURE_PANELS)} panels")
    for name, curve in curves:
        net = curve.net_change_rad
        if abs(abs(net) - 2.0 * TWO_PI) > 1e-6:
            problems.append(f"{name}: |net|={abs(net):.9f}")
        if float(np.max(np.abs(np.diff(curve.gamma_rad)))) >= math.pi / 2.0:
            problems.append(f"{name}: discontinuous")
    seconds = time.perf_counter() - t0
    passed = not problems
    detail = f"{len(curves)} panel curves, |net| = 4pi and continuity verified" + (
        "; " + "; ".join(problems) if problems else ""
    )
    return CriterionResult(10, "figure-reproduction", passed, detail, seconds)


class CriterionSpec(NamedTuple):
    index: int
    name: str
    run: Callable[[], CriterionResult]


CRITERIA: list[CriterionSpec] = [
    CriterionSpec(1, "oracle-equivalence", criterion_oracle_equivalence),
    CriterionSpec(2, "jump-law", criterion_jump_law),
    CriterionSpec(3, "steepening", criterion_steepening),
    CriterionSpec(4, "area-phase-law", criterion_area_phase),
    CriterionSpec(5, "majorana-roundtrip", criterion_majorana_roundtrip),
    CriterionSpec(6, "eraser-equivalence", criterion_eraser_equivalence),
    CriterionSpec(7, "projection-chain", criterion_projection_chain),
    CriterionSpec(8, "noise-robustness", criterion_noise_robustness),
    CriterionSpec(9, "offset-fitting", criterion_offset_fitting),
    CriterionSpec(10, "figure-reproduction", criterion_figure_reproduction),
]


def run_all() -> list[CriterionResult]:
    return [spec.run() for spec in CRITERIA]
