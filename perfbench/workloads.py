"""Seeded workloads of the triphase benchmark and the checks on their outputs.

Each workload has three steps:

* the constructor draws every input from the seed, before any timing;
* ``run_pass(api, tracer, pace)`` calls the program once over those inputs
  and returns its outputs with one latency sample per operation; it calls
  ``pace()`` after each operation, outside the operation's latency;
* ``check(outputs)`` judges the outputs outside the timed region and
  returns a ``Tally``.

The program is reached only through ``program_api``: the public functions of
``triplet``, ``eraser``, ``figures``, ``cli`` and ``verify``, each wrapped in
a span when the pass is traced.
"""

from __future__ import annotations

import cmath
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from types import SimpleNamespace

import numpy as np

from triphase import cli, eraser, figures, triplet, verify
from triphase.core import QubitState, qutrit_inner, symmetrize, wrap_angle

CURVE_REQUESTS = 300
CHI_STEP = 15.0
FEWEST_POINTS = 37  # a step of at most 10 degrees
PROBE_REQUESTS = 400
ERASER_THETAS = 6
ERASER_CHIS = (0.0, 60.0, 120.0, 180.0)
ERASER_PHIS = tuple(float(p) for p in range(0, 360, 5))
ERASER_GRID = np.linspace(0.0, 360.0, 73)  # the measured phis plus 360
DELTA = eraser.default_delta_grid(100)
PHOTONS = 1e5
PREP_KINDS = ("quarter", "half")
H = QubitState(1.0, 0.0)

ROW_TOL = 1e-6
NET_TOL = 1e-6
INFIDELITY_TOL = 1e-6
OFFSET_SIGMAS = 5.0


def program_api(tracer) -> SimpleNamespace:
    """The public functions the workloads call, wrapped by ``tracer``."""
    w = tracer.wrap
    return SimpleNamespace(
        sweep_phi=w("triplet.sweep_phi", triplet.sweep_phi, rows_out=lambda c: c.phi_deg.size),
        make_triplet=w("triplet.make_triplet", triplet.make_triplet),
        fit_offset=w("triplet.fit_offset", triplet.fit_offset),
        figure_curves=w("figures.figure_curves", figures.figure_curves),
        phase_curve_csv=w("cli.phase_curve_csv", cli.phase_curve_csv),
        phase_curve_json=w("cli.phase_curve_json", cli.phase_curve_json),
        solve_waveplates=w("eraser.solve_waveplates", eraser.solve_waveplates),
        fringe_trace=w("eraser.fringe_trace", eraser.fringe_trace, samples=lambda t: t.delta_rad.size),
        extract_fringe_phase=w("eraser.extract_fringe_phase", eraser.extract_fringe_phase),
        criteria=[(s.name, w(f"verify.{s.name}", s.run)) for s in verify.CRITERIA],
    )


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # failures that returned a wrong result or raised an undocumented error
    reasons: Counter = field(default_factory=Counter)
    records: list = field(default_factory=list)

    def fail(self, reason: str, n: int = 1, wrong: bool = False) -> None:
        self.failed += n
        self.wrong += n if wrong else 0
        self.reasons[reason] += n

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong += other.wrong
        self.reasons.update(other.reasons)
        self.records.extend(other.records)


def _strata(rng, n: int) -> np.ndarray:
    """One uniform draw from each of n equal strata of [0, 1), shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def curve_problem(curve, oracle) -> str | None:
    """Why a returned one-period curve is wrong, or None.

    Rows must agree with the oracle relative to the first row, the net change
    must be 4 pi, and every step must stay below pi/2.
    """
    phi, gamma = curve.phi_deg, curve.gamma_rad
    ref = np.asarray(oracle(curve.theta_deg, curve.chi_deg, phi), dtype=float)
    if np.max(np.abs((gamma - gamma[0]) - (ref - ref[0]))) > ROW_TOL:
        return "rows"
    if abs(abs(gamma[-1] - gamma[0]) - 4.0 * math.pi) > NET_TOL:
        return "net"
    if np.max(np.abs(np.diff(gamma))) >= math.pi / 2.0:
        return "step"
    return None


def _no_pace() -> None:
    pass


def curve_draws(rng, n: int, whole_domain: bool):
    """n stratified one-period requests: (theta, chi, grid, phi range).

    Over the whole documented domain, theta is log-uniform on (0.1, 90) for
    half the requests and uniform on (90, 180) for the other half, chi is
    uniform on [0, 360) and a grid has 5 to 2001 points.  Otherwise theta is
    log-uniform on (0.1, 90), chi a multiple of ``CHI_STEP``, and a grid has
    ``FEWEST_POINTS`` to 2001 points and starts at least a quarter of the gap
    between two possible jump positions away from either.  Each grid spans
    one period from a start in [-360, 360), with a log-uniform point count.
    """
    if whole_domain:
        half = n // 2
        theta = np.concatenate([0.1 * 900.0 ** _strata(rng, half), 90.0 + 90.0 * _strata(rng, n - half)])
        chi = 360.0 * _strata(rng, n)
        start = -360.0 + 720.0 * _strata(rng, n)
        fewest = 5
    else:
        theta = 0.1 * 900.0 ** _strata(rng, n)
        chi = CHI_STEP * rng.permutation(np.arange(n) % round(360.0 / CHI_STEP))
        # jumps sit at 180 +- chi/2, on multiples of CHI_STEP / 2; a grid
        # starts and ends in the middle half of the gap between two of them
        gap = CHI_STEP / 2.0
        start = -360.0 + gap * (rng.permutation(np.arange(n) % round(720.0 / gap)) + 0.25 + 0.5 * _strata(rng, n))
        fewest = FEWEST_POINTS
    count = np.rint(fewest * (2001.0 / fewest) ** _strata(rng, n)).astype(int)
    return [
        (float(t), float(c), np.linspace(s, s + 360.0, k), (float(s), float(s) + 360.0, int(k)))
        for t, c, s, k in zip(theta[rng.permutation(n)], chi, start, count)
    ]


class Curves:
    """Phase-curve requests, plus the figure set.

    theta is log-uniform on (0.1, 90), chi a multiple of 15 degrees, and
    every grid one period with 37 to 2001 points from a start well away from
    any possible jump (see ``curve_draws``); half the curves are
    written as CSV, half as JSON.  Every dimension is stratified, so each seed carries about the same work.

    The benchmark needs workloads on which no operation fails, so the timed
    requests leave out theta above 90, chi off the 15-degree lattice, grids
    coarser than 10 degrees and grid ends near a jump: about one draw in
    eight over the whole documented domain ends in the known false
    ``GridTooCoarse``, and one in some 20 000 still does with only the first
    two left out.  ``probe_defect`` measures the rate over the whole domain.
    """

    name = "curves"

    def __init__(self, seed: int, requests: int = CURVE_REQUESTS, probes: int = PROBE_REQUESTS,
                 oracle=triplet.total_phase_continuous):
        rng = np.random.default_rng(seed)
        draws = curve_draws(rng, requests, whole_domain=False)
        # formats alternate in order of grid size, so every seed writes about
        # the same number of large grids as JSON, the slower format
        rank = np.argsort(np.argsort([grid.size for _, _, grid, _ in draws], kind="stable"))
        json_parity = rng.integers(2)
        self.requests = [(*draw, "json" if r % 2 == json_parity else "csv") for draw, r in zip(draws, rank)]
        self.probe = curve_draws(np.random.default_rng([seed, 1]), probes, whole_domain=True)
        self.oracle = oracle

    def run_pass(self, api, tracer, pace=_no_pace):
        outputs, latencies = [], []
        for k, (theta, chi, grid, phi_range, fmt) in enumerate(self.requests):
            tracer.op = k
            t0 = perf_counter()
            with tracer.span("curves.request"):
                try:
                    curve = api.sweep_phi(theta, chi, grid)
                    if fmt == "json":
                        text = api.phase_curve_json(curve, phi_range)
                    else:
                        text = api.phase_curve_csv(curve)
                    outputs.append((curve, text))
                except Exception as exc:
                    # judged in check(); a kept traceback would hold this
                    # frame, and with it every output of the pass, in a cycle
                    outputs.append(exc.with_traceback(None))
            latencies.append(perf_counter() - t0)
            pace()
        tracer.op = "figures"
        with tracer.span("curves.figures"):
            try:
                outputs.append(api.figure_curves())
            except Exception as exc:
                outputs.append(exc.with_traceback(None))
        return outputs, latencies

    def check(self, outputs) -> Tally:
        tally = Tally(attempted=len(outputs))
        for (theta, _, _, _, fmt), out in zip(self.requests, outputs):
            if isinstance(out, triplet.GridTooCoarse):
                tally.fail("GridTooCoarse")
                continue
            if isinstance(out, Exception):
                tally.fail(type(out).__name__, wrong=True)
                continue
            curve, text = out
            problem = curve_problem(curve, self.oracle)
            if problem is None:
                if fmt == "json":
                    rows = len(json.loads(text)["samples"])
                else:
                    rows = text.count("\n") - 1
                problem = None if rows == curve.phi_deg.size else "text"
            if problem:
                tally.fail(problem, wrong=True)
        figs = outputs[-1]
        if isinstance(figs, Exception):
            tally.fail(f"figures:{type(figs).__name__}", wrong=True)
        elif len(figs) != len(figures.FIGURE_PANELS) or any(
            curve_problem(c, self.oracle) for _, c in figs
        ):
            tally.fail("figures", wrong=True)
        return tally

    def probe_defect(self) -> tuple[float, Tally]:
        """Share of whole-domain sweeps that end in ``GridTooCoarse``.

        The sweeps run untimed and untraced.  A curve that comes back is
        checked like any other; a wrong one fails the tally.
        """
        tally, too_coarse = Tally(), 0
        for theta, chi, grid, _ in self.probe:
            try:
                problem = curve_problem(triplet.sweep_phi(theta, chi, grid), self.oracle)
            except triplet.GridTooCoarse:
                too_coarse += 1
                continue
            except Exception as exc:
                problem = type(exc).__name__
            if problem:
                tally.fail(f"probe:{problem}", wrong=True)
        return too_coarse / len(self.probe), tally


class EraserScan:
    """Simulated eraser experiments, one per theta.

    Each run prepares both anchor states from |H> with a quarter- plus
    half-wave chain, then for every chi scans phi in 5 degree steps; one
    measured setting (make_triplet, a Poisson fringe of 100 delta samples,
    the fringe fit) is one operation.  Each scan ends with the theory sweep
    and the offset fit of the measured phases against it.  theta is
    log-uniform on [2, 45], the range of the published panels.
    """

    name = "eraser-scan"

    def __init__(self, seed: int, thetas: int = ERASER_THETAS, oracle=triplet.total_phase_continuous):
        rng = np.random.default_rng(seed)
        theta = 2.0 * 22.5 ** _strata(rng, thetas)
        self.runs = []
        for t in theta:
            psi1, psi2, _, _ = triplet.make_states(triplet.TripletParams(float(t), 0.0, 0.0))
            seeds = rng.integers(0, 2**63, size=(len(ERASER_CHIS), len(ERASER_PHIS)))
            self.runs.append((float(t), (psi1, psi2), seeds))
        self.oracle = oracle

    def run_pass(self, api, tracer, pace=_no_pace):
        outputs, latencies = [], []
        for i, (theta, anchors, seeds) in enumerate(self.runs):
            tracer.op = f"{i}"
            with tracer.span("eraser.prepare"):
                try:
                    solutions = [api.solve_waveplates(a, PREP_KINDS, H) for a in anchors]
                except Exception as exc:
                    outputs.append((theta, exc.with_traceback(None), None))
                    continue
                arms = []
                for sol in solutions:
                    vec = H.vec
                    for setting in sol.settings:
                        vec = eraser.waveplate_matrix(setting) @ vec
                    prepared = QubitState(*vec)
                    arms.append(symmetrize(prepared, prepared))
            scans = []
            for c, chi in enumerate(ERASER_CHIS):
                measured = []
                for k, phi in enumerate(ERASER_PHIS):
                    tracer.op = f"{i}.{c}.{k}"
                    t0 = perf_counter()
                    with tracer.span("eraser.setting"):
                        projector = None
                        try:
                            _, _, projector = api.make_triplet(triplet.TripletParams(theta, chi, phi))
                            trace = api.fringe_trace(
                                arms[0], arms[1], projector, DELTA,
                                noise_mean_photons=PHOTONS, rng=int(seeds[c, k]),
                            )
                            measured.append((projector, api.extract_fringe_phase(trace)))
                        except Exception as exc:
                            measured.append((projector, exc.with_traceback(None)))
                    latencies.append(perf_counter() - t0)
                    pace()
                tracer.op = f"{i}.{c}"
                with tracer.span("eraser.scan"):
                    try:
                        theory = api.sweep_phi(theta, chi, ERASER_GRID)
                        points = [(p, f.phase_rad) for p, (_, f) in zip(ERASER_PHIS, measured)
                                  if not isinstance(f, Exception)]
                        fit = api.fit_offset(points, theory)
                        scans.append((chi, measured, theory, fit))
                    except Exception as exc:
                        scans.append((chi, measured, None, exc.with_traceback(None)))
            outputs.append((theta, [s.infidelity for s in solutions], (arms, scans)))
        return outputs, latencies

    def check(self, outputs) -> Tally:
        per_scan = len(ERASER_PHIS)
        tally = Tally(attempted=len(self.runs) * len(ERASER_CHIS) * per_scan)
        for theta, infidelities, result in outputs:
            if isinstance(infidelities, Exception):
                tally.fail(f"prepare:{type(infidelities).__name__}", len(ERASER_CHIS) * per_scan, wrong=True)
                continue
            if max(infidelities) > INFIDELITY_TOL:
                tally.fail("infidelity", len(ERASER_CHIS) * per_scan, wrong=True)
                continue
            arms, scans = result
            # fringe phase = three-vertex phase - arg<s2|s1>, so the offset of
            # the measured phases from the theory curve is -arg<s2|s1>
            truth = -cmath.phase(qutrit_inner(arms[1], arms[0]))
            for chi, measured, theory, fit in scans:
                bad = 0
                visibilities = []
                for projector, f in measured:
                    if isinstance(f, eraser.ZeroVisibility) and projector is not None and max(
                        abs(eraser.projection_amplitude(a, projector)) for a in arms
                    ) < 1e-12:
                        continue
                    if isinstance(f, Exception):
                        tally.fail(f"setting:{type(f).__name__}", wrong=True)
                        bad += 1
                    else:
                        visibilities.append(f.visibility)
                if isinstance(fit, Exception):
                    tally.fail(f"scan:{type(fit).__name__}", per_scan - bad, wrong=True)
                    continue
                # per-point shot-noise phase sigma of a fringe of visibility v,
                # peak PHOTONS and M samples is 2 / (v sqrt(PHOTONS M))
                sigma = 2.0 / (min(visibilities) * math.sqrt(PHOTONS * DELTA.size))
                bound = OFFSET_SIGMAS * sigma / math.sqrt(len(visibilities))
                err = abs(wrap_angle(fit.offset_rad - truth))
                tally.records.append({"theta_deg": theta, "chi_deg": chi, "offset_rad": fit.offset_rad,
                                      "expected_rad": truth, "error_rad": err, "bound_rad": bound})
                problem = curve_problem(theory, self.oracle) or ("offset" if err > bound else None)
                if problem:
                    tally.fail(problem, per_scan - bad, wrong=True)
        return tally


class Verify:
    """The ten acceptance criteria through their public functions; their
    seeds are fixed inside the program, so the workload seed is unused."""

    name = "verify"

    def __init__(self, seed: int):
        pass

    def run_pass(self, api, tracer, pace=_no_pace):
        outputs, latencies = [], []
        for name, run in api.criteria:
            tracer.op = name
            t0 = perf_counter()
            try:
                outputs.append(run())
            except Exception as exc:
                outputs.append(exc.with_traceback(None))
            latencies.append(perf_counter() - t0)
            pace()
        return outputs, latencies

    def check(self, outputs) -> Tally:
        tally = Tally(attempted=len(outputs))
        for out in outputs:
            if isinstance(out, Exception):
                tally.fail(type(out).__name__, wrong=True)
            elif not out.passed:
                tally.fail(out.name, wrong=True)
        return tally


WORKLOADS = {w.name: w for w in (Curves, EraserScan, Verify)}
