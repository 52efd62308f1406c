"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report; ``triphase verify`` prints the same lines.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import triphase
from triphase import figures, verify
from triphase.core import inner, normalize, random_states, symmetrize
from triphase.eraser import default_delta_grid, fringe_trace
from triphase.triplet import (
    PhaseJump,
    TripletParams,
    analytic_total_phase,
    fit_offset,
    make_triplet,
    sweep_phi,
)


# Sample counts each detail must keep: the seeds, draw order (rejection
# redraws included) and grids are part of the contract.
PINNED_COUNTS = {
    1: "over 5732 samples; 1433 singular skips",
    4: "(0 redraws)",
    6: "over 500 state sets",
    7: "over 200 settings",
    8: "1000/1000 trials",
    9: "499/500 trials",
}


@pytest.mark.parametrize(
    "spec", verify.CRITERIA, ids=[f"{s.index:02d}-{s.name}" for s in verify.CRITERIA]
)
def test_criterion(spec):
    result = spec.run()
    print(result.line())
    assert result.passed, result.line()
    assert PINNED_COUNTS.get(spec.index, "") in result.detail, result.line()


def test_batched_draws_match_per_draw_loops():
    # the rejection loops of criteria 4, 6 and 7 and the trials of criteria 5, 8
    # and 9 draw in batches; the loops that draw one at a time are the reference
    def loop(draw, passes, n):
        kept, rejected = [], 0
        while len(kept) < n:
            candidate = draw()
            if passes(candidate):
                kept.append(candidate)
            else:
                rejected += 1
        return kept, rejected

    pairs = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    rng = np.random.default_rng(31415926)
    want, want_rejected = loop(
        lambda: [random_states(rng, (), 3) for _ in range(4)],
        lambda s: min(abs(inner(s[i], s[j])) for i, j in pairs) >= 0.3,
        50,
    )
    rng = np.random.default_rng(31415926)
    got, rejected = verify._first_passing(
        lambda m: random_states(rng, (m, 4), 3),
        lambda s: np.min([np.abs(inner(s[:, i], s[:, j])) for i, j in pairs], axis=0) >= 0.3,
        50,
    )
    assert rejected == want_rejected > 0
    assert np.allclose(got, want, rtol=0, atol=1e-15)

    rng = np.random.default_rng(8086)
    want, want_rejected = loop(
        lambda: [rng.uniform(2.0, 88.0), rng.uniform(0.0, 360.0), rng.uniform(0.0, 360.0)],
        lambda a: a[0] > 45.0,
        50,
    )
    rng = np.random.default_rng(8086)
    got, rejected = verify._first_passing(
        lambda m: rng.uniform((2.0, 0.0, 0.0), (88.0, 360.0, 360.0), size=(m, 3)),
        lambda a: a[:, 0] > 45.0,
        50,
    )
    assert rejected == want_rejected > 0
    assert np.array_equal(got, want)

    # criterion 5 draws its near-degenerate pairs one by one and normalizes them at once
    rng = np.random.default_rng(6021023)
    states, pairs = random_states(rng, (900,), 3), []
    for _ in range(100):
        p = random_states(rng, (), 2)
        eps = 10.0 ** rng.uniform(-10.0, -4.0)
        pairs.append((p, p + eps * (rng.normal(size=2) + 1j * rng.normal(size=2))))
    p, q = np.moveaxis(pairs, 1, 0)
    want, want_next = np.concatenate([states, symmetrize(p, normalize(q))]), rng.random()
    rng = np.random.default_rng(6021023)
    got = verify._majorana_states(rng)
    assert rng.random() == want_next
    assert got.shape == want.shape == (1000, 3)
    # batch and scalar abs run different loops: the states agree to rounding
    scale = np.max(np.abs(want), -1, keepdims=True)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(scale))

    # criterion 8 draws its 1000 noisy traces at once
    s1, s2, s3 = make_triplet(TripletParams(10.0, 120.0, 30.0))
    delta = default_delta_grid(100)
    rng = np.random.default_rng(987654321)
    want = [fringe_trace(s1, s2, s3, delta, noise_mean_photons=1e5, rng=rng).intensity for _ in range(1000)]
    trials = np.broadcast_to(np.asarray(s3), (1000, 3))
    got = fringe_trace(s1, s2, trials, delta, noise_mean_photons=1e5, rng=987654321).intensity
    assert np.array_equal(got, want)

    # criterion 9 fills its trials with unit draws and fits the offsets at once
    theory = sweep_phi(10.0, 120.0, np.linspace(0.0, 360.0, 721))
    rng = np.random.default_rng(55555)
    want_phis, want_noise, want = [], [], []
    for _ in range(500):
        phis, noise = rng.uniform(0.0, 360.0, size=50), rng.normal(0.0, 0.05, size=50)
        gammas = np.interp(phis, theory.phi_deg, theory.gamma_rad) + 0.3 + noise
        want.append(fit_offset(np.column_stack([phis, gammas]), theory).offset_rad)
        want_phis.append(phis)
        want_noise.append(noise)
    want_next = rng.random()
    rng = np.random.default_rng(55555)
    phis, noise = verify._offset_trials(rng)
    assert rng.random() == want_next
    assert phis.tobytes() == np.array(want_phis).tobytes()
    assert noise.tobytes() == np.array(want_noise).tobytes()
    gammas = theory.gamma_at(phis) + 0.3 + noise
    assert np.array_equal(fit_offset(np.stack([phis, gammas], -1), theory).offset_rad, want)


def test_off_poles_equals_the_modulo_mask_on_the_full_grid():
    # the mask is made over chi and phi alone, with np.fmod, and indexes the grid of the broadcast axes;
    # the reference takes % on the full meshgrid
    rng = np.random.default_rng(43)
    chis = np.concatenate([[0.0, 60.0, 120.0, 180.0, 359.5], rng.uniform(0.0, 360.0, 6)])
    phis = np.concatenate([np.arange(0.0, 360.0, 0.5), rng.uniform(0.0, 360.0, 300)])
    for margin, axes in ((0.5, (rng.uniform(1.0, 90.0, 3), chis, phis)), (1.0, (chis, phis)), (7.25, (chis, phis))):
        grid = np.meshgrid(*axes, indexing="ij")
        keep = True
        for pole in ((180.0 - grid[-2] / 2.0) % 360.0, (180.0 + grid[-2] / 2.0) % 360.0):
            d = np.abs(grid[-1] - pole) % 360.0
            keep = keep & (np.minimum(d, 360.0 - d) >= margin)
        shaped, index = verify._off_poles(margin, *axes)
        assert [x.tobytes() for x in shaped] == [np.asarray(x).tobytes() for x in axes]
        assert all(g.tobytes() == x.tobytes() for g, x in zip(np.broadcast_arrays(*shaped), grid))
        assert 0 < index.size < keep.size and index.tobytes() == np.flatnonzero(keep).tobytes()


def test_sign_flip_mutation_is_caught(monkeypatch):
    # a sign error in the analytic curve formulas must trip the oracle check
    def flipped_total(theta, chi, phi):
        return -analytic_total_phase(theta, chi, phi)

    def flipped_first_term(theta, chi, phi):
        # the unmirrored qubit phase -2 atan(tan(theta/2) tan(chi/4 + phi/2)) with its sign flipped
        unmirrored = -2.0 * np.arctan(np.tan(np.radians(theta) / 2.0) * np.tan(np.radians(chi / 4.0 + phi / 2.0)))
        return analytic_total_phase(theta, chi, phi) - 2.0 * unmirrored

    for mutant in (flipped_total, flipped_first_term):
        monkeypatch.setattr(verify, "analytic_total_phase", mutant)
        result = verify.criterion_oracle_equivalence()
        assert not result.passed


def test_pass_rule_at_the_bound_and_for_nan():
    # an upper bound passes strictly below, a lower bound (a count) at or above
    assert not verify.Measurement("err", 1e-9, 1e-9).passed
    assert verify.Measurement("hits", 495, 495, upper=False).passed
    for upper in (True, False):
        assert not verify.Measurement("x", math.nan, 1.0, upper=upper).passed
    assert verify.Measurement("err", 0.5, 1.0, "3 samples").fragment() == "err=5.000e-01 (< 1) over 3 samples"
    assert verify.Measurement("within 0.02", 499, 495, "500 trials", upper=False).fragment() == (
        "499/500 trials within 0.02 (>= 495)"
    )


def test_nan_curves_fail(monkeypatch):
    # every jump and phase NaN, with the jump counts kept: the worst values are NaN
    def nan_curve(curve):
        nan_jumps = [PhaseJump(math.nan, math.nan, math.nan) for _ in curve.jumps]
        return curve._replace(gamma_rad=np.full_like(curve.gamma_rad, math.nan), jumps=nan_jumps)

    sweep, panels = verify.sweep_phi, figures.figure_curves
    monkeypatch.setattr(verify, "sweep_phi", lambda *args: nan_curve(sweep(*args)))
    monkeypatch.setattr(figures, "figure_curves", lambda: [(name, nan_curve(c)) for name, c in panels()])
    for spec in verify.CRITERIA:
        if spec.index in (2, 3, 10):
            result = spec.run()
            assert not result.passed, result.line()
            assert "nan" in result.detail, result.line()


def test_verify_loads_numpy_random_on_import_and_the_package_does_not():
    # numpy (2 and later) imports numpy.random on first use: loaded by the import of
    # triphase.verify, it is timed in no criterion; import triphase alone adds nothing to numpy's own
    env = dict(os.environ, PYTHONPATH=str(Path(triphase.__file__).resolve().parents[1]))
    code = (
        "import sys, numpy\n"
        "loaded = lambda: 'numpy.random' in sys.modules\n"
        "with_numpy = loaded()\n"
        "import triphase\n"
        "with_package = loaded()\n"
        "import triphase.verify\n"
        "print(with_numpy, with_package, loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    with_numpy, with_package, with_verify = proc.stdout.split()
    assert with_package == with_numpy and with_verify == "True"
