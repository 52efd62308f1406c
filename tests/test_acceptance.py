"""Acceptance gate: every criterion at its pinned tolerance, one line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report; ``triphase verify`` prints the same lines.
"""

import numpy as np
import pytest

from triphase import verify
from triphase.core import inner, random_symmetric
from triphase.triplet import analytic_qubit_phase, analytic_total_phase


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
    # the rejection loops of criteria 4, 6 and 7 draw in batches; the loop
    # that redraws each rejected candidate is the reference
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
        lambda: [random_symmetric(rng).vec for _ in range(4)],
        lambda s: min(abs(inner(s[i], s[j])) for i, j in pairs) >= 0.3,
        50,
    )
    rng = np.random.default_rng(31415926)
    got, rejected = verify._first_passing(
        lambda m: verify._haar(rng, (m, 4), 3),
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


def test_sign_flip_mutation_is_caught():
    # a sign error in the analytic curve formulas must trip the oracle check
    def flipped_total(theta, chi, phi):
        return -analytic_total_phase(theta, chi, phi)

    def flipped_first_term(theta, chi, phi):
        return -analytic_qubit_phase(theta, chi, phi) + analytic_qubit_phase(
            theta, chi, phi, mirrored=True
        )

    for mutant in (flipped_total, flipped_first_term):
        result = verify.criterion_oracle_equivalence(total_phase_fn=mutant)
        assert not result.passed
