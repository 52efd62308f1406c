"""Parameter sets behind the theoretical phase-curve panels.

Three theta sweeps (at analyzer openings 0, 120, and 180 degrees) and one
chi sweep (at a 10 degree anchor half-angle); together these cover every
published curve family, including the merged 4-pi jump at chi = 0 and the
jump pair at 90/270 degrees for chi = 180.  Each curve spans one full 360
degree analyzer rotation.
"""

from __future__ import annotations

import numpy as np

from .triplet import PhaseCurve, sweep_phi

THETA_SET = (2.0, 10.0, 20.0, 45.0)
CHI_SET = (0.0, 60.0, 120.0, 180.0)
FIGURE_POINTS = 721  # phi samples of each panel, every half degree

FIGURE_PANELS: tuple[tuple[str, float, float], ...] = tuple(
    [(f"theta-sweep_chi0_theta{t:g}", t, 0.0) for t in THETA_SET]
    + [(f"theta-sweep_chi120_theta{t:g}", t, 120.0) for t in THETA_SET]
    + [(f"theta-sweep_chi180_theta{t:g}", t, 180.0) for t in THETA_SET]
    + [(f"chi-sweep_theta10_chi{c:g}", 10.0, c) for c in CHI_SET]
)


def figure_curves() -> list[tuple[str, PhaseCurve]]:
    """All panel curves over phi in [0, 360] degrees."""
    grid = np.linspace(0.0, 360.0, FIGURE_POINTS)
    return [(name, sweep_phi(theta, chi, grid)) for name, theta, chi in FIGURE_PANELS]
