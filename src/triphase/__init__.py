"""Three-vertex geometric phases in two-photon polarization qutrits.

Complex-arithmetic phase primitives (states, overlaps, Majorana
decomposition, Bloch geometry), the analytic standard-triplet curve family
with jump diagnostics, and a Jones-calculus quantum-eraser interferometer
simulation with fringe-phase extraction.
"""

from .core import (
    BlochVector,
    DegenerateTriangle,
    QubitState,
    SymmetricState,
    UndefinedPhase,
    bloch_from_qubit,
    inner,
    majorana_decompose,
    random_states,
    spherical_triangle_signed_area,
    symmetrize,
    three_vertex_phase,
    wrap_angle,
)
from .eraser import (
    FringeFit,
    FringeTrace,
    Unreachable,
    WaveplateSetting,
    WaveplateSolution,
    ZeroVisibility,
    default_delta_grid,
    extract_fringe_phase,
    fringe_trace,
    phase_variation,
    projection_chain_amplitude,
    solve_waveplates,
    waveplate_matrix,
)
from .triplet import (
    GridTooCoarse,
    InsufficientData,
    OffsetFit,
    PhaseCurve,
    PhaseJump,
    TripletParams,
    analytic_total_phase,
    fit_offset,
    make_states,
    make_triplet,
    sweep_phi,
    total_phase_continuous,
)

__version__ = "0.1.0"
