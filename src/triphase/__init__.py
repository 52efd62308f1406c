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
    qubit_from_bloch,
    random_qubit,
    random_symmetric,
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
    analyzer_hwp_settings,
    default_delta_grid,
    delta_from_path_difference,
    extract_fringe_phase,
    fringe_trace,
    path_difference_from_delta,
    phase_variation,
    projection_amplitude,
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
    analytic_qubit_phase,
    analytic_total_phase,
    fit_offset,
    make_states,
    make_triplet,
    phase_slope,
    sweep_phi,
    total_phase_continuous,
)

__version__ = "0.1.0"
