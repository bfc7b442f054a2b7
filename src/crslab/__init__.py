"""crslab: a numerical laboratory for pixel-based haptic displays.

The package models displays made of discrete height pixels, optionally
laced with slender elastic beams (a continuity-reinforcement skeleton)
that buckle between pixels and interpolate the rendered surface.  It
provides target shape fields, display lattices, surface reconstruction
models, beam mechanics, Monte Carlo distortion metrics, and a servo-level
rendering simulator, plus a command line harness for reproducible runs.

Import loads NumPy only; SciPy loads at the first beam solve, arc integral
or root find.
"""
from .elastica import (
    ElasticaConvergenceError,
    ElasticaError,
    ElasticaSolution,
    InfeasibleExcessError,
    solve_elastica_1d,
)
from .fields import (
    BumpField1D,
    BumpField2D,
    Lattice,
    PixelHeights,
    bump1d,
    bump2d,
    make_lattice,
    sample_pixels,
)
from .reconstruct import (
    CrsProfile1D,
    CrsSurface2D,
    LinearProfile1D,
    LinearSurface2D,
    NearestProfile,
    ReconstructionModel,
    build_profile,
)
from .mechanics import (
    BeamSpec,
    FoundationSpec,
    LengthChange,
    LoadCase,
    PhaseDiagram,
    RangeLimits,
    collapse_class,
    collapse_index,
    critical_load,
    deflection_series,
    length_change,
    membrane_strain,
    phase_diagram,
    range_limits,
)
from .distortion import (
    DistortionEstimate,
    NoPeakError,
    PeakResult,
    PowerLawFit,
    SweepConfig,
    distortion_sweep,
    find_peak,
    fit_power_law,
    lattice_for,
    position_distortion,
    shape_distortion,
    sweep_fits,
)
from .control import (
    CompressionPlan,
    FingertipSample,
    ServoSpec,
    SessionConfig,
    SessionLog,
    compression_plan,
    pixel_commands,
    read_trace,
    render_target,
    run_session,
    step_servos,
    write_command_log,
    write_trace,
)

__version__ = "0.1.0"

__all__ = [
    "BeamSpec",
    "BumpField1D",
    "BumpField2D",
    "CompressionPlan",
    "CrsProfile1D",
    "CrsSurface2D",
    "DistortionEstimate",
    "ElasticaConvergenceError",
    "ElasticaError",
    "ElasticaSolution",
    "FingertipSample",
    "FoundationSpec",
    "InfeasibleExcessError",
    "Lattice",
    "LengthChange",
    "LinearProfile1D",
    "LinearSurface2D",
    "LoadCase",
    "NearestProfile",
    "NoPeakError",
    "PeakResult",
    "PhaseDiagram",
    "PixelHeights",
    "PowerLawFit",
    "RangeLimits",
    "ReconstructionModel",
    "ServoSpec",
    "SessionConfig",
    "SessionLog",
    "SweepConfig",
    "bump1d",
    "bump2d",
    "build_profile",
    "collapse_class",
    "collapse_index",
    "compression_plan",
    "critical_load",
    "deflection_series",
    "distortion_sweep",
    "find_peak",
    "fit_power_law",
    "lattice_for",
    "length_change",
    "make_lattice",
    "membrane_strain",
    "phase_diagram",
    "pixel_commands",
    "position_distortion",
    "range_limits",
    "read_trace",
    "render_target",
    "run_session",
    "sample_pixels",
    "shape_distortion",
    "solve_elastica_1d",
    "step_servos",
    "sweep_fits",
    "write_command_log",
    "write_trace",
    "__version__",
]
