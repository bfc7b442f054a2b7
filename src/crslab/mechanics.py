"""Analytic mechanics of the reinforcement beam on a Winkler foundation.

Covers the design-facing results: the trigonometric deflection series of the
point-loaded, axially compressed beam, the per-mode buckling critical loads,
the collapse index and its phase diagram, the axial length-change estimate,
the membrane strain of a stretch-based pixel surface (the trade-off the
beam skeleton avoids), and the amplitude range limits set by yield strain
and by boundary-servo travel.

Unit discipline: public signatures accept Young's modulus in Pa and every
length in mm; forces are N.  Internally everything is converted to the
consistent N-mm system (1 Pa = 1e-6 N/mm^2), so β is N/mm^2 (load per unit
length per unit deflection) and EI is N·mm^2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ._lazy import deferred
from .fields import BumpField1D, Lattice

brentq = deferred(globals(), "scipy.optimize", "brentq")

_PA_TO_NMM = 1e-6     # Pa -> N/mm^2


# ======================================================================
# specifications
# ======================================================================

@dataclass(frozen=True)
class BeamSpec:
    """Beam material and cross-section.

    youngs_modulus -- E in Pa
    width          -- w in mm (cross-section width)
    thickness      -- b in mm (cross-section thickness, the bent dimension)
    length         -- L in mm (total beam length)
    """

    youngs_modulus: float
    width: float
    thickness: float
    length: float

    def __post_init__(self):
        vals = (self.youngs_modulus, self.width, self.thickness, self.length)
        if not all(np.isfinite(v) and v > 0.0 for v in vals):
            raise ValueError("beam parameters must be positive and finite")

    @property
    def moment_of_inertia(self) -> float:
        """I = w b^3 / 12 in mm^4 (always derived, never stored)."""
        return self.width * self.thickness ** 3 / 12.0

    @property
    def area(self) -> float:
        """Cross-section area in mm^2."""
        return self.width * self.thickness

    @property
    def e_nmm(self) -> float:
        """Young's modulus in N/mm^2."""
        return self.youngs_modulus * _PA_TO_NMM


@dataclass(frozen=True)
class FoundationSpec:
    """Winkler foundation: reaction per unit length = β times deflection,
    β in N/mm^2."""

    winkler_coefficient: float

    def __post_init__(self):
        if not (np.isfinite(self.winkler_coefficient)
                and self.winkler_coefficient >= 0.0):
            raise ValueError("winkler coefficient must be >= 0")


@dataclass(frozen=True)
class LoadCase:
    """Point load P (N) at the support point, axial load N (N), wavelength
    l (mm), pixel spacing d (mm).  The canonical geometry has l = 3d."""

    point_load: float
    axial_load: float
    wavelength: float
    pixel_spacing: float = 0.0

    def __post_init__(self):
        if self.wavelength <= 0.0:
            raise ValueError("wavelength must be positive")
        if self.pixel_spacing == 0.0:
            object.__setattr__(self, "pixel_spacing", self.wavelength / 3.0)
        if self.pixel_spacing <= 0.0:
            raise ValueError("pixel spacing must be positive")


# ======================================================================
# deflection series and buckling
# ======================================================================

def critical_load(n: int, beam: BeamSpec, fnd: FoundationSpec, l: float) -> float:
    """Axial critical load of the n-th symmetric buckling mode (N).

    N_cr(n) = (16 pi^4 n^4 EI + 3 beta l^4) / (4 pi^2 n^2 l^2); this is
    exactly the axial load that zeroes the n-th denominator of the
    deflection series.
    """
    if n < 1:
        raise ValueError("mode number must be >= 1")
    if l <= 0.0 or not np.isfinite(l):
        raise ValueError("wavelength must be positive")
    ei = beam.e_nmm * beam.moment_of_inertia
    beta = fnd.winkler_coefficient
    n2 = float(n * n)
    return (16.0 * math.pi ** 4 * n2 * n2 * ei + 3.0 * beta * l ** 4) \
        / (4.0 * math.pi ** 2 * n2 * l * l)


def deflection_series(x, load: LoadCase, beam: BeamSpec, fnd: FoundationSpec,
                      n_max: int = 64):
    """Deflection y(x) in mm of the compressed beam under a point load.

    Evaluates the truncated trigonometric series

        y(x) = 4 P l^3 sum_n [1 - cos(n pi (l-d)/l)] [1 - cos(2 n pi x/l)]
                           / (16 pi^4 n^4 EI - 4 pi^2 n^2 l^2 N + 3 beta l^4)

    over n = 1..n_max.  The profile is periodic over one wavelength with the
    peak at the midpoint between the two loaded pixels; x is measured from a
    beam end over [0, l].  Raises when the axial load reaches any included
    mode's critical load (a denominator would hit zero or turn negative).
    """
    if n_max < 8:
        raise ValueError("n_max must be at least 8")
    x = np.asarray(x, dtype=float)
    l = load.wavelength
    d = load.pixel_spacing
    ei = beam.e_nmm * beam.moment_of_inertia
    beta = fnd.winkler_coefficient
    n = np.arange(1, n_max + 1, dtype=float)
    denom = (16.0 * math.pi ** 4 * n ** 4 * ei
             - 4.0 * math.pi ** 2 * n ** 2 * l * l * load.axial_load
             + 3.0 * beta * l ** 4)
    if np.any(denom <= 0.0):
        raise ValueError("axial load at buckling threshold")
    coeff = (1.0 - np.cos(n * math.pi * (l - d) / l)) / denom
    phases = 1.0 - np.cos(2.0 * math.pi * np.multiply.outer(x, n) / l)
    y = 4.0 * load.point_load * l ** 3 * (phases @ coeff)
    return float(y) if y.ndim == 0 else y


# ======================================================================
# collapse criterion
# ======================================================================

def collapse_index(youngs_modulus: float, inertia: float, beta: float,
                   d: float) -> float:
    """Collapse index Δ = 16 pi^4 E I / (27 beta d^4), dimensionless.

    E in Pa, I in mm^4, beta in N/mm^2, d in mm.  Δ < 1 predicts the beam
    collapsing into the foundation (third buckling mode governs); β = 0 is
    the rigid foundation-free limit where the index is not defined.
    """
    if beta == 0.0:
        raise ValueError("rigid-limit undefined")
    if beta < 0.0 or d <= 0.0 or inertia <= 0.0 or youngs_modulus <= 0.0:
        raise ValueError("collapse index needs positive E, I, beta, d")
    return 16.0 * math.pi ** 4 * (youngs_modulus * _PA_TO_NMM) * inertia \
        / (27.0 * beta * d ** 4)


def collapse_class(youngs_modulus: float, inertia: float, beta: float,
                   d: float) -> str:
    """"collapse" or "no-collapse"; β = 0 counts as no-collapse (infinitely
    stiff beam relative to the foundation)."""
    if beta == 0.0:
        return "no-collapse"
    return "collapse" if collapse_index(youngs_modulus, inertia, beta, d) < 1.0 \
        else "no-collapse"


@dataclass(frozen=True)
class PhaseDiagram:
    """Collapse classification over a (E/β, I/d^4) grid.

    e_over_beta -- material axis values (dimensionless, with E in N/mm^2)
    i_over_d4   -- geometric axis values (dimensionless)
    delta       -- (n_material, n_geometry) grid of Δ values
    collapse    -- boolean grid, True where Δ < 1
    """

    e_over_beta: np.ndarray
    i_over_d4: np.ndarray
    delta: np.ndarray
    collapse: np.ndarray

    @staticmethod
    def boundary_i_over_d4(e_over_beta) -> np.ndarray:
        """The Δ = 1 contour: (E/β)(I/d^4) = 27 / (16 pi^4)."""
        return 27.0 / (16.0 * math.pi ** 4) / np.asarray(e_over_beta, dtype=float)


def phase_diagram(e_over_beta_range: Tuple[float, float],
                  i_over_d4_range: Tuple[float, float],
                  resolution: int = 64, log_spacing: bool = True) -> PhaseDiagram:
    """Classify collapse over a rectangular parameter grid.

    Both axes are dimensionless ratios; E/β values are taken with E already
    in N/mm^2 so that Δ = (16 pi^4 / 27)(E/β)(I/d^4) holds verbatim.
    """
    for rng in (e_over_beta_range, i_over_d4_range):
        if rng[0] <= 0.0 or rng[1] <= rng[0]:
            raise ValueError("axis ranges must be positive and increasing")
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    space = np.geomspace if log_spacing else np.linspace
    mat = space(e_over_beta_range[0], e_over_beta_range[1], resolution)
    geo = space(i_over_d4_range[0], i_over_d4_range[1], resolution)
    delta = (16.0 * math.pi ** 4 / 27.0) * np.multiply.outer(mat, geo)
    return PhaseDiagram(mat, geo, delta, delta < 1.0)


# ======================================================================
# design checks
# ======================================================================

@dataclass(frozen=True)
class LengthChange:
    """Axial shortening when the beam is loaded to the first critical load.

    exact   -- N_cr(1) L / (E A) in mm
    approx  -- the material-independent estimate pi^2 b^2 L / (3 l^2)
    rel_gap -- |exact - approx| / approx
    """

    exact: float
    approx: float
    rel_gap: float


def length_change(beam: BeamSpec, fnd: FoundationSpec, l: float) -> LengthChange:
    """Length change at the first buckling load, exact and approximate.

    The approximation drops the foundation term of N_cr(1) and is accurate
    when the collapse index is large (stiff beam, soft foundation).
    """
    n_cr1 = critical_load(1, beam, fnd, l)
    exact = n_cr1 * beam.length / (beam.e_nmm * beam.area)
    approx = math.pi ** 2 * beam.thickness ** 2 * beam.length / (3.0 * l * l)
    return LengthChange(exact, approx, abs(exact - approx) / approx)


def membrane_strain(cell_size: float, displacement: float) -> float:
    """Surface strain of a stretch-based pixel cell displaced out of plane.

    Tent model: a membrane of width c pinned at both rims and lifted by h at
    the centre stretches to 2 sqrt((c/2)^2 + h^2), giving
    strain = 2 sqrt((c/2)^2 + h^2) / c - 1.
    """
    if cell_size <= 0.0:
        raise ValueError("cell size must be positive")
    if displacement < 0.0:
        raise ValueError("displacement must be >= 0")
    return 2.0 * math.hypot(0.5 * cell_size, displacement) / cell_size - 1.0


@dataclass(frozen=True)
class RangeLimits:
    """Maximum displayable bump amplitude (mm) and which constraint binds.

    curvature_limited -- amplitude at which the peak bending strain of the
                         raised-cosine profile reaches the yield strain
    travel_limited    -- amplitude whose arc-length excess equals the
                         boundary servo travel
    amplitude         -- min of the two
    governing         -- "curvature" or "travel"
    """

    curvature_limited: float
    travel_limited: float

    @property
    def amplitude(self) -> float:
        return min(self.curvature_limited, self.travel_limited)

    @property
    def governing(self) -> str:
        return "curvature" if self.curvature_limited <= self.travel_limited \
            else "travel"


def range_limits(beam: BeamSpec, yield_strain: float, servo_travel: float,
                 lattice: Optional[Lattice] = None,
                 wavelength: Optional[float] = None) -> RangeLimits:
    """Amplitude limits of the displayed raised-cosine bump.

    The wavelength defaults to three lattice pitches (the canonical display
    geometry) when a lattice is given; passing wavelength explicitly
    overrides it.

    Curvature limit: the profile's peak curvature is A (2 pi / l)^2 / 2 and
    the outer-fibre strain is curvature times b/2, so
    A_max = yield_strain l^2 / (pi^2 b).  Travel limit: the amplitude whose
    arc-length excess (by quadrature) equals the servo travel, found by
    bracketed root solving.  The first call binds SciPy's quad and brentq,
    which imports SciPy (crslab._lazy).

    Raises ValueError, naming the argument, for a yield_strain,
    servo_travel or wavelength that is not finite and positive, before any
    quadrature.
    """
    if wavelength is None:
        if lattice is None:
            raise ValueError("need a lattice or an explicit wavelength")
        wavelength = 3.0 * lattice.pitch
    for name, value in (("yield_strain", yield_strain),
                        ("servo_travel", servo_travel),
                        ("wavelength", wavelength)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, "
                             f"got {value!r}")
    l = wavelength
    a_curv = yield_strain * l * l / (math.pi ** 2 * beam.thickness)

    def excess_minus_travel(a: float) -> float:
        fld = BumpField1D(0.0, a, l)
        return fld.arc_excess(-0.5 * l, 0.5 * l) - servo_travel

    # small-slope guess excess ~ pi^2 A^2 / (4 l); expand until bracketed
    a_hi = 2.0 * math.sqrt(4.0 * l * servo_travel) / math.pi
    while excess_minus_travel(a_hi) < 0.0:
        a_hi *= 2.0
    a_travel = brentq(excess_minus_travel, 1e-12 * l, a_hi,
                      xtol=1e-10 * l, rtol=1e-12)
    return RangeLimits(a_curv, float(a_travel))
