"""Reconstruction models: what the display actually shows.

Three families, mirroring the three interpixel connection types:

* zero-order hold (``NearestProfile``): every point takes the height of its
  nearest pixel, so the displayed shape is a staircase over Voronoi cells;
* linear connection (``LinearProfile1D`` / ``LinearSurface2D``): piecewise
  linear between adjacent pixels, barycentric over a fixed triangulation
  in 2D;
* continuity reinforcement skeleton (``CrsProfile1D`` / ``CrsSurface2D``):
  elastic beams pinned to the pixels and end-compressed by the arc-length
  excess of the target shape, solved as constrained elasticas.

All profile objects are callables over positions.  ``extended`` evaluates
with zero outside the display hull, which is the convention the distortion
metrics integrate under.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .elastica import (ElasticaConvergenceError, ElasticaSettings,
                       ElasticaSolution, solve_elastica_1d)
from .fields import (BeamLine, BumpField1D, BumpField2D, Lattice, PixelHeights,
                     sample_pixels)

_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class ReconstructionModel:
    """A display model selector.

    variant  -- "pixel-only", "linear", or "crs"
    settings -- elastica solver settings (crs only); None uses defaults
    """

    variant: str
    settings: Optional[ElasticaSettings] = None

    def __post_init__(self):
        if self.variant not in ("pixel-only", "linear", "crs"):
            raise ValueError(f"unknown model variant: {self.variant!r}")
        if self.variant == "crs" and self.settings is None:
            object.__setattr__(self, "settings", ElasticaSettings())


# ======================================================================
# zero-order hold
# ======================================================================

class NearestProfile:
    """Staircase reconstruction: nearest pixel's height everywhere."""

    kind = "staircase"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        self.heights = np.asarray(heights, dtype=float)
        self.lattice = lattice
        if self.heights.shape[0] != lattice.n_pixels:
            raise ValueError("one height per pixel required")

    def __call__(self, *point):
        p = _pack_points(point, self.lattice.ndim)
        return self.heights[self.lattice.nearest_index(p)]

    def extended(self, *point):
        p = _pack_points(point, self.lattice.ndim)
        vals = self.heights[self.lattice.nearest_index(p)]
        return np.where(self.lattice.contains(p), vals, 0.0)


def reconstruct_nearest(heights: PixelHeights, lattice: Lattice, point):
    """Height of the pixel nearest to point (ties to the lower-indexed
    pixel).  point may be a scalar/array in 1D or an (n, 2) array in 2D."""
    out = NearestProfile(heights, lattice)(point)
    out = np.asarray(out)
    return out.item() if out.size == 1 else out


# ======================================================================
# linear connection
# ======================================================================

class LinearProfile1D:
    """Piecewise-linear interpolation between adjacent 1D pixels."""

    kind = "linear"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        if lattice.kind != "line":
            raise ValueError("LinearProfile1D needs a line lattice")
        self.heights = np.asarray(heights, dtype=float)
        self.lattice = lattice

    def __call__(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if not np.all(self.lattice.contains(x)):
            raise ValueError("extrapolation not defined")
        return np.interp(x, self.lattice.positions, self.heights)

    def extended(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        inside = self.lattice.contains(x)
        vals = np.interp(x, self.lattice.positions, self.heights)
        return np.where(inside, vals, 0.0)


class LinearSurface2D:
    """Barycentric interpolation over a fixed triangulation of the lattice.

    Square lattices split every cell along the diagonal from the lower-left
    to the upper-right pixel.  Hexagonal lattices use the natural axial
    triangulation into upward and downward unit triangles.
    """

    kind = "linear"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        if lattice.kind not in ("square", "hexagonal"):
            raise ValueError("LinearSurface2D needs a 2D lattice")
        self.heights = np.asarray(heights, dtype=float)
        self.lattice = lattice

    def __call__(self, *point):
        p = _pack_points(point, 2)
        vals, ok = self._interp(p)
        if not np.all(ok):
            raise ValueError("extrapolation not defined")
        return vals

    def extended(self, *point):
        p = _pack_points(point, 2)
        vals, ok = self._interp(p)
        return np.where(ok, vals, 0.0)

    # ------------------------------------------------------------------

    def _interp(self, p: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        lat = self.lattice
        inside = lat.contains(p)
        if lat.kind == "square":
            vals = self._interp_square(p)
        else:
            vals = self._interp_hex(p)
        return vals, inside

    def _interp_square(self, p: np.ndarray) -> np.ndarray:
        lat = self.lattice
        nx, ny = lat.grid_shape
        ox, oy = lat.origin2d
        fx = np.clip((p[:, 0] - ox) / lat.pitch, 0.0, nx - 1.0)
        fy = np.clip((p[:, 1] - oy) / lat.pitch, 0.0, ny - 1.0)
        ix = np.minimum(np.floor(fx).astype(np.int64), nx - 2)
        iy = np.minimum(np.floor(fy).astype(np.int64), ny - 2)
        u = fx - ix
        v = fy - iy
        h = self.heights
        z00 = h[iy * nx + ix]
        z10 = h[iy * nx + ix + 1]
        z01 = h[(iy + 1) * nx + ix]
        z11 = h[(iy + 1) * nx + ix + 1]
        lower = u >= v       # triangle (00, 10, 11); upper is (00, 11, 01)
        vals_lo = z00 * (1.0 - u) + z10 * (u - v) + z11 * v
        vals_hi = z00 * (1.0 - v) + z11 * u + z01 * (v - u)
        return np.where(lower, vals_lo, vals_hi)

    def _interp_hex(self, p: np.ndarray) -> np.ndarray:
        lat = self.lattice
        qf, rf = lat.fractional_axial(p)
        vals = np.zeros(p.shape[0])
        qi = np.floor(qf).astype(np.int64)
        ri = np.floor(rf).astype(np.int64)
        u = qf - qi
        v = rf - ri
        up = (u + v) <= 1.0
        # upward triangle vertices (q, r), (q+1, r), (q, r+1); downward
        # triangle vertices (q+1, r+1), (q, r+1), (q+1, r)
        w0 = np.where(up, 1.0 - u - v, u + v - 1.0)
        w1 = np.where(up, u, 1.0 - u)
        w2 = np.where(up, v, 1.0 - v)
        a0 = np.where(up, qi, qi + 1)
        b0 = np.where(up, ri, ri + 1)
        a1 = np.where(up, qi + 1, qi)
        b1 = np.where(up, ri, ri + 1)
        a2 = np.where(up, qi, qi + 1)
        b2 = np.where(up, ri + 1, ri)
        for w, a, b in ((w0, a0, b0), (w1, a1, b1), (w2, a2, b2)):
            idx = lat.axial_index(a, b)
            # missing vertices only occur for points outside the hull (or on
            # its boundary within roundoff); their weight is zeroed here and
            # the caller masks them out
            safe = idx >= 0
            vals += np.where(safe, w * self.heights[np.where(safe, idx, 0)], 0.0)
        return vals


def reconstruct_linear(heights: PixelHeights, lattice: Lattice, point):
    """Linear-connection height at point; errors outside the pixel hull."""
    if lattice.kind == "line":
        out = LinearProfile1D(heights, lattice)(point)
    else:
        out = LinearSurface2D(heights, lattice)(point)
    out = np.asarray(out)
    return out.item() if out.size == 1 else out


# ======================================================================
# CRS reconstruction
# ======================================================================

class CrsProfile1D:
    """The buckled-beam profile over a 1D lattice for one target field."""

    kind = "continuous"

    def __init__(self, field: BumpField1D, lattice: Lattice,
                 settings: Optional[ElasticaSettings] = None):
        if lattice.kind != "line":
            raise ValueError("CrsProfile1D needs a line lattice")
        self.field = field
        self.lattice = lattice
        self.wavelength = field.wavelength
        x0, x1 = lattice.hull_bounds()
        heights = sample_pixels(field, lattice)
        excess = field.arc_excess(x0, x1)
        constraints = np.column_stack([lattice.positions, heights])
        self.solution: ElasticaSolution = solve_elastica_1d(
            constraints, excess, settings=settings,
            initial=_hint_curve_1d(field, x0, x1))
        self.heights = heights

    def __call__(self, x):
        return self.solution.profile(x)

    def extended(self, x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.where(self.lattice.contains(x), self.solution.profile(x), 0.0)


def reconstruct_crs_1d(field: BumpField1D, lattice: Lattice,
                       settings: Optional[ElasticaSettings] = None) -> CrsProfile1D:
    """Displayed profile of the 1D CRS device for a single bump target.

    Pixel heights sample the field; the end compression equals the arc
    length excess of the target over the beam span, which is what the
    boundary servo plan injects for this field.
    """
    return CrsProfile1D(field, lattice, settings)


class CrsSurface2D:
    """The beam-network surface over a 2D lattice for one target field.

    Every pixel row of the lattice carries an independent beam; each beam is
    solved as a 1D elastica in its own vertical plane with the excess of the
    target restricted to that line.  Between beams, the surface is
    inverse-distance-weighted (exponent 2) over the lines bounding the
    lattice cell containing the query point, which reproduces each beam
    exactly on its own line.  Outside the pixel hull the surface is zero.
    """

    kind = "continuous"

    def __init__(self, field: BumpField2D, lattice: Lattice,
                 settings: Optional[ElasticaSettings] = None):
        if lattice.kind not in ("square", "hexagonal"):
            raise ValueError("CrsSurface2D needs a 2D lattice")
        self.field = field
        self.lattice = lattice
        self.wavelength = field.wavelength
        self.beams: List[BeamLine] = lattice.beam_lines()
        self.solutions: List[ElasticaSolution] = []
        for beam in self.beams:
            restr = field.along_line(beam.origin, beam.direction)
            heights = restr(beam.stations)
            excess = restr.arc_excess(0.0, beam.span)
            constraints = np.column_stack([beam.stations, heights])
            hint = None
            sup = restr.support()
            if sup is not None and sup[1] > 0.0 and sup[0] < beam.span:
                n_h = max(1025, int(math.ceil(beam.span / field.wavelength)) * 256 + 1)
                hs = np.linspace(0.0, beam.span, n_h)
                hint = (hs, restr(hs))
            self.solutions.append(
                solve_elastica_1d(constraints, excess, settings=settings,
                                  initial=hint))
        self._index_beams()

    @classmethod
    def from_state(cls, lattice: Lattice, heights: PixelHeights,
                   beam_excess, settings: Optional[ElasticaSettings] = None,
                   hint_field: Optional[BumpField2D] = None,
                   wavelength: Optional[float] = None,
                   hints: Optional[dict] = None,
                   strict: bool = True) -> "CrsSurface2D":
        """Surface from raw display state instead of a target field.

        heights     -- actual pixel heights, lattice enumeration order
        beam_excess -- arc-length excess per beam, beam_lines() order
        hint_field  -- optional target field used only to seed the solves
        hints       -- optional {beam index: (x, y) polyline} warm starts,
                       taking precedence over hint_field
        strict      -- when False, beams that stop above tolerance keep
                       their best iterate instead of raising (useful for
                       transient states mid-motion)
        """
        obj = object.__new__(cls)
        obj.field = hint_field
        obj.lattice = lattice
        obj.wavelength = wavelength if wavelength is not None else \
            (hint_field.wavelength if hint_field is not None else None)
        obj.beams = lattice.beam_lines()
        obj.solutions = []
        heights = np.asarray(heights, dtype=float)
        excess = np.asarray(beam_excess, dtype=float)
        if excess.shape[0] != len(obj.beams):
            raise ValueError("one excess per beam line required")
        for i, beam in enumerate(obj.beams):
            h = heights[beam.pixel_idx]
            constraints = np.column_stack([beam.stations, h])
            hint = hints.get(i) if hints else None
            if hint is None and hint_field is not None:
                restr = hint_field.along_line(beam.origin, beam.direction)
                sup = restr.support()
                if sup is not None and sup[1] > 0.0 and sup[0] < beam.span:
                    n_h = max(1025, int(math.ceil(
                        beam.span / hint_field.wavelength)) * 256 + 1)
                    hs = np.linspace(0.0, beam.span, n_h)
                    hint = (hs, restr(hs))
            try:
                sol = solve_elastica_1d(constraints, float(excess[i]),
                                        settings=settings, initial=hint)
            except ElasticaConvergenceError as err:
                if strict:
                    raise
                sol = err.solution
            obj.solutions.append(sol)
        obj._index_beams()
        return obj

    # ------------------------------------------------------------------

    def _index_beams(self) -> None:
        """Key -> beam lookup tables per direction family."""
        lat = self.lattice
        if lat.kind == "square":
            nx, ny = lat.grid_shape
            self._fam_table = (np.full(ny, -1, dtype=np.int64),
                               np.full(nx, -1, dtype=np.int64))
            self._fam_base = (0, 0)
            for i, beam in enumerate(self.beams):
                self._fam_table[beam.family][beam.key] = i
        else:
            keys = [np.array([b.key for b in self.beams if b.family == f],
                             dtype=np.int64) for f in range(3)]
            lo = [int(k.min()) if k.size else 0 for k in keys]
            hi = [int(k.max()) if k.size else -1 for k in keys]
            self._fam_table = tuple(
                np.full(hi[f] - lo[f] + 1, -1, dtype=np.int64) for f in range(3))
            self._fam_base = tuple(lo)
            for i, beam in enumerate(self.beams):
                self._fam_table[beam.family][beam.key - lo[beam.family]] = i

    def _beam_id(self, family: int, key: np.ndarray) -> np.ndarray:
        table = self._fam_table[family]
        k = key - self._fam_base[family]
        valid = (k >= 0) & (k < table.shape[0])
        return np.where(valid, table[np.clip(k, 0, table.shape[0] - 1)], -1)

    def __call__(self, *point):
        p = _pack_points(point, 2)
        inside = self.lattice.contains(p)
        out = np.zeros(p.shape[0])
        if np.any(inside):
            out[inside] = self._idw(p[inside])
        return out

    def extended(self, *point):
        return self.__call__(*point)

    # ------------------------------------------------------------------

    def _idw(self, p: np.ndarray) -> np.ndarray:
        lat = self.lattice
        if lat.kind == "square":
            ids, dists, svals = self._cell_lines_square(p)
        else:
            ids, dists, svals = self._cell_lines_hex(p)
        vals = self._line_values(ids, svals)
        tol = 1e-9 * lat.pitch
        hit = dists <= tol
        any_hit = np.any(hit, axis=1)
        with np.errstate(divide="ignore"):
            w = 1.0 / np.square(np.maximum(dists, tol))
        w = np.where(ids >= 0, w, 0.0)
        num = np.sum(w * vals, axis=1)
        den = np.sum(w, axis=1)
        idw = num / np.where(den > 0.0, den, 1.0)
        n_hit = np.sum(hit & (ids >= 0), axis=1)
        exact = np.sum(np.where(hit & (ids >= 0), vals, 0.0), axis=1) \
            / np.maximum(n_hit, 1)
        return np.where(any_hit, exact, idw)

    def _cell_lines_square(self, p):
        lat = self.lattice
        nx, ny = lat.grid_shape
        ox, oy = lat.origin2d
        fx = np.clip((p[:, 0] - ox) / lat.pitch, 0.0, nx - 1.0)
        fy = np.clip((p[:, 1] - oy) / lat.pitch, 0.0, ny - 1.0)
        ix = np.minimum(np.floor(fx).astype(np.int64), nx - 2)
        iy = np.minimum(np.floor(fy).astype(np.int64), ny - 2)
        # bounding lines: rows iy, iy+1 (family 0) and columns ix, ix+1
        # (family 1); distances are plain coordinate offsets
        ids = np.column_stack([self._beam_id(0, iy), self._beam_id(0, iy + 1),
                               self._beam_id(1, ix), self._beam_id(1, ix + 1)])
        yr0 = oy + iy * lat.pitch
        xc0 = ox + ix * lat.pitch
        dists = np.column_stack([np.abs(p[:, 1] - yr0),
                                 np.abs(p[:, 1] - (yr0 + lat.pitch)),
                                 np.abs(p[:, 0] - xc0),
                                 np.abs(p[:, 0] - (xc0 + lat.pitch))])
        svals = self._station_values(p, ids)
        return ids, dists, svals

    def _cell_lines_hex(self, p):
        lat = self.lattice
        qf, rf = lat.fractional_axial(p)
        qi = np.floor(qf).astype(np.int64)
        ri = np.floor(rf).astype(np.int64)
        u = qf - qi
        v = rf - ri
        up = (u + v) <= 1.0
        # bounding lines of the upward triangle: r = ri (family 0), q = qi
        # (family 1), q + r = qi + ri + 1 (family 2); the downward triangle
        # swaps the first two to r = ri + 1 and q = qi + 1
        key0 = np.where(up, ri, ri + 1)
        key1 = np.where(up, qi, qi + 1)
        key2 = qi + ri + 1
        ids = np.column_stack([self._beam_id(0, key0), self._beam_id(1, key1),
                               self._beam_id(2, key2)])
        # perpendicular distances: the axial fractions are affine in
        # position, and one axial unit spans a row spacing of sqrt(3)/2 * d
        row = _SQRT3 / 2.0 * lat.pitch
        dists = np.column_stack([np.abs(rf - key0) * row,
                                 np.abs(qf - key1) * row,
                                 np.abs((qf + rf) - key2) * row])
        svals = self._station_values(p, ids)
        return ids, dists, svals

    def _station_values(self, p, ids):
        svals = np.zeros_like(ids, dtype=float)
        for col in range(ids.shape[1]):
            col_ids = ids[:, col]
            for b in np.unique(col_ids[col_ids >= 0]):
                sel = col_ids == b
                beam = self.beams[b]
                svals[sel, col] = (p[sel] - beam.origin) @ beam.direction
        return svals

    def _line_values(self, ids, svals):
        vals = np.zeros_like(svals)
        for col in range(ids.shape[1]):
            col_ids = ids[:, col]
            for b in np.unique(col_ids[col_ids >= 0]):
                sel = col_ids == b
                vals[sel, col] = self.solutions[b].profile(svals[sel, col])
        return vals


def reconstruct_crs_2d(field: BumpField2D, lattice: Lattice,
                       settings: Optional[ElasticaSettings] = None) -> CrsSurface2D:
    """Displayed surface of a 2D CRS device for a single bump target."""
    return CrsSurface2D(field, lattice, settings)


def crs_surface_from_state(lattice: Lattice, heights: PixelHeights,
                           beam_excess, **kwargs) -> CrsSurface2D:
    """Surface of the beam network for raw (heights, compressions) state,
    bypassing the target field.  See CrsSurface2D.from_state."""
    return CrsSurface2D.from_state(lattice, heights, beam_excess, **kwargs)


# ======================================================================
# model dispatch
# ======================================================================

def build_profile(model: ReconstructionModel, field, lattice: Lattice):
    """Construct the displayed profile/surface of a model for one field."""
    if model.variant == "crs":
        if lattice.kind == "line":
            return CrsProfile1D(field, lattice, model.settings)
        return CrsSurface2D(field, lattice, model.settings)
    heights = sample_pixels(field, lattice)
    if model.variant == "pixel-only":
        return NearestProfile(heights, lattice)
    if lattice.kind == "line":
        return LinearProfile1D(heights, lattice)
    return LinearSurface2D(heights, lattice)


# ======================================================================
# helpers
# ======================================================================

def _pack_points(point, ndim: int) -> np.ndarray:
    """Normalize call arguments to (n,) in 1D or (n, 2) in 2D."""
    if ndim == 1:
        if len(point) != 1:
            raise ValueError("1D profiles take a single position argument")
        return np.atleast_1d(np.asarray(point[0], dtype=float))
    if len(point) == 2:
        x, y = np.broadcast_arrays(np.asarray(point[0], dtype=float),
                                   np.asarray(point[1], dtype=float))
        return np.column_stack([np.ravel(x), np.ravel(y)])
    p = np.asarray(point[0], dtype=float)
    return np.atleast_2d(p)


def _hint_curve_1d(field: BumpField1D, x0: float, x1: float):
    n = max(2049, int(math.ceil((x1 - x0) / field.wavelength)) * 256 + 1)
    xs = np.linspace(x0, x1, n)
    return (xs, field(xs))
