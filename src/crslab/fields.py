"""Target shapes and pixel lattices for pixel-based haptic displays.

Target surfaces are raised-cosine bumps: single-peaked cosine profiles of
amplitude ``A`` and wavelength ``l`` that are identically zero outside a
support of width ``l`` centred on the peak.  The profile and its first
derivative are continuous everywhere, including at the support boundary.

Displays are lattices of height pixels.  Three kinds are supported:

* ``line``       -- a 1D row of pixels with pitch ``d``;
* ``square``     -- a square grid with pitch ``d``;
* ``hexagonal``  -- a triangular grid with nearest-neighbour distance ``d``,
  whose Voronoi cells are regular hexagons of apothem ``d/2``.

All lengths are millimetres.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Tuple

import numpy as np

from ._lazy import deferred

quad = deferred(globals(), "scipy.integrate", "quad")

Array = np.ndarray

# Per-pixel off-plane displacement (mm), aligned with Lattice pixel order.
PixelHeights = np.ndarray

_SQRT3 = math.sqrt(3.0)


# ======================================================================
# Bump fields
# ======================================================================

def _raised_cosine(dist: Array, amplitude: float, wavelength: float) -> Array:
    """Radial raised-cosine profile: (A/2)(1 + cos(2*pi*dist/l)) inside
    dist <= l/2, exactly zero outside."""
    dist = np.asarray(dist, dtype=float)
    inside = dist <= 0.5 * wavelength
    phase = 2.0 * np.pi * np.where(inside, dist, 0.0) / wavelength
    val = 0.5 * amplitude * (1.0 + np.cos(phase))
    return np.where(inside, val, 0.0)


@dataclass(frozen=True)
class BumpField1D:
    """A raised-cosine bump along a line.

    peak        -- x position of the maximum (mm)
    amplitude   -- peak height A (mm); >= 0, with 0 meaning a flat field
                   (a released display renders nothing)
    wavelength  -- support width l (mm), > 0; the field vanishes for
                   |x - peak| >= l/2
    """

    peak: float
    amplitude: float
    wavelength: float

    def __post_init__(self):
        if not (np.isfinite(self.peak) and np.isfinite(self.amplitude)
                and np.isfinite(self.wavelength)):
            raise ValueError("bump parameters must be finite")
        if self.amplitude < 0.0 or self.wavelength <= 0.0:
            raise ValueError("amplitude must be >= 0 and wavelength positive")

    def __call__(self, x: Array) -> Array:
        return bump1d(x, self)

    def slope(self, x: float) -> float:
        """dz/dx at a scalar x (mm/mm), as the arc-excess quadrature calls
        it: one point at a time."""
        wl = self.wavelength
        dist = abs(x - self.peak)
        if dist > 0.5 * wl:
            return 0.0
        s = -(self.amplitude * math.pi / wl) * math.sin(2.0 * math.pi * dist / wl)
        return s if x >= self.peak else -s

    def support(self) -> Tuple[float, float]:
        half = 0.5 * self.wavelength
        return (self.peak - half, self.peak + half)

    def arc_excess(self, x0: float, x1: float) -> float:
        """Arc length of the profile over [x0, x1] minus the chord (x1 - x0)."""
        return _arc_excess(self.slope, self.support(), x0, x1)


@dataclass(frozen=True)
class BumpField2D:
    """A radially symmetric raised-cosine bump in the plane.

    The height at distance r from the peak is (A/2)(1 + cos(2*pi*r/l))
    for r <= l/2 and zero beyond, so the support is a disc of radius l/2.
    """

    peak: Tuple[float, float]
    amplitude: float
    wavelength: float

    def __post_init__(self):
        px, py = self.peak
        if not (np.isfinite(px) and np.isfinite(py) and np.isfinite(self.amplitude)
                and np.isfinite(self.wavelength)):
            raise ValueError("bump parameters must be finite")
        if self.amplitude < 0.0 or self.wavelength <= 0.0:
            raise ValueError("amplitude must be >= 0 and wavelength positive")

    def __call__(self, x: Array, y: Array) -> Array:
        return bump2d(x, y, self)

    def support_radius(self) -> float:
        return 0.5 * self.wavelength

    def along_line(self, origin: Array, direction: Array) -> "LineRestriction":
        """Restrict the field to the line origin + s*direction (unit vector)."""
        origin = np.asarray(origin, dtype=float)
        direction = np.asarray(direction, dtype=float)
        rel = np.asarray(self.peak, dtype=float) - origin
        s0 = float(rel @ direction)
        rho = float(abs(rel[0] * direction[1] - rel[1] * direction[0]))
        return LineRestriction(self, s0, rho)


@dataclass(frozen=True)
class LineRestriction:
    """A 2D bump field evaluated along a straight line, as a function of the
    line coordinate s.  Used for per-beam sampling and compression planning."""

    parent: BumpField2D
    s_peak: float   # line coordinate of the closest approach to the bump peak
    offset: float   # perpendicular distance from the line to the peak

    def __call__(self, s: Array) -> Array:
        s = np.asarray(s, dtype=float)
        r = np.hypot(s - self.s_peak, self.offset)
        return _raised_cosine(r, self.parent.amplitude, self.parent.wavelength)

    def slope(self, s: float) -> float:
        """dz/ds at a scalar s: the radial slope times ds/r, and zero at the
        peak itself."""
        ds = s - self.s_peak
        # NumPy's hypot, which math.hypot does not match to the last bit
        r = float(np.hypot(ds, self.offset))
        wl = self.parent.wavelength
        if r == 0.0 or r > 0.5 * wl:
            return 0.0
        radial = -(self.parent.amplitude * math.pi / wl) \
            * math.sin(2.0 * math.pi * r / wl)
        return radial * ds / r

    def support(self) -> Optional[Tuple[float, float]]:
        """Interval of s where the restricted profile is nonzero, or None."""
        half = self.parent.support_radius()
        if self.offset >= half:
            return None
        w = math.sqrt(half * half - self.offset * self.offset)
        return (self.s_peak - w, self.s_peak + w)

    def arc_excess(self, s0: float, s1: float) -> float:
        """Arc length of the restricted profile over [s0, s1] minus s1 - s0."""
        return _arc_excess(self.slope, self.support(), s0, s1)


def _arc_excess(slope, support: Optional[Tuple[float, float]],
                x0: float, x1: float) -> float:
    """Arc length minus chord over [x0, x1] of a profile with the given
    slope function that is flat outside support (None: flat everywhere).
    Only the part of [x0, x1] inside the support contributes; the
    integrand sqrt(1 + z'(x)^2) - 1 vanishes where the profile is flat.

    The first integral over a non-empty range binds SciPy's quad, which
    imports SciPy (crslab._lazy).
    """
    if support is None:
        return 0.0
    lo, hi = max(support[0], x0), min(support[1], x1)
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda x: math.hypot(1.0, slope(x)) - 1.0, lo, hi,
                  epsabs=1e-13, epsrel=1e-9, limit=200)
    return val


def bump1d(x: Array, fld: BumpField1D) -> Array:
    """Evaluate a 1D raised-cosine bump at x (scalar or array)."""
    x = np.asarray(x, dtype=float)
    out = _raised_cosine(np.abs(x - fld.peak), fld.amplitude, fld.wavelength)
    if out.ndim == 0:
        return float(out)
    return out


def bump2d(x: Array, y: Array, fld: BumpField2D) -> Array:
    """Evaluate a 2D raised-cosine bump at (x, y) (scalars or arrays)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x - fld.peak[0], y - fld.peak[1])
    out = _raised_cosine(r, fld.amplitude, fld.wavelength)
    if out.ndim == 0:
        return float(out)
    return out


# ======================================================================
# Lattices
# ======================================================================

@dataclass(frozen=True)
class BeamLine:
    """A straight line of pixels that carries one reinforcement beam."""

    family: int            # direction family (0 along +x; 1 and 2 the others)
    key: int               # integer line index within the family
    origin: Array          # position of the first pixel on the line
    direction: Array       # unit direction vector
    pixel_idx: Array       # lattice pixel indices, ordered along the line
    stations: Array        # line coordinate s of each pixel, stations[0] == 0

    @property
    def name(self) -> str:
        return f"f{self.family}k{self.key}"

    @property
    def span(self) -> float:
        return float(self.stations[-1])


@dataclass(frozen=True, eq=False)
class Lattice:
    """A display lattice: pixel positions plus the derived geometry used by
    reconstruction and the distortion metrics.

    Pixel enumeration is deterministic: ascending x for line lattices and
    lexicographic (y, x) otherwise.
    """

    kind: str
    pitch: float
    positions: Array                     # (n,) for line; (n, 2) otherwise
    axial: Optional[Array] = None        # (n, 2) integer axial coords (hexagonal)
    grid_shape: Optional[Tuple[int, int]] = None  # (nx, ny) for square
    origin2d: Optional[Array] = None     # position of grid index (0, 0) / axial (0, 0)

    # ---------------- basic properties ----------------

    @property
    def n_pixels(self) -> int:
        return self.positions.shape[0]

    @property
    def ndim(self) -> int:
        return 1 if self.kind == "line" else 2

    def hull_bounds(self) -> tuple:
        """Convex hull of pixel centres (the display region).

        line      -> (x_min, x_max)
        square    -> ((x_min, x_max), (y_min, y_max))
        hexagonal -> circumradius of the bounding hexagon (vertices along the
                     lattice directions at angles 0, 60, ..., 300 degrees)
        """
        if self.kind == "line":
            return (float(self.positions[0]), float(self.positions[-1]))
        if self.kind == "square":
            x = self.positions[:, 0]
            y = self.positions[:, 1]
            return ((float(x.min()), float(x.max())), (float(y.min()), float(y.max())))
        return self._rings * self.pitch

    # ---------------- membership ----------------

    def contains(self, points: Array, margin: float = 0.0) -> Array:
        """True for points inside the display hull shrunk inward by margin."""
        eps = 1e-9 * max(self.pitch, 1.0)
        if self.kind == "line":
            return _between(np.asarray(points, dtype=float),
                            self.hull_bounds(), margin, eps)
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            xb, yb = self.hull_bounds()
            return (_between(p[:, 0], xb, margin, eps)
                    & _between(p[:, 1], yb, margin, eps))
        normals, bound = self._hex_slabs(margin)
        ok = np.ones(p.shape[0], dtype=bool)
        for nx, ny in normals:
            ok &= np.abs(p[:, 0] * nx + p[:, 1] * ny) <= bound
        return ok

    def _hex_slabs(self, margin: float) -> Tuple[List[Tuple[float, float]],
                                                 float]:
        """The hexagonal hull shrunk inward by margin, as ``contains`` tests
        it: the points with |x nx + y ny| <= bound for each normal."""
        eps = 1e-9 * max(self.pitch, 1.0)
        bound = self.hull_bounds() * _SQRT3 / 2.0 - margin + eps
        return [(math.cos(ang), math.sin(ang)) for ang in
                (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0)], bound

    # ---------------- uniform sampling over the hull ----------------

    def uniforms_per_point(self) -> int:
        """Number of U(0,1) draws consumed per sampled point (one substream
        row of this width maps to one point)."""
        return {"line": 1, "square": 2, "hexagonal": 3}[self.kind]

    def points_from_uniform(self, u: Array, margin: float = 0.0) -> Array:
        """Map an (n, k) block of unit uniforms to n points distributed
        uniformly over the display hull shrunk inward by margin.

        The mapping is a fixed measure-preserving transform (no rejection),
        so row i of the block always yields point i regardless of how the
        block was produced or chunked.
        """
        u = np.atleast_2d(np.asarray(u, dtype=float))
        if u.shape[1] != self.uniforms_per_point():
            raise ValueError("uniform block has wrong width for this lattice kind")
        if self.kind == "line":
            x0, x1 = self.hull_bounds()
            x0, x1 = x0 + margin, x1 - margin
            if x1 <= x0:
                raise ValueError("interior region empty")
            return x0 + (x1 - x0) * u[:, 0]
        if self.kind == "square":
            (x0, x1), (y0, y1) = self.hull_bounds()
            x0, x1 = x0 + margin, x1 - margin
            y0, y1 = y0 + margin, y1 - margin
            if x1 <= x0 or y1 <= y0:
                raise ValueError("interior region empty")
            return np.column_stack([x0 + (x1 - x0) * u[:, 0], y0 + (y1 - y0) * u[:, 1]])
        radius = self.hull_bounds()
        apothem = radius * _SQRT3 / 2.0
        if margin >= apothem:
            raise ValueError("interior region empty")
        scale = radius * (1.0 - margin / apothem)
        # Pick one of six triangles (centre, vertex j, vertex j+1), then a
        # uniform point inside it.
        tri = np.minimum((u[:, 0] * 6.0).astype(int), 5)
        ang0 = tri * (math.pi / 3.0)
        v0 = scale * np.column_stack([np.cos(ang0), np.sin(ang0)])
        v1 = scale * np.column_stack([np.cos(ang0 + math.pi / 3.0),
                                      np.sin(ang0 + math.pi / 3.0)])
        r1 = np.sqrt(u[:, 1])[:, None]
        r2 = u[:, 2][:, None]
        return r1 * ((1.0 - r2) * v0 + r2 * v1)

    # ---------------- nearest pixel ----------------

    def nearest_index(self, points: Array) -> Array:
        """Index of the nearest pixel for each query point, read off the
        cell that holds it.  Line and square lattices take, per axis, the
        nearer end of the point's ``_locate_axis`` cell.  A hexagonal
        lattice projects the point onto the hull hexagon and takes the
        heaviest vertex of its unit triangle (``triangles``): in an
        equilateral triangle the edge bisectors are the medians.  Points
        outside the hull get their nearest pixel too: the hull's edges are
        full pixel rows and its corners are pixels, so clamping or
        projecting keeps the answer.

        Exact ties go to the lower-indexed pixel.  They are judged in the
        fractional lattice coordinates, so a point within roundoff of a
        cell boundary may land on either side of it.  ``grid_runs`` gives
        the same pixels over a tensor grid of points, as runs along its
        rows.
        """
        if self.kind == "line":
            return self._axis_pixel(np.atleast_1d(np.asarray(points, dtype=float)))
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            return (self._axis_pixel(p[:, 1], 1) * self.grid_shape[0]
                    + self._axis_pixel(p[:, 0]))
        return _heaviest_vertex(*self._axial_triangles(
            *self._onto_hull_axial(*self.fractional_axial(p))))

    def grid_runs(self, xs: Array, ys: Optional[Array] = None
                  ) -> Tuple[Array, Array, Array, Array]:
        """The nearest pixels over the tensor grid of the increasing
        coordinates xs and, on planar lattices, ys, as runs along the grid's
        rows: integer arrays (row, first, end, pixel) that broadcast
        together to one element per run, which says that nodes first ..
        end - 1 of grid row ``row`` (node i at xs[i], row j at ys[j]; a line
        lattice's grid is one row) read pixel ``pixel``.  The runs of a row
        partition its nodes, and some may be empty.  Every node in the hull
        gets exactly the pixel that ``nearest_index`` gives it; a node
        outside the hull gets some pixel.

        Line and square: the nearest pixel is separable, one pixel per axis
        as ``nearest_index`` reads it.  The runs of equal pixel column,
        (1, K), are shared by the rows, (R, 1), and each row reads its own
        pixel row; a line's one row reads row 0.  Along a grid row of a
        hexagonal lattice, between pixel rows r0 and r0 + 1 at fractional
        position v, the nearest pixel is piecewise constant.  In pitch
        units, with pixel (n, r0) at s = n and (n, r0 + 1) at s = n + 1/2,
        the row crosses cell (n, r0) on n +- w, w = clip(1 - 1.5 v, 0, 1/2),
        and cell (n, r0 + 1) between n + w and n + 1 - w: only row r0's
        cells when v <= 1/3, only row r0 + 1's when v >= 2/3.  Consecutive
        rows with equal (r0, w) cross the same cells at the same edges, so
        their runs are found once, with the edges' cuts placed from the
        step of a uniform x axis (``_cuts``).  A node within 1e-9 pitch of a
        cell edge becomes a run of its own that reads the pixel
        ``nearest_index`` gives it, so ties and roundoff resolve exactly as
        there.
        """
        xs = np.asarray(xs, dtype=float)
        if self.kind != "line" and ys is None:
            raise ValueError(f"a {self.kind} lattice is planar and needs ys")
        if self.kind != "hexagonal":
            ix = self._axis_pixel(xs)
            base = (self._axis_pixel(np.asarray(ys, dtype=float), 1)
                    * self.grid_shape[0] if self.kind == "square"
                    else np.zeros(1, dtype=np.int64))
            cuts = np.flatnonzero(ix[1:] != ix[:-1]) + 1
            first = np.concatenate(([0], cuts))
            return (np.arange(base.size)[:, None], first[None],
                    np.concatenate((cuts, [xs.size]))[None],
                    base[:, None] + ix[first])
        ys = np.asarray(ys, dtype=float)
        ox, oy = self.origin2d
        t = (xs - ox) / self.pitch                 # as in fractional_axial
        rf = (ys - oy) / (_SQRT3 / 2.0 * self.pitch)
        r0 = np.floor(rf)
        w = np.minimum(np.maximum(1.0 - 1.5 * (rf - r0), 0.0), 0.5)
        new = np.empty(ys.size, dtype=bool)
        new[0] = True
        new[1:] = (r0[1:] != r0[:-1]) | (w[1:] != w[:-1])
        band = np.cumsum(new) - 1                  # each row's band
        r0, w = r0[new, None], w[new, None]
        # cells (n, r0) and (n, r0 + 1) for n = n0 .. n0 + P - 1, and the
        # edge after each; the last edge lies beyond t[-1]
        periods = int(math.ceil(t[-1] - t[0])) + 2
        n = np.floor(t[0] - 0.5 * r0) + np.arange(periods)
        left = n + 0.5 * r0
        edges = np.empty((r0.size, 2 * periods))
        edges[:, 0::2] = left + w
        edges[:, 1::2] = left + (1.0 - w)
        cut = _cuts(t, edges - 1e-9)
        # the run after an edge starts past the nodes within 1e-9 of it
        stop = cut.copy()
        near = np.append(t, np.inf).take(cut) <= edges + 1e-9
        if near.any():
            stop[near] = np.searchsorted(t, edges[near] + 1e-9, side="right")
        start = np.zeros_like(cut)
        start[:, 1:] = stop[:, :-1]
        # flat axial-table index; a cell beyond the table or a -1 entry is
        # clipped to some pixel, which only nodes outside the hull fall in
        k = self._rings
        flat = ((n + k) * (2 * k + 1) + (r0 + k))[..., None] + np.arange(2)
        cells = np.maximum(self._axial_table.take(
            flat.astype(np.int64).reshape(r0.size, -1), mode="clip"), 0)
        row = np.arange(ys.size)[:, None]
        first, end, pixel = (a.take(band, axis=0) for a in (start, cut, cells))
        if not near.any():
            return row, first, end, pixel
        # an edge's nodes may reach past the next edge, which empties the
        # run between them; the edge nodes are each band's, in every row of
        # the band
        b, e = np.nonzero(near)
        lo = np.maximum(cut[b, e], start[b, e])
        count = np.maximum(stop[b, e] - lo, 0)
        node = np.arange(count.sum()) + np.repeat(lo - np.cumsum(count) + count,
                                                  count)
        j, i = np.nonzero(band[:, None] == np.repeat(b, count))
        pixel_at = self.nearest_index(np.column_stack([xs[node[i]], ys[j]]))
        return (np.append(row.repeat(first.shape[1]), j),
                np.append(first, node[i]),
                np.append(np.maximum(end, first), node[i] + 1),
                np.append(pixel, pixel_at))

    def grid_hull(self, xs: Array, ys: Optional[Array] = None
                  ) -> Tuple[Array, Array]:
        """The nodes of each row of the tensor grid of ``grid_runs`` that
        lie in the hull, node for node as ``contains`` judges them: nodes
        lo[j] .. hi[j] - 1 of row j, one row on a line lattice.  The hull is
        convex, so they are one interval.  Line and square hulls are tested
        per axis.  A hexagonal hull is three slabs |x nx + y ny| <= bound,
        and along a row x nx + y ny, summed as ``contains`` sums it, is
        monotone, so each slab's ends are searched for and then settled
        against that sum (``_settle``)."""
        xs = np.asarray(xs, dtype=float)
        eps = 1e-9 * max(self.pitch, 1.0)
        if self.kind != "hexagonal":
            if self.kind == "line":
                cols = _between(xs, self.hull_bounds(), 0.0, eps)
                rows = np.ones(1, dtype=bool)
            else:
                xb, yb = self.hull_bounds()
                cols = _between(xs, xb, 0.0, eps)
                rows = _between(np.asarray(ys, dtype=float), yb, 0.0, eps)
            # xs increases, so its nodes in the hull are one interval
            lo = np.argmax(cols)
            hi = lo + np.count_nonzero(cols)
            return np.where(rows, lo, 0), np.where(rows, hi, 0)
        ys = np.asarray(ys, dtype=float)
        normals, bound = self._hex_slabs(0.0)
        # s (x nx + y ny) does not decrease along a row; it enters each slab
        # where it reaches -bound and leaves it where it exceeds bound, that
        # is, reaches the next float up
        s = np.array([[1.0 if nx >= 0.0 else -1.0] for nx, _ in normals])
        a = np.array([xs * nx for nx, _ in normals])
        b = np.array([ys * ny for _, ny in normals])[:, None]
        edge = np.array([[-bound], [np.nextafter(bound, np.inf)]])
        guess = np.array([np.searchsorted(sa, ea) for sa, ea in
                          zip(s * a, edge - s[:, None] * b)])
        at = np.arange(0, a.size, xs.size)[:, None, None]
        ends = _settle(guess, lambda i: s[:, None] * (a.take(at + i) + b)
                       >= edge, xs.size)
        lo = ends[:, 0].max(axis=0)
        return lo, np.maximum(ends[:, 1].min(axis=0), lo)

    def nearest_distance(self, points: Array) -> Array:
        idx = self.nearest_index(points)
        if self.kind == "line":
            p = np.atleast_1d(np.asarray(points, dtype=float))
            return np.abs(p - self.positions[idx])
        p = np.atleast_2d(np.asarray(points, dtype=float))
        return np.linalg.norm(self.positions[idx] - p, axis=1)

    # ---------------- axial coordinates (hexagonal) ----------------

    def fractional_axial(self, points: Array) -> Tuple[Array, Array]:
        """Fractional axial coordinates (q, r) of (n, 2) points: a point
        sits at origin + pitch * (q + r/2, (sqrt(3)/2) r)."""
        if self.ndim == 1:
            raise ValueError("axial coordinates and cells need a 2D lattice")
        ox, oy = self.origin2d
        rf = (points[:, 1] - oy) / (_SQRT3 / 2.0 * self.pitch)
        qf = (points[:, 0] - ox) / self.pitch - 0.5 * rf
        return qf, rf

    def axial_index(self, q: Array, r: Array) -> Array:
        """Pixel index at integer axial coordinates, -1 where there is none."""
        k = self._rings
        valid = (np.abs(q) <= k) & (np.abs(r) <= k)
        return np.where(valid, self._axial_table[np.clip(q + k, 0, 2 * k),
                                                 np.clip(r + k, 0, 2 * k)], -1)

    def _onto_hull_axial(self, qf: Array, rf: Array) -> Tuple[Array, Array]:
        """Euclidean projection of fractional axial coordinates onto the
        hull hexagon max(|q|, |r|, |s|) <= k, where s = -q - r: points in
        the hexagon come back as they are."""
        k = self._rings
        # max(|q|, |r|, |s|) is half their sum, since q + r + s = 0
        out = np.flatnonzero(np.abs(qf) + np.abs(rf) + np.abs(qf + rf) > 2 * k)
        if out.size == 0:
            return qf, rf
        c = np.stack([qf[out], rf[out], -qf[out] - rf[out]])
        # The largest coordinate names the edge the point lies beyond.  The
        # edge normal moves the other two by half the excess each, and
        # clamping them to [-k, 0] (edge +k) or [0, k] (edge -k) stops at
        # the corners.
        j = np.argmax(np.abs(c), axis=0)
        cols = np.arange(out.size)
        edge = np.copysign(float(k), c[j, cols])
        lo = np.where(edge > 0.0, -k, 0.0)
        c = np.clip(c + 0.5 * (c[j, cols] - edge), lo, lo + k)
        c[j, cols] = edge
        qf, rf = qf.copy(), rf.copy()
        qf[out], rf[out] = c[0], c[1]
        return qf, rf

    # ---------------- cells (planar lattices) ----------------

    def triangles(self, points: Array) -> Tuple[Array, Array]:
        """The triangle of the lattice's fixed triangulation that holds each
        (n, 2) point: its vertex pixels and the point's barycentric weights,
        both (3, n), row j for vertex j.  Square cells split along the
        diagonal from the lower-left to the upper-right pixel; hexagonal
        lattices split into upward and downward unit triangles, whose
        heaviest vertex is the nearest pixel that ``nearest_index`` reads.
        A missing vertex, which only a point outside the hull (or on its
        edge within roundoff) can have, gets index -1 and weight 0."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind != "square":
            return self._axial_triangles(*self.fractional_axial(p))
        ix, u = self._locate_axis(p[:, 0])
        iy, v = self._locate_axis(p[:, 1], 1)
        idx = np.empty((3, p.shape[0]), dtype=np.int64)
        w = np.empty((3, p.shape[0]))
        nx = self.grid_shape[0]
        # the lower triangle (00, 10, 11) where u >= v, else (flip) the
        # upper (00, 11, 01)
        flip = u < v
        idx[0] = iy * nx + ix
        idx[1] = np.where(flip, idx[0] + (nx + 1), idx[0] + 1)
        idx[2] = np.where(flip, idx[0] + nx, idx[0] + (nx + 1))
        w[0] = np.where(flip, 1.0 - v, 1.0 - u)
        w[1] = np.where(flip, u, u - v)
        w[2] = np.where(flip, v - u, v)
        return idx, w

    def _axial_triangles(self, qf: Array, rf: Array) -> Tuple[Array, Array]:
        """``triangles`` of a hexagonal lattice, for points given by their
        fractional axial coordinates (qf, rf)."""
        qi, ri, up = self._locate_hex(qf, rf)
        u = qf - qi
        v = rf - ri
        idx = np.empty((3, qf.size), dtype=np.int64)
        w = np.empty((3, qf.size))
        # the upward triangle (q, r), (q+1, r), (q, r+1), else (flip) the
        # downward (q+1, r+1), (q, r+1), (q+1, r)
        flip = ~up
        q1, r1 = self.axial_index(qi + 1, ri), self.axial_index(qi, ri + 1)
        idx[0] = np.where(flip, self.axial_index(qi + 1, ri + 1),
                          self.axial_index(qi, ri))
        idx[1] = np.where(flip, r1, q1)
        idx[2] = np.where(flip, q1, r1)
        w[0] = np.where(flip, u + v - 1.0, 1.0 - u - v)
        w[1] = np.where(flip, 1.0 - u, u)
        w[2] = np.where(flip, 1.0 - v, v)
        np.copyto(w, 0.0, where=idx < 0)
        return idx, w

    def cell_lines(self, points: Array) -> Tuple[Array, Array]:
        """The lines bounding the cell that holds each (n, 2) point: their
        ``beam_lines()`` ids, -1 where a line carries no beam, and the
        point's perpendicular distance to each, both (n, 4) for square
        cells (rows iy, iy + 1, then columns ix, ix + 1) and (n, 3) for
        hexagonal unit triangles (one line of each family)."""
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            ix, _ = self._locate_axis(p[:, 0])
            iy, _ = self._locate_axis(p[:, 1], 1)
            ids = np.column_stack([self.beam_index(0, iy), self.beam_index(0, iy + 1),
                                   self.beam_index(1, ix), self.beam_index(1, ix + 1)])
            # plain coordinate offsets from the cell's corners
            lo = self.origin2d + np.column_stack([ix, iy]) * self.pitch
            near, far = np.abs(p - lo), np.abs(p - (lo + self.pitch))
            return ids, np.column_stack([near[:, 1], far[:, 1], near[:, 0], far[:, 0]])
        # the upward triangle's lines: r = ri (family 0), q = qi (family 1),
        # q + r = qi + ri + 1 (family 2); the downward triangle's first two
        # are r = ri + 1 and q = qi + 1
        qf, rf = self.fractional_axial(p)
        qi, ri, up = self._locate_hex(qf, rf)
        key0 = np.where(up, ri, ri + 1)
        key1 = np.where(up, qi, qi + 1)
        key2 = qi + ri + 1
        ids = np.column_stack([self.beam_index(0, key0), self.beam_index(1, key1),
                               self.beam_index(2, key2)])
        # the axial fractions are affine in position, and one axial unit
        # spans a row spacing of sqrt(3)/2 * d
        row = _SQRT3 / 2.0 * self.pitch
        return ids, np.column_stack([np.abs(rf - key0) * row,
                                     np.abs(qf - key1) * row,
                                     np.abs((qf + rf) - key2) * row])

    def _locate_axis(self, x: Array, axis: int = 0) -> Tuple[Array, Array]:
        """Cell of each coordinate x along an axis of a line or square
        lattice (axis 1: a square grid's y): the index i of the cell's lower
        pixel, at most n - 2, and the offset u of x from pixel i in
        pitches, with x beyond the end pixels clamped onto them."""
        if self.kind == "line":
            origin, n = self.positions[0], self.n_pixels
        else:
            origin, n = self.origin2d[axis], self.grid_shape[axis]
        f = np.minimum(np.maximum((x - origin) / self.pitch, 0.0), n - 1.0)
        i = np.minimum(np.floor(f).astype(np.int64), n - 2)
        return i, f - i

    def _axis_pixel(self, x: Array, axis: int = 0) -> Array:
        """Nearest pixel along the axis: the nearer end of the cell, on a
        tie the lower."""
        i, u = self._locate_axis(x, axis)
        return i + (u > 0.5)

    def _locate_hex(self, qf: Array, rf: Array) -> Tuple[Array, Array, Array]:
        """Unit triangle of each point at fractional axial coordinates
        (qf, rf): the axial cell (qi, ri) below it, and whether it is in
        the upward triangle, (qf - qi) + (rf - ri) <= 1, which holds the
        edge that the two triangles share."""
        qi = np.floor(qf).astype(np.int64)
        ri = np.floor(rf).astype(np.int64)
        return qi, ri, ((qf - qi) + (rf - ri)) <= 1.0

    @cached_property
    def _rings(self) -> int:
        """Ring count k of a hexagonal lattice: its largest |q|, |r|, |q + r|."""
        return int(max(np.abs(self.axial).max(),
                       np.abs(self.axial.sum(axis=1)).max()))

    @cached_property
    def _axial_table(self) -> Array:
        """Pixel index of axial (q, r) at [q + k, r + k], else -1."""
        k = self._rings
        table = -np.ones((2 * k + 1, 2 * k + 1), dtype=np.int64)
        table[self.axial[:, 0] + k, self.axial[:, 1] + k] = np.arange(self.n_pixels)
        return table

    # ---------------- beam lines ----------------

    def beam_lines(self) -> List[BeamLine]:
        """The straight pixel rows that carry reinforcement beams.

        Square lattices have the row and column families; hexagonal
        lattices have three row families at 60 degrees to one another.
        Lines with fewer than two pixels are not beams.  Line lattices
        have none and raise ValueError.
        """
        return self._beams

    def beam_index(self, family: int, key: Array) -> Array:
        """Index in ``beam_lines()`` of the beam on each line ``key`` of a
        direction family, -1 where the family has no beam on that line."""
        table, base = self._beam_table
        return table[family].take(np.asarray(key) - base, mode="clip")

    @cached_property
    def _beam_table(self) -> Tuple[Array, int]:
        """Beam ids at [family, key - base], -1 where no beam lies, with a
        column of -1 beyond either end of the beams' keys for clipping."""
        families = np.array([b.family for b in self._beams])
        keys = np.array([b.key for b in self._beams], dtype=np.int64)
        base = int(keys.min()) - 1
        table = np.full((3, int(keys.max()) - base + 2), -1, dtype=np.int64)
        table[families, keys - base] = np.arange(len(keys))
        return table, base

    @cached_property
    def _beams(self) -> List[BeamLine]:
        # group pixels by line key: square rows (family 0) and columns
        # (family 1) of the row-major index; hexagonal r (family 0),
        # q (family 1) and q + r (family 2)
        if self.kind == "square":
            nx = self.grid_shape[0]
            i = np.arange(self.n_pixels)
            dirs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            keys = (i // nx, i % nx)
        elif self.kind == "hexagonal":
            dirs = (np.array([1.0, 0.0]),
                    np.array([0.5, _SQRT3 / 2.0]),
                    np.array([-0.5, _SQRT3 / 2.0]))
            keys = (self.axial[:, 1], self.axial[:, 0],
                    self.axial[:, 0] + self.axial[:, 1])
        else:
            raise ValueError("beam lines need a 2D lattice")
        beams: List[BeamLine] = []
        for family, direction in enumerate(dirs):
            for key in np.unique(keys[family]):
                idx = np.nonzero(keys[family] == key)[0]
                if idx.size < 2:
                    continue
                pos = self.positions[idx]
                s = (pos - pos.mean(axis=0)) @ direction
                order = np.argsort(s)
                idx = idx[order]
                pos = pos[order]
                stations = (pos - pos[0]) @ direction
                beams.append(BeamLine(family, int(key), pos[0].copy(),
                                      direction, idx, stations))
        return beams

    # ---------------- validation ----------------

    def validate(self) -> None:
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite pixel position")
        if self.kind == "line":
            gaps = np.diff(self.positions)
            if not np.allclose(gaps, self.pitch, rtol=1e-9, atol=0.0):
                raise ValueError("line lattice pitch broken")
            return
        # every pixel pair at least one pitch apart
        if self.n_pixels <= 400:
            d2 = np.sum((self.positions[:, None, :] - self.positions[None, :, :]) ** 2,
                        axis=2)
            np.fill_diagonal(d2, np.inf)
            if d2.min() < (self.pitch * (1.0 - 1e-9)) ** 2:
                raise ValueError("pixels closer than one pitch")
        if self.kind == "hexagonal":
            self._check_hex_neighbours()

    def _check_hex_neighbours(self) -> None:
        # interior pixels (all six axial neighbours present) must sit at
        # exactly the pitch from each neighbour
        shifts = np.array([(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)])
        nb = self.axial[:, None, :] + shifts[None, :, :]
        nb = self.axial_index(nb[..., 0], nb[..., 1])
        interior = np.all(nb >= 0, axis=1)
        dists = np.linalg.norm(self.positions[nb[interior]]
                               - self.positions[interior][:, None, :], axis=2)
        if not np.allclose(dists, self.pitch, rtol=1e-9, atol=0.0):
            raise ValueError("hexagonal neighbour distances broken")


def _between(v: Array, bounds: Tuple[float, float], margin: float,
             eps: float) -> Array:
    """v in [lo + margin, hi - margin] to within eps."""
    return (v >= bounds[0] + margin - eps) & (v <= bounds[1] - margin + eps)


def _cuts(t: Array, e: Array) -> Array:
    """``np.searchsorted(t, e)`` for an increasing t.  When every t[i] lies
    within a quarter step of t[0] + i step, the cut nearest ceil((e - t[0])
    / step) is off by at most one node, and one comparison on either side
    settles it; that is about twice as fast as the binary search, which
    any other axis takes."""
    step = (t[-1] - t[0]) / max(t.size - 1, 1)
    if not (step > 0.0 and np.all(np.abs(t - (t[0] + step * np.arange(t.size)))
                                  < 0.25 * step)):
        return np.searchsorted(t, e)
    i = np.minimum(np.maximum(np.ceil((e - t[0]) * (1.0 / step)), 0.0),
                   t.size).astype(np.int64)
    padded = np.concatenate(([-np.inf], t, [np.inf]))   # t[i - 1] at [i]
    i -= padded.take(i) >= e
    i += padded.take(i + 1) < e
    return i


def _settle(i: Array, holds, n: int) -> Array:
    """For each guess in i, the first index in 0 .. n at which holds is
    True, for a test holds(index array) that is False and then True along
    0 .. n - 1 (n standing for True): the guesses step one index at a time
    until each sits on the change, so the answer is exact however far off
    they were, and cheap when they are close."""
    i = np.clip(i, 0, n)
    while True:
        down = (i > 0) & holds(np.maximum(i - 1, 0))
        up = ~down & (i < n) & ~holds(np.minimum(i, n - 1))
        if not (down.any() or up.any()):
            return i
        i = i - down + up


def _heaviest_vertex(idx: Array, w: Array) -> Array:
    """The vertex of greatest weight in each column of a ``triangles``
    result, the lowest pixel index among equal weights."""
    return np.where(w == w.max(axis=0), idx,
                    np.iinfo(np.int64).max).min(axis=0)


def make_lattice(kind: str, pitch: float, extents) -> Lattice:
    """Construct a display lattice.

    extents:
      line      -- length L (pixels at 0, d, ..., filling [0, L]) or (x0, x1)
      square    -- (width, height) from the origin, or ((x0, x1), (y0, y1))
      hexagonal -- region radius R; all lattice sites within the hexagon of
                   circumradius R around the origin are pixels

    Raises ValueError("degenerate lattice") when the extents hold fewer than
    two pixels per axis (one ring for hexagonal displays).
    """
    if pitch <= 0.0 or not np.isfinite(pitch):
        raise ValueError("pitch must be positive and finite")
    if not np.all(np.isfinite(np.asarray(extents, dtype=float))):
        raise ValueError("extents must be finite")

    if kind == "line":
        if np.isscalar(extents):
            x0, x1 = 0.0, float(extents)
        else:
            x0, x1 = map(float, extents)
        n = int(math.floor((x1 - x0) / pitch + 1e-9)) + 1
        if n < 2:
            raise ValueError("degenerate lattice")
        pos = x0 + pitch * np.arange(n)
        lat = Lattice(kind, pitch, pos)
        lat.validate()
        return lat

    if kind == "square":
        ex = extents
        if np.isscalar(ex[0]):
            (x0, x1), (y0, y1) = (0.0, float(ex[0])), (0.0, float(ex[1]))
        else:
            (x0, x1), (y0, y1) = ((float(ex[0][0]), float(ex[0][1])),
                                  (float(ex[1][0]), float(ex[1][1])))
        nx = int(math.floor((x1 - x0) / pitch + 1e-9)) + 1
        ny = int(math.floor((y1 - y0) / pitch + 1e-9)) + 1
        if nx < 2 or ny < 2:
            raise ValueError("degenerate lattice")
        xs = x0 + pitch * np.arange(nx)
        ys = y0 + pitch * np.arange(ny)
        gx, gy = np.meshgrid(xs, ys)            # row-major: sorted by (y, x)
        pos = np.column_stack([gx.ravel(), gy.ravel()])
        lat = Lattice(kind, pitch, pos, grid_shape=(nx, ny),
                      origin2d=np.array([x0, y0]))
        lat.validate()
        return lat

    if kind == "hexagonal":
        radius = float(extents)
        k = int(math.floor(radius / pitch + 1e-9))
        if k < 1:
            raise ValueError("degenerate lattice")
        # the sites with max(|q|, |r|, |q + r|) <= k
        q, r = np.meshgrid(np.arange(-k, k + 1), np.arange(-k, k + 1),
                           indexing="ij")
        axial = np.column_stack([q.ravel(), r.ravel()]).astype(np.int64)
        axial = axial[np.abs(axial.sum(axis=1)) <= k]
        q, r = axial.T
        pos = np.column_stack([pitch * (q + 0.5 * r), pitch * (_SQRT3 / 2.0) * r])
        order = np.lexsort((pos[:, 0], pos[:, 1]))  # enumerate by (y, x)
        lat = Lattice(kind, pitch, pos[order], axial=axial[order],
                      origin2d=np.array([0.0, 0.0]))
        lat.validate()
        return lat

    raise ValueError(f"unknown lattice kind: {kind!r}")


# ======================================================================
# Sampling fields onto pixels
# ======================================================================

def sample_pixels(fld, lattice: Lattice) -> PixelHeights:
    """Heights the pixels must take to sample the field: heights[i] is the
    field evaluated at pixel i.  Pixels are enumerated by x on a line and
    by (y, x) otherwise, so the ones whose x (line) or y lies within l/2 of
    the peak's, as the bump's own subtraction gives it, are one index
    range; the bump is evaluated there alone.  Every other pixel is farther
    than l/2 from the peak, and its height is +0.0, as the bump gives it."""
    if lattice.kind == "line":
        if not isinstance(fld, BumpField1D):
            raise TypeError("line lattices sample 1D fields")
        along, centre = lattice.positions, fld.peak
    else:
        if not isinstance(fld, BumpField2D):
            raise TypeError("planar lattices sample 2D fields")
        along, centre = lattice.positions[:, 1], fld.peak[1]
    offset = along - centre
    half = 0.5 * fld.wavelength
    lo = int(np.searchsorted(offset, -half, side="left"))
    hi = int(np.searchsorted(offset, half, side="right"))
    h = np.zeros(lattice.n_pixels)
    if lattice.kind == "line":
        h[lo:hi] = bump1d(lattice.positions[lo:hi], fld)
    else:
        pos = lattice.positions[lo:hi]
        h[lo:hi] = bump2d(pos[:, 0], pos[:, 1], fld)
    if not np.all(np.isfinite(h[lo:hi])):
        raise ValueError("non-finite pixel height")
    return h
