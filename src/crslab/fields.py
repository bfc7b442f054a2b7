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
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad

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


def _raised_cosine_slope(dist: Array, amplitude: float, wavelength: float) -> Array:
    """d/d(dist) of the raised cosine; zero outside the support."""
    dist = np.asarray(dist, dtype=float)
    inside = dist <= 0.5 * wavelength
    phase = 2.0 * np.pi * np.where(inside, dist, 0.0) / wavelength
    val = -(amplitude * np.pi / wavelength) * np.sin(phase)
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

    def slope(self, x: Array) -> Array:
        """dz/dx at x (mm/mm)."""
        x = np.asarray(x, dtype=float)
        s = _raised_cosine_slope(np.abs(x - self.peak), self.amplitude, self.wavelength)
        return np.where(x >= self.peak, s, -s)

    def support(self) -> Tuple[float, float]:
        half = 0.5 * self.wavelength
        return (self.peak - half, self.peak + half)

    def arc_excess(self, x0: float, x1: float) -> float:
        """Arc length of the profile over [x0, x1] minus the chord (x1 - x0).

        Only the part of [x0, x1] inside the support contributes; the
        integrand sqrt(1 + z'(x)^2) - 1 vanishes where the field is flat.
        """
        lo, hi = self.support()
        lo, hi = max(lo, x0), min(hi, x1)
        if hi <= lo:
            return 0.0

        def g(x):
            s = self.slope(x)
            return math.hypot(1.0, s) - 1.0

        val, _ = quad(g, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=200)
        return val


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

    def slope(self, s: Array) -> Array:
        s = np.asarray(s, dtype=float)
        ds = s - self.s_peak
        r = np.hypot(ds, self.offset)
        radial = _raised_cosine_slope(r, self.parent.amplitude, self.parent.wavelength)
        with np.errstate(invalid="ignore"):
            out = np.where(r > 0.0, radial * ds / np.where(r > 0.0, r, 1.0), 0.0)
        return out

    def support(self) -> Optional[Tuple[float, float]]:
        """Interval of s where the restricted profile is nonzero, or None."""
        half = self.parent.support_radius()
        if self.offset >= half:
            return None
        w = math.sqrt(half * half - self.offset * self.offset)
        return (self.s_peak - w, self.s_peak + w)

    def arc_excess(self, s0: float, s1: float) -> float:
        sup = self.support()
        if sup is None:
            return 0.0
        lo, hi = max(sup[0], s0), min(sup[1], s1)
        if hi <= lo:
            return 0.0

        def g(s):
            sl = self.slope(s)
            return math.hypot(1.0, sl) - 1.0

        val, _ = quad(g, lo, hi, epsabs=1e-13, epsrel=1e-9, limit=200)
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
    extents: tuple
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
        k = int(np.max(np.abs(self.axial).max(axis=1).max()))
        k = max(k, int(np.abs(self.axial[:, 0] + self.axial[:, 1]).max()))
        return k * self.pitch

    # ---------------- membership ----------------

    def contains(self, points: Array, margin: float = 0.0) -> Array:
        """True for points inside the display hull shrunk inward by margin."""
        eps = 1e-9 * max(self.pitch, 1.0)
        if self.kind == "line":
            x0, x1 = self.hull_bounds()
            p = np.asarray(points, dtype=float)
            return (p >= x0 + margin - eps) & (p <= x1 - margin + eps)
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            (x0, x1), (y0, y1) = self.hull_bounds()
            return ((p[:, 0] >= x0 + margin - eps) & (p[:, 0] <= x1 - margin + eps)
                    & (p[:, 1] >= y0 + margin - eps) & (p[:, 1] <= y1 - margin + eps))
        radius = self.hull_bounds()
        apothem = radius * _SQRT3 / 2.0 - margin
        ok = np.ones(p.shape[0], dtype=bool)
        for ang in (math.pi / 6.0, math.pi / 2.0, 5.0 * math.pi / 6.0):
            nx, ny = math.cos(ang), math.sin(ang)
            ok &= np.abs(p[:, 0] * nx + p[:, 1] * ny) <= apothem + eps
        return ok

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
        """Index of the nearest pixel for each query point, in closed form:
        a binary search over the cell midpoints (line), the fractional grid
        coordinates rounded and clamped per axis (square), or the
        fractional axial coordinates projected onto the hull hexagon and
        rounded to the nearest corner of their unit rhombus (hexagonal).
        Points outside the hull get their nearest pixel too: the hull's
        edges are full pixel rows and its corners are pixels, so clamping
        or projecting keeps the answer.

        Exact ties go to the lower-indexed pixel: square lattices round
        halves down per axis, hexagonal ones break ties as an infinitesimal
        step towards -y, then -x, would.  Ties are judged in the fractional
        lattice coordinates, so a point within roundoff of a cell boundary
        may land on either side of it.
        """
        if self.kind == "line":
            p = np.atleast_1d(np.asarray(points, dtype=float))
            mids = 0.5 * (self.positions[1:] + self.positions[:-1])
            # side='left' sends a query exactly on a cell boundary to the
            # lower-indexed pixel.
            return np.searchsorted(mids, p, side="left")
        p = np.atleast_2d(np.asarray(points, dtype=float))
        if self.kind == "square":
            nx, ny = self.grid_shape
            ox, oy = self.origin2d
            ix = np.clip(_round_half_down((p[:, 0] - ox) / self.pitch), 0, nx - 1)
            iy = np.clip(_round_half_down((p[:, 1] - oy) / self.pitch), 0, ny - 1)
            return (iy * nx + ix).astype(np.int64)
        q, r = _hex_round(*self._onto_hull_axial(*self.fractional_axial(p)))
        # a point in the hull rounds to a pixel, so no site needs a mask
        table = self._axial_table()
        k = (table.shape[0] - 1) // 2
        return table.ravel().take((q + k) * (2 * k + 1) + r + k)

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
        ox, oy = self.origin2d
        rf = (points[:, 1] - oy) / (_SQRT3 / 2.0 * self.pitch)
        qf = (points[:, 0] - ox) / self.pitch - 0.5 * rf
        return qf, rf

    def axial_index(self, q: Array, r: Array) -> Array:
        """Pixel index at integer axial coordinates, -1 where there is none."""
        table = self._axial_table()
        k = (table.shape[0] - 1) // 2
        valid = (np.abs(q) <= k) & (np.abs(r) <= k)
        return np.where(valid, table[np.clip(q + k, 0, 2 * k),
                                     np.clip(r + k, 0, 2 * k)], -1)

    def _onto_hull_axial(self, qf: Array, rf: Array) -> Tuple[Array, Array]:
        """Euclidean projection of fractional axial coordinates onto the
        hull hexagon max(|q|, |r|, |s|) <= k, where s = -q - r."""
        k = (self._axial_table().shape[0] - 1) // 2
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

    def _axial_table(self) -> Array:
        if not hasattr(self, "_axial_lookup"):
            k = int(np.abs(self.axial).max())
            k = max(k, int(np.abs(self.axial.sum(axis=1)).max()))
            table = -np.ones((2 * k + 1, 2 * k + 1), dtype=np.int64)
            table[self.axial[:, 0] + k, self.axial[:, 1] + k] = np.arange(self.n_pixels)
            object.__setattr__(self, "_axial_lookup", table)
        return self._axial_lookup

    # ---------------- beam lines ----------------

    def beam_lines(self) -> List[BeamLine]:
        """The straight pixel rows that carry reinforcement beams.

        line lattices have a single beam; square lattices have the row and
        column families; hexagonal lattices have three row families at 60
        degrees to one another.  Lines with fewer than two pixels are not
        beams.
        """
        if not hasattr(self, "_beams"):
            object.__setattr__(self, "_beams", self._build_beam_lines())
        return self._beams

    def _build_beam_lines(self) -> List[BeamLine]:
        beams: List[BeamLine] = []
        if self.kind == "line":
            stations = self.positions - self.positions[0]
            beams.append(BeamLine(0, 0, np.array([self.positions[0], 0.0]),
                                  np.array([1.0, 0.0]),
                                  np.arange(self.n_pixels), stations))
            return beams
        if self.kind == "square":
            nx, ny = self.grid_shape
            dirs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
            for family, (n_lines, n_on) in enumerate(((ny, nx), (nx, ny))):
                for key in range(n_lines):
                    if family == 0:
                        idx = key * nx + np.arange(nx)
                    else:
                        idx = np.arange(ny) * nx + key
                    pos = self.positions[idx]
                    s = (pos - pos[0]) @ dirs[family]
                    beams.append(BeamLine(family, key, pos[0].copy(), dirs[family],
                                          idx, s))
            return beams
        # hexagonal: group by r (family 0), q (family 1), q + r (family 2)
        dirs = (np.array([1.0, 0.0]),
                np.array([0.5, _SQRT3 / 2.0]),
                np.array([-0.5, _SQRT3 / 2.0]))
        keys = (self.axial[:, 1], self.axial[:, 0],
                self.axial[:, 0] + self.axial[:, 1])
        for family in range(3):
            for key in np.unique(keys[family]):
                idx = np.nonzero(keys[family] == key)[0]
                if idx.size < 2:
                    continue
                pos = self.positions[idx]
                s = (pos - pos.mean(axis=0)) @ dirs[family]
                order = np.argsort(s)
                idx = idx[order]
                pos = pos[order]
                stations = (pos - pos[0]) @ dirs[family]
                beams.append(BeamLine(family, int(key), pos[0].copy(),
                                      dirs[family], idx, stations))
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


def _round_half_down(x: Array) -> Array:
    c = np.ceil(x)
    return c - (c - x >= 0.5)


def _hex_round(qf: Array, rf: Array) -> Tuple[Array, Array]:
    """Nearest integer axial coordinates (Conway and Sloane's nearest point
    of the A2 lattice): the nearest corner of the unit rhombus that holds
    (qf, rf).  With (u, v) the point's offset from the rhombus corner
    (0, 0), A = 2u + v and B = 2v + u, corner (1, 0) beats (0, 0) when
    A > 1, (0, 1) beats (0, 0) when B > 1, (1, 1) beats (0, 1) when A > 2
    and (1, 0) when B > 2, and (1, 0) beats (0, 1) when u > v.  Exact
    ties go to the lowest (r, q), i.e. the lowest (y, x): every test on A
    and B is strict, and u = v goes to (1, 0).
    """
    q = np.floor(qf)
    r = np.floor(rf)
    u = qf - q
    v = rf - r
    a = 2.0 * u + v
    b = 2.0 * v + u
    q_first = u >= v
    q += (a > 1.0) & (q_first | (a > 2.0))
    r += (b > 1.0) & (~q_first | (b > 2.0))
    return q.astype(np.int64), r.astype(np.int64)


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
    tol = 1e-9 * pitch

    if kind == "line":
        if np.isscalar(extents):
            x0, x1 = 0.0, float(extents)
        else:
            x0, x1 = map(float, extents)
        n = int(math.floor((x1 - x0) / pitch + 1e-9)) + 1
        if n < 2:
            raise ValueError("degenerate lattice")
        pos = x0 + pitch * np.arange(n)
        lat = Lattice(kind, pitch, (x0, x1), pos)
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
        lat = Lattice(kind, pitch, ((x0, x1), (y0, y1)), pos,
                      grid_shape=(nx, ny), origin2d=np.array([x0, y0]))
        lat.validate()
        return lat

    if kind == "hexagonal":
        radius = float(extents)
        k = int(math.floor(radius / pitch + 1e-9))
        if k < 1:
            raise ValueError("degenerate lattice")
        qs, rs, pts = [], [], []
        for q in range(-k, k + 1):
            for r in range(-k, k + 1):
                if abs(q + r) > k:
                    continue
                x = pitch * (q + 0.5 * r)
                y = pitch * (_SQRT3 / 2.0) * r
                qs.append(q)
                rs.append(r)
                pts.append((x, y))
        pos = np.array(pts)
        axial = np.column_stack([qs, rs]).astype(np.int64)
        order = np.lexsort((pos[:, 0], pos[:, 1]))  # enumerate by (y, x)
        lat = Lattice(kind, pitch, radius, pos[order], axial=axial[order],
                      origin2d=np.array([0.0, 0.0]))
        lat.validate()
        return lat

    raise ValueError(f"unknown lattice kind: {kind!r}")


# ======================================================================
# Sampling fields onto pixels
# ======================================================================

def sample_pixels(fld, lattice: Lattice) -> PixelHeights:
    """Heights the pixels must take to sample the field: heights[i] is the
    field evaluated at pixel i."""
    if lattice.kind == "line":
        if not isinstance(fld, BumpField1D):
            raise TypeError("line lattices sample 1D fields")
        h = np.asarray(bump1d(lattice.positions, fld), dtype=float)
    else:
        if not isinstance(fld, BumpField2D):
            raise TypeError("planar lattices sample 2D fields")
        h = np.asarray(bump2d(lattice.positions[:, 0], lattice.positions[:, 1], fld),
                       dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("non-finite pixel height")
    return h
