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

Every model keeps one evaluation contract.  Calling it evaluates points
that the caller has already put in the display hull, as ``Lattice.contains``
judges them, and tests nothing itself; what it returns elsewhere is
unspecified.  ``extended`` takes any points and is zero outside the hull,
which is the convention the distortion metrics integrate under; one shared
function implements it for every model.  The 2D models take their cell
geometry from the lattice: ``Lattice.triangles`` for the linear surface,
``Lattice.cell_lines`` for the CRS surface.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from . import _pool
from .elastica import (ElasticaConvergenceError, ElasticaSolution,
                       normalize_beam, solve_elastica_1d)
from .fields import (BeamLine, BumpField1D, BumpField2D, Lattice, PixelHeights,
                     sample_pixels)


@dataclass(frozen=True)
class ReconstructionModel:
    """A display model selector: "pixel-only", "linear", or "crs"."""

    variant: str

    def __post_init__(self):
        if self.variant not in ("pixel-only", "linear", "crs"):
            raise ValueError(f"unknown model variant: {self.variant!r}")


def _extended(self, *point):
    """The model at any points: its value at points in the hull, as
    ``Lattice.contains`` judges them, and 0.0 at every other point."""
    p = _pack_points(point, self.lattice.ndim)
    return np.where(self.lattice.contains(p), self(p), 0.0)


# ======================================================================
# zero-order hold
# ======================================================================

class NearestProfile:
    """Staircase reconstruction: nearest pixel's height everywhere."""

    kind = "staircase"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        self.heights = _pixel_heights(heights, lattice)
        self.lattice = lattice

    def __call__(self, *point):
        """Heights at points that the caller has put in the hull; no hull
        test (see the module docstring)."""
        p = _pack_points(point, self.lattice.ndim)
        return self.heights[self.lattice.nearest_index(p)]

    extended = _extended


# ======================================================================
# linear connection
# ======================================================================

class LinearProfile1D:
    """Piecewise-linear interpolation between adjacent 1D pixels."""

    kind = "linear"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        if lattice.kind != "line":
            raise ValueError("LinearProfile1D needs a line lattice")
        self.heights = _pixel_heights(heights, lattice)
        self.lattice = lattice

    def __call__(self, x):
        """Heights at positions that the caller has put in the hull; no hull
        test (see the module docstring)."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return np.interp(x, self.lattice.positions, self.heights)

    extended = _extended


class LinearSurface2D:
    """Barycentric interpolation over the triangles of ``Lattice.triangles``."""

    kind = "linear"

    def __init__(self, heights: PixelHeights, lattice: Lattice):
        if lattice.kind not in ("square", "hexagonal"):
            raise ValueError("LinearSurface2D needs a 2D lattice")
        self.heights = _pixel_heights(heights, lattice)
        self.lattice = lattice

    def __call__(self, *point):
        """Heights at points that the caller has put in the hull; no hull
        test (see the module docstring)."""
        idx, w = self.lattice.triangles(_pack_points(point, 2))
        z = self.heights.take(idx)
        z *= w
        return z[0] + z[1] + z[2]

    extended = _extended


# ======================================================================
# CRS reconstruction
# ======================================================================

class CrsProfile1D:
    """The buckled-beam profile over a 1D lattice for one target field.

    Pixel heights sample the field; the end compression equals the arc
    length excess of the target over the beam span, which is what the
    boundary servo plan injects for this field.  nodes_per_span sets the
    beam solve's resolution (see solve_elastica_1d).
    """

    kind = "continuous"

    def __init__(self, field: BumpField1D, lattice: Lattice,
                 nodes_per_span: int = 64):
        if lattice.kind != "line":
            raise ValueError("CrsProfile1D needs a line lattice")
        self.lattice = lattice
        x0, x1 = lattice.hull_bounds()
        self.heights = sample_pixels(field, lattice)
        excess = field.arc_excess(x0, x1)
        constraints = np.column_stack([lattice.positions, self.heights])
        n = max(2049, int(math.ceil((x1 - x0) / field.wavelength)) * 256 + 1)
        xs = np.linspace(x0, x1, n)
        self.solution: ElasticaSolution = solve_elastica_1d(
            constraints, excess, nodes_per_span, initial=(xs, field(xs)))

    def __call__(self, x):
        """The beam at positions that the caller has put in the hull; no hull
        test (see the module docstring)."""
        return self.solution.profile(x)

    extended = _extended

    def peak_candidates(self) -> np.ndarray:
        """Positions that hold the profile's maximum over the hull: the
        beam's nodes clipped to the hull, then the pixels.  The profile is
        the node polyline, so on any interval it peaks at a node inside the
        interval or at one of its ends.  The pixels come last, so a flat
        top, such as a flat end segment, resolves to its first node."""
        x0, x1 = self.lattice.hull_bounds()
        return np.concatenate([np.clip(self.solution.nodes[:, 0], x0, x1),
                               self.lattice.positions])


class CrsSurface2D:
    """The beam-network surface over a 2D lattice.

    Every pixel row of the lattice carries an independent beam, solved as a
    1D elastica in its own vertical plane and end-compressed by its own arc
    length excess.  The beams are pinned at the pixel heights: a pixel has
    one height, shared by every beam through it.  Between beams, the surface
    is inverse-distance-weighted (exponent 2) over the lines bounding the
    lattice cell containing the query point, which reproduces each beam
    exactly on its own line.  ``extended`` is zero outside the pixel hull.

    Every value inside the hull is therefore a convex combination of beam
    values, and each beam value interpolates two adjacent nodes of that
    beam's polyline (node x increases along the beam, as np.interp
    assumes).  So no point is higher than the best beam node, and on its
    own line the surface takes that node's value: the global maximum is
    the best of ``peak_candidates``.  Where lines cross, at a pixel, the
    surface is the mean of the beams through it, which is within the solve
    residual of the pixel height (at most 1e-6 of the span once converged).

    A build runs in three steps.  Plan: check the arc budget of every beam
    that needs a solve, before any solve, and raise
    ``InfeasibleExcessError`` for the first beam that fails.  Map: solve
    those beams, on up to (usable CPUs - 1) forked helper processes and
    this one (``_pool``); each beam's solve is the same wherever it runs,
    so the surface equals a serial build.  Assemble: take the solutions in
    beam order, and raise the error of the first beam, in beam order, whose
    solve raised, after every solve has finished.  With ``strict=False``
    an ``ElasticaConvergenceError`` is not raised: its beam keeps the best
    iterate.
    """

    kind = "continuous"

    def __init__(self, field: BumpField2D, lattice: Lattice):
        """Surface for a target field: the pixels sample the field, and each
        beam's excess is that of the field restricted to the beam's line."""
        excess = [field.along_line(b.origin, b.direction).arc_excess(0.0, b.span)
                  for b in lattice.beam_lines()]
        self._build(lattice, sample_pixels(field, lattice), excess,
                    hint_field=field)

    @classmethod
    def from_state(cls, lattice: Lattice, heights: PixelHeights,
                   beam_excess, hint_field: Optional[BumpField2D] = None,
                   previous: Optional["CrsSurface2D"] = None,
                   strict: bool = True) -> "CrsSurface2D":
        """Surface from raw display state instead of a target field.

        heights     -- actual pixel heights, lattice enumeration order
        beam_excess -- arc-length excess per beam, beam_lines() order
        hint_field  -- optional target field used only to seed the solves
        previous    -- optional surface built earlier on the same lattice.
                       A beam whose pins (stations and heights) and excess
                       exactly equal those it had there, and whose solve
                       there converged, keeps that solution without a new
                       solve; every other beam is seeded with that
                       surface's nodes, which take precedence over
                       hint_field
        strict      -- when False, beams that stop above tolerance keep
                       their best iterate instead of raising (useful for
                       transient states mid-motion)
        """
        obj = object.__new__(cls)
        obj._build(lattice, heights, beam_excess, hint_field, previous, strict)
        return obj

    def _build(self, lattice: Lattice, heights, beam_excess,
               hint_field: Optional[BumpField2D] = None,
               previous: Optional["CrsSurface2D"] = None,
               strict: bool = True) -> None:
        """Plan, map, assemble: check the arc budget of every beam to solve,
        solve those beams (``_pool.map_outcomes``), then take each beam's
        solution, or ``previous``'s (see from_state), in beam order."""
        if lattice.kind not in ("square", "hexagonal"):
            raise ValueError("CrsSurface2D needs a 2D lattice")
        heights = _pixel_heights(heights, lattice)
        self.lattice = lattice
        self.beams: List[BeamLine] = lattice.beam_lines()
        excess = np.asarray(beam_excess, dtype=float)
        if excess.shape != (len(self.beams),):
            raise ValueError("one excess per beam line required")
        if previous is not None and len(previous.solutions) != len(self.beams):
            raise ValueError(f"previous surface has {len(previous.solutions)} "
                             f"beams, this lattice {len(self.beams)}")
        excess = excess.tolist()
        pins = [np.column_stack([beam.stations, heights[beam.pixel_idx]])
                for beam in self.beams]
        old = (previous._converged_pins if previous is not None
               else [None] * len(pins))
        kept = [o is not None and previous.solutions[i].excess == excess[i]
                and np.array_equal(o, pins[i]) for i, o in enumerate(old)]
        # plan: an infeasible beam fails the whole build, so check every arc
        # budget before any solve; a kept beam passed this check, and its
        # solve converged, when ``previous`` was built
        jobs = []
        for i, constraints in enumerate(pins):
            if not kept[i]:
                normalize_beam(constraints, excess[i])
                jobs.append((constraints, excess[i],
                             self._hint(i, hint_field, previous)))
        # map, then assemble in beam order
        solved = iter(_pool.map_outcomes(_solve_beam, jobs))
        self.solutions: List[ElasticaSolution] = []
        # the pins of every beam whose solve converged, None for the others
        self._converged_pins: List[Optional[np.ndarray]] = []
        for i, constraints in enumerate(pins):
            if kept[i]:
                sol, converged = previous.solutions[i], old[i]
            else:
                sol, converged = next(solved), constraints
                if isinstance(sol, ElasticaConvergenceError) and not strict:
                    sol, converged = sol.solution, None
                elif isinstance(sol, Exception):
                    raise sol
            self.solutions.append(sol)
            self._converged_pins.append(converged)

    def _hint(self, i: int, hint_field: Optional[BumpField2D],
              previous: Optional["CrsSurface2D"]):
        """Beam i's seed: its nodes in ``previous``, else ``hint_field``
        along its line where the field's support reaches the beam, else
        None."""
        if previous is not None:
            nodes = previous.solutions[i].nodes
            return nodes[:, 0], nodes[:, 1]
        if hint_field is None:
            return None
        beam = self.beams[i]
        restr = hint_field.along_line(beam.origin, beam.direction)
        sup = restr.support()
        if sup is not None and sup[1] > 0.0 and sup[0] < beam.span:
            n_h = max(1025, int(math.ceil(
                beam.span / hint_field.wavelength)) * 256 + 1)
            hs = np.linspace(0.0, beam.span, n_h)
            return hs, restr(hs)
        return None

    extended = _extended

    def peak_candidates(self) -> np.ndarray:
        """(n, 2) positions that hold the surface's maximum over the hull:
        every beam's nodes, each station clipped to the beam's span and
        placed on its line, then the pixels, where the lines cross."""
        pts = [beam.origin + np.clip(sol.nodes[:, 0], 0.0, beam.span)[:, None]
               * beam.direction
               for beam, sol in zip(self.beams, self.solutions)]
        return np.concatenate(pts + [self.lattice.positions])

    def __call__(self, *point):
        """The surface at points that the caller has put in the hull; no hull
        test (see the module docstring)."""
        p = _pack_points(point, 2)
        ids, dists = self.lattice.cell_lines(p)
        # each bounding beam's own profile at the point's station on its
        # line, one evaluation per beam over every point that it bounds
        vals = np.zeros(ids.shape)
        flat = ids.ravel()
        for b in np.flatnonzero(np.bincount(flat[flat >= 0])):
            sel = np.flatnonzero(flat == b)
            beam = self.beams[b]
            vals.flat[sel] = self.solutions[b].profile(
                (p[sel // ids.shape[1]] - beam.origin) @ beam.direction)
        tol = 1e-9 * self.lattice.pitch
        hit = dists <= tol
        any_hit = np.any(hit, axis=1)
        w = 1.0 / np.square(np.maximum(dists, tol))
        w = np.where(ids >= 0, w, 0.0)
        num = np.sum(w * vals, axis=1)
        den = np.sum(w, axis=1)
        idw = num / np.where(den > 0.0, den, 1.0)
        n_hit = np.sum(hit & (ids >= 0), axis=1)
        exact = np.sum(np.where(hit & (ids >= 0), vals, 0.0), axis=1) \
            / np.maximum(n_hit, 1)
        return np.where(any_hit, exact, idw)


def _solve_beam(job) -> ElasticaSolution:
    """One beam of a ``CrsSurface2D`` build, job = (pins, excess, hint); a
    module-level function, so that a helper process can run it too."""
    constraints, excess, hint = job
    return solve_elastica_1d(constraints, excess, initial=hint)


# ======================================================================
# model dispatch
# ======================================================================

def build_profile(model: ReconstructionModel, field, lattice: Lattice):
    """Construct the displayed profile/surface of a model for one field."""
    if model.variant == "crs":
        if lattice.kind == "line":
            return CrsProfile1D(field, lattice)
        return CrsSurface2D(field, lattice)
    heights = sample_pixels(field, lattice)
    if model.variant == "pixel-only":
        return NearestProfile(heights, lattice)
    if lattice.kind == "line":
        return LinearProfile1D(heights, lattice)
    return LinearSurface2D(heights, lattice)


# ======================================================================
# helpers
# ======================================================================

def _pixel_heights(heights: PixelHeights, lattice: Lattice) -> np.ndarray:
    """Heights as a float array, checked to hold one per pixel."""
    heights = np.asarray(heights, dtype=float)
    if heights.shape != (lattice.n_pixels,):
        raise ValueError("one height per pixel required")
    return heights


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
