"""Continuity metrics: mean peak-position and shape distortion.

The display quality of a pixel device is summarized by two expectations
over a uniformly random target peak position: the mean normalized peak
offset D_p = E(|x_r - X_i| / l) and the mean relative L2 shape error D_s
over a one-wavelength window centred on the ideal peak.  Both are plain
Monte Carlo means over seedable substreams, so every estimate is exactly
reproducible and models can be compared on identical draws.

Conventions baked into this module:

* ideal peak positions are uniform over the pixel hull (the region between
  the first and last pixels); an interior variant shrinks the region by
  half a wavelength to isolate edge effects;
* ideal and displayed shapes are evaluated as zero outside the hull;
* samples whose reconstruction is identically zero ("no peak") count with
  the nearest pixel position capped at half a pitch, instead of being
  discarded (discarding would bias D_p down); a config flag exposes the
  discarding variant for sensitivity checks.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import _pool
from .fields import (BumpField1D, BumpField2D, Lattice, _raised_cosine,
                     _segments, make_lattice)
from .reconstruct import ReconstructionModel, build_profile
from .rng import uniform_block


class NoPeakError(ValueError):
    """The reconstruction is identically zero; there is no peak to locate."""


@dataclass(frozen=True)
class PeakResult:
    """Located maximum of a displayed profile.

    location -- x_r (1D) or np.array([x_r, y_r]) (2D)
    height   -- profile value at the location
    plateau  -- True when the maximum is attained on a flat region (always
                the case for the staircase model)
    """

    location: Union[float, np.ndarray]
    height: float
    plateau: bool


@dataclass(frozen=True)
class DistortionEstimate:
    """One Monte Carlo distortion estimate.

    metric         -- "Dp" or "Ds"
    value          -- dimensionless mean
    standard_error -- sample standard error of the mean
    n_samples      -- number of peak draws
    d_over_l       -- pixel pitch over wavelength
    model          -- reconstruction variant name
    rng_seed       -- base seed of the draw stream
    region         -- "full" (whole hull) or "interior" (hull shrunk by l/2)
    """

    metric: str
    value: float
    standard_error: float
    n_samples: int
    d_over_l: float
    model: str
    rng_seed: int
    region: str = "full"


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of D = c (d/l)^p on log-log values."""

    coefficient: float
    exponent: float
    residual: float           # RMS of log-residuals


# ======================================================================
# peak finding
# ======================================================================

def find_peak(profile) -> PeakResult:
    """Locate the global maximum of a displayed profile over the hull.

    The maximum lies in a finite candidate set, so nothing is searched.
    Vertex-based models (staircase, linear) peak at a pixel and take their
    values from the pixel heights, which the barycentric surface matches
    only to roundoff.  Continuous (CRS) profiles are evaluated in one call
    on their ``peak_candidates``: every beam node, then the pixels.  Each
    CRS value is a convex combination of beam-polyline values (in 1D, the
    polyline itself), so none exceeds the best beam node, and on its own
    line the surface takes that node's value; see ``CrsSurface2D``.  The
    first maximum wins: the lowest-indexed pixel, or the first candidate.
    A staircase maximum is always a plateau, and a linear one is when
    pixels tie.  Raises NoPeakError for an identically zero reconstruction.
    """
    lat: Lattice = profile.lattice
    if profile.kind == "continuous":
        pts = profile.peak_candidates()
        vals = profile(pts)
    else:
        pts, vals = lat.positions, np.asarray(profile.heights, dtype=float)
    if not np.any(vals > 0.0):
        raise NoPeakError("no peak")
    i = int(np.argmax(vals))
    top = float(vals[i])
    plateau = profile.kind == "staircase" or (
        profile.kind == "linear" and int(np.count_nonzero(vals == top)) > 1)
    loc = float(pts[i]) if lat.ndim == 1 else pts[i].copy()
    return PeakResult(loc, top, plateau)


# ======================================================================
# Monte Carlo draws
# ======================================================================

def _draw_peaks(lattice: Lattice, wavelength: float, n: int, seed: int,
                metric: str, region: str) -> np.ndarray:
    """Peak positions for one estimate.  The stream tag deliberately omits
    the model so that different models see identical draws (paired
    comparisons); it includes the metric and region so those never share
    samples."""
    tag = f"{metric}:{lattice.kind}:{region}"
    u = uniform_block(seed, tag, n, lattice.uniforms_per_point())
    margin = 0.5 * wavelength if region == "interior" else 0.0
    return lattice.points_from_uniform(u, margin=margin)


def _field_for(lattice: Lattice, peak, amplitude: float, wavelength: float):
    if lattice.ndim == 1:
        return BumpField1D(float(peak), amplitude, wavelength)
    return BumpField2D((float(peak[0]), float(peak[1])), amplitude, wavelength)


def _map_draws(kernel, model, lattice: Lattice, draws: tuple,
               *args) -> list:
    """[kernel(model, lattice, *draw, *args) for draw in zip(*draws)], as
    one item a draw of one ``_pool.map_outcomes`` call, which sends
    ``draws`` once and returns its outcomes in draw order.  Every draw's
    result depends on that draw alone, so the list equals a serial run's,
    and the first failing draw's error is raised as a serial run raises
    it."""
    outs = _pool.map_outcomes(
        functools.partial(_run_draw, kernel, model, lattice, draws, args),
        range(len(draws[0])))
    for out in outs:
        if isinstance(out, Exception):
            raise out
    return outs


def _run_draw(kernel, model, lattice, draws, args, i: int):
    return kernel(model, lattice, *(d[i] for d in draws), *args)


# ======================================================================
# position distortion
# ======================================================================

def position_distortion(model: ReconstructionModel, lattice: Lattice,
                        wavelength: float, n_samples: int, seed: int,
                        amplitude: float = 1.0, region: str = "full",
                        no_peak_policy: str = "nearest_capped",
                        ) -> DistortionEstimate:
    """Mean normalized peak offset D_p for one model on one lattice.

    Draws n_samples ideal peak positions uniformly over the region ("full"
    hull per the metric's definition, or "interior"), reconstructs each
    target, and averages |x_r - X_i| / l.  Deterministic given the seed;
    estimates for different models with equal (lattice, wavelength, seed,
    region) use identical draws.  Reported runs should use n_samples >=
    1000.  CRS draws are shared one by one with crslab's helper processes,
    as a build's beams are (see README, Processes); the estimate equals
    that of a serial run bit for bit.  Raises ValueError for a wavelength or
    amplitude that is not finite and positive, or an n_samples that is not
    an integer (bools excluded) of at least 1.
    """
    _check_arguments(wavelength, amplitude, n_samples, region, no_peak_policy)
    peaks = _draw_peaks(lattice, wavelength, n_samples, seed, "Dp", region)
    if model.variant in ("pixel-only", "linear"):
        errs = _vertex_position_errors(lattice, peaks, wavelength,
                                       no_peak_policy)
    else:
        errs = np.array([e for e in _map_draws(
            _crs_position_error, model, lattice, (peaks,), wavelength,
            amplitude, no_peak_policy) if e is not None])
    return _estimate_from_errors(errs / wavelength, "Dp", lattice, wavelength,
                                 model.variant, seed, region)


def _vertex_position_errors(lattice: Lattice, peaks: np.ndarray,
                            wavelength: float, policy: str) -> np.ndarray:
    """Both vertex-based models peak at the maximum-height pixel, which for
    a radially decreasing bump is exactly the nearest pixel, so the peak
    error is the nearest-pixel distance (capped at d/2 for the rare draws
    whose bump misses every pixel)."""
    dist = lattice.nearest_distance(peaks)
    in_support = dist < 0.5 * wavelength
    if policy == "discard":
        return dist[in_support]
    return np.where(in_support, dist, np.minimum(dist, 0.5 * lattice.pitch))


def _crs_position_error(model: ReconstructionModel, lattice: Lattice,
                        peak, wavelength: float, amplitude: float,
                        policy: str) -> Optional[float]:
    """One draw's peak error, or None for a no-peak draw that the
    "discard" policy drops."""
    profile = build_profile(model, _field_for(lattice, peak, amplitude,
                                              wavelength), lattice)
    try:
        res = find_peak(profile)
    except NoPeakError:
        if policy == "discard":
            return None
        d = float(lattice.nearest_distance(
            np.atleast_1d(peak) if lattice.ndim == 1
            else np.atleast_2d(peak))[0])
        return min(d, 0.5 * lattice.pitch)
    if lattice.ndim == 1:
        return abs(res.location - float(peak))
    return float(np.linalg.norm(res.location - peak))


# ======================================================================
# shape distortion
# ======================================================================

def shape_distortion(model: ReconstructionModel, lattice: Lattice,
                     wavelength: float, n_samples: int, seed: int,
                     amplitude: float = 1.0, region: str = "full",
                     points_per_wavelength: int = 256,
                     ) -> DistortionEstimate:
    """Mean relative L2 shape error D_s over a one-wavelength window.

    Per sample, integrates (ideal - displayed)^2 and ideal^2 over the
    window centred on the ideal peak, both shapes taken as zero outside the
    display hull, and averages the square-rooted ratio.  The displayed
    shape is the model's ``build_profile`` surface for the sampled target,
    so its pixel heights are the ``sample_pixels`` heights.  The window is
    a segment of length l in 1D, integrated by composite Simpson at
    points_per_wavelength subintervals per wavelength; in 2D it is the
    disc of diameter l, integrated by the product Simpson rule over the
    nodes of the square grid of that spacing that lie in the disc (its
    Simpson weights and their running sums are built once per process, 0
    beyond the disc).  Pixel-only errors are computed for all draws at once
    in this process (``_pixel_shape_errors``), summed over the runs of
    ``Lattice.grid_runs``, and differ from a per-node sum by roundoff only.
    Linear and CRS draws are shared one by one with crslab's helper
    processes, as a build's beams are (see README, Processes).  The
    estimate equals that of a serial run bit for bit.  Raises ValueError
    for a wavelength or amplitude that is not finite and positive, an
    n_samples that is not an integer (bools excluded) of at least 1, or a
    points_per_wavelength that is not an even integer of at least 256.
    """
    _check_arguments(wavelength, amplitude, n_samples, region,
                     "nearest_capped")
    if (not _is_count(points_per_wavelength) or points_per_wavelength < 256
            or points_per_wavelength % 2):
        raise ValueError("need an even points_per_wavelength >= 256")
    peaks = _draw_peaks(lattice, wavelength, n_samples, seed, "Ds", region)
    whole = _whole_windows(lattice, peaks, wavelength)
    if model.variant == "pixel-only":
        vals = _pixel_shape_errors(lattice, peaks, whole, wavelength,
                                   amplitude, points_per_wavelength)
    else:
        vals = _map_draws(_shape_error, model, lattice, (peaks, whole),
                          wavelength, amplitude, points_per_wavelength)
    return _estimate_from_errors(vals, "Ds", lattice, wavelength,
                                 model.variant, seed, region)


def _whole_windows(lattice: Lattice, peaks: np.ndarray, wl: float) -> np.ndarray:
    """True for peaks whose window of diameter wl lies wholly in the hull.
    The hull is convex, so a peak l/2 inside it puts every node inside; the
    extra 1e-9 l absorbs the few ulps by which a node's rounded coordinates
    and radius can exceed the exact ones."""
    return lattice.contains(peaks, margin=0.5 * wl + 1e-9 * wl)


class _Window(NamedTuple):
    """The integration window of the shape error, centred on the origin."""

    w: np.ndarray         # Simpson weights on the segment or grid, 0 beyond l/2
    win: np.ndarray       # flat indices of the nodes within l/2 of the centre
    rel: np.ndarray       # the m grid coordinates along each axis
    offsets: np.ndarray   # the win nodes' offsets from the centre, (n,) or (n, 2)
    phi: np.ndarray       # the ideal shape over the segment or grid
    # the sums of w, w phi and w phi^2 over the nodes in rows < r and
    # columns < i, at [r * (m + 1) + i] for r = 0 .. rows (a segment is one
    # row): a block of rows and columns sums to four entries of each.  The
    # w and w phi sums are one complex number, so that one take reads both
    table: np.ndarray     # ((rows + 1) * (m + 1),), sum w + 1j sum w phi
    wphi2: np.ndarray     # ((rows + 1) * (m + 1),), sum w phi^2
    den: float            # sum of phi^2 w


@functools.lru_cache(maxsize=2)
def _window(ndim: int, wl: float, amplitude: float, ppw: int) -> _Window:
    """The m = ppw + 1 node window: the m-node segment in 1D, the disc
    nodes of the m x m grid in 2D.  Built once per process and shared by
    every call, so its arrays are read-only."""
    m = ppw + 1
    rel = np.linspace(-0.5 * wl, 0.5 * wl, m)
    dx = rel[1] - rel[0]
    w1 = np.ones(m)
    w1[1:-1:2] = 4.0
    w1[2:-1:2] = 2.0
    if ndim == 1:
        rr, w = np.abs(rel), w1 * (dx / 3.0)
    else:
        rr = np.hypot(rel[None, :], rel[:, None]).ravel()
        w = np.outer(w1, w1).ravel() * (dx / 3.0) ** 2
    disc = rr <= 0.5 * wl
    w *= disc
    win = np.flatnonzero(disc)
    # column-major (n, 2), so that adding a peak runs along each column
    offsets = rel[win] if ndim == 1 else np.array([rel[win % m],
                                                   rel[win // m]]).T
    phi = np.zeros(rr.size)
    phi[win] = _raised_cosine(rr[win], amplitude, wl)
    table = np.zeros((w.size // m + 1, m + 1), dtype=complex)
    wphi2 = np.zeros(table.shape)
    for out, terms in ((table.real, w), (table.imag, w * phi),
                       (wphi2, w * phi * phi)):
        np.cumsum(terms.reshape(-1, m), axis=1, out=out[1:, 1:])
        np.cumsum(out[1:, 1:], axis=0, out=out[1:, 1:])
    window = _Window(w, win, rel, offsets, phi, table.ravel(), wphi2.ravel(),
                     float(phi ** 2 @ w))
    for a in window[:-1]:
        a.flags.writeable = False
    return window


# Draws per pass of the pixel-only shape kernel: enough to spread its
# NumPy calls thin, few enough that a pass's runs take a few MB
_BLOCK = 32


def _pixel_shape_errors(lattice: Lattice, peaks: np.ndarray,
                        whole: np.ndarray, wl: float, amplitude: float,
                        ppw: int) -> np.ndarray:
    """Every draw's pixel-only shape error over the window (``_window``),
    ``_BLOCK`` draws a pass; ``whole`` holds their ``_whole_windows``
    flags.

    A pass stacks its draws' window grids for ``Lattice.grid_runs``.  The
    staircase is constant on each run, so with S0 and S1 the sums of w and
    w phi over a run's rows and nodes (``_block_sums``) and h its pixel's
    height (``_pixel_heights``), the squared error is den + sum over runs
    of h (h S0 - 2 S1), clamped at 0 against cancellation.  Only window
    nodes in the hull contribute: a window that crosses the hull's edge
    splits its bands wherever a row's nodes in the hull
    (``Lattice.grid_hull``) change, clips each run to them, and takes den
    from the w phi^2 sums over them.  A draw's error is summed over its own
    runs, in their order, so it does not depend on the other draws of its
    pass."""
    window = _window(lattice.ndim, wl, amplitude, ppw)
    m = window.rel.size
    rows = m if lattice.ndim == 2 else 1
    peaks = peaks.reshape(len(whole), -1)
    errs = np.empty(len(whole))
    for at in range(0, errs.size, _BLOCK):
        peak = peaks[at:at + _BLOCK]
        axes = peak.T[..., None] + window.rel
        row0, row1, first, end, pixel = lattice.grid_runs(*axes)
        grid = row0 // rows
        h = _pixel_heights(lattice, peak, amplitude, wl, pixel, grid)
        den = window.wphi2[-1]
        if not whole[at:at + _BLOCK].all():
            # each row's nodes in the hull, and the bands of rows that
            # share them: a whole window is one band, which leaves its runs
            # and its den as they are
            part = np.flatnonzero(~whole[at:at + _BLOCK])
            lo = np.zeros((len(peak), rows), dtype=np.int64)
            hi = np.full((len(peak), rows), m)
            lo[part], hi[part] = (a.reshape(part.size, rows) for a in
                                  lattice.grid_hull(*axes[:, part]))
            hg, h0, h1 = _segments(lo, hi)
            hlo, hhi = lo[hg, h0], hi[hg, h0]
            den = np.bincount(hg, _block_sums(window.wphi2, m, h0, h1, hlo,
                                              hhi), len(peak))
            # each run in one piece per band that its rows cross
            band = np.arange(hg.size).repeat(h1 - h0)
            b0 = band.take(row0)
            count = band.take(row1 - 1) - b0 + 1
            run = np.arange(count.size).repeat(count)
            band = (np.arange(run.size)
                    + (b0 - (count.cumsum() - count)).repeat(count))
            grid, h = grid.take(run), h.take(run)
            row0 = np.maximum(row0.take(run), (hg * rows + h0).take(band))
            row1 = np.minimum(row1.take(run), (hg * rows + h1).take(band))
            lo, hi = hlo.take(band), hhi.take(band)
            first = np.minimum(np.maximum(first.take(run), lo), hi)
            end = np.minimum(np.maximum(end.take(run), lo), hi)
        base = grid * rows
        s = _block_sums(window.table, m, row0 - base, row1 - base, first, end)
        err2 = den + np.bincount(grid, h * (h * s.real - 2.0 * s.imag),
                                 len(peak))
        errs[at:at + _BLOCK] = np.sqrt(np.maximum(err2, 0.0) / den)
    return errs


def _pixel_heights(lattice: Lattice, peaks: np.ndarray, amplitude: float,
                   wl: float, pixel: np.ndarray, draw: np.ndarray
                   ) -> np.ndarray:
    """The height of each pixel[i] under the bump of draw draw[i], as
    ``sample_pixels`` gives it.  Pixels are enumerated by y (x on a line),
    so those whose y lies within l/2 + d of a draw's peak are one index
    range, lo .. lo + k - 1 at most, k the widest range of the pass.  The
    bump is evaluated at pixels lo - 1 .. lo + k of every draw, clipped to
    the lattice's pixels.  Both ends lie farther than l/2 from the peak
    (or are clipped, and then no pixel lies beyond them), so every pixel
    beyond them, where the bump is +0.0 too, reads the end on its side."""
    pos = lattice.positions.reshape(lattice.n_pixels, -1)
    reach = 0.5 * wl + lattice.pitch
    lo, hi = pos[:, -1].searchsorted(peaks[:, -1] + [[-reach], [reach]],
                                     side="right")
    k = int((hi - lo).max())
    p = np.minimum(np.maximum(lo[:, None] + np.arange(-1, k + 1), 0),
                   lattice.n_pixels - 1)
    dx = pos[:, 0].take(p) - peaks[:, :1]
    if lattice.ndim == 1:
        h = _raised_cosine(np.abs(dx), amplitude, wl)
    else:
        h = _raised_cosine(np.hypot(dx, pos[:, 1].take(p) - peaks[:, 1:]),
                           amplitude, wl)
    if not np.isfinite(h).all():
        raise ValueError("non-finite pixel height")
    return h.take(draw * (k + 2)
                  + np.minimum(np.maximum(pixel - lo.take(draw) + 1, 0), k + 1))


def _block_sums(table: np.ndarray, m: int, r0, r1, c0, c1) -> np.ndarray:
    """The sums over rows r0 .. r1 - 1 and nodes c0 .. c1 - 1 of the window
    from its running sums of one or two channels (``_Window``), each row's
    difference first, so that an empty block sums to exactly 0."""
    a0, a1 = r0 * (m + 1), r1 * (m + 1)
    return ((table.take(a1 + c1) - table.take(a1 + c0))
            - (table.take(a0 + c1) - table.take(a0 + c0)))


def _shape_error(model, lattice, peak, whole: bool, wl, amplitude,
                 ppw) -> float:
    """One linear or CRS draw's relative L2 shape error over the window
    (``_window``); ``whole`` is its ``_whole_windows`` flag.

    The surface is evaluated at the window nodes in the hull: a window that
    crosses the hull's edge keeps those nodes' Simpson weights alone, and
    takes den over them.  The sums run over the full segment or grid,
    which keeps them order-stable."""
    w, win, _, offsets, phi, _, _, den = _window(lattice.ndim, wl,
                                                 amplitude, ppw)
    profile = build_profile(model, _field_for(lattice, peak, amplitude, wl),
                            lattice)
    node = win
    pts = peak + offsets
    if not whole:
        inside = lattice.contains(pts)
        node = win[inside]
        kept = np.zeros(w.size)
        kept[node] = w[node]
        w = kept
        den = float(phi ** 2 @ w)
        # per column, which keeps pts column-major
        pts = np.compress(inside, pts.T, axis=-1).T
    err = np.zeros(w.size)
    err[node] = (phi[node] - profile(pts)) ** 2
    return math.sqrt(float(err @ w) / den)


# ======================================================================
# power-law fitting and sweeps
# ======================================================================

def fit_power_law(points: Sequence[Tuple[float, float]]) -> PowerLawFit:
    """Fit D = c (d/l)^p by least squares on (log(d/l), log D).

    Needs at least 4 strictly positive points.  The residual is the RMS of
    the log-domain fit residuals.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
        raise ValueError("need at least 4 (d/l, D) points")
    if np.any(pts <= 0.0):
        raise ValueError("power-law fit needs positive values")
    lx = np.log(pts[:, 0])
    ly = np.log(pts[:, 1])
    p, lc = np.polyfit(lx, ly, 1)
    res = ly - (p * lx + lc)
    return PowerLawFit(float(math.exp(lc)), float(p),
                       float(math.sqrt(np.mean(res ** 2))))


@dataclass(frozen=True)
class SweepConfig:
    """Configuration of a distortion sweep.

    Lattice sizing: 1D displays span span_wavelengths wavelengths; 2D
    displays extend radius_wavelengths wavelengths from the centre
    (hex_rings / grid_points override the derived size when set).  The CRS
    model uses its own, smaller sample counts since each sample costs one
    or more elastica solves.
    """

    wavelength: float = 90.0
    amplitude: float = 1.0
    n_position: int = 20000
    n_shape: int = 400
    n_position_crs: int = 1000
    n_shape_crs: int = 300
    seed: int = 20240
    span_wavelengths: float = 4.0
    radius_wavelengths: float = 2.0
    hex_rings: Optional[int] = None
    grid_points: Optional[int] = None
    include_interior: bool = True
    points_per_wavelength: int = 256
    no_peak_policy: str = "nearest_capped"


def lattice_for(kind: str, d_over_l: float, config: SweepConfig) -> Lattice:
    """The display lattice a sweep uses at one d/l point."""
    d = d_over_l * config.wavelength
    if kind == "line":
        n_gaps = max(2, int(round(config.span_wavelengths / d_over_l)))
        return make_lattice("line", d, (0.0, n_gaps * d))
    if kind == "square":
        if config.grid_points is not None:
            m = config.grid_points
        else:
            m = max(2, int(round(2.0 * config.radius_wavelengths / d_over_l)) + 1)
        side = (m - 1) * d
        return make_lattice("square", d, ((0.0, side), (0.0, side)))
    if kind == "hexagonal":
        if config.hex_rings is not None:
            k = config.hex_rings
        else:
            k = max(2, int(round(config.radius_wavelengths / d_over_l)))
        return make_lattice("hexagonal", d, k * d)
    raise ValueError(f"unknown lattice kind: {kind!r}")


def distortion_sweep(models: Sequence[Union[str, ReconstructionModel]],
                     d_over_l_values: Sequence[float], lattice_kind: str,
                     config: Optional[SweepConfig] = None,
                     ) -> List[DistortionEstimate]:
    """Full distortion table: every model and metric on a shared d/l grid.

    Models at the same grid point share peak draws (the sample streams are
    keyed by metric, lattice kind and region only), so cross-model
    comparisons are paired.  Returns the flat list of estimates; adding the
    interior-region variant doubles the rows.
    """
    config = config or SweepConfig()
    models = [ReconstructionModel(m) if isinstance(m, str)
              else m for m in models]
    regions = ("full", "interior") if config.include_interior else ("full",)
    rows: List[DistortionEstimate] = []
    for dol in d_over_l_values:
        lat = lattice_for(lattice_kind, dol, config)
        for model in models:
            crs = model.variant == "crs"
            n_pos = config.n_position_crs if crs else config.n_position
            n_shp = config.n_shape_crs if crs else config.n_shape
            for region in regions:
                rows.append(position_distortion(
                    model, lat, config.wavelength, n_pos, config.seed,
                    amplitude=config.amplitude, region=region,
                    no_peak_policy=config.no_peak_policy))
                rows.append(shape_distortion(
                    model, lat, config.wavelength, n_shp, config.seed,
                    amplitude=config.amplitude, region=region,
                    points_per_wavelength=config.points_per_wavelength))
    return rows


def sweep_fits(rows: Sequence[DistortionEstimate]) -> List[Tuple[str, str, str, PowerLawFit]]:
    """Power-law fits per (model, metric, region) group with >= 4 points."""
    groups = {}
    for r in rows:
        groups.setdefault((r.model, r.metric, r.region), []).append(
            (r.d_over_l, r.value))
    fits = []
    for (model, metric, region), pts in sorted(groups.items()):
        if len(pts) >= 4 and all(v > 0.0 for _, v in pts):
            fits.append((model, metric, region,
                         fit_power_law(sorted(pts))))
    return fits


# ======================================================================
# shared helpers
# ======================================================================

def _check_arguments(wavelength: float, amplitude: float, n_samples: int,
                     region: str, policy: str) -> None:
    if not (math.isfinite(wavelength) and wavelength > 0.0):
        raise ValueError("wavelength must be finite and positive")
    if not (math.isfinite(amplitude) and amplitude > 0.0):
        raise ValueError("amplitude must be finite and positive")
    if not _is_count(n_samples) or n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    if region not in ("full", "interior"):
        raise ValueError("region must be 'full' or 'interior'")
    if policy not in ("nearest_capped", "discard"):
        raise ValueError("no-peak policy must be 'nearest_capped' or 'discard'")


def _is_count(n) -> bool:
    """A Python or NumPy integer, not a bool, as the CLI schema types it."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def _estimate_from_errors(errs: np.ndarray, metric: str, lattice: Lattice,
                          wavelength: float, model: str, seed: int,
                          region: str) -> DistortionEstimate:
    errs = np.asarray(errs, dtype=float)
    n = errs.size
    if n == 0:
        raise ValueError("no samples left to average")
    value = float(np.mean(errs))
    se = float(np.std(errs, ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return DistortionEstimate(metric, value, se, n,
                              lattice.pitch / wavelength, model, seed, region)
