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
import time
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from . import _pool
from .fields import (BumpField1D, BumpField2D, Lattice, _raised_cosine,
                     make_lattice)
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


# A pixel-only draw takes 0.2-0.6 ms (square and hexagonal lattices, d/l
# 0.1-0.3), and a helper starts on its first item 0.2-0.4 ms after a pool
# call begins, so sharing a short pixel-only estimate costs about what it
# saves.  Such an estimate runs its draws here until they have taken one
# heartbeat, several times that hand-off, and shares only the rest
# (heartbeat scheduling), so that the hand-off stays a bounded fraction of
# the work: 4-draw estimates rarely reach the pool, while 400-draw ones
# still use every CPU.  Linear and CRS draws (5-45 ms) are shared from the
# start.
_HEARTBEAT_S = 1.5e-3


def _map_draws(kernel, model, lattice: Lattice, draws: tuple,
               *args) -> list:
    """[kernel(model, lattice, *draw, *args) for draw in zip(*draws)].  A
    pixel-only estimate runs its draws in this process, in draw order, for
    one heartbeat; the rest, and every draw of the other models, are one
    item each of one ``_pool.map_outcomes`` call, which sends ``draws`` once
    and returns its outcomes in draw order.  Every draw's result depends on
    that draw alone, so the list equals a serial run's, and the first
    failing draw's error is raised as a serial run raises it."""
    fn = functools.partial(_run_draw, kernel, model, lattice, draws, args)
    n = len(draws[0])
    outs = []
    if model.variant == "pixel-only":
        beat = time.perf_counter() + _HEARTBEAT_S
        while len(outs) < n and time.perf_counter() < beat:
            outs.append(fn(len(outs)))
    if len(outs) < n:
        outs += _pool.map_outcomes(fn, range(len(outs), n))
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
    Simpson weights and their per-row running sums are built once per
    process, 0 beyond the disc).  The pixel-only error is summed over the
    runs of nodes that share a nearest pixel (``Lattice.grid_runs``), and
    differs from a per-node sum by roundoff only.  Linear and CRS draws
    are shared one by one with crslab's helper processes, as a build's
    beams are; pixel-only draws run in the calling process for one
    heartbeat (1.5 ms), and only the rest are shared (see README,
    Processes).  The estimate equals that of a serial run bit for bit.
    Raises ValueError for a wavelength or amplitude that is not finite and
    positive, an n_samples that is not an integer (bools excluded) of at
    least 1, or a points_per_wavelength that is not an even integer of at
    least 256.
    """
    _check_arguments(wavelength, amplitude, n_samples, region,
                     "nearest_capped")
    if (not _is_count(points_per_wavelength) or points_per_wavelength < 256
            or points_per_wavelength % 2):
        raise ValueError("need an even points_per_wavelength >= 256")
    peaks = _draw_peaks(lattice, wavelength, n_samples, seed, "Ds", region)
    vals = _map_draws(_shape_error, model, lattice,
                      (peaks, _whole_windows(lattice, peaks, wavelength)),
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
    # sums over the first i nodes of each row, at [row * (m + 1) + i], of
    # (w, w phi) and of w phi^2: a run's sums are differences of two entries
    sums: np.ndarray      # (rows * (m + 1), 2)
    sum_wphi2: np.ndarray
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
    sums = np.zeros((w.size // m, m + 1, 2))
    sum_wphi2 = np.zeros((w.size // m, m + 1))
    for out, terms in ((sums[..., 0], w), (sums[..., 1], w * phi),
                       (sum_wphi2, w * phi * phi)):
        np.cumsum(terms.reshape(-1, m), axis=1, out=out[:, 1:])
    window = _Window(w, win, rel, offsets, phi, sums.reshape(-1, 2),
                     sum_wphi2.ravel(), float(phi ** 2 @ w))
    for a in window[:-1]:
        a.flags.writeable = False
    return window


def _shape_error(model, lattice, peak, whole: bool, wl, amplitude,
                 ppw) -> float:
    """One draw's relative L2 shape error over the window (``_window``);
    ``whole`` is its ``_whole_windows`` flag.

    Only window nodes in the hull contribute: a window that crosses the
    hull's edge keeps those nodes' Simpson weights alone.  The pixel-only
    surface is constant along each run of ``Lattice.grid_runs``, so with
    S0 and S1 the sums of w and w phi over a run (differences of the
    window's per-row sums) and h its pixel's height, the squared error is
    den + sum over runs of h (h S0 - 2 S1), clamped at 0 against
    cancellation.  A window crossing the hull's edge clips each row's runs
    to the row's nodes in the hull (``Lattice.grid_hull``), and takes den
    over those nodes.  The other models evaluate their surfaces at the
    window nodes in the hull, and the sums run over the full segment or
    grid, which keeps them order-stable."""
    w, win, rel, offsets, phi, sums, sum_wphi2, den = _window(
        lattice.ndim, wl, amplitude, ppw)
    profile = build_profile(model, _field_for(lattice, peak, amplitude, wl),
                            lattice)
    if model.variant == "pixel-only":
        axes = np.reshape(peak, (-1, 1)) + rel
        row, first, end, pixel = lattice.grid_runs(*axes)
        stride = rel.size + 1                  # of the per-row sums
        if not whole:
            lo, hi = lattice.grid_hull(*axes)
            first = np.clip(first, lo[row], hi[row])
            end = np.clip(end, lo[row], hi[row])
            rows = np.arange(0, sum_wphi2.size, stride)
            den = float(np.sum(sum_wphi2.take(rows + hi)
                               - sum_wphi2.take(rows + lo)))
        at = row * stride
        s = sums.take(at + end, axis=0) - sums.take(at + first, axis=0)
        h = profile.heights.take(pixel)
        err2 = den + float(np.vdot(h, h * s[..., 0] - 2.0 * s[..., 1]))
        return math.sqrt(max(err2, 0.0) / den)
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
