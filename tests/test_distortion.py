"""Distortion metrics: peak location, Monte Carlo estimates against
closed-form oracles, pairing, scaling, and sweep plumbing."""
import dataclasses
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crslab import _pool, distortion, reconstruct
from crslab.distortion import (
    DistortionEstimate,
    NoPeakError,
    SweepConfig,
    distortion_sweep,
    find_peak,
    fit_power_law,
    lattice_for,
    position_distortion,
    shape_distortion,
    sweep_fits,
)
from crslab.fields import (BumpField1D, BumpField2D, Lattice, _raised_cosine,
                           make_lattice, sample_pixels)
from crslab.reconstruct import (CrsProfile1D, CrsSurface2D, LinearProfile1D,
                                LinearSurface2D, NearestProfile,
                                ReconstructionModel, build_profile)

PIX = ReconstructionModel("pixel-only")
LIN = ReconstructionModel("linear")
CRS = ReconstructionModel("crs")


# closed-form mean nearest-pixel distances over one Voronoi cell,
# normalized by the pitch d
SQUARE_CELL_MEAN = (math.sqrt(2.0) + math.log(1.0 + math.sqrt(2.0))) / 6.0
HEX_CELL_MEAN = (1.0 / 3.0) * (1.0 / 3.0 + math.log(3.0) / 4.0) \
    / math.tan(math.pi / 6.0)


# ======================================================================
# peak finding
# ======================================================================

def test_find_peak_staircase_rules():
    lat = make_lattice("line", 30.0, 120.0)
    res = find_peak(NearestProfile(np.array([0.0, 1.0, 5.0, 1.0, 0.0]), lat))
    assert res.location == 60.0
    assert res.height == 5.0
    assert res.plateau is True
    # tie resolves to the lower-indexed pixel
    res = find_peak(NearestProfile(np.array([0.0, 3.0, 3.0, 0.0, 0.0]), lat))
    assert res.location == 30.0
    with pytest.raises(NoPeakError):
        find_peak(NearestProfile(np.zeros(5), lat))


def test_find_peak_linear_plateau_flag():
    from crslab.reconstruct import LinearProfile1D
    lat = make_lattice("line", 30.0, 120.0)
    unique = find_peak(LinearProfile1D(np.array([0.0, 1.0, 4.0, 1.0, 0.0]), lat))
    assert unique.plateau is False
    tied = find_peak(LinearProfile1D(np.array([0.0, 4.0, 4.0, 1.0, 0.0]), lat))
    assert tied.plateau is True


_PEAK_LATTICES = {
    "line": make_lattice("line", 30.0, 180.0),
    "square": make_lattice("square", 30.0, (90.0, 90.0)),
    "hexagonal": make_lattice("hexagonal", 30.0, 60.0),
}


def _crs_profile(lat, peak, amplitude=1.0, wl=90.0):
    """The CRS display of a bump peaked at peak."""
    if lat.ndim == 1:
        return CrsProfile1D(BumpField1D(float(peak), amplitude, wl), lat)
    return CrsSurface2D(BumpField2D(tuple(peak), amplitude, wl), lat)


def _overshoot(sol, span):
    """The solution with its end node 1e-9 of the span past its end pin."""
    nodes = sol.nodes.copy()
    nodes[-1, 0] += 1e-9 * span
    return dataclasses.replace(sol, nodes=nodes)


@pytest.mark.parametrize("overshoot", [True, False])
def test_find_peak_stays_inside_hull_at_rising_end(overshoot):
    # the bump peaks on the last pixel, the hull's end in 1D and one of its
    # corners in 2D, so the displayed peak lies near the hull edge; with
    # overshoot, every beam's end node sits 1e-9 of its span past its end
    # pin, as a few beam solves leave it, and no candidate may follow it
    # out of the hull
    for kind, lat in _PEAK_LATTICES.items():
        corner = lat.positions[-1]
        prof = _crs_profile(lat, corner)
        if overshoot and lat.ndim == 1:
            prof.solution = _overshoot(prof.solution, 180.0)
        elif overshoot:
            prof.solutions = [_overshoot(sol, beam.span) for sol, beam
                              in zip(prof.solutions, prof.beams)]
        assert np.all(lat.contains(prof.peak_candidates())), kind
        res = find_peak(prof)
        loc = np.atleast_1d(res.location)
        assert lat.contains(loc)[0], kind
        assert np.linalg.norm(loc - corner) < 0.25 * lat.pitch, kind
        assert res.height == float(np.atleast_1d(prof(*loc))[0]), kind


def _hull_grid(lat, spacing=0.25):
    """The nodes of a grid of at most the given spacing over the hull's
    bounding box that lie in the hull: (n,) in 1D, (n, 2) in 2D."""
    lo = np.atleast_1d(lat.positions.min(axis=0))
    hi = np.atleast_1d(lat.positions.max(axis=0))
    axes = [np.linspace(a, b, int(math.ceil((b - a) / spacing)) + 1)
            for a, b in zip(lo, hi)]
    if lat.ndim == 1:
        return axes[0]
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes)])
    return pts[lat.contains(pts)]


@pytest.mark.parametrize("kind", sorted(_PEAK_LATTICES))
@settings(deadline=None, max_examples=25)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
# a peak on a sector edge, where a local search along the lattice axes
# stopped on the crease of a 120-degree beam below the surface's top
@example(u=[0.5, 0.17741827759015652, 0.4442102408112557])
def test_crs_peak_is_global_maximum(kind, u):
    # the peak contract: the result is a point of the hull, its height is
    # the surface there, and no node of a 0.25 mm grid over the hull is
    # higher beyond roundoff
    lat = _PEAK_LATTICES[kind]
    wl, amplitude = 90.0, 1.0
    peak = lat.points_from_uniform([u[:lat.uniforms_per_point()]])[0]
    if lat.ndim == 1:
        prof = CrsProfile1D(BumpField1D(float(peak), amplitude, wl), lat)
    else:
        prof = CrsSurface2D(BumpField2D(tuple(peak), amplitude, wl), lat)
    res = find_peak(prof)
    loc = np.atleast_1d(res.location)
    assert lat.contains(loc)[0]
    value = float(np.atleast_1d(prof(*loc))[0])
    assert res.height == pytest.approx(value, abs=1e-12 * amplitude)
    assert value >= float(np.max(prof(_hull_grid(lat)))) - 1e-12 * amplitude


# ======================================================================
# callers keep the evaluation contract
# ======================================================================

@pytest.fixture
def hull_calls(monkeypatch):
    """Every model's __call__ asserts that the hull holds its points, as
    the evaluation contract asks of callers; the list names the model of
    each call.  The pixel-only shape kernel reads pixel heights over runs
    of its window grid's nodes instead, outside the hull too: that lookup is
    logged as well, and it splits off every node outside the hull as a run
    of its own that reads the pixel nearest the window's centre, the bump's
    highest, so an estimate that used one would change.  Every draw runs in
    this process, where the patch reaches: a helper process forked earlier
    would evaluate some draws out of its sight."""
    _serial(monkeypatch)
    calls = []
    for cls in (NearestProfile, LinearProfile1D, LinearSurface2D,
                CrsProfile1D, CrsSurface2D):
        def checked(self, *point, _call=cls.__call__):
            p = reconstruct._pack_points(point, self.lattice.ndim)
            assert self.lattice.contains(p).all(), type(self).__name__
            calls.append(type(self).__name__)
            return _call(self, *point)
        monkeypatch.setattr(cls, "__call__", checked)

    def misread_outside(self, xs, ys=None, _call=Lattice.grid_runs):
        row, first, end, pixel = (a.ravel() for a in np.broadcast_arrays(
            *_call(self, xs, ys)))
        count = end - first
        node = np.repeat(row * len(xs) + first - np.cumsum(count) + count,
                         count) + np.arange(count.sum())
        pts = xs if ys is None else np.column_stack(
            [np.tile(xs, len(ys)), np.repeat(ys, len(xs))])
        out = np.flatnonzero(~self.contains(pts))
        keep = ~np.isin(node, out)
        centre = [np.mean(xs)] if ys is None else [[np.mean(xs), np.mean(ys)]]
        calls.append("grid_runs")
        return (np.append(row.repeat(count)[keep], out // len(xs)),
                np.append(node[keep] % len(xs), out % len(xs)),
                np.append(node[keep] % len(xs) + 1, out % len(xs) + 1),
                np.append(pixel.repeat(count)[keep],
                          np.full(out.size, self.nearest_index(centre)[0])))
    monkeypatch.setattr(Lattice, "grid_runs", misread_outside)
    return calls


_CALLER_LATTICES = {
    "line": make_lattice("line", 30.0, 180.0),
    "square": make_lattice("square", 30.0, (150.0, 150.0)),
    "hexagonal": make_lattice("hexagonal", 30.0, 90.0),
}


@pytest.mark.parametrize("kind", sorted(_CALLER_LATTICES))
@pytest.mark.parametrize("model", [PIX, LIN, CRS],
                         ids=["pixel-only", "linear", "crs"])
def test_shape_kernel_evaluates_hull_points_only(hull_calls, kind, model):
    # over the whole hull some windows lie wholly inside it and the others
    # cross its edge; either way the model sees only hull points
    lat = _CALLER_LATTICES[kind]
    peaks = distortion._draw_peaks(lat, 90.0, 3, 12, "Ds", "full")
    whole = distortion._whole_windows(lat, peaks, 90.0)
    assert whole.any() and not whole.all()
    est = shape_distortion(model, lat, 90.0, 3, 12, region="full")
    assert len(hull_calls) == 3
    if model is PIX:
        assert set(hull_calls) == {"grid_runs"}
        errs = _pixel_shape_errors_per_node(lat, peaks, 90.0, 1.0, 256)
        assert est.value == pytest.approx(float(np.mean(errs)), rel=1e-11)
        assert est.standard_error == pytest.approx(
            float(np.std(errs, ddof=1) / math.sqrt(3)), rel=1e-11)


_HULL_EDGE = {"line": 180.0, "square": (45.0, 0.0),
              "hexagonal": (52.5, 7.5 * math.sqrt(3.0))}


@pytest.mark.parametrize("kind", sorted(_PEAK_LATTICES))
def test_find_peak_evaluates_hull_points_only(hull_calls, kind):
    # an inner peak, one on the last pixel (a hull end or corner), and one
    # on the hull edge between pixels
    lat = _PEAK_LATTICES[kind]
    inner = lat.points_from_uniform(
        [[0.3, 0.6, 0.2][:lat.uniforms_per_point()]])
    peaks = [inner[0], lat.positions[-1], np.asarray(_HULL_EDGE[kind])]
    assert lat.contains(np.asarray(peaks)).all()
    for peak in peaks:
        find_peak(_crs_profile(lat, peak))
    assert len(hull_calls) == len(peaks)


# ======================================================================
# draws on helper processes
# ======================================================================

def _serial(monkeypatch):
    monkeypatch.setattr(_pool, "_helpers", lambda n_items: None)


def _no_heartbeat(monkeypatch):
    """Every draw of every model is a pool item, pixel-only ones too."""
    monkeypatch.setattr(distortion, "_HEARTBEAT_S", 0.0)


def _spy_on_pool_calls(monkeypatch) -> list:
    """The item count of every later ``_pool.map_outcomes`` call."""
    calls = []
    map_outcomes = _pool.map_outcomes

    def spy(fn, items):
        items = list(items)
        calls.append(len(items))
        return map_outcomes(fn, items)

    monkeypatch.setattr(_pool, "map_outcomes", spy)
    return calls


_SPLIT_LATTICES = {
    "line": make_lattice("line", 30.0, 240.0),
    "hexagonal": make_lattice("hexagonal", 30.0, 60.0),
    "square": make_lattice("square", 30.0, (180.0, 150.0)),
    # pitch above the wavelength: many CRS draws have no peak
    "sparse": make_lattice("square", 200.0, (400.0, 400.0)),
}


@pytest.mark.parametrize("region", ["full", "interior"])
@pytest.mark.parametrize("estimator, kind, model, n, policy", [
    (shape_distortion, "line", PIX, 7, None),
    (shape_distortion, "line", CRS, 5, None),
    (shape_distortion, "square", LIN, 7, None),
    (shape_distortion, "hexagonal", PIX, 7, None),
    (shape_distortion, "hexagonal", CRS, 3, None),
    (position_distortion, "line", CRS, 7, "nearest_capped"),
    (position_distortion, "hexagonal", CRS, 5, "nearest_capped"),
    (position_distortion, "sparse", CRS, 9, "discard"),
], ids=["Ds-line-pixel-only", "Ds-line-crs", "Ds-square-linear",
        "Ds-hexagonal-pixel-only", "Ds-hexagonal-crs", "Dp-line-crs",
        "Dp-hexagonal-crs", "Dp-sparse-crs-discard"])
def test_draws_on_helpers_equal_a_serial_run(monkeypatch, helper_pool,
                                            estimator, kind, model, n,
                                            policy, region):
    _no_heartbeat(monkeypatch)
    lat = _SPLIT_LATTICES[kind]
    kwargs = {"region": region}
    if policy is not None:
        kwargs["no_peak_policy"] = policy
    shared = estimator(model, lat, 90.0, n, 21, **kwargs)
    _serial(monkeypatch)
    serial = estimator(model, lat, 90.0, n, 21, **kwargs)
    assert shared.value.hex() == serial.value.hex()
    assert shared.standard_error.hex() == serial.standard_error.hex()
    assert shared == serial
    if policy == "discard" and region == "full":
        assert 1 < serial.n_samples < n


@pytest.mark.parametrize("kernel, kind, model, last", [
    (distortion._shape_error, "hexagonal", PIX, 256),
    (distortion._crs_position_error, "line", CRS, "nearest_capped"),
    (distortion._crs_position_error, "sparse", CRS, "discard"),
], ids=["Ds-hexagonal-pixel-only", "Dp-line-crs", "Dp-sparse-crs-discard"])
def test_draw_errors_come_back_in_row_order(monkeypatch, helper_pool,
                                            kernel, kind, model, last):
    _no_heartbeat(monkeypatch)
    lat = _SPLIT_LATTICES[kind]
    peaks = distortion._draw_peaks(lat, 90.0, 9, 8, "Dp", "full")
    draws = (peaks,)
    if kernel is distortion._shape_error:
        draws += (distortion._whole_windows(lat, peaks, 90.0),)
    args = (90.0, 1.0, last)
    shared = distortion._map_draws(kernel, model, lat, draws, *args)
    serial = [kernel(model, lat, *draw, *args) for draw in zip(*draws)]
    assert [repr(e) for e in shared] == [repr(e) for e in serial]
    # discarded no-peak draws come back as None, in their place
    assert (None in serial) == (last == "discard")


def test_an_estimate_maps_one_item_per_draw(monkeypatch):
    # whatever the number of CPUs: with no heartbeat every draw of every
    # model is its own pool item; with an endless one a pixel-only estimate
    # runs every draw itself and makes no pool call, and the other models
    # still share every draw
    calls = _spy_on_pool_calls(monkeypatch)
    lat = _SPLIT_LATTICES["line"]
    for heartbeat in (0.0, math.inf):
        monkeypatch.setattr(distortion, "_HEARTBEAT_S", heartbeat)
        for estimator, model, n in [(shape_distortion, PIX, 7),
                                    (shape_distortion, LIN, 4),
                                    (shape_distortion, CRS, 3),
                                    (position_distortion, CRS, 5)]:
            calls.clear()
            assert estimator(model, lat, 90.0, n, 21).n_samples == n
            assert calls == ([] if model is PIX and heartbeat == math.inf
                             else [n])


class _FailingLattice(Lattice):
    """A square lattice whose nearest-pixel runs over a window grid raise
    for the window of every listed draw; the draw's index is in the
    message."""

    def grid_runs(self, xs, ys=None):
        centre = np.array([np.mean(xs), np.mean(ys)])
        for i, peak in self.failing:
            if np.allclose(centre, peak, rtol=0.0, atol=1e-6):
                raise ValueError(f"draw {i} failed")
        return super().grid_runs(xs, ys)


@pytest.mark.parametrize("failing", [(1, 6), (6,)])
def test_a_failing_draw_raises_as_a_serial_run_does(monkeypatch, failing):
    # draws 1 and 6 are separate pool items, which the calling process and
    # the helpers take in turn; the first failing draw's error is raised
    # wherever each draw ran
    lat = _SPLIT_LATTICES["square"]
    peaks = distortion._draw_peaks(lat, 90.0, 8, 4, "Ds", "interior")
    assert distortion._whole_windows(lat, peaks, 90.0).all()
    bad = _FailingLattice(**{f.name: getattr(lat, f.name)
                             for f in dataclasses.fields(lat)})
    object.__setattr__(bad, "failing", [(i, peaks[i]) for i in failing])
    errors = []
    for run in ("shared", "serial"):
        if run == "serial":
            _serial(monkeypatch)
        with pytest.raises(ValueError) as err:
            shape_distortion(PIX, bad, 90.0, 8, 4, region="interior")
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1] == (ValueError, f"draw {failing[0]} failed")


@pytest.mark.parametrize("failing", [(), (1, 6), (2, 3), (4, 6)])
def test_an_estimate_split_between_caller_and_pool_equals_a_serial_run(
        monkeypatch, failing):
    # a clock that moves by one second at every reading and a heartbeat of
    # 3.5 s: the caller runs draws 0-2, and draws 3-7 are one pool call;
    # the estimate, or the first failing draw's error, is a serial run's
    monkeypatch.setattr(distortion, "time", types.SimpleNamespace(
        perf_counter=itertools.count().__next__))
    monkeypatch.setattr(distortion, "_HEARTBEAT_S", 3.5)
    calls = _spy_on_pool_calls(monkeypatch)
    lat = _SPLIT_LATTICES["square"]
    peaks = distortion._draw_peaks(lat, 90.0, 8, 4, "Ds", "interior")
    bad = _FailingLattice(**{f.name: getattr(lat, f.name)
                             for f in dataclasses.fields(lat)})
    object.__setattr__(bad, "failing", [(i, peaks[i]) for i in failing])
    runs = []
    for run in ("split", "serial"):
        if run == "serial":
            _serial(monkeypatch)
        try:
            runs.append(shape_distortion(PIX, bad, 90.0, 8, 4,
                                         region="interior"))
        except ValueError as err:
            runs.append((type(err), str(err)))
        if run == "split":
            assert calls == ([] if failing and failing[0] < 3 else [5])
    if failing:
        assert runs[0] == runs[1] == (ValueError,
                                      f"draw {failing[0]} failed")
    else:
        assert runs[0].value.hex() == runs[1].value.hex()
        assert runs[0].standard_error.hex() == runs[1].standard_error.hex()
        assert runs[0] == runs[1]


def test_window_is_built_once_and_read_only():
    window = distortion._window(2, 90.0, 1.0, 256)
    assert distortion._window(2, 90.0, 1.0, 256) is window
    for name in ("w", "win", "rel", "offsets", "phi", "sums", "sum_wphi2"):
        arr = getattr(window, name)
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1
    # the per-row sums start each row at 0 and run over its w, w phi and
    # w phi^2
    m = window.rel.size
    for sums, terms in ((window.sums[:, 0], window.w),
                        (window.sums[:, 1], window.w * window.phi),
                        (window.sum_wphi2, window.w * window.phi ** 2)):
        sums = sums.reshape(m, m + 1)
        assert not sums[:, 0].any()
        np.testing.assert_allclose(np.diff(sums, axis=1),
                                   terms.reshape(m, m), rtol=1e-9,
                                   atol=1e-12 * sums.max())
    assert window.den > 0.0
    # the offsets are the disc nodes of the rel x rel grid, row by row
    rel, win = window.rel, window.win
    assert window.offsets.shape == (win.size, 2)
    assert window.offsets.tobytes() == np.column_stack(
        [rel[win % rel.size], rel[win // rel.size]]).tobytes()
    # the Simpson weights vanish beyond l/2 of the centre, and so does phi
    assert np.flatnonzero(window.w).tobytes() == win.tobytes()
    assert not window.phi[window.w == 0.0].any()
    line = distortion._window(1, 90.0, 1.0, 256)
    assert line.offsets.tobytes() == line.rel.tobytes()
    assert line.w.all()
    assert line.sums.shape == (m + 1, 2) and line.sum_wphi2.shape == (m + 1,)
    assert line.sums[-1, 0] == pytest.approx(90.0, rel=1e-12)


@pytest.mark.parametrize("estimator", [position_distortion, shape_distortion])
@pytest.mark.parametrize("wavelength, n", [
    (-90.0, 10), (0.0, 10), (math.nan, 10), (math.inf, 10), (-math.inf, 10),
    (90.0, 0), (90.0, -1)])
def test_estimators_reject_bad_wavelength_and_sample_count(
        monkeypatch, estimator, wavelength, n):
    def no_draws(*args):
        raise AssertionError("drew peaks")

    monkeypatch.setattr(distortion, "_draw_peaks", no_draws)
    lat = make_lattice("hexagonal", 30.0, 60.0)
    with pytest.raises(ValueError, match="wavelength|n_samples"):
        estimator(PIX, lat, wavelength, n, 5)


@pytest.mark.parametrize("estimator", [position_distortion, shape_distortion])
@pytest.mark.parametrize("n", [3.0, np.float64(3.0), True, np.True_, "3",
                               None])
def test_estimators_reject_non_integer_sample_counts(monkeypatch, estimator,
                                                     n):
    def no_draws(*args):
        raise AssertionError("drew peaks")

    monkeypatch.setattr(distortion, "_draw_peaks", no_draws)
    lat = make_lattice("hexagonal", 30.0, 60.0)
    with pytest.raises(ValueError, match="^n_samples must be at least 1$"):
        estimator(PIX, lat, 90.0, n, 5)


@pytest.mark.parametrize("ppw", [256.0, np.float64(256.0), 258.5, True,
                                 "256", 255, 257])
def test_shape_distortion_rejects_bad_points_per_wavelength(monkeypatch,
                                                            ppw):
    def no_draws(*args):
        raise AssertionError("drew peaks")

    monkeypatch.setattr(distortion, "_draw_peaks", no_draws)
    lat = make_lattice("hexagonal", 30.0, 60.0)
    with pytest.raises(ValueError,
                       match="^need an even points_per_wavelength >= 256$"):
        shape_distortion(PIX, lat, 90.0, 3, 5, points_per_wavelength=ppw)


def test_estimators_take_numpy_integer_counts():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    assert shape_distortion(PIX, lat, 90.0, np.int64(3), 5,
                            points_per_wavelength=np.int64(256)) \
        == shape_distortion(PIX, lat, 90.0, 3, 5)
    assert position_distortion(PIX, lat, 90.0, np.int32(3), 5) \
        == position_distortion(PIX, lat, 90.0, 3, 5)


@pytest.mark.parametrize("estimator", [position_distortion, shape_distortion])
@pytest.mark.parametrize("model", [PIX, LIN, CRS],
                         ids=["pixel-only", "linear", "crs"])
@pytest.mark.parametrize("amplitude", [0.0, -1.0, math.nan, math.inf,
                                       -math.inf])
def test_estimators_reject_bad_amplitude(monkeypatch, estimator, model,
                                         amplitude):
    def no_draws(*args):
        raise AssertionError("drew peaks")

    monkeypatch.setattr(distortion, "_draw_peaks", no_draws)
    lat = make_lattice("hexagonal", 30.0, 60.0)
    with pytest.raises(ValueError,
                       match="^amplitude must be finite and positive$"):
        estimator(model, lat, 90.0, 10, 5, amplitude=amplitude)


_PAIRED_LATTICES = {
    "line": make_lattice("line", 30.0, 360.0),
    "square": make_lattice("square", 30.0, (300.0, 270.0)),
    "hexagonal": make_lattice("hexagonal", 30.0, 180.0),
}


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_PAIRED_LATTICES)),
       region=st.sampled_from(["full", "interior"]),
       n=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_every_model_sees_the_same_draws(kind, region, n, seed):
    # the draw kernels are replaced by spies that log the peaks they get:
    # within each estimator all three models receive the same peaks
    lat = _PAIRED_LATTICES[kind]
    seen = {}

    def vertex_spy(lattice, peaks, *args):
        seen.setdefault("_vertex_position_errors", []).append(
            peaks.reshape(-1, lat.ndim).copy())
        return np.zeros(len(peaks))

    def draw_spy(name):
        def kernel(model, lattice, peak, *args):
            seen.setdefault(name, []).append(
                np.reshape(peak, (1, lat.ndim)).copy())
            return 0.0
        return kernel

    with pytest.MonkeyPatch.context() as mp:
        _serial(mp)
        mp.setattr(distortion, "_vertex_position_errors", vertex_spy)
        for name in ("_crs_position_error", "_shape_error"):
            mp.setattr(distortion, name, draw_spy(name))
        for estimator in (position_distortion, shape_distortion):
            got = []
            for model in (PIX, LIN, CRS):
                seen.clear()
                estimator(model, lat, 90.0, n, seed, region=region)
                [(name, rows)] = seen.items()
                got.append(np.concatenate(rows))
            assert got[0].shape[0] == n
            assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()


# ======================================================================
# power-law fitting
# ======================================================================

def test_fit_power_law_recovers_exact_law():
    xs = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    fit = fit_power_law([(x, 2.0 * x ** 3) for x in xs])
    assert fit.coefficient == pytest.approx(2.0, abs=1e-9)
    assert fit.exponent == pytest.approx(3.0, abs=1e-9)
    assert fit.residual < 1e-12


def test_fit_power_law_validation():
    with pytest.raises(ValueError, match="at least 4"):
        fit_power_law([(0.1, 1.0), (0.2, 2.0), (0.3, 3.0)])
    with pytest.raises(ValueError, match="positive"):
        fit_power_law([(0.1, 1.0), (0.2, 0.0), (0.3, 3.0), (0.4, 4.0)])


# ======================================================================
# position distortion against closed forms
# ======================================================================

def test_position_line_closed_form():
    # uniform draws over the hull: every cell averages d/4 exactly
    lat = lattice_for("line", 0.25, SweepConfig())
    est = position_distortion(PIX, lat, 90.0, 20000, 20240)
    expect = 0.25 / 4.0
    assert abs(est.value - expect) <= 4.0 * est.standard_error
    assert est.metric == "Dp"
    assert est.d_over_l == pytest.approx(0.25)


def test_position_square_and_hex_closed_forms():
    cfg = SweepConfig()
    for kind, const in (("square", SQUARE_CELL_MEAN), ("hexagonal",
                                                       HEX_CELL_MEAN)):
        lat = lattice_for(kind, 0.3, cfg)
        est = position_distortion(PIX, lat, 90.0, 20000, 20240)
        expect = const * 0.3
        assert abs(est.value - expect) <= 4.0 * est.standard_error, kind


def test_position_pixel_and_linear_are_paired():
    # both vertex models peak at the same pixel for the same draws, so the
    # estimates agree bit for bit
    lat = lattice_for("line", 0.3, SweepConfig())
    a = position_distortion(PIX, lat, 90.0, 5000, 7)
    b = position_distortion(LIN, lat, 90.0, 5000, 7)
    assert a.value == b.value
    assert a.standard_error == b.standard_error


def test_position_vertex_shortcut_matches_literal_peak_search():
    # the closed-path evaluation (nearest-pixel distance) must agree with
    # literally building the staircase and running the peak finder
    lat = make_lattice("line", 30.0, 360.0)
    rng = np.random.default_rng(13)
    peaks = 360.0 * rng.random(40)
    wl = 90.0
    direct = []
    for pk in peaks:
        fld = BumpField1D(float(pk), 1.0, wl)
        prof = NearestProfile(sample_pixels(fld, lat), lat)
        try:
            res = find_peak(prof)
            direct.append(abs(res.location - pk))
        except NoPeakError:
            direct.append(min(float(lat.nearest_distance(np.array([pk]))[0]),
                              15.0))
    shortcut = np.minimum(lat.nearest_distance(peaks), 15.0)
    in_support = lat.nearest_distance(peaks) < 45.0
    assert np.allclose(np.asarray(direct)[in_support],
                       shortcut[in_support], atol=1e-9)


def test_no_peak_policy_discard_drops_samples():
    # pitch twice the wavelength: half of each cell is out of reach
    lat = make_lattice("line", 180.0, 720.0)
    capped = position_distortion(PIX, lat, 90.0, 4000, 11,
                                 no_peak_policy="nearest_capped")
    dropped = position_distortion(PIX, lat, 90.0, 4000, 11,
                                  no_peak_policy="discard")
    assert capped.n_samples == 4000
    assert dropped.n_samples < 4000
    assert capped.value > dropped.value
    with pytest.raises(ValueError, match="policy"):
        position_distortion(PIX, lat, 90.0, 100, 11, no_peak_policy="zero")
    with pytest.raises(ValueError, match="region"):
        position_distortion(PIX, lat, 90.0, 100, 11, region="edge")


def test_interior_region_gives_distinct_estimate():
    lat = lattice_for("hexagonal", 0.5, SweepConfig())
    full = position_distortion(PIX, lat, 90.0, 3000, 19, region="full")
    inner = position_distortion(PIX, lat, 90.0, 3000, 19, region="interior")
    assert full.region == "full"
    assert inner.region == "interior"
    assert full.value != inner.value


# ======================================================================
# shape distortion
# ======================================================================

def test_shape_staircase_small_pitch_asymptote():
    # the relative L2 error of the zero-order hold tends to (pi/3)(d/l)
    lat = lattice_for("line", 0.05, SweepConfig())
    est = shape_distortion(PIX, lat, 90.0, 200, 11)
    assert est.value == pytest.approx(math.pi / 3.0 * 0.05, rel=0.05)


def test_shape_linear_quadratic_asymptote():
    lat = lattice_for("line", 0.05, SweepConfig())
    est = shape_distortion(LIN, lat, 90.0, 200, 11)
    # small-pitch law is c (d/l)^2 with c just above 2
    assert est.value / 0.05 ** 2 == pytest.approx(2.0, rel=0.1)


def test_shape_pixel_below_linear_at_coarse_pitch_is_false():
    # sanity direction check: at coarse pitch the staircase is worse
    lat = lattice_for("line", 1.0 / 3.0, SweepConfig())
    pix = shape_distortion(PIX, lat, 90.0, 100, 5)
    lin = shape_distortion(LIN, lat, 90.0, 100, 5)
    assert pix.value > lin.value


def _window_nodes(peak, wl, ppw=256):
    """The shape kernel's window: the segment's nodes (1D), or the grid
    nodes within l/2 of the peak (2D)."""
    m = ppw + 1
    rel = np.linspace(-0.5 * wl, 0.5 * wl, m)
    if peak.size == 1:
        return peak[0] + rel
    rr = np.hypot(rel[None, :], rel[:, None]).ravel()
    disc = np.flatnonzero(rr <= 0.5 * wl)
    return np.column_stack([peak[0] + rel[disc % m], peak[1] + rel[disc // m]])


@settings(deadline=None, max_examples=60)
@given(kind=st.sampled_from(["line", "square", "hexagonal"]),
       log_pitch=st.floats(-1.5, 1.5), d_over_l=st.floats(0.1, 0.5),
       side=st.integers(0, 5), along=st.floats(-1.0, 1.0),
       log_offset=st.floats(-13.0, -6.0), sign=st.sampled_from([-1.0, 1.0]))
def test_whole_window_predicate_implies_every_node_inside(
        kind, log_pitch, d_over_l, side, along, log_offset, sign):
    # peaks within 1e-6 l of the hull shrunk by l/2, on either side; pitches
    # below 1 mm are where contains' own tolerance is absolute (1e-9 mm)
    pitch = 10.0 ** log_pitch
    wl = pitch / d_over_l
    offset = sign * 10.0 ** log_offset * wl   # > 0 moves the peak inward
    if kind == "line":
        lat = make_lattice("line", pitch, (0.0, 12 * pitch))
        x0, x1 = lat.hull_bounds()
        peak = np.array([x0 + 0.5 * wl + offset if side % 2 == 0
                         else x1 - 0.5 * wl - offset])
    elif kind == "square":
        lat = make_lattice("square", pitch, (12 * pitch, 10 * pitch))
        (x0, x1), (y0, y1) = lat.hull_bounds()
        lo, hi = [x0, y0][side % 2], [x1, y1][side % 2]
        t = lo + 0.5 * wl + offset if side < 2 else hi - 0.5 * wl - offset
        other = ([y0, y1], [x0, x1])[side % 2]
        s = 0.5 * (other[0] + other[1]) + 0.5 * along * (
            other[1] - other[0] - wl)
        peak = np.array([t, s] if side % 2 == 0 else [s, t])
    else:
        lat = make_lattice("hexagonal", pitch, 6 * pitch)
        apothem = lat.hull_bounds() * math.sqrt(3.0) / 2.0 - 0.5 * wl
        ang = math.pi / 6.0 + side * math.pi / 3.0
        normal = np.array([math.cos(ang), math.sin(ang)])
        tangent = np.array([-normal[1], normal[0]])
        peak = ((apothem - offset) * normal
                + along * apothem / math.sqrt(3.0) * tangent)
    peaks = peak if kind == "line" else peak[None, :]
    if distortion._whole_windows(lat, peaks, wl)[0]:
        assert lat.contains(_window_nodes(peak, wl)).all()


def _shape_errors_2d_per_draw(model, lattice, peaks, wl, amplitude, ppw):
    """The 2D shape kernel as it was before whole-window draws skipped the
    hull test: every draw tests every window node and scatters into fresh
    full-grid arrays."""
    m = ppw + 1
    rel = np.linspace(-0.5 * wl, 0.5 * wl, m)
    dx = rel[1] - rel[0]
    rx, ry = np.tile(rel, m), np.repeat(rel, m)
    rr = np.hypot(rx, ry)
    disc = np.flatnonzero(rr <= 0.5 * wl)
    rx, ry = rx[disc], ry[disc]
    phi_disc = _raised_cosine(rr[disc], amplitude, wl)
    w1 = np.ones(m)
    w1[1:-1:2] = 4.0
    w1[2:-1:2] = 2.0
    w2 = np.outer(w1, w1).ravel() * (dx / 3.0) ** 2
    out = []
    for peak in peaks:
        pts = np.column_stack([peak[0] + rx, peak[1] + ry])
        inside = lattice.contains(pts)
        pts, phi = np.compress(inside, pts, axis=0), phi_disc[inside]
        pix = sample_pixels(BumpField2D(tuple(peak), amplitude, wl), lattice)
        if model.variant == "pixel-only":
            psi = pix[lattice.nearest_index(pts)]
        else:
            psi = LinearSurface2D(pix, lattice).extended(pts)
        err, phi2 = np.zeros(m * m), np.zeros(m * m)
        err[disc[inside]], phi2[disc[inside]] = (phi - psi) ** 2, phi ** 2
        out.append(math.sqrt(float(err @ w2) / float(phi2 @ w2)))
    return np.array(out)


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
@pytest.mark.parametrize("region", ["interior", "full"])
@pytest.mark.parametrize("model", [PIX, LIN], ids=["pixel-only", "linear"])
def test_shape_2d_matches_per_draw_kernel(kind, region, model):
    # whole-window draws skip the per-node hull test and reuse one buffer;
    # the estimate must still be the per-draw kernel's, bit for bit for the
    # linear model, and to 1e-11 for pixel-only, whose run sums reassociate
    # the Simpson sum
    lat = lattice_for(kind, 0.25, SweepConfig())
    rel = 1e-11 if model is PIX else 0.0
    for seed in (3, 4):
        est = shape_distortion(model, lat, 90.0, 6, seed, region=region)
        peaks = distortion._draw_peaks(lat, 90.0, 6, seed, "Ds", region)
        errs = _shape_errors_2d_per_draw(model, lat, peaks, 90.0, 1.0, 256)
        assert est.value == pytest.approx(float(np.mean(errs)), rel=rel,
                                          abs=0.0)
        assert est.standard_error == pytest.approx(
            float(np.std(errs, ddof=1) / math.sqrt(6)), rel=rel, abs=0.0)


def _kernel_shape_errors(model, lattice, peaks):
    """The per-draw shape kernel on every draw in turn, with each draw's
    whole-window flag, at l = 90, unit amplitude and 256 points per
    wavelength."""
    whole = distortion._whole_windows(lattice, peaks, 90.0)
    return np.array([distortion._shape_error(model, lattice, peak, flag,
                                             90.0, 1.0, 256)
                     for peak, flag in zip(peaks, whole)])


def _pixel_shape_errors_per_node(lattice, peaks, wl, amplitude, ppw):
    """The pixel-only shape kernel as it was before it read the nearest
    pixels of the window grid: every window node in the hull looks up its
    own nearest pixel with ``nearest_index``, and the errors and the ideal
    shape are scattered onto the full segment or grid for the Simpson
    sums."""
    m = ppw + 1
    rel = np.linspace(-0.5 * wl, 0.5 * wl, m)
    dx = rel[1] - rel[0]
    w1 = np.ones(m)
    w1[1:-1:2] = 4.0
    w1[2:-1:2] = 2.0
    if lattice.ndim == 1:
        rr, w = np.abs(rel), w1 * (dx / 3.0)
    else:
        rr = np.hypot(rel[None, :], rel[:, None]).ravel()
        w = np.outer(w1, w1).ravel() * (dx / 3.0) ** 2
    win = np.flatnonzero(rr <= 0.5 * wl)
    phi_win = _raised_cosine(rr[win], amplitude, wl)
    out = []
    for peak in peaks:
        if lattice.ndim == 1:
            pts = peak + rel[win]
            fld = BumpField1D(float(peak), amplitude, wl)
        else:
            pts = np.column_stack([peak[0] + rel[win % m],
                                   peak[1] + rel[win // m]])
            fld = BumpField2D(tuple(peak), amplitude, wl)
        inside = lattice.contains(pts)
        pix = sample_pixels(fld, lattice)
        err, phi2 = np.zeros(w.size), np.zeros(w.size)
        node = win[inside]
        err[node] = (phi_win[inside]
                     - pix[lattice.nearest_index(pts[inside])]) ** 2
        phi2[node] = phi_win[inside] ** 2
        out.append(math.sqrt(float(err @ w) / float(phi2 @ w)))
    return np.array(out)


@pytest.mark.parametrize("kind, d_over_l", [
    ("line", 0.02), ("line", 0.1), ("line", 0.35), ("square", 0.02),
    ("square", 0.1), ("square", 0.3), ("hexagonal", 0.02),
    ("hexagonal", 0.15), ("hexagonal", 0.25), ("hexagonal", 0.5)])
@pytest.mark.parametrize("region", ["interior", "full"])
def test_pixel_shape_errors_equal_the_per_node_kernel(kind, d_over_l,
                                                      region):
    # the runs give every hull node the pixel nearest_index gives it, and
    # the run sums reassociate the Simpson sum: every per-draw error is the
    # per-node kernel's to 1e-11, where d/l = 0.02 cancels most (err << den)
    lat = lattice_for(kind, d_over_l, SweepConfig())
    n = 6 if d_over_l < 0.05 else 12
    peaks = distortion._draw_peaks(lat, 90.0, n, 31, "Ds", region)
    whole = distortion._whole_windows(lat, peaks, 90.0)
    assert whole.any() and (region == "interior" or not whole.all())
    got = _kernel_shape_errors(PIX, lat, peaks)
    ref = _pixel_shape_errors_per_node(lat, peaks, 90.0, 1.0, 256)
    np.testing.assert_allclose(got, ref, rtol=1e-11, atol=0.0)


def _shape_errors_1d_reference(model, lattice, peaks, wl, amplitude, ppw):
    """The 1D shape kernel as it was before the 1D and 2D kernels merged:
    every draw's whole window at once, masked to the hull, with the
    staircase and the hat functions written out and scipy's Simpson
    rule."""
    from scipy.integrate import simpson
    n = peaks.shape[0]
    rel = np.linspace(-0.5 * wl, 0.5 * wl, ppw + 1)
    pts = peaks[:, None] + rel[None, :]
    inside = lattice.contains(pts.ravel()).reshape(n, ppw + 1)
    phi = np.where(inside, _raised_cosine(np.abs(rel), amplitude, wl), 0.0)
    pix = lattice.positions
    if model.variant == "pixel-only":
        idx = lattice.nearest_index(pts.ravel()).reshape(n, ppw + 1)
        psi = _raised_cosine(np.abs(pix[idx] - peaks[:, None]), amplitude, wl)
    elif model.variant == "linear":
        hmat = _raised_cosine(np.abs(pix[None, :] - peaks[:, None]),
                              amplitude, wl)
        seg = np.clip(np.searchsorted(pix, pts.ravel()) - 1,
                      0, pix.size - 2).reshape(n, ppw + 1)
        t = np.clip((pts - pix[seg]) / (pix[seg + 1] - pix[seg]), 0.0, 1.0)
        psi = (np.take_along_axis(hmat, seg, axis=1) * (1.0 - t)
               + np.take_along_axis(hmat, seg + 1, axis=1) * t)
    else:
        psi = np.array([CrsProfile1D(BumpField1D(float(x), amplitude, wl),
                                     lattice).extended(row)
                        for x, row in zip(peaks, pts)])
    psi = np.where(inside, psi, 0.0)
    dx = rel[1] - rel[0]
    num = simpson((phi - psi) ** 2, dx=dx, axis=1)
    den = simpson(phi ** 2, dx=dx, axis=1)
    return np.sqrt(num / den)


@pytest.mark.parametrize("region", ["interior", "full"])
@pytest.mark.parametrize("model, n", [(PIX, 40), (LIN, 40), (CRS, 6)],
                         ids=["pixel-only", "linear", "crs"])
def test_shape_1d_matches_reference_kernel(region, model, n):
    # the merged kernel takes the displayed shape from build_profile and
    # sums the Simpson weights itself: per-draw errors move by ulps only,
    # and pixel-only ones by the reassociation of its run sums
    lat = lattice_for("line", 0.25, SweepConfig())
    peaks = distortion._draw_peaks(lat, 90.0, n, 5, "Ds", region)
    whole = distortion._whole_windows(lat, peaks, 90.0)
    assert whole.any() and (region == "interior" or not whole.all())
    got = _kernel_shape_errors(model, lat, peaks)
    ref = _shape_errors_1d_reference(model, lat, peaks, 90.0, 1.0, 256)
    np.testing.assert_allclose(got, ref, rtol=1e-11 if model is PIX
                               else 1e-14, atol=0.0)


# ======================================================================
# exact invariances
# ======================================================================

def test_vertex_models_amplitude_invariant_exactly():
    lat = lattice_for("line", 0.3, SweepConfig())
    dp = [position_distortion(PIX, lat, 90.0, 2000, 3, amplitude=a).value
          for a in (0.5, 1.0, 2.0)]
    assert dp[0] == dp[1] == dp[2]
    ds = [shape_distortion(PIX, lat, 90.0, 50, 3, amplitude=a).value
          for a in (0.5, 1.0, 2.0)]
    assert ds[0] == ds[1] == ds[2]
    dsl = [shape_distortion(LIN, lat, 90.0, 50, 3, amplitude=a).value
           for a in (0.5, 1.0, 2.0)]
    assert dsl[0] == dsl[1] == dsl[2]


def test_crs_amplitude_dependence_is_weak():
    # the buckled skeleton is nonlinear, so exact invariance cannot hold;
    # across a factor 4 in amplitude the estimates stay within tens of
    # percent
    lat = lattice_for("line", 1.0 / 3.0, SweepConfig())
    dp = [position_distortion(CRS, lat, 90.0, 120, 7, amplitude=a).value
          for a in (0.5, 1.0, 2.0)]
    assert max(dp) / min(dp) < 1.25
    ds = [shape_distortion(CRS, lat, 90.0, 40, 7, amplitude=a).value
          for a in (0.5, 1.0, 2.0)]
    assert max(ds) / min(ds) < 1.15


def test_length_rescaling_is_exact():
    # doubling every length (pitch, wavelength, amplitude, extents) leaves
    # both dimensionless metrics bitwise unchanged for the vertex models
    lat1 = make_lattice("line", 30.0, 360.0)
    lat2 = make_lattice("line", 60.0, 720.0)
    a = position_distortion(PIX, lat1, 90.0, 3000, 23, amplitude=1.0)
    b = position_distortion(PIX, lat2, 180.0, 3000, 23, amplitude=2.0)
    assert a.value == b.value
    sa = shape_distortion(PIX, lat1, 90.0, 60, 23, amplitude=1.0)
    sb = shape_distortion(PIX, lat2, 180.0, 60, 23, amplitude=2.0)
    assert sa.value == sb.value


def test_seed_determinism():
    lat = lattice_for("line", 0.25, SweepConfig())
    a = position_distortion(PIX, lat, 90.0, 1000, 42)
    b = position_distortion(PIX, lat, 90.0, 1000, 42)
    c = position_distortion(PIX, lat, 90.0, 1000, 43)
    assert a == b
    assert a.value != c.value


def test_standard_error_scales_with_sample_count():
    lat = lattice_for("line", 0.25, SweepConfig())
    se1 = position_distortion(PIX, lat, 90.0, 2000, 5).standard_error
    se2 = position_distortion(PIX, lat, 90.0, 8000, 5).standard_error
    assert se1 / se2 == pytest.approx(2.0, rel=0.2)


# ======================================================================
# sweep plumbing
# ======================================================================

def test_lattice_for_sizes():
    cfg = SweepConfig()
    line = lattice_for("line", 1.0 / 3.0, cfg)
    assert line.n_pixels == 13            # 12 gaps of d over 4 wavelengths
    square = lattice_for("square", 0.5, cfg)
    assert square.grid_shape == (9, 9)    # 2 wavelengths of radius
    hexa = lattice_for("hexagonal", 1.0 / 3.0, cfg)
    assert hexa.n_pixels == 3 * 6 * 7 + 1  # k = 6 rings
    small = lattice_for("hexagonal", 1.0 / 3.0,
                        SweepConfig(hex_rings=2))
    assert small.n_pixels == 19


def test_distortion_sweep_row_inventory():
    cfg = SweepConfig(n_position=400, n_shape=20, include_interior=True)
    dols = [0.1, 0.2, 0.3, 0.4]
    rows = distortion_sweep(["pixel-only", "linear"], dols, "line", cfg)
    # 2 models x 2 metrics x 4 points x 2 regions
    assert len(rows) == 32
    assert all(isinstance(r, DistortionEstimate) for r in rows)
    fits = sweep_fits(rows)
    assert len(fits) == 8
    models = {f[0] for f in fits}
    metrics = {f[1] for f in fits}
    regions = {f[2] for f in fits}
    assert models == {"pixel-only", "linear"}
    assert metrics == {"Dp", "Ds"}
    assert regions == {"full", "interior"}


def test_distortion_sweep_without_interior():
    cfg = SweepConfig(n_position=200, n_shape=10, include_interior=False)
    rows = distortion_sweep(["pixel-only"], [0.2, 0.4], "line", cfg)
    assert len(rows) == 4
    assert {r.region for r in rows} == {"full"}
