"""Reconstruction models: zero-order hold, linear interpolation, and the
reinforced (continuous) surface."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab import _pool, elastica, reconstruct
from crslab.elastica import (InfeasibleExcessError, normalize_beam,
                             solve_elastica_1d)
from crslab.fields import BumpField1D, BumpField2D, bump1d, make_lattice, sample_pixels
from crslab.reconstruct import (
    CrsProfile1D,
    CrsSurface2D,
    LinearProfile1D,
    LinearSurface2D,
    NearestProfile,
    ReconstructionModel,
    build_profile,
)


# ======================================================================
# zero-order hold
# ======================================================================

def test_nearest_profile_line():
    lat = make_lattice("line", 30.0, 120.0)
    heights = np.array([0.0, 1.0, 4.0, 1.0, 0.0])
    prof = NearestProfile(heights, lat)
    assert prof(31.0) == 4.0 or prof(31.0) == 1.0  # nearest is pixel 1
    assert prof(31.0) == 1.0
    assert prof(46.0) == 4.0
    # tie on the cell boundary goes to the lower index
    assert prof(45.0) == 1.0
    # beyond the ends the nearest pixel is the end pixel
    assert prof(-100.0) == 0.0


def test_nearest_profile_hex():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    heights = np.arange(lat.n_pixels, dtype=float)
    prof = NearestProfile(heights, lat)
    rng = np.random.default_rng(3)
    pts = lat.points_from_uniform(rng.random((200, 3)))
    vals = prof(pts[:, 0], pts[:, 1])
    idx = lat.nearest_index(pts)
    assert np.array_equal(vals, heights[idx])


@pytest.mark.parametrize("cls, kind, extents, n_heights", [
    (NearestProfile, "line", 120.0, 4),
    (LinearProfile1D, "line", 120.0, 4),
    (LinearProfile1D, "line", 120.0, 6),
    (LinearSurface2D, "square", (90.0, 90.0), 20),
    (LinearSurface2D, "hexagonal", 60.0, 25),
], ids=["nearest-line", "linear-line-short", "linear-line-long",
        "linear-square", "linear-hex"])
def test_nearest_height_count_validated(cls, kind, extents, n_heights):
    # every pixel-height model rejects a wrong-length height vector when
    # built, not when (or instead of) failing at evaluation
    lat = make_lattice(kind, 30.0, extents)
    assert lat.n_pixels != n_heights
    with pytest.raises(ValueError, match="one height per pixel"):
        cls(np.arange(float(n_heights)), lat)


def test_reconstruct_nearest_wrapper():
    # a point just inside pixel 1's cell reads pixel 1's height
    lat = make_lattice("line", 30.0, 120.0)
    heights = np.array([0.0, 2.0, 0.0, 0.0, 0.0])
    assert NearestProfile(heights, lat)(29.0)[0] == 2.0


# ======================================================================
# linear interpolation
# ======================================================================

def test_linear_profile_1d_values():
    lat = make_lattice("line", 30.0, 120.0)
    heights = np.array([0.0, 3.0, 6.0, 3.0, 0.0])
    prof = LinearProfile1D(heights, lat)
    assert np.allclose(prof(lat.positions), heights)
    assert prof(15.0) == pytest.approx(1.5)
    assert prof(75.0) == pytest.approx(4.5)


@settings(deadline=None, max_examples=300)
@given(kind=st.sampled_from(["line", "square", "hexagonal"]),
       pitch=st.floats(0.5, 50.0), size=st.floats(1.0, 6.0),
       x0=st.floats(-100.0, 100.0), y0=st.floats(-100.0, 100.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_linear_models_reproduce_pixel_heights(kind, pitch, size, x0, y0,
                                               seed):
    # the 1D interpolant is exact at its knots; the barycentric surface is
    # exact up to the roundoff of its weights, which is why find_peak takes
    # vertex-model peak values from the heights rather than the surface
    if kind == "line":
        lat = make_lattice("line", pitch, (x0, x0 + pitch * size))
    elif kind == "square":
        lat = make_lattice("square", pitch, ((x0, x0 + pitch * size),
                                             (y0, y0 + pitch * size)))
    else:
        lat = make_lattice("hexagonal", pitch, pitch * size)
    heights = np.random.default_rng(seed).normal(size=lat.n_pixels)
    model = LinearProfile1D if kind == "line" else LinearSurface2D
    tol = 0.0 if kind == "line" else 1e-14 * np.max(np.abs(heights))
    vals = model(heights, lat)(lat.positions)
    assert np.max(np.abs(vals - heights)) <= tol


def test_linear_surface_square_centroid_mean():
    lat = make_lattice("square", 30.0, (60.0, 60.0))
    rng = np.random.default_rng(17)
    heights = rng.random(lat.n_pixels)
    surf = LinearSurface2D(heights, lat)
    # exact at the pixels
    vals = surf(lat.positions[:, 0], lat.positions[:, 1])
    assert np.allclose(vals, heights, atol=1e-12)
    # triangle facets split along the 00-11 diagonal; at a facet centroid
    # the value is the vertex mean (3x3 grid, row-major: cell corners are
    # pixels 0, 1, 3, 4)
    lo = surf((0.0 + 30.0 + 30.0) / 3.0, (0.0 + 0.0 + 30.0) / 3.0)
    assert lo == pytest.approx((heights[0] + heights[1] + heights[4]) / 3.0,
                               abs=1e-12)
    hi = surf((0.0 + 30.0 + 0.0) / 3.0, (0.0 + 30.0 + 30.0) / 3.0)
    assert hi == pytest.approx((heights[0] + heights[4] + heights[3]) / 3.0,
                               abs=1e-12)


def test_linear_surface_hex_barycentric():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    rng = np.random.default_rng(23)
    heights = rng.random(lat.n_pixels)
    surf = LinearSurface2D(heights, lat)
    vals = surf(lat.positions[:, 0], lat.positions[:, 1])
    assert np.allclose(vals, heights, atol=1e-9)
    # centroid of the upward triangle at the origin cell
    tri = []
    for target in ((0.0, 0.0), (30.0, 0.0), (15.0, 30.0 * math.sqrt(3) / 2)):
        d = np.linalg.norm(lat.positions - np.array(target), axis=1)
        tri.append(int(np.argmin(d)))
        assert d[tri[-1]] < 1e-6
    cx = (0.0 + 30.0 + 15.0) / 3.0
    cy = (0.0 + 0.0 + 30.0 * math.sqrt(3) / 2) / 3.0
    expect = np.mean(heights[tri])
    assert surf(cx, cy) == pytest.approx(expect, abs=1e-9)


def test_linear_surface_continuity_across_facets():
    lat = make_lattice("square", 30.0, (60.0, 60.0))
    heights = np.random.default_rng(29).random(lat.n_pixels)
    surf = LinearSurface2D(heights, lat)
    # walk across the cell diagonal; values from both sides must agree
    ts = np.linspace(0.01, 29.99, 57)
    eps = 1e-7
    above = surf(ts - eps, ts + eps)
    below = surf(ts + eps, ts - eps)
    assert np.allclose(above, below, atol=1e-5)


def test_reconstruct_linear_wrapper():
    # between two equal heights the profile is flat
    lat = make_lattice("line", 30.0, 90.0)
    heights = np.array([0.0, 6.0, 6.0, 0.0])
    assert LinearProfile1D(heights, lat)(45.0)[0] == pytest.approx(6.0)


# ======================================================================
# reinforced profiles
# ======================================================================

def test_crs_profile_1d_pins_and_overshoot():
    lat = make_lattice("line", 30.0, 120.0)
    fld = BumpField1D(peak=45.0, amplitude=4.0, wavelength=90.0)
    prof = CrsProfile1D(fld, lat)
    # pinned at every pixel
    assert np.allclose(prof(lat.positions), prof.heights, atol=1e-4)
    # the skeleton rises above the tallest pixel when the target peak
    # falls between pixels (the staircase cannot)
    xs = np.linspace(0.0, 120.0, 961)
    assert prof(xs).max() > prof.heights.max()
    # arc surplus equals the target's
    assert prof.solution.excess == pytest.approx(fld.arc_excess(0.0, 120.0))


def test_crs_profile_needs_line_lattice():
    hexlat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField1D(peak=0.0, amplitude=1.0, wavelength=90.0)
    with pytest.raises(ValueError, match="needs a line lattice"):
        CrsProfile1D(fld, hexlat)


def test_crs_surface_pins_every_pixel():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField2D(peak=(7.0, -4.0), amplitude=3.0, wavelength=90.0)
    surf = CrsSurface2D(fld, lat)
    heights = sample_pixels(fld, lat)
    vals = surf(lat.positions[:, 0], lat.positions[:, 1])
    assert np.allclose(vals, heights, atol=1e-3)


def test_crs_surface_reproduces_beams_on_their_lines():
    cases = [(make_lattice("square", 30.0, (90.0, 90.0)),
              BumpField2D(peak=(40.0, 50.0), amplitude=2.0, wavelength=90.0),
              {0, 1}),
             (make_lattice("hexagonal", 30.0, 60.0),
              BumpField2D(peak=(7.0, -4.0), amplitude=3.0, wavelength=90.0),
              {0, 1, 2})]
    for lat, fld, families in cases:
        surf = CrsSurface2D(fld, lat)
        assert {beam.family for beam in surf.beams} == families
        # every beam, at a station inside its first gap (off every other
        # line): the surface is that beam's own profile
        for i, beam in enumerate(surf.beams):
            s = 0.37 * beam.stations[1]
            p = beam.origin + s * beam.direction
            expect = surf.solutions[i].profile(np.array([s]))[0]
            got = surf(p[0], p[1])
            assert got == pytest.approx(expect, abs=1e-9), beam.name


def test_crs_surface_from_state_round_trip():
    fld = BumpField2D(peak=(10.0, 5.0), amplitude=2.0, wavelength=90.0)
    for lat in (make_lattice("hexagonal", 30.0, 60.0),
                make_lattice("square", 30.0, (90.0, 60.0))):
        direct = CrsSurface2D(fld, lat)
        heights = sample_pixels(fld, lat)
        excess = [sol.excess for sol in direct.solutions]
        replayed = CrsSurface2D.from_state(lat, heights, excess, hint_field=fld)
        rng = np.random.default_rng(31)
        pts = lat.points_from_uniform(
            rng.random((100, lat.uniforms_per_point())))
        a = direct(pts[:, 0], pts[:, 1])
        b = replayed(pts[:, 0], pts[:, 1])
        assert np.array_equal(a, b), lat.kind


def _pool_serial(monkeypatch):
    monkeypatch.setattr(_pool, "_helpers", lambda n_items: None)


def _counting_solver(monkeypatch):
    """The beam solves of the builds that follow, which run in this process
    alone: a helper process would solve some beams out of sight."""
    _pool_serial(monkeypatch)
    calls = []

    def solve(*args, **kwargs):
        calls.append(args)
        return solve_elastica_1d(*args, **kwargs)

    monkeypatch.setattr(reconstruct, "solve_elastica_1d", solve)
    return calls


def _counting_checks(monkeypatch):
    """The beams whose arc budget a build checks before it solves any."""
    checked = []

    def check(constraints, excess_length):
        checked.append(constraints)
        return normalize_beam(constraints, excess_length)

    monkeypatch.setattr(reconstruct, "normalize_beam", check)
    return checked


def test_crs_surface_from_state_checks_every_beam_before_solving(monkeypatch):
    lat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField2D(peak=(10.0, 5.0), amplitude=2.0, wavelength=90.0)
    heights = sample_pixels(fld, lat)
    excess = np.array([sol.excess for sol in CrsSurface2D(fld, lat).solutions])
    # the last beam with uneven pins gets no arc to spare: it cannot reach
    # them, and that must surface before any beam is solved
    bad = max(i for i, b in enumerate(lat.beam_lines())
              if np.ptp(heights[b.pixel_idx]) > 0.0)
    excess[bad] = 0.0
    calls = _counting_solver(monkeypatch)
    with pytest.raises(InfeasibleExcessError):
        CrsSurface2D.from_state(lat, heights, excess)
    assert calls == []


def test_crs_surface_from_state_rejects_non_finite_heights(monkeypatch):
    lat = make_lattice("hexagonal", 30.0, 60.0)
    heights = np.zeros(lat.n_pixels)
    heights[lat.n_pixels // 2] = math.nan
    excess = np.ones(len(lat.beam_lines()))
    calls = _counting_solver(monkeypatch)
    with pytest.raises(ValueError, match="constraints must be finite"):
        CrsSurface2D.from_state(lat, heights, excess)
    assert calls == []


def test_crs_surface_from_state_equals_per_beam_solves(monkeypatch):
    lat = make_lattice("square", 30.0, (90.0, 60.0))
    fld = BumpField2D(peak=(40.0, 25.0), amplitude=2.0, wavelength=90.0)
    heights = sample_pixels(fld, lat)
    excess = [sol.excess for sol in CrsSurface2D(fld, lat).solutions]
    calls = _counting_solver(monkeypatch)
    surf = CrsSurface2D.from_state(lat, heights, excess)
    assert len(calls) == len(surf.beams)
    for beam, ex, sol in zip(surf.beams, excess, surf.solutions):
        pins = np.column_stack([beam.stations, heights[beam.pixel_idx]])
        assert np.array_equal(sol.nodes, solve_elastica_1d(pins, ex).nodes)


def _replay_state():
    """A hex-19 display mid-press: pixel heights and beam excesses that the
    solver meets warm, as a replay probe does."""
    lat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField2D(peak=(7.0, -4.0), amplitude=2.0, wavelength=90.0)
    heights = 0.8 * sample_pixels(fld, lat)
    excess = np.array([sol.excess for sol in CrsSurface2D(fld, lat).solutions])
    return lat, fld, heights, excess


def test_crs_surface_keeps_unchanged_beams(monkeypatch):
    lat, fld, heights, excess = _replay_state()
    first = CrsSurface2D.from_state(lat, heights, excess, hint_field=fld,
                                    strict=False)
    calls = _counting_solver(monkeypatch)
    checked = _counting_checks(monkeypatch)
    again = CrsSurface2D.from_state(lat, heights.copy(), excess.copy(),
                                    hint_field=fld, previous=first,
                                    strict=False)
    # a kept beam passed its arc budget check when ``first`` was built
    assert calls == [] and checked == []
    assert all(a is b for a, b in zip(again.solutions, first.solutions))


def test_crs_surface_resolves_the_beams_through_a_moved_pixel(monkeypatch):
    lat, fld, heights, excess = _replay_state()
    first = CrsSurface2D.from_state(lat, heights, excess, hint_field=fld,
                                    strict=False)
    moved = heights.copy()
    pixel = 9
    moved[pixel] += 0.05
    calls = _counting_solver(monkeypatch)
    checked = _counting_checks(monkeypatch)
    again = CrsSurface2D.from_state(lat, moved, excess, hint_field=fld,
                                    previous=first, strict=False)
    through = [i for i, b in enumerate(again.beams) if pixel in b.pixel_idx]
    assert len(through) == 3
    assert len(calls) == len(through)
    assert [c.tolist() for c in checked] == [a[0].tolist() for a in calls]
    for i, (old, new) in enumerate(zip(first.solutions, again.solutions)):
        assert (old is new) == (i not in through), again.beams[i].name
    # a re-solved beam is seeded with its previous nodes
    for args, i in zip(calls, through):
        beam = again.beams[i]
        assert np.array_equal(args[0], np.column_stack(
            [beam.stations, moved[beam.pixel_idx]]))
        warm = solve_elastica_1d(args[0], excess[i], initial=(
            first.solutions[i].nodes[:, 0], first.solutions[i].nodes[:, 1]))
        assert np.array_equal(again.solutions[i].nodes, warm.nodes)


def test_crs_surface_resolves_beams_that_did_not_converge(monkeypatch):
    lat, fld, heights, excess = _replay_state()
    # the starved settings below reach only this process's solves
    _pool_serial(monkeypatch)
    with pytest.MonkeyPatch.context() as starved:
        # one weak penalty step and no projection: the beams that need a
        # real solve stop above tolerance
        starved.setattr(elastica, "_MAX_ITER", 1)
        starved.setattr(elastica, "_PENALTY_STAGES", (10.0,))
        starved.setattr(elastica, "_PROJECTION_STEPS", 0)
        first = CrsSurface2D.from_state(lat, heights, excess, hint_field=fld,
                                        strict=False)
    stopped = [i for i, sol in enumerate(first.solutions)
               if sol.residual > elastica._TOL * first.beams[i].span]
    assert stopped
    calls = _counting_solver(monkeypatch)
    again = CrsSurface2D.from_state(lat, heights, excess, hint_field=fld,
                                    previous=first, strict=False)
    assert len(calls) == len(stopped)
    for i in stopped:
        assert again.solutions[i] is not first.solutions[i]
        assert again.solutions[i].residual <= elastica._TOL * again.beams[i].span


def test_crs_surface_from_state_validates_excess_count():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    with pytest.raises(ValueError, match="one excess per beam"):
        CrsSurface2D.from_state(lat, np.zeros(lat.n_pixels), [0.0, 0.0])


@pytest.mark.parametrize("previous_first", [True, False],
                         ids=["hex-to-square", "square-to-hex"])
def test_crs_surface_from_state_rejects_previous_of_other_beam_count(
        previous_first):
    # a surface from another lattice seeds no beam of this one, in either
    # direction; both beam counts are named
    hexagonal = make_lattice("hexagonal", 30.0, 60.0)
    square = make_lattice("square", 30.0, (60.0, 60.0))
    old_lat, lat = (hexagonal, square) if previous_first else (square,
                                                               hexagonal)
    fld = BumpField2D(peak=(20.0, 25.0), amplitude=2.0, wavelength=90.0)
    previous = CrsSurface2D(fld, old_lat)
    excess = [sol.excess for sol in CrsSurface2D(fld, lat).solutions]
    n_old, n_new = len(previous.beams), len(lat.beam_lines())
    assert n_old != n_new
    with pytest.raises(ValueError, match=f"^previous surface has {n_old} "
                       f"beams, this lattice {n_new}$"):
        CrsSurface2D.from_state(lat, sample_pixels(fld, lat), excess,
                                previous=previous)


@pytest.mark.parametrize("n_heights", [5, 40])
def test_crs_surface_from_state_validates_height_count(n_heights):
    lat = make_lattice("hexagonal", 30.0, 60.0)
    excess = np.zeros(len(lat.beam_lines()))
    with pytest.raises(ValueError, match="one height per pixel"):
        CrsSurface2D.from_state(lat, np.zeros(n_heights), excess)


def test_crs_surface_from_state_needs_2d_lattice():
    lat = make_lattice("line", 30.0, 120.0)
    with pytest.raises(ValueError, match="needs a 2D lattice"):
        CrsSurface2D.from_state(lat, np.zeros(lat.n_pixels), [0.0])


# ======================================================================
# the evaluation contract
# ======================================================================

_CONTRACT_LATTICES = {
    "line": make_lattice("line", 30.0, 120.0),
    "square": make_lattice("square", 30.0, (90.0, 60.0)),
    "hexagonal": make_lattice("hexagonal", 30.0, 60.0),
}


def _contract_model(cls, lat):
    """A model of cls for a bump whose support crosses the hull edge."""
    if lat.ndim == 1:
        fld = BumpField1D(peak=100.0, amplitude=2.0, wavelength=90.0)
    else:
        fld = BumpField2D(peak=(50.0, 20.0), amplitude=2.0, wavelength=90.0)
    if cls is CrsProfile1D or cls is CrsSurface2D:
        return cls(fld, lat)
    return cls(sample_pixels(fld, lat), lat)


def _contract_points(lat, rng):
    """(inside, outside) points: uniform ones over the hull plus the pixels,
    and points of a box twice the hull's size that the hull does not hold."""
    inside = lat.points_from_uniform(
        rng.random((500, lat.uniforms_per_point())))
    inside = np.concatenate([inside, lat.positions])
    lo = np.atleast_1d(lat.positions.min(axis=0))
    hi = np.atleast_1d(lat.positions.max(axis=0))
    box = rng.uniform(lo - 0.5 * (hi - lo), hi + 0.5 * (hi - lo),
                      (2000, lat.ndim))
    box = box[:, 0] if lat.ndim == 1 else box
    outside = box[~lat.contains(box)]
    assert outside.shape[0] > 100
    return inside, outside


@pytest.mark.parametrize("cls, kind", [
    (NearestProfile, "line"), (NearestProfile, "square"),
    (NearestProfile, "hexagonal"), (LinearProfile1D, "line"),
    (LinearSurface2D, "square"), (LinearSurface2D, "hexagonal"),
    (CrsProfile1D, "line"), (CrsSurface2D, "square"),
    (CrsSurface2D, "hexagonal"),
], ids=lambda v: getattr(v, "__name__", v))
def test_extended_is_the_model_in_the_hull_and_zero_outside(cls, kind):
    # every model: calling it evaluates hull points, and ``extended`` is the
    # same values bit for bit there, alone or mixed with outside points,
    # and exactly 0.0 everywhere else
    lat = _CONTRACT_LATTICES[kind]
    model = _contract_model(cls, lat)
    inside, outside = _contract_points(lat, np.random.default_rng(41))
    assert lat.contains(inside).all()
    vals = model(inside)
    assert model.extended(inside).tobytes() == vals.tobytes()
    off = model.extended(outside)
    assert off.shape == (outside.shape[0],)
    assert (off == 0.0).all() and not np.signbit(off).any()
    mixed = np.concatenate([outside[:50], inside, outside[50:]])
    ext = model.extended(mixed)
    expect = np.concatenate([off[:50], vals, off[50:]])
    assert ext.tobytes() == expect.tobytes()
    if lat.ndim == 2:
        assert model.extended(mixed[:, 0], mixed[:, 1]).tobytes() \
            == ext.tobytes()


# ======================================================================
# 2D evaluators over the lattice's cells, against the per-kind code
# ======================================================================
# The evaluators below are the per-kind ones that ``Lattice.triangles`` and
# ``Lattice.cell_lines`` replaced, kept operation for operation.

def _ref_locate_square(lat, p):
    nx, ny = lat.grid_shape
    ox, oy = lat.origin2d
    fx = np.clip((p[:, 0] - ox) / lat.pitch, 0.0, nx - 1.0)
    fy = np.clip((p[:, 1] - oy) / lat.pitch, 0.0, ny - 1.0)
    ix = np.minimum(np.floor(fx).astype(np.int64), nx - 2)
    iy = np.minimum(np.floor(fy).astype(np.int64), ny - 2)
    return fx, fy, ix, iy


def _ref_locate_hex(lat, p):
    qf, rf = lat.fractional_axial(p)
    qi = np.floor(qf).astype(np.int64)
    ri = np.floor(rf).astype(np.int64)
    up = ((qf - qi) + (rf - ri)) <= 1.0
    return qf, rf, qi, ri, up


def _ref_interp_square(lat, h, p):
    fx, fy, ix, iy = _ref_locate_square(lat, p)
    nx = lat.grid_shape[0]
    u = fx - ix
    v = fy - iy
    z00 = h[iy * nx + ix]
    z10 = h[iy * nx + ix + 1]
    z01 = h[(iy + 1) * nx + ix]
    z11 = h[(iy + 1) * nx + ix + 1]
    lower = u >= v
    vals_lo = z00 * (1.0 - u) + z10 * (u - v) + z11 * v
    vals_hi = z00 * (1.0 - v) + z11 * u + z01 * (v - u)
    return np.where(lower, vals_lo, vals_hi)


def _ref_interp_hex(lat, h, p):
    qf, rf, qi, ri, up = _ref_locate_hex(lat, p)
    vals = np.zeros(p.shape[0])
    u = qf - qi
    v = rf - ri
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
        safe = idx >= 0
        vals += np.where(safe, w * h[np.where(safe, idx, 0)], 0.0)
    return vals


def _ref_crs(surf, p):
    lat = surf.lattice
    if lat.kind == "square":
        _, _, ix, iy = _ref_locate_square(lat, p)
        ids = np.column_stack([lat.beam_index(0, iy), lat.beam_index(0, iy + 1),
                               lat.beam_index(1, ix), lat.beam_index(1, ix + 1)])
        ox, oy = lat.origin2d
        yr0 = oy + iy * lat.pitch
        xc0 = ox + ix * lat.pitch
        dists = np.column_stack([np.abs(p[:, 1] - yr0),
                                 np.abs(p[:, 1] - (yr0 + lat.pitch)),
                                 np.abs(p[:, 0] - xc0),
                                 np.abs(p[:, 0] - (xc0 + lat.pitch))])
    else:
        qf, rf, qi, ri, up = _ref_locate_hex(lat, p)
        key0 = np.where(up, ri, ri + 1)
        key1 = np.where(up, qi, qi + 1)
        key2 = qi + ri + 1
        ids = np.column_stack([lat.beam_index(0, key0), lat.beam_index(1, key1),
                               lat.beam_index(2, key2)])
        row = math.sqrt(3.0) / 2.0 * lat.pitch
        dists = np.column_stack([np.abs(rf - key0) * row,
                                 np.abs(qf - key1) * row,
                                 np.abs((qf + rf) - key2) * row])
    vals = np.zeros(ids.shape)
    flat = ids.ravel()
    for b in np.flatnonzero(np.bincount(flat[flat >= 0])):
        sel = np.flatnonzero(flat == b)
        beam = surf.beams[b]
        vals.flat[sel] = surf.solutions[b].profile(
            (p[sel // ids.shape[1]] - beam.origin) @ beam.direction)
    tol = 1e-9 * lat.pitch
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


_CELL_PITCHES = (30.0, 7.3, 1.0)


def _cell_lattice(kind, pitch):
    """A 4 x 3 square lattice off the origin, or a 19-pixel hexagon."""
    if kind == "square":
        return make_lattice("square", pitch, ((-1.3 * pitch, 1.7 * pitch),
                                              (0.4 * pitch, 2.4 * pitch)))
    return make_lattice("hexagonal", pitch, 2.0 * pitch)


_CELL_SURFACES = {}


def _cell_surface(kind, pitch):
    """A CRS surface on ``_cell_lattice``, built once per lattice."""
    if (kind, pitch) not in _CELL_SURFACES:
        lat = _cell_lattice(kind, pitch)
        peak = lat.positions.mean(axis=0) + np.array([0.4, 0.3]) * pitch
        fld = BumpField2D(peak=tuple(peak), amplitude=0.3 * pitch,
                          wavelength=3.0 * pitch)
        _CELL_SURFACES[kind, pitch] = CrsSurface2D(fld, lat)
    return _CELL_SURFACES[kind, pitch]


@st.composite
def _cell_case(draw, heights):
    """(kind, pitch, hull points, pixel heights): uniform points over the
    hull, from the edges' unit uniforms too, then the pixels."""
    kind = draw(st.sampled_from(["square", "hexagonal"]))
    pitch = draw(st.sampled_from(_CELL_PITCHES))
    lat = _cell_lattice(kind, pitch)
    unit = st.floats(0.0, 1.0)
    u = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=1,
                               max_size=60)))[:, :lat.uniforms_per_point()]
    pts = np.concatenate([lat.points_from_uniform(u), lat.positions])
    h = np.array(draw(st.lists(heights, min_size=lat.n_pixels,
                               max_size=lat.n_pixels)))
    return kind, pitch, pts, h


def _ref_linear(lat, h, p):
    if lat.kind == "square":
        return _ref_interp_square(lat, h, p)
    return _ref_interp_hex(lat, h, p)


@settings(deadline=None, max_examples=300)
@given(_cell_case(st.floats(0.0, 10.0)))
def test_linear_surface_equals_the_per_kind_interpolation(case):
    # heights >= +0.0, as sample_pixels gives them: bit for bit
    kind, pitch, pts, h = case
    lat = _cell_lattice(kind, pitch)
    assert lat.contains(pts).all()
    assert LinearSurface2D(h, lat)(pts).tobytes() \
        == _ref_linear(lat, h, pts).tobytes()


@settings(deadline=None, max_examples=200)
@given(_cell_case(st.floats(-10.0, 10.0)))
def test_linear_surface_equals_the_per_kind_interpolation_any_sign(case):
    # with -0.0 or negative heights an exact zero may differ in its sign
    # alone: the hexagonal sum no longer starts from +0.0
    kind, pitch, pts, h = case
    lat = _cell_lattice(kind, pitch)
    assert np.array_equal(LinearSurface2D(h, lat)(pts), _ref_linear(lat, h, pts))


@settings(deadline=None, max_examples=200)
@given(_cell_case(st.just(0.0)))
def test_crs_surface_equals_the_per_kind_evaluation(case):
    kind, pitch, pts, _ = case
    surf = _cell_surface(kind, pitch)
    pts = np.concatenate([pts, surf.peak_candidates()])
    assert surf(pts).tobytes() == _ref_crs(surf, pts).tobytes()


# ======================================================================
# model dispatch
# ======================================================================

def test_reconstruction_model_variants():
    for variant in ("pixel-only", "linear", "crs"):
        m = ReconstructionModel(variant)
        assert m.variant == variant
    with pytest.raises(ValueError, match="unknown model variant"):
        ReconstructionModel("spline")


def test_build_profile_dispatch():
    lat = make_lattice("line", 30.0, 120.0)
    fld = BumpField1D(peak=60.0, amplitude=1.0, wavelength=90.0)
    p1 = build_profile(ReconstructionModel("pixel-only"), fld, lat)
    p2 = build_profile(ReconstructionModel("linear"), fld, lat)
    p3 = build_profile(ReconstructionModel("crs"), fld, lat)
    assert p1.kind == "staircase"
    assert p2.kind == "linear"
    assert p3.kind == "continuous"
    # staircase and linear agree with the sampled heights at pixels
    h = sample_pixels(fld, lat)
    assert np.allclose(p1(lat.positions), h)
    assert np.allclose(p2(lat.positions), h)
