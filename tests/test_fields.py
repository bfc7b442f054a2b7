"""Fields and lattices: bump geometry, restriction slices, lattice
construction, hull membership, nearest-pixel lookups, beam lines."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from crslab import fields
from crslab.fields import (
    BumpField1D,
    BumpField2D,
    bump1d,
    bump2d,
    _heaviest_vertex,
    make_lattice,
    sample_pixels,
)


# ======================================================================
# raised-cosine bumps
# ======================================================================

def test_bump1d_shape_values():
    fld = BumpField1D(peak=10.0, amplitude=2.0, wavelength=90.0)
    assert fld(10.0) == pytest.approx(2.0)
    # half height one quarter-wavelength out: (A/2)(1 + cos(pi/2)) = A/2
    assert fld(10.0 + 22.5) == pytest.approx(1.0)
    assert fld(10.0 - 22.5) == pytest.approx(1.0)
    # support edge and beyond are exactly zero
    assert fld(10.0 + 45.0) == 0.0
    assert fld(10.0 + 46.0) == 0.0
    assert fld(10.0 - 500.0) == 0.0


def test_bump1d_slope_matches_finite_difference():
    fld = BumpField1D(peak=-3.0, amplitude=1.5, wavelength=60.0)
    xs = np.linspace(-40.0, 40.0, 321)
    h = 1e-6
    fd = (bump1d(xs + h, fld) - bump1d(xs - h, fld)) / (2.0 * h)
    slopes = np.array([fld.slope(float(x)) for x in xs])
    assert np.allclose(slopes, fd, atol=5e-6)


# The array slopes that the scalar ones replaced; the arc excess must not
# move by a bit, since the replay command log depends on it.

def _array_radial_slope(dist, amplitude, wavelength):
    dist = np.asarray(dist, dtype=float)
    inside = dist <= 0.5 * wavelength
    phase = 2.0 * np.pi * np.where(inside, dist, 0.0) / wavelength
    val = -(amplitude * np.pi / wavelength) * np.sin(phase)
    return np.where(inside, val, 0.0)


def _array_slope_1d(fld, x):
    x = np.asarray(x, dtype=float)
    s = _array_radial_slope(np.abs(x - fld.peak), fld.amplitude, fld.wavelength)
    return np.where(x >= fld.peak, s, -s)


def _array_slope_line(restr, s):
    s = np.asarray(s, dtype=float)
    ds = s - restr.s_peak
    r = np.hypot(ds, restr.offset)
    radial = _array_radial_slope(r, restr.parent.amplitude,
                                 restr.parent.wavelength)
    with np.errstate(invalid="ignore"):
        return np.where(r > 0.0, radial * ds / np.where(r > 0.0, r, 1.0), 0.0)


def _array_arc_excess(slope, support, x0, x1):
    if support is None:
        return 0.0
    lo, hi = max(support[0], x0), min(support[1], x1)
    if hi <= lo:
        return 0.0
    val, _ = quad(lambda x: math.hypot(1.0, slope(x)) - 1.0, lo, hi,
                  epsabs=1e-13, epsrel=1e-9, limit=200)
    return val


def test_scalar_slopes_equal_the_array_slopes():
    fld = BumpField1D(peak=-3.0, amplitude=1.5, wavelength=60.0)
    half = 0.5 * fld.wavelength
    # the peak, both support edges, a point just inside and beyond each,
    # and far outside
    xs = np.concatenate([np.linspace(-60.0, 60.0, 241),
                         fld.peak + np.array([0.0, -half, half])])
    xs = np.concatenate([xs, np.nextafter(xs, np.inf), np.nextafter(xs, -np.inf)])
    for x in xs:
        assert fld.slope(float(x)) == _array_slope_1d(fld, x), x
    field2d = BumpField2D(peak=(4.0, -2.0), amplitude=2.5, wavelength=90.0)
    for origin, direction, s_extra in (
            ((-60.0, -2.0), (1.0, 0.0), 64.0),       # through the peak: r = 0
            ((-40.0, 10.0), (0.6, 0.8), 0.0),
            ((-30.0, 40.0), (1.0, 0.0), 0.0)):       # offset 42 < l/2
        restr = field2d.along_line(np.array(origin), np.array(direction))
        edges = [] if restr.support() is None else list(restr.support())
        ss = np.concatenate([np.linspace(-20.0, 140.0, 321),
                             [restr.s_peak, s_extra], edges])
        ss = np.concatenate([ss, np.nextafter(ss, np.inf),
                             np.nextafter(ss, -np.inf)])
        for s in ss:
            assert restr.slope(float(s)) == _array_slope_line(restr, s), s


@settings(deadline=None, max_examples=60)
@given(st.floats(-60.0, 60.0), st.floats(0.0, 8.0), st.floats(10.0, 150.0),
       st.floats(-120.0, 120.0), st.floats(0.0, 200.0))
def test_arc_excess_equals_the_array_integrand_1d(peak, amp, wl, x0, width):
    fld = BumpField1D(peak=peak, amplitude=amp, wavelength=wl)
    expect = _array_arc_excess(lambda x: _array_slope_1d(fld, x),
                               fld.support(), x0, x0 + width)
    assert fld.arc_excess(x0, x0 + width) == expect


@settings(deadline=None, max_examples=60)
@given(st.tuples(st.floats(-40.0, 40.0), st.floats(-40.0, 40.0)),
       st.floats(0.0, 8.0), st.floats(30.0, 150.0),
       st.tuples(st.floats(-80.0, 80.0), st.floats(-80.0, 80.0)),
       st.floats(0.0, 2.0 * math.pi), st.floats(10.0, 160.0))
def test_arc_excess_equals_the_array_integrand_on_lines(peak, amp, wl, origin,
                                                        angle, span):
    fld = BumpField2D(peak=peak, amplitude=amp, wavelength=wl)
    restr = fld.along_line(np.array(origin),
                           np.array([math.cos(angle), math.sin(angle)]))
    expect = _array_arc_excess(lambda s: _array_slope_line(restr, s),
                               restr.support(), 0.0, span)
    assert restr.arc_excess(0.0, span) == expect
    assert restr.arc_excess(0.0, 0.5 * span) == _array_arc_excess(
        lambda s: _array_slope_line(restr, s), restr.support(), 0.0,
        0.5 * span)


def test_bump1d_arc_excess_against_quadrature():
    fld = BumpField1D(peak=45.0, amplitude=3.0, wavelength=90.0)
    xs = np.linspace(0.0, 90.0, 200001)
    z = bump1d(xs, fld)
    arc = np.sum(np.hypot(np.diff(xs), np.diff(z)))
    expect = arc - 90.0
    assert fld.arc_excess(0.0, 90.0) == pytest.approx(expect, rel=1e-6)
    # regions outside the support contribute nothing
    assert fld.arc_excess(-1000.0, 1000.0) == pytest.approx(expect, rel=1e-6)
    assert fld.arc_excess(200.0, 300.0) == 0.0


def test_bump1d_zero_amplitude_is_flat():
    fld = BumpField1D(peak=0.0, amplitude=0.0, wavelength=90.0)
    xs = np.linspace(-50.0, 50.0, 101)
    assert np.all(bump1d(xs, fld) == 0.0)
    assert fld.arc_excess(-45.0, 45.0) == 0.0


def test_bump1d_validation():
    with pytest.raises(ValueError):
        BumpField1D(0.0, -1.0, 90.0)
    with pytest.raises(ValueError):
        BumpField1D(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        BumpField1D(math.nan, 1.0, 90.0)


def test_bump2d_radial_symmetry():
    fld = BumpField2D(peak=(5.0, -2.0), amplitude=1.0, wavelength=90.0)
    rng = np.random.default_rng(11)
    r = 45.0 * rng.random(200)
    ang = 2.0 * math.pi * rng.random(200)
    x = 5.0 + r * np.cos(ang)
    y = -2.0 + r * np.sin(ang)
    ref = 0.5 * (1.0 + np.cos(2.0 * math.pi * r / 90.0))
    assert np.allclose(bump2d(x, y, fld), ref, atol=1e-12)
    assert fld.support_radius() == 45.0
    assert fld(5.0 + 45.0, -2.0) == 0.0


def test_bump2d_section_matches_1d():
    # a diameter cut of the 2D bump is the 1D bump
    fld2 = BumpField2D(peak=(0.0, 0.0), amplitude=2.5, wavelength=80.0)
    fld1 = BumpField1D(peak=0.0, amplitude=2.5, wavelength=80.0)
    xs = np.linspace(-50.0, 50.0, 401)
    assert np.allclose(bump2d(xs, np.zeros_like(xs), fld2), bump1d(xs, fld1))


# ======================================================================
# line restrictions
# ======================================================================

def test_line_restriction_values_match_field():
    fld = BumpField2D(peak=(12.0, 7.0), amplitude=1.0, wavelength=90.0)
    origin = np.array([-30.0, -5.0])
    direction = np.array([1.0, 1.0]) / math.sqrt(2.0)
    restr = fld.along_line(origin, direction)
    s = np.linspace(-20.0, 120.0, 301)
    pts = origin[None, :] + s[:, None] * direction[None, :]
    assert np.allclose(restr(s), bump2d(pts[:, 0], pts[:, 1], fld), atol=1e-12)


def test_line_restriction_offset_geometry():
    fld = BumpField2D(peak=(0.0, 10.0), amplitude=1.0, wavelength=90.0)
    restr = fld.along_line(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    assert restr.s_peak == pytest.approx(0.0)
    assert restr.offset == pytest.approx(10.0)
    # value at closest approach: field at distance 10 from the peak
    expect = 0.5 * (1.0 + math.cos(2.0 * math.pi * 10.0 / 90.0))
    assert restr(0.0) == pytest.approx(expect)


def test_line_restriction_support_and_excess():
    fld = BumpField2D(peak=(0.0, 0.0), amplitude=2.0, wavelength=90.0)
    on_axis = fld.along_line(np.array([-100.0, 0.0]), np.array([1.0, 0.0]))
    lo, hi = on_axis.support()
    assert lo == pytest.approx(55.0)   # peak at s=100, support radius 45
    assert hi == pytest.approx(145.0)
    # a line missing the support entirely has no excess
    far = fld.along_line(np.array([0.0, 60.0]), np.array([1.0, 0.0]))
    assert far.support() is None
    assert far.arc_excess(-200.0, 200.0) == 0.0
    # quadrature excess against a dense polyline
    s = np.linspace(55.0, 145.0, 100001)
    z = on_axis(s)
    expect = np.sum(np.hypot(np.diff(s), np.diff(z))) - 90.0
    assert on_axis.arc_excess(-200.0, 200.0) == pytest.approx(expect, rel=1e-6)


# ======================================================================
# lattice construction
# ======================================================================

def test_make_line_lattice_positions():
    lat = make_lattice("line", 30.0, 120.0)
    assert lat.n_pixels == 5
    assert np.allclose(lat.positions, [0.0, 30.0, 60.0, 90.0, 120.0])
    assert lat.ndim == 1
    assert lat.hull_bounds() == (0.0, 120.0)


def test_make_square_lattice_enumeration():
    lat = make_lattice("square", 10.0, (20.0, 20.0))
    assert lat.n_pixels == 9
    # row-major by (y, x)
    assert np.allclose(lat.positions[0], [0.0, 0.0])
    assert np.allclose(lat.positions[1], [10.0, 0.0])
    assert np.allclose(lat.positions[3], [0.0, 10.0])
    order = np.lexsort((lat.positions[:, 0], lat.positions[:, 1]))
    assert np.all(order == np.arange(9))


def test_make_hex_lattice_counts():
    # rings k = 1, 2, 3 hold 3k(k+1)+1 sites
    for k, n in ((1, 7), (2, 19), (3, 37)):
        lat = make_lattice("hexagonal", 30.0, 30.0 * k)
        assert lat.n_pixels == n
    lat = make_lattice("hexagonal", 30.0, 60.0)
    # centre pixel present, enumeration sorted by (y, x)
    d = np.linalg.norm(lat.positions, axis=1)
    assert d.min() == 0.0
    order = np.lexsort((lat.positions[:, 0], lat.positions[:, 1]))
    assert np.all(order == np.arange(lat.n_pixels))


def test_hex_interior_neighbour_distances():
    lat = make_lattice("hexagonal", 30.0, 90.0)
    pos = lat.positions
    interior = np.linalg.norm(pos, axis=1) < 60.0 - 1e-9
    for i in np.nonzero(interior)[0]:
        d = np.linalg.norm(pos - pos[i], axis=1)
        neigh = np.sort(d)[1:7]
        assert np.allclose(neigh, 30.0, atol=1e-9)


def test_degenerate_lattices_raise():
    with pytest.raises(ValueError, match="degenerate lattice"):
        make_lattice("line", 30.0, 10.0)
    with pytest.raises(ValueError, match="degenerate lattice"):
        make_lattice("square", 30.0, (10.0, 300.0))
    with pytest.raises(ValueError, match="degenerate lattice"):
        make_lattice("hexagonal", 30.0, 20.0)
    with pytest.raises(ValueError):
        make_lattice("line", -1.0, 100.0)
    with pytest.raises(ValueError):
        make_lattice("triangular", 30.0, 100.0)


@pytest.mark.parametrize("kind, extents", [
    ("line", math.inf), ("line", (0.0, math.nan)),
    ("square", (math.inf, 2.0)), ("square", ((0.0, 2.0), (-math.inf, 1.0))),
    ("square", (2.0, math.nan)),
    ("hexagonal", math.inf), ("hexagonal", math.nan),
])
def test_non_finite_extents_raise(kind, extents):
    with pytest.raises(ValueError, match="extents must be finite"):
        make_lattice(kind, 1.0, extents)


# ======================================================================
# hull membership and uniform sampling
# ======================================================================

def test_contains_line_and_square():
    lat = make_lattice("line", 30.0, 120.0)
    assert bool(lat.contains(np.array([0.0]))[0])
    assert bool(lat.contains(np.array([120.0]))[0])
    assert not bool(lat.contains(np.array([121.0]))[0])
    assert not bool(lat.contains(np.array([100.0]), margin=30.0)[0])

    sq = make_lattice("square", 10.0, (40.0, 40.0))
    pts = np.array([[0.0, 0.0], [40.0, 40.0], [41.0, 20.0], [20.0, -1.0]])
    assert list(sq.contains(pts)) == [True, True, False, False]


def test_contains_hexagon():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    apothem = 60.0 * math.sqrt(3.0) / 2.0
    pts = np.array([
        [0.0, 0.0],
        [60.0, 0.0],                 # hexagon vertex
        [0.0, apothem - 1e-6],       # just inside the flat edge
        [0.0, apothem + 1e-3],       # just outside
        [70.0, 0.0],
    ])
    assert list(lat.contains(pts)) == [True, True, True, False, False]


def test_points_from_uniform_lands_in_hull():
    rng = np.random.default_rng(21)
    for kind, ext in (("line", 360.0), ("square", (120.0, 120.0)),
                      ("hexagonal", 90.0)):
        lat = make_lattice(kind, 30.0, ext)
        u = rng.random((2000, lat.uniforms_per_point()))
        pts = lat.points_from_uniform(u)
        assert np.all(lat.contains(pts))
        # interior sampling respects the margin
        pts_m = lat.points_from_uniform(u, margin=45.0)
        assert np.all(lat.contains(pts_m, margin=45.0 - 1e-6))


def test_points_from_uniform_is_deterministic():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    u = np.random.default_rng(5).random((64, 3))
    a = lat.points_from_uniform(u)
    b = lat.points_from_uniform(u.copy())
    assert np.array_equal(a, b)


@st.composite
def _lattice_uniforms_margin(draw):
    """A line, square or hexagonal lattice of random pitch, size and
    placement, a block of unit uniforms, and a margin that leaves the
    shrunk hull non-empty."""
    kind = draw(st.sampled_from(["line", "square", "hexagonal"]))
    pitch = draw(st.floats(0.5, 50.0))
    x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
    if kind == "line":
        lat = make_lattice("line", pitch,
                           (x0, x0 + pitch * draw(st.floats(1.0, 20.0))))
        a, b = lat.hull_bounds()
        half = 0.5 * (b - a)
    elif kind == "square":
        lat = make_lattice("square", pitch,
                           ((x0, x0 + pitch * draw(st.floats(1.0, 8.0))),
                            (y0, y0 + pitch * draw(st.floats(1.0, 8.0)))))
        half = 0.5 * min(b - a for a, b in lat.hull_bounds())
    else:
        lat = make_lattice("hexagonal", pitch,
                           pitch * draw(st.floats(1.0, 5.99)))
        half = lat.hull_bounds() * math.sqrt(3.0) / 2.0
    unit = st.floats(0.0, 1.0)
    u = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=40))
    margin = half * draw(st.floats(0.0, 0.99))
    return lat, np.array(u)[:, :lat.uniforms_per_point()], margin


@settings(deadline=None, max_examples=200)
@given(_lattice_uniforms_margin())
def test_points_from_uniform_stay_inside_their_margin(case):
    lat, u, margin = case
    assert np.all(lat.contains(lat.points_from_uniform(u, margin=margin),
                               margin=margin))


# ======================================================================
# nearest pixel
# ======================================================================

def test_nearest_index_line_ties_to_lower():
    lat = make_lattice("line", 30.0, 120.0)
    # query exactly on the cell boundary between pixels 1 and 2
    assert int(lat.nearest_index(np.array([45.0]))[0]) == 1
    assert int(lat.nearest_index(np.array([45.0 + 1e-9]))[0]) == 2
    assert int(lat.nearest_index(np.array([-10.0]))[0]) == 0


def _brute_nearest(lat, pts):
    """Brute-force nearest pixel (argmin takes the first = lowest index)
    and every pixel distance."""
    pos = lat.positions.reshape(lat.n_pixels, -1)
    d = np.sqrt(np.sum((pos[None] - pts.reshape(len(pts), 1, -1)) ** 2,
                       axis=2))
    return np.argmin(d, axis=1), d


@st.composite
def _lattice_and_points(draw):
    kind = draw(st.sampled_from(["square", "hexagonal"]))
    pitch = draw(st.floats(0.5, 50.0))
    wavelength = pitch * draw(st.floats(1.0, 10.0))
    if kind == "square":
        x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
        w = pitch * draw(st.floats(1.0, 8.0))
        h = pitch * draw(st.floats(1.0, 8.0))
        lat = make_lattice("square", pitch, ((x0, x0 + w), (y0, y0 + h)))
    else:
        lat = make_lattice("hexagonal", pitch,
                           pitch * draw(st.floats(1.0, 5.99)))
    unit = st.floats(0.0, 1.0)
    # points inside the hull, and anywhere in its bounding box grown by
    # one wavelength
    u_in = draw(st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=40))
    u_box = draw(st.lists(st.tuples(unit, unit), min_size=1, max_size=40))
    inner = lat.points_from_uniform(np.array(u_in)[:, :lat.uniforms_per_point()])
    lo = lat.positions.min(axis=0) - wavelength
    hi = lat.positions.max(axis=0) + wavelength
    box = lo + (hi - lo) * np.array(u_box)
    return lat, np.vstack([inner, box])


@settings(deadline=None, max_examples=200)
@given(_lattice_and_points())
def test_nearest_index_matches_brute_force(case):
    lat, pts = case
    idx = lat.nearest_index(pts)
    brute, d = _brute_nearest(lat, pts)
    rows = np.arange(len(pts))
    best = d[rows, brute]
    # pixels within roundoff of the best distance are ties; the closed form
    # decides those in lattice coordinates (exact ties are pinned by the
    # tie tests below), so it must match the brute force everywhere else
    tol = 1e-9 * lat.pitch
    unique = np.sum(d <= best[:, None] + tol, axis=1) == 1
    assert np.array_equal(idx[unique], brute[unique])
    assert np.all(d[rows, idx] <= best + tol)
    assert np.allclose(lat.nearest_distance(pts), best, rtol=0.0, atol=tol)


def test_nearest_index_square_ties_to_lower():
    lat = make_lattice("square", 30.0, ((0.0, 90.0), (0.0, 60.0)))  # 4 x 3
    cases = {
        (15.0, 0.0): 0,      # edge between columns 0 and 1
        (45.0, 30.0): 5,     # edge between columns 1 and 2, row 1
        (0.0, 45.0): 4,      # edge between rows 1 and 2
        (15.0, 15.0): 0,     # corner of four cells
        (75.0, 45.0): 6,     # corner of columns 2, 3 and rows 1, 2
        (-10.0, 15.0): 0,    # outside the hull, on a row edge
        (100.0, 45.0): 7,    # outside the hull, on a row edge
        (45.0, -20.0): 1,    # outside the hull, on a column edge
    }
    pts = np.array(list(cases))
    assert list(lat.nearest_index(pts)) == list(cases.values())
    assert np.array_equal(lat.nearest_index(pts), _brute_nearest(lat, pts)[0])


def test_nearest_index_hex_row_midpoints_tie_to_lower():
    lat = make_lattice("hexagonal", 30.0, 90.0)
    pos = lat.positions

    def index_at(x, y):
        return int(np.flatnonzero((pos[:, 0] == x) & (pos[:, 1] == y))[0])

    # (15, 0) and (45, 0) lie halfway between two pixels of the middle row;
    # rounding half to even would send (45, 0) to x = 60
    assert int(lat.nearest_index([[15.0, 0.0]])[0]) == index_at(0.0, 0.0)
    assert int(lat.nearest_index([[45.0, 0.0]])[0]) == index_at(30.0, 0.0)
    assert int(lat.nearest_index([[-15.0, 0.0]])[0]) == index_at(-30.0, 0.0)
    assert int(lat.nearest_index([[-45.0, 0.0]])[0]) == index_at(-60.0, 0.0)
    # midpoints in the rows above and below
    for row in (1.0, -1.0, 2.0, -2.0):
        y = float(pos[np.argmin(np.abs(pos[:, 1] - row * 15.0 * math.sqrt(3.0))), 1])
        xs = np.sort(pos[pos[:, 1] == y, 0])
        for xa, xb in zip(xs[:-1], xs[1:]):
            assert int(lat.nearest_index([[0.5 * (xa + xb), y]])[0]) \
                == index_at(xa, y)


def test_hex_rounding_ties_exact_in_axial_coordinates():
    # every point of a 1/8 grid in axial coordinates, in and beyond the
    # hull, against brute force over the pixels in exact integer
    # arithmetic: squared distance is (dq^2 + dq dr + dr^2) pitch^2, and
    # ties go to the lowest (r, q), i.e. the lowest (y, x)
    for k in (1, 2, 3):
        lat = make_lattice("hexagonal", 30.0, 30.0 * k)
        g = np.arange(-8 * (k + 2), 8 * (k + 2) + 1)
        q8, r8 = (a.ravel() for a in np.meshgrid(g, g))
        got = _heaviest_vertex(*lat._axial_triangles(
            *lat._onto_hull_axial(q8 / 8.0, r8 / 8.0)))
        dq = q8[:, None] - 8 * lat.axial[None, :, 0]
        dr = r8[:, None] - 8 * lat.axial[None, :, 1]
        key = (dq * dq + dq * dr + dr * dr) * (64 * k * k) \
            + (lat.axial[None, :, 1] + k) * (2 * k + 1) + lat.axial[None, :, 0] + k
        assert np.array_equal(got, np.argmin(key, axis=1))


def _cube_round_reference(qf, rf):
    """Nearest integer axial coordinates by cube rounding, as
    `Lattice.nearest_index` once computed them:
    round q, r and s = -q - r (q and s halves up, r halves down), and if
    the three do not sum to zero, step back the one rounding moved
    furthest, preferring r, q, s when stepping down and s, q, r when
    stepping up."""
    def half_up(x):
        f = np.floor(x)
        return f + (x - f >= 0.5)

    sf = -qf - rf
    q = half_up(qf)
    c = np.ceil(rf)
    r = c - (c - rf >= 0.5)
    s = half_up(sf)
    eq, er, es = q - qf, r - rf, s - sf
    excess = q + r + s                     # -1, 0 or 1
    up = excess > 0.0
    down = excess < 0.0
    r_down = up & (er >= eq) & (er >= es)
    q_down = up & ~r_down & (eq >= es)
    q += down & (eq < es) & (eq <= er)
    q -= q_down
    r += down & (er < es) & (er < eq)
    r -= r_down
    return q.astype(np.int64), r.astype(np.int64)


def test_hex_rounding_matches_cube_rounding_on_axial_grid():
    # a 1/64 grid in axial coordinates, in and beyond the hull, where every
    # coordinate and every difference of them is exact in floating point;
    # the points beyond the hull are projected onto it first
    for k in (1, 2, 4):
        lat = make_lattice("hexagonal", 30.0, 30.0 * k)
        g = np.arange(-64 * (k + 2), 64 * (k + 2) + 1) / 64.0
        qf, rf = (a.ravel() for a in np.meshgrid(g, g))
        inside = np.abs(qf) + np.abs(rf) + np.abs(qf + rf) <= 2 * k
        for q, r in ((qf[inside], rf[inside]), lat._onto_hull_axial(qf, rf)):
            got = _heaviest_vertex(*lat._axial_triangles(q, r))
            want = lat.axial_index(*_cube_round_reference(q, r))
            assert (want >= 0).all() and np.array_equal(got, want)


@st.composite
def _hex_lattice_and_window(draw):
    pitch = draw(st.floats(0.5, 50.0))
    lat = make_lattice("hexagonal", pitch, pitch * draw(st.integers(1, 6)))
    wavelength = pitch * draw(st.floats(1.0, 10.0))
    u = draw(st.tuples(*(st.floats(0.0, 1.0),) * 3))
    peak = lat.points_from_uniform(np.array([u]))[0]
    rel = np.linspace(-0.5 * wavelength, 0.5 * wavelength,
                      draw(st.integers(2, 40)))
    rx, ry = (a.ravel() for a in np.meshgrid(rel, rel))
    return lat, np.column_stack([peak[0] + rx, peak[1] + ry])


@settings(deadline=None, max_examples=200)
@given(_hex_lattice_and_window())
def test_nearest_index_hex_matches_cube_rounding_on_windows(case):
    # the shape kernel's query pattern: a regular grid of offsets around a
    # peak in the hull, reaching beyond it
    lat, pts = case
    got = lat.nearest_index(pts)
    qf, rf = lat._onto_hull_axial(*lat.fractional_axial(pts))
    want = lat.axial_index(*_cube_round_reference(qf, rf))
    # within roundoff of a cell boundary the two roundings may pick either
    # of the tied pixels; everywhere else they must agree
    _, d = _brute_nearest(lat, pts)
    rows = np.arange(len(pts))
    tol = 1e-9 * lat.pitch
    tied = np.sum(d <= d.min(axis=1)[:, None] + tol, axis=1) > 1
    assert np.array_equal(got[~tied], want[~tied])
    assert np.all(np.abs(d[rows, got] - d[rows, want]) <= tol)


def test_nearest_index_hex_outside_hull():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    # beyond the corner at (60, 0): the corner pixel, 60 mm away
    assert int(lat.nearest_index([[120.0, 0.0]])[0]) == 11
    assert np.allclose(lat.positions[11], [60.0, 0.0])
    assert lat.nearest_distance([[120.0, 0.0]])[0] == pytest.approx(60.0)
    # beyond the top edge, above a pixel and halfway between two
    top = float(lat.positions[:, 1].max())
    pts = np.array([[0.0, 200.0], [15.0, 200.0], [-15.0, 200.0]])
    assert np.array_equal(lat.nearest_index(pts), _brute_nearest(lat, pts)[0])


def _nearest_hull_point(lat, qf, rf):
    """The nearest point of the hull hexagon to each point, in fractional
    axial coordinates, found in the plane: the nearest point over the
    hexagon's six edges, or the point itself where it is in the hull."""
    k = int(np.abs(lat.axial).max())
    corners = np.array([(k, 0), (0, k), (-k, k), (-k, 0), (0, -k), (k, -k)])

    def plane(q, r):
        return np.stack([q + 0.5 * r, (math.sqrt(3.0) / 2.0) * r], axis=-1)

    p = plane(qf, rf)
    a = plane(*corners.T)
    ab = plane(*np.roll(corners, -1, axis=0).T) - a
    t = np.clip(np.einsum("pej,ej->pe", p[:, None] - a, ab)
                / np.einsum("ej,ej->e", ab, ab), 0.0, 1.0)
    feet = a + t[..., None] * ab
    nearest = np.argmin(np.linalg.norm(feet - p[:, None], axis=2), axis=1)
    x, y = feet[np.arange(len(p)), nearest].T
    inside = np.abs(qf) + np.abs(rf) + np.abs(qf + rf) <= 2 * k
    r = y / (math.sqrt(3.0) / 2.0)
    return np.where(inside, qf, x - 0.5 * r), np.where(inside, rf, r)


@st.composite
def _hex_lattice_and_cloud(draw):
    """A hexagonal lattice and points inside its hull, on its boundary to
    within a few ulps, outside it, or both inside and outside."""
    pitch = draw(st.floats(0.5, 50.0))
    lat = make_lattice("hexagonal", pitch, pitch * draw(st.integers(1, 6)))
    unit = st.floats(0.0, 1.0)
    u = np.array(draw(st.lists(st.tuples(unit, unit, unit), min_size=1,
                               max_size=60)))
    where = draw(st.sampled_from(["inside", "boundary", "outside",
                                  "straddling"]))
    if where == "boundary":
        u[:, 1] = 1.0           # on the hull's edges
        scale = 1.0 + draw(st.floats(-1e-8, 1e-8))
    elif where == "inside":
        scale = draw(st.floats(0.0, 1.0 - 1e-6))
    else:
        scale = draw(st.floats(1.0 + 1e-6, 3.0))
    pts = scale * lat.points_from_uniform(u)
    if where == "straddling":
        pts = np.vstack([pts, 0.5 * lat.points_from_uniform(u[::-1])])
    return lat, pts


@settings(deadline=None, max_examples=300)
@given(_hex_lattice_and_cloud())
def test_hex_hull_projection_is_the_nearest_hull_point(case):
    # points in the hull come back bit for bit, the others land on the
    # nearest point of the hull's edges; nearest_index rounds the projection
    lat, pts = case
    qf, rf = lat.fractional_axial(pts)
    got_q, got_r = lat._onto_hull_axial(qf, rf)
    want_q, want_r = _nearest_hull_point(lat, qf, rf)
    k = int(np.abs(lat.axial).max())
    inside = np.abs(qf) + np.abs(rf) + np.abs(qf + rf) <= 2 * k
    assert got_q[inside].tobytes() == qf[inside].tobytes()
    assert got_r[inside].tobytes() == rf[inside].tobytes()
    tol = 1e-9 * k
    assert np.allclose(got_q, want_q, rtol=0.0, atol=tol)
    assert np.allclose(got_r, want_r, rtol=0.0, atol=tol)
    want = _heaviest_vertex(*lat._axial_triangles(got_q, got_r))
    assert lat.nearest_index(pts).tobytes() == want.tobytes()


def _grid_points(xs, ys):
    """The nodes of the tensor grid xs x ys, row by row (xs alone in 1D)."""
    if ys is None:
        return xs
    return np.column_stack([np.tile(xs, len(ys)), np.repeat(ys, len(xs))])


@st.composite
def _lattice_and_grid(draw):
    """A lattice and a tensor grid around a pixel or a point of its hull,
    reaching beyond the hull.  Aligned grids step from a pixel by a
    fraction of the pitch along x and of the row spacing along y, so that
    their nodes fall on cell edges and, on hexagonal lattices, on the rows
    between pixel rows where the cell edges meet (v = 1/3, 1/2, 2/3); with
    an irrational row spacing those ties hold only to roundoff.  Uneven
    grids have increasing axes of random spacing."""
    kind = draw(st.sampled_from(["line", "square", "hexagonal"]))
    spacing = draw(st.sampled_from(["aligned", "uniform", "uneven"]))
    if spacing == "aligned":
        pitch = draw(st.sampled_from([0.75, 1.0, 3.0, 30.0]))
    else:
        pitch = draw(st.floats(0.5, 50.0))
    if kind == "line":
        x0 = draw(st.floats(-100.0, 100.0))
        lat = make_lattice("line", pitch,
                           (x0, x0 + pitch * draw(st.integers(1, 12))))
    elif kind == "square":
        x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
        lat = make_lattice("square", pitch,
                           ((x0, x0 + pitch * draw(st.integers(1, 8))),
                            (y0, y0 + pitch * draw(st.integers(1, 8)))))
    else:
        lat = make_lattice("hexagonal", pitch,
                           pitch * draw(st.integers(1, 6)))
    row = pitch * (math.sqrt(3.0) / 2.0 if kind == "hexagonal" else 1.0)
    span = pitch * draw(st.floats(0.5, 10.0))
    if spacing == "aligned":
        centre = lat.positions[draw(st.integers(0, lat.n_pixels - 1))]
        centre = np.atleast_1d(centre)
        sx = pitch / draw(st.sampled_from([2, 4, 8]))
        sy = row / draw(st.sampled_from([2, 4, 6, 12]))
        nx, ny = (max(1, int(span / s)) for s in (sx, sy))
        xs = centre[0] + sx * np.arange(-nx, nx + 1)
        ys = None if kind == "line" else centre[1] + sy * np.arange(-ny, ny + 1)
        return lat, xs, ys
    unit = st.floats(0.0, 1.0)
    u = draw(st.tuples(unit, unit, unit))[:lat.uniforms_per_point()]
    centre = np.atleast_1d(lat.points_from_uniform(np.array([u]))[0])
    size = draw(st.integers(1, 60))
    if spacing == "uniform":
        axes = [np.linspace(-0.5 * span, 0.5 * span, size)] * 2
    else:
        axes = [np.cumsum(draw(st.lists(st.floats(1e-3, 1.0), min_size=size,
                                        max_size=size))) for _ in range(2)]
        axes = [span * (a - 0.5 * a[-1]) / a[-1] for a in axes]
    xs = centre[0] + axes[0]
    ys = None if kind == "line" else centre[1] + axes[1]
    return lat, xs, ys


def _expand_runs(lat, xs, ys):
    """``grid_runs`` as grids of pixels, (G, len(ys), len(xs)) for a stack
    of G grids (G = 1 for 1D axes; one row a grid on a line), after
    checking that every run paints nodes first .. end - 1 of rows row0 ..
    row1 - 1 of one grid, that the runs of every grid partition its nodes,
    and that every run reads a pixel."""
    runs = lat.grid_runs(xs) if ys is None else lat.grid_runs(xs, ys)
    assert all(a.dtype.kind == "i" and a.ndim == 1 for a in runs)
    assert len({a.size for a in runs}) == 1
    row0, row1, first, end, pixel = runs
    grids, m = np.atleast_2d(xs).shape
    rows = 1 if ys is None else np.atleast_2d(ys).shape[1]
    assert np.all((0 <= first) & (first < end) & (end <= m))
    assert np.all((0 <= pixel) & (pixel < lat.n_pixels))
    assert np.all((0 <= row0) & (row0 < row1) & (row1 <= grids * rows))
    assert np.all(row0 // rows == (row1 - 1) // rows)
    painted = np.zeros((grids * rows, m), dtype=np.int64)
    grid = np.empty((grids * rows, m), dtype=np.int64)
    for r0, r1, f, e, p in zip(row0, row1, first, end, pixel):
        painted[r0:r1, f:e] += 1
        grid[r0:r1, f:e] = p
    assert (painted == 1).all()
    return grid.reshape(grids, rows, m)


def _assert_runs_read_nearest_index(lat, xs, ys):
    pts = _grid_points(xs, ys)
    inside = lat.contains(pts)
    got = _expand_runs(lat, xs, ys).ravel()
    assert got[inside].tobytes() == lat.nearest_index(pts)[inside].tobytes()
    return inside


@settings(deadline=None, max_examples=300)
@given(_lattice_and_grid())
def test_grid_runs_give_nearest_index_in_the_hull(case):
    _assert_runs_read_nearest_index(*case)


@st.composite
def _lattice_and_stack(draw):
    """A lattice and a stack of 2-4 tensor grids of one shape: one grid of
    ``_lattice_and_grid``, and grids of its size around other points of
    the hull, each with its own axes, uniform or uneven."""
    lat, xs, ys = draw(_lattice_and_grid())
    axes = [[xs], None if ys is None else [ys]]
    unit = st.floats(0.0, 1.0)
    for _ in range(draw(st.integers(1, 3))):
        u = draw(st.tuples(unit, unit, unit))[:lat.uniforms_per_point()]
        centre = np.atleast_1d(lat.points_from_uniform(np.array([u]))[0])
        span = lat.pitch * draw(st.floats(0.5, 10.0))
        for a, c, stack in zip((xs, ys), centre, axes):
            if stack is None:
                continue
            if draw(st.booleans()):
                rel = np.linspace(-0.5 * span, 0.5 * span, len(a))
            else:
                rel = np.cumsum(draw(st.lists(st.floats(1e-3, 1.0),
                                              min_size=len(a),
                                              max_size=len(a))))
                rel = span * (rel - 0.5 * rel[-1]) / rel[-1]
            stack.append(c + rel)
    return lat, np.array(axes[0]), None if ys is None else np.array(axes[1])


@settings(deadline=None, max_examples=150)
@given(_lattice_and_stack())
def test_grid_runs_on_a_stack_equal_one_grid_at_a_time(case):
    # each grid's runs are those of a call on that grid alone, in order,
    # with its rows shifted to its place in the stack
    lat, xs, ys = case
    rows = 1 if ys is None else ys.shape[1]
    got = lat.grid_runs(xs, ys)
    painted = _expand_runs(lat, xs, ys)
    grid = got[0] // rows
    for g in range(len(xs)):
        one = lat.grid_runs(xs[g], None if ys is None else ys[g])
        mine = [a[grid == g] for a in got]
        mine[0] = mine[0] - g * rows
        mine[1] = mine[1] - g * rows
        assert [a.tolist() for a in mine] == [a.tolist() for a in one]
        assert painted[g].tobytes() == _expand_runs(
            lat, xs[g], None if ys is None else ys[g]).tobytes()


@pytest.mark.parametrize("kind", ["line", "square", "hexagonal"])
def test_grid_runs_on_cell_edges(kind):
    # a grid whose nodes sit on cell edges and corners, to roundoff: many
    # nodes are tied between pixels, and each must still read the pixel
    # nearest_index gives it, alone and in a stack with shifted copies
    if kind == "line":
        # nodes on every pixel and cell midpoint of a 121-pixel line
        lat = make_lattice("line", 30.0, 3600.0)
        xs, ys = np.arange(-3, 964) * 3.75, None
    elif kind == "square":
        lat = make_lattice("square", 30.0, ((0.0, 150.0), (0.0, 120.0)))
        xs, ys = np.arange(-3, 44) * 3.75, np.arange(-3, 36) * 3.75
    else:
        lat = make_lattice("hexagonal", 30.0, 90.0)
        xs = np.arange(-100, 101) * 1.875
        ys = np.arange(-40, 41) * (15.0 * math.sqrt(3.0) / 6.0)
    pts = _grid_points(xs, ys)
    _, d = _brute_nearest(lat, pts)
    tied = np.sum(d <= d.min(axis=1)[:, None] + 1e-9 * lat.pitch, axis=1) > 1
    inside = _assert_runs_read_nearest_index(lat, xs, ys)
    assert np.count_nonzero(tied & inside) > 100
    shift = np.array([[0.0], [7.5], [-15.0]])
    stack = _expand_runs(lat, xs + shift, None if ys is None else ys + shift)
    for g, dx in enumerate(shift[:, 0]):
        one = _expand_runs(lat, xs + dx, None if ys is None else ys + dx)
        assert stack[g].tobytes() == one[0].tobytes()


@pytest.mark.parametrize("kind", ["square", "hexagonal"])
def test_grid_runs_need_ys_on_planar_lattices(kind):
    lat = make_lattice(kind, 30.0, ((0.0, 90.0), (0.0, 60.0))
                       if kind == "square" else 60.0)
    with pytest.raises(ValueError,
                       match=f"^a {kind} lattice is planar and needs ys$"):
        lat.grid_runs(np.linspace(0.0, 60.0, 7))


@settings(deadline=None, max_examples=300)
@given(n=st.integers(1, 80), t0=st.floats(-1e3, 1e3),
       step=st.floats(1e-3, 10.0), jitter=st.floats(0.0, 0.9),
       grids=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
def test_cuts_equal_the_binary_search(n, t0, step, jitter, grids, seed):
    # a stack of axes with their own origins and steps: those within a
    # quarter step of uniform take the arithmetic cuts, the others the
    # binary search; keys sit on the nodes, one ulp to either side of them,
    # and anywhere from before the first to past the last, and each row of
    # keys names its axis
    rng = np.random.default_rng(seed)
    steps = step * rng.uniform(0.5, 2.0, (grids, 1))
    shake = jitter * (rng.uniform(size=(grids, 1)) < 0.5)
    t = np.sort(t0 + rng.uniform(-50.0, 50.0, (grids, 1)) * step
                + steps * (np.arange(n) + shake * rng.uniform(-1.0, 1.0,
                                                              (grids, n))),
                axis=1)
    keys = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                           t[:, :1] + (t[:, -1:] - t[:, :1] + 4.0 * steps)
                           * rng.uniform(size=(grids, 21)) - 2.0 * steps],
                          axis=1)
    grid = rng.permutation(np.repeat(np.arange(grids), 2))
    keys = keys[grid]
    got = fields._cuts(t, keys, grid)
    for row, g in enumerate(grid):
        assert (got[row] == np.searchsorted(t[g], keys[row])).all()


def _assert_grid_hull_is_contains(lat, xs, ys):
    lo, hi = lat.grid_hull(xs) if ys is None else lat.grid_hull(xs, ys)
    rows = 1 if ys is None else len(ys)
    assert lo.shape == hi.shape == (rows,)
    assert np.all((0 <= lo) & (lo <= hi) & (hi <= len(xs)))
    cols = np.arange(len(xs))
    got = ((cols >= lo[:, None]) & (cols < hi[:, None])).ravel()
    want = lat.contains(_grid_points(xs, ys))
    assert got.tolist() == want.tolist()
    return want


@settings(deadline=None, max_examples=300)
@given(_lattice_and_grid())
def test_grid_hull_is_contains_node_for_node(case):
    _assert_grid_hull_is_contains(*case)


@settings(deadline=None, max_examples=150)
@given(_lattice_and_stack())
def test_grid_hull_on_a_stack_equals_one_grid_at_a_time(case):
    lat, xs, ys = case
    rows = 1 if ys is None else ys.shape[1]
    lo, hi = lat.grid_hull(xs, ys)
    assert lo.shape == hi.shape == (len(xs) * rows,)
    for g in range(len(xs)):
        one = lat.grid_hull(xs[g], None if ys is None else ys[g])
        assert lo[g * rows:(g + 1) * rows].tolist() == one[0].tolist()
        assert hi[g * rows:(g + 1) * rows].tolist() == one[1].tolist()


@pytest.mark.parametrize("kind", ["line", "square", "hexagonal"])
def test_grid_hull_on_the_hull_edges(kind):
    # windows whose rows and columns meet the hull's edges to within
    # roundoff, where contains' tolerance decides, and grids that miss the
    # hull altogether
    if kind == "line":
        lat = make_lattice("line", 30.0, (0.0, 150.0))
        grids = [(np.arange(-20, 61) * 3.75, None),
                 (150.0 + np.arange(-8, 9) * 1e-8, None),
                 (np.arange(200.0, 300.0, 7.5), None)]
    elif kind == "square":
        lat = make_lattice("square", 30.0, ((0.0, 150.0), (0.0, 120.0)))
        grids = [(np.arange(-20, 61) * 3.75, np.arange(-20, 53) * 3.75),
                 (150.0 + np.arange(-8, 9) * 1e-8,
                  np.arange(-8, 9) * 1e-8),
                 (np.arange(200.0, 300.0, 7.5), np.arange(10.0, 90.0, 7.5))]
    else:
        lat = make_lattice("hexagonal", 30.0, 90.0)
        top = 3 * 15.0 * math.sqrt(3.0)
        grids = [(np.arange(-100, 101) * 1.875,
                  np.arange(-60, 61) * (15.0 * math.sqrt(3.0) / 12.0)),
                 (np.arange(-100, 101) * 0.9375,
                  top + np.arange(-8, 9) * 1e-8),
                 (np.arange(200.0, 300.0, 7.5), np.arange(10.0, 90.0, 7.5))]
    edge = 0
    for xs, ys in grids:
        inside = _assert_grid_hull_is_contains(lat, xs, ys)
        edge += inside.any() and not inside.all()
    assert edge >= 2


# ======================================================================
# beam lines
# ======================================================================

@st.composite
def _planar_lattice(draw):
    pitch = draw(st.floats(0.5, 50.0))
    if draw(st.booleans()):
        return make_lattice("square", pitch,
                            (pitch * draw(st.integers(1, 12)),
                             pitch * draw(st.integers(1, 12))))
    return make_lattice("hexagonal", pitch, pitch * draw(st.integers(1, 8)))


@settings(deadline=None, max_examples=100)
@given(_planar_lattice())
def test_beam_index_inverts_beam_lines(lat):
    beams = lat.beam_lines()
    for i, b in enumerate(beams):
        assert lat.beam_index(b.family, b.key) == i
    for family in range(3):
        keys = np.array([b.key for b in beams if b.family == family])
        if family == 2 and lat.kind == "square":
            assert keys.size == 0
            assert np.all(lat.beam_index(2, np.arange(-3, 20)) == -1)
            continue
        ids = lat.beam_index(family, keys)
        assert ids.dtype == np.int64
        assert [beams[i].key for i in ids] == list(keys)
        outside = np.array([keys.min() - 2, keys.min() - 1,
                            keys.max() + 1, keys.max() + 2])
        assert np.array_equal(lat.beam_index(family, outside), [-1] * 4)


def _planar_points(case):
    """A planar case of ``_lattice_uniforms_margin`` as its lattice and
    points, at least 1e-6 pitch clear of the hull's edge, where roundoff
    cannot put a point in a cell outside."""
    lat, u, margin = case
    assume(lat.ndim == 2)
    return lat, lat.points_from_uniform(u, margin=max(margin, 1e-6 * lat.pitch))


@settings(deadline=None, max_examples=200)
@given(_lattice_uniforms_margin())
def test_triangles_hold_their_points(case):
    lat, pts = _planar_points(case)
    idx, w = lat.triangles(pts)
    assert idx.shape == w.shape == (3, pts.shape[0])
    assert (idx >= 0).all()
    # three distinct pixels, and weights of a point inside their triangle
    assert (np.diff(np.sort(idx, axis=0), axis=0) > 0).all()
    assert (w >= -1e-12).all()
    assert np.abs(w.sum(axis=0) - 1.0).max() <= 1e-12
    recon = np.einsum("jn,jnk->nk", w, lat.positions[idx])
    assert np.abs(recon - pts).max() <= 1e-9 * lat.pitch


@settings(deadline=None, max_examples=200)
@given(_lattice_uniforms_margin())
def test_cell_lines_bound_their_points(case):
    lat, pts = _planar_points(case)
    ids, dists = lat.cell_lines(pts)
    n_lines = 4 if lat.kind == "square" else 3
    assert ids.shape == dists.shape == (pts.shape[0], n_lines)
    assert (ids >= 0).all()
    beams = lat.beam_lines()
    for j in range(n_lines):
        origin = np.array([beams[i].origin for i in ids[:, j]])
        direction = np.array([beams[i].direction for i in ids[:, j]])
        rel = pts - origin
        perp = np.abs(rel[:, 0] * direction[:, 1] - rel[:, 1] * direction[:, 0])
        assert np.abs(dists[:, j] - perp).max() <= 1e-9 * lat.pitch
    # the lines bound the cell: no point is further than one cell height
    # from any of them
    height = lat.pitch if lat.kind == "square" else math.sqrt(3.0) / 2.0 * lat.pitch
    assert dists.max() <= height * (1.0 + 1e-9)


def test_triangles_give_missing_vertices_no_weight():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    pts = np.random.default_rng(5).uniform(-150.0, 150.0, (2000, 2))
    idx, w = lat.triangles(pts)
    missing = idx < 0
    assert missing.any() and (idx >= -1).all()
    assert (w[missing] == 0.0).all() and not np.signbit(w[missing]).any()


def test_cells_need_a_planar_lattice():
    lat = make_lattice("line", 30.0, 120.0)
    for lookup in (lat.triangles, lat.cell_lines):
        with pytest.raises(ValueError, match="need a 2D lattice"):
            lookup(np.zeros((1, 2)))


def test_beam_lines_square():
    lat = make_lattice("square", 30.0, (90.0, 90.0))
    beams = lat.beam_lines()
    # 4 rows + 4 columns
    assert len(beams) == 8
    families = {b.family for b in beams}
    assert families == {0, 1}
    for b in beams:
        assert np.allclose(np.linalg.norm(b.direction), 1.0)
        assert np.allclose(np.diff(b.stations), 30.0)
        pts = b.origin[None, :] + b.stations[:, None] * b.direction[None, :]
        assert np.allclose(pts, lat.positions[b.pixel_idx])


def _square_beam_lines_reference(lat):
    """Square beam lines built row by row, then column by column."""
    nx, ny = lat.grid_shape
    dirs = (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    beams = []
    for family, n_lines in enumerate((ny, nx)):
        for key in range(n_lines):
            if family == 0:
                idx = key * nx + np.arange(nx)
            else:
                idx = np.arange(ny) * nx + key
            pos = lat.positions[idx]
            s = (pos - pos[0]) @ dirs[family]
            beams.append((family, key, pos[0].copy(), dirs[family], idx, s))
    return beams


@pytest.mark.parametrize("extents", [(30.0, 30.0), (90.0, 90.0),
                                     (60.0, 150.0)])
def test_beam_lines_square_match_row_column_reference(extents):
    # 2x2, 4x4 and 3x6 (nx x ny) grids
    lat = make_lattice("square", 30.0, extents)
    beams = lat.beam_lines()
    ref = _square_beam_lines_reference(lat)
    assert len(beams) == len(ref) == sum(lat.grid_shape)
    for b, (family, key, origin, direction, idx, stations) in zip(beams, ref):
        assert (b.family, b.key) == (family, key)
        assert type(b.key) is int
        assert np.array_equal(b.origin, origin)
        assert np.array_equal(b.direction, direction)
        assert np.array_equal(b.pixel_idx, idx)
        assert b.pixel_idx.dtype == idx.dtype
        assert np.array_equal(b.stations, stations)


def test_beam_lines_need_2d_lattice():
    with pytest.raises(ValueError, match="2D lattice"):
        make_lattice("line", 30.0, 120.0).beam_lines()


def test_beam_lines_hex_three_families():
    lat = make_lattice("hexagonal", 30.0, 60.0)   # 19 pixels, k = 2
    beams = lat.beam_lines()
    assert len(beams) == 15                        # 3 families x (2k + 1)
    per_family = {f: 0 for f in (0, 1, 2)}
    covered = set()
    for b in beams:
        per_family[b.family] += 1
        covered.update(int(i) for i in b.pixel_idx)
        pts = b.origin[None, :] + b.stations[:, None] * b.direction[None, :]
        assert np.allclose(pts, lat.positions[b.pixel_idx], atol=1e-9)
    assert per_family == {0: 5, 1: 5, 2: 5}
    assert covered == set(range(19))
    # names are unique and stable
    names = [b.name for b in beams]
    assert len(set(names)) == 15


# ======================================================================
# pixel sampling
# ======================================================================

def test_sample_pixels_line_and_hex():
    lat = make_lattice("line", 30.0, 120.0)
    fld = BumpField1D(peak=60.0, amplitude=2.0, wavelength=90.0)
    h = sample_pixels(fld, lat)
    assert np.allclose(h, bump1d(lat.positions, fld))
    assert h[2] == pytest.approx(2.0)

    hexlat = make_lattice("hexagonal", 30.0, 60.0)
    fld2 = BumpField2D(peak=(0.0, 0.0), amplitude=1.0, wavelength=90.0)
    h2 = sample_pixels(fld2, hexlat)
    centre = int(np.argmin(np.linalg.norm(hexlat.positions, axis=1)))
    assert h2[centre] == pytest.approx(1.0)
    with pytest.raises(TypeError):
        sample_pixels(fld2, lat)
    with pytest.raises(TypeError):
        sample_pixels(fld, hexlat)


@st.composite
def _lattice_and_bump(draw):
    """A lattice and a bump peaked inside its hull, on its edge, or on a
    pixel with a wavelength of a whole number of pitches, which puts pixels
    exactly l/2 from the peak along the enumeration axis; amplitudes include
    0 and -0.0."""
    kind = draw(st.sampled_from(["line", "square", "hexagonal"]))
    pitch = draw(st.floats(0.5, 50.0))
    if kind == "line":
        x0 = draw(st.floats(-100.0, 100.0))
        lat = make_lattice("line", pitch,
                           (x0, x0 + pitch * draw(st.integers(1, 30))))
    elif kind == "square":
        x0, y0 = draw(st.floats(-100.0, 100.0)), draw(st.floats(-100.0, 100.0))
        lat = make_lattice("square", pitch,
                           ((x0, x0 + pitch * draw(st.integers(1, 20))),
                            (y0, y0 + pitch * draw(st.integers(1, 20)))))
    else:
        lat = make_lattice("hexagonal", pitch,
                           pitch * draw(st.integers(1, 12)))
    where = draw(st.sampled_from(["inside", "edge", "pixel"]))
    wavelength = pitch * draw(st.floats(0.5, 12.0))
    if where == "pixel":
        peak = np.atleast_1d(lat.positions[draw(st.integers(
            0, lat.n_pixels - 1))])
        wavelength = pitch * 2 * draw(st.integers(1, 6))
    else:
        u = np.array(draw(st.tuples(*(st.floats(0.0, 1.0),) * 3)))
        if where == "edge" and kind == "hexagonal":
            u[1] = 1.0                       # on the hull's edges
        elif where == "edge":
            u[draw(st.integers(0, lat.uniforms_per_point() - 1))] = \
                draw(st.sampled_from([0.0, 1.0]))
        peak = np.atleast_1d(lat.points_from_uniform(
            u[None, :lat.uniforms_per_point()])[0])
    amplitude = draw(st.sampled_from([0.0, -0.0, 1.0, 2.5, 1e-300]))
    if kind == "line":
        return lat, BumpField1D(float(peak[0]), amplitude, wavelength)
    return lat, BumpField2D((float(peak[0]), float(peak[1])), amplitude,
                            wavelength)


@settings(deadline=None, max_examples=400)
@given(_lattice_and_bump())
def test_sample_pixels_equals_the_full_evaluation(case):
    # only the pixel rows within l/2 of the peak are evaluated; every
    # height, +0.0 and -0.0 included, is the full evaluation's byte for byte
    lat, fld = case
    if lat.kind == "line":
        full = bump1d(lat.positions, fld)
    else:
        full = bump2d(lat.positions[:, 0], lat.positions[:, 1], fld)
    assert sample_pixels(fld, lat).tobytes() == full.tobytes()
