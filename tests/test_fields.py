"""Fields and lattices: bump geometry, restriction slices, lattice
construction, hull membership, nearest-pixel lookups, beam lines."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crslab.fields import (
    BumpField1D,
    BumpField2D,
    bump1d,
    bump2d,
    _hex_round,
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
    assert np.allclose(fld.slope(xs), fd, atol=5e-6)


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
    d = np.sqrt(np.sum((lat.positions[None, :, :] - pts[:, None, :]) ** 2,
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
        got = lat.axial_index(*_hex_round(*lat._onto_hull_axial(q8 / 8.0, r8 / 8.0)))
        dq = q8[:, None] - 8 * lat.axial[None, :, 0]
        dr = r8[:, None] - 8 * lat.axial[None, :, 1]
        key = (dq * dq + dq * dr + dr * dr) * (64 * k * k) \
            + (lat.axial[None, :, 1] + k) * (2 * k + 1) + lat.axial[None, :, 0] + k
        assert np.array_equal(got, np.argmin(key, axis=1))


def _cube_round_reference(qf, rf):
    """Nearest integer axial coordinates by cube rounding, as
    `Lattice.nearest_index` computed them before the rhombus-corner rule:
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
    # coordinate and every difference of them is exact in floating point
    for k in (1, 2, 4):
        lat = make_lattice("hexagonal", 30.0, 30.0 * k)
        g = np.arange(-64 * (k + 2), 64 * (k + 2) + 1) / 64.0
        qf, rf = (a.ravel() for a in np.meshgrid(g, g))
        for q, r in ((qf, rf), lat._onto_hull_axial(qf, rf)):
            got_q, got_r = _hex_round(q, r)
            want_q, want_r = _cube_round_reference(q, r)
            assert np.array_equal(got_q, want_q) and np.array_equal(got_r, want_r)


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


# ======================================================================
# beam lines
# ======================================================================

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
