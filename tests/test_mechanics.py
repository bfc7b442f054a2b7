"""Foundation mechanics: critical loads, the deflection series, collapse
classification, axial shortening, strain and range budgets."""
import math

import numpy as np
import pytest

from crslab import fields, mechanics
from crslab.fields import make_lattice
from crslab.mechanics import (
    BeamSpec,
    FoundationSpec,
    LoadCase,
    PhaseDiagram,
    collapse_class,
    collapse_index,
    critical_load,
    deflection_series,
    length_change,
    membrane_strain,
    phase_diagram,
    range_limits,
)

_PA_TO_NMM = 1e-6


def _series_denominator(n, beam, fnd, load):
    """The modal denominator of the foundation series, written out
    independently of the implementation."""
    ei = beam.youngs_modulus * _PA_TO_NMM * beam.moment_of_inertia
    l = load.wavelength
    return (16.0 * math.pi ** 4 * n ** 4 * ei
            - 4.0 * math.pi ** 2 * n ** 2 * l * l * load.axial_load
            + 3.0 * fnd.winkler_coefficient * l ** 4)


# ======================================================================
# critical loads
# ======================================================================

def test_critical_load_zeroes_series_denominator():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    fnd = FoundationSpec(1e-4)
    l = 90.0
    for n in (1, 2, 3, 5):
        ncr = critical_load(n, beam, fnd, l)
        load = LoadCase(point_load=1.0, axial_load=ncr, wavelength=l)
        den = _series_denominator(n, beam, fnd, load)
        scale = 16.0 * math.pi ** 4 * n ** 4 * beam.youngs_modulus \
            * _PA_TO_NMM * beam.moment_of_inertia
        assert abs(den) <= 1e-9 * scale


def test_critical_load_reference_value():
    # E = 193 GPa, 4 x 0.15 mm section, beta = 1e-4 N/mm^2, l = 90 mm
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    fnd = FoundationSpec(1e-4)
    assert critical_load(1, beam, fnd, 90.0) == pytest.approx(1.1198, abs=2e-4)


def test_critical_load_validation():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    fnd = FoundationSpec(0.0)
    with pytest.raises(ValueError):
        critical_load(0, beam, fnd, 90.0)
    with pytest.raises(ValueError):
        critical_load(1, beam, fnd, -90.0)


# ======================================================================
# deflection series
# ======================================================================

def _benchmark():
    """Stiff strip on a foundation tuned to a collapse index of 1.7, loaded
    just below the softest buckling mode."""
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    d = 30.0
    l = 3.0 * d
    ei = beam.youngs_modulus * _PA_TO_NMM * beam.moment_of_inertia
    beta = 16.0 * math.pi ** 4 * ei / (27.0 * 1.7 * d ** 4)
    fnd = FoundationSpec(beta)
    n_min = min(critical_load(n, beam, fnd, l) for n in range(1, 11))
    return beam, fnd, l, n_min


def test_series_linearity_in_point_load():
    beam, fnd, l, n_min = _benchmark()
    xs = l * np.arange(1, 12) / 12.0
    y1 = deflection_series(xs, LoadCase(1.0, 0.995 * n_min, l), beam, fnd)
    y2 = deflection_series(xs, LoadCase(2.0, 0.995 * n_min, l), beam, fnd)
    assert np.array_equal(y2, 2.0 * y1)   # doubling is exact in floating point
    ypi = deflection_series(xs, LoadCase(math.pi, 0.995 * n_min, l), beam, fnd)
    assert np.allclose(ypi, math.pi * y1, rtol=1e-13)


def test_series_zero_load_is_identically_zero():
    beam, fnd, l, n_min = _benchmark()
    xs = np.linspace(0.0, l, 37)
    y = deflection_series(xs, LoadCase(0.0, 0.5 * n_min, l), beam, fnd)
    assert np.all(y == 0.0)


def test_series_truncation_converged_at_64_terms():
    beam, fnd, l, n_min = _benchmark()
    xs = l * np.arange(1, 12) / 12.0
    load = LoadCase(1.0, 0.995 * n_min, l)
    y32 = deflection_series(xs, load, beam, fnd, n_max=32)
    y64 = deflection_series(xs, load, beam, fnd, n_max=64)
    rel = np.max(np.abs(y64 - y32)) / np.max(np.abs(y64))
    assert rel < 1e-6


def test_series_refuses_buckled_load():
    beam, fnd, l, n_min = _benchmark()
    with pytest.raises(ValueError, match="buckling threshold"):
        deflection_series(np.array([30.0]), LoadCase(1.0, 1.001 * n_min, l),
                          beam, fnd)


def test_series_vanishes_at_ends():
    beam, fnd, l, n_min = _benchmark()
    y = deflection_series(np.array([0.0, l]), LoadCase(1.0, 0.9 * n_min, l),
                          beam, fnd)
    assert np.allclose(y, 0.0, atol=1e-15)


# ======================================================================
# collapse criterion
# ======================================================================

def test_collapse_index_formula():
    delta = collapse_index(193e9, 1.125e-3, 1e-4, 30.0)
    expect = 16.0 * math.pi ** 4 * 193e3 * 1.125e-3 / (27.0 * 1e-4 * 30.0 ** 4)
    assert delta == pytest.approx(expect, rel=1e-12)


def test_collapse_index_rigid_limit():
    with pytest.raises(ValueError, match="rigid-limit undefined"):
        collapse_index(193e9, 1e-3, 0.0, 30.0)
    assert collapse_class(193e9, 1e-3, 0.0, 30.0) == "no-collapse"


def test_collapse_iff_soft_third_mode():
    # the index threshold is algebraically the mode-1 / mode-3 crossover
    rng = np.random.default_rng(60)
    for _ in range(1000):
        e = 10.0 ** rng.uniform(8, 12)
        w = 10.0 ** rng.uniform(-1, 1.5)
        b = 10.0 ** rng.uniform(-2, 0.7)
        beta = 10.0 ** rng.uniform(-6, 0)
        d = 10.0 ** rng.uniform(0.3, 2)
        beam = BeamSpec(e, w, b, 10.0)
        fnd = FoundationSpec(beta)
        n1 = critical_load(1, beam, fnd, 3.0 * d)
        n3 = critical_load(3, beam, fnd, 3.0 * d)
        delta = collapse_index(e, beam.moment_of_inertia, beta, d)
        assert (delta > 1.0) == (n1 < n3)
        expect = "collapse" if delta < 1.0 else "no-collapse"
        assert collapse_class(e, beam.moment_of_inertia, beta, d) == expect


def test_phase_diagram_matches_pointwise_index():
    pd = phase_diagram((1e5, 1e9), (1e-8, 1e-4), resolution=16)
    # cross-check one grid cell against collapse_index with beta = 1:
    # E/beta in N/mm^2 converts back to Pa for the scalar routine
    i, j = 5, 11
    e_pa = pd.e_over_beta[i] / _PA_TO_NMM
    delta = collapse_index(e_pa, pd.i_over_d4[j], 1.0, 1.0)
    assert pd.delta[i, j] == pytest.approx(delta, rel=1e-12)
    assert pd.collapse[i, j] == (pd.delta[i, j] < 1.0)


def test_phase_boundary_contour():
    es = np.geomspace(1e4, 1e10, 25)
    isd = PhaseDiagram.boundary_i_over_d4(es)
    delta = (16.0 * math.pi ** 4 / 27.0) * es * isd
    assert np.allclose(delta, 1.0, rtol=1e-12)


def test_phase_diagram_validation():
    with pytest.raises(ValueError):
        phase_diagram((1e5, 1e4), (1e-8, 1e-4))
    with pytest.raises(ValueError):
        phase_diagram((1e5, 1e9), (1e-8, 1e-4), resolution=1)


# ======================================================================
# axial shortening
# ======================================================================

def test_length_change_identity():
    # the exact-vs-approximate gap is the foundation share of N_cr(1):
    # rel gap = 3 beta l^4 / (16 pi^4 E I), which is 9 / Delta at l = 3d
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    ei = beam.youngs_modulus * _PA_TO_NMM * beam.moment_of_inertia
    for delta_target in (1.7, 20.0, 200.0):
        d = 30.0
        l = 3.0 * d
        beta = 16.0 * math.pi ** 4 * ei / (27.0 * delta_target * d ** 4)
        lc = length_change(beam, FoundationSpec(beta), l)
        expect = 3.0 * beta * l ** 4 / (16.0 * math.pi ** 4 * ei)
        assert lc.rel_gap == pytest.approx(expect, rel=1e-9)
        assert lc.rel_gap == pytest.approx(9.0 / delta_target, rel=1e-9)
    # the approximation is only within 5% once Delta exceeds 180
    assert 9.0 / 200.0 < 0.05 < 9.0 / 20.0


def test_length_change_exact_reduces_to_approx_without_foundation():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    lc = length_change(beam, FoundationSpec(0.0), 90.0)
    assert lc.exact == pytest.approx(lc.approx, rel=1e-12)
    assert lc.rel_gap <= 1e-12


# ======================================================================
# membrane strain and range limits
# ======================================================================

def test_membrane_strain_reference_points():
    assert membrane_strain(4.0, 2.0) == pytest.approx(math.sqrt(2.0) - 1.0,
                                                      rel=1e-12)
    assert membrane_strain(1.0, 2.0) == pytest.approx(
        2.0 * math.sqrt(0.25 + 4.0) - 1.0, rel=1e-12)
    assert membrane_strain(5.0, 0.0) == 0.0


def test_membrane_strain_monotone_in_displacement():
    hs = np.linspace(0.0, 5.0, 41)
    vals = [membrane_strain(4.0, h) for h in hs]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        membrane_strain(0.0, 1.0)
    with pytest.raises(ValueError):
        membrane_strain(4.0, -0.1)


def test_range_limits_curvature_formula():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    rl = range_limits(beam, yield_strain=0.002, servo_travel=9.0,
                      wavelength=90.0)
    a_curv = 0.002 * 90.0 ** 2 / (math.pi ** 2 * 0.15)
    assert rl.curvature_limited == pytest.approx(a_curv, rel=1e-12)
    assert rl.amplitude == min(rl.curvature_limited, rl.travel_limited)
    assert rl.governing in ("curvature", "travel")


def test_range_limits_travel_root():
    from crslab.fields import BumpField1D
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    rl = range_limits(beam, yield_strain=0.002, servo_travel=9.0,
                      wavelength=90.0)
    fld = BumpField1D(0.0, rl.travel_limited, 90.0)
    assert fld.arc_excess(-45.0, 45.0) == pytest.approx(9.0, abs=1e-6)


def test_range_limits_wavelength_from_lattice():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    lat = make_lattice("line", 30.0, 120.0)
    a = range_limits(beam, 0.002, 9.0, lattice=lat)
    b = range_limits(beam, 0.002, 9.0, wavelength=90.0)
    assert a.curvature_limited == b.curvature_limited
    assert a.travel_limited == pytest.approx(b.travel_limited, rel=1e-9)
    with pytest.raises(ValueError):
        range_limits(beam, 0.002, 9.0)


def test_range_limits_scaling_in_yield():
    beam = BeamSpec(193e9, 4.0, 0.15, 450.0)
    a = range_limits(beam, 0.001, 9.0, wavelength=90.0)
    b = range_limits(beam, 0.002, 9.0, wavelength=90.0)
    assert b.curvature_limited == pytest.approx(2.0 * a.curvature_limited,
                                                rel=1e-12)
    # the travel limit does not depend on the yield strain
    assert b.travel_limited == pytest.approx(a.travel_limited, rel=1e-12)


@pytest.mark.parametrize("name, value", [
    (name, value) for name in ("yield_strain", "servo_travel", "wavelength")
    for value in (math.nan, math.inf, -math.inf, 0.0, -1.0)])
def test_range_limits_rejects_bad_strain_travel_and_wavelength(
        monkeypatch, name, value):
    # before this check, yield_strain=nan gave curvature_limited=nan, inf
    # gave inf, and servo_travel=inf or wavelength=nan raised the bump
    # field's "bump parameters must be finite"
    def no_quadrature(*args, **kwargs):
        raise AssertionError("quadrature ran")

    monkeypatch.setattr(fields, "quad", no_quadrature)
    monkeypatch.setattr(mechanics, "brentq", no_quadrature)
    args = {"yield_strain": 0.002, "servo_travel": 9.0, "wavelength": 90.0,
            name: value}
    with pytest.raises(ValueError, match=f"^{name} must be finite and "
                                         "positive"):
        range_limits(BeamSpec(2000.0, 5.0, 0.5, 100.0), **args)
