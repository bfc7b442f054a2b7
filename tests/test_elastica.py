"""Constrained elastica solver: feasibility, constraint satisfaction,
convergence order, scale behaviour, and the small-deflection limit."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dgesv, dgtsv, dpbtrs, dpttrf, dpttrs, dstebz

from crslab import elastica
from crslab.elastica import (
    ElasticaConvergenceError,
    InfeasibleExcessError,
    solve_elastica_1d,
)
from crslab.fields import BumpField1D, bump1d, make_lattice
from crslab.mechanics import (
    BeamSpec,
    FoundationSpec,
    LoadCase,
    critical_load,
    deflection_series,
)


def _point_to_polyline(px, py, nodes):
    """Distance from (px, py) to the node polyline, computed independently
    of the solver's own residual bookkeeping."""
    a = nodes[:-1]
    b = nodes[1:]
    ab = b - a
    t = ((px - a[:, 0]) * ab[:, 0] + (py - a[:, 1]) * ab[:, 1])
    t = np.clip(t / np.sum(ab * ab, axis=1), 0.0, 1.0)
    proj = a + t[:, None] * ab
    return float(np.min(np.hypot(proj[:, 0] - px, proj[:, 1] - py)))


# ======================================================================
# basic solutions
# ======================================================================

def test_straight_beam_zero_excess():
    sol = solve_elastica_1d([(0.0, 0.0), (120.0, 0.0)], 0.0)
    assert np.all(sol.nodes[:, 1] == 0.0)
    assert sol.energy == 0.0
    assert sol.residual <= 1e-12
    assert sol.arc_length == pytest.approx(120.0, rel=1e-12)


def test_arch_matches_buckling_asymptote():
    # small-excess arch: peak amplitude tends to (2/pi) sqrt(excess * span)
    span, excess = 90.0, 0.01
    sol = solve_elastica_1d([(0.0, 0.0), (span, 0.0)], excess)
    xs = np.linspace(0.0, span, 1801)
    peak = sol.profile(xs).max()
    assert peak == pytest.approx((2.0 / math.pi) * math.sqrt(excess * span),
                                 rel=0.01)
    # symmetric about the midpoint
    half = xs[xs <= span / 2.0]
    assert np.max(np.abs(sol.profile(span / 2.0 - half)
                         - sol.profile(span / 2.0 + half))) < 1e-9


def test_end_tangents_clamped_horizontal():
    sol = solve_elastica_1d([(0.0, 0.0), (90.0, 0.0)], 0.5)
    assert sol.nodes[1, 1] - sol.nodes[0, 1] == 0.0
    assert sol.nodes[-1, 1] - sol.nodes[-2, 1] == 0.0


def test_arc_length_is_conserved():
    needed = 2.0 * math.hypot(40.0, 1.0) - 80.0
    for surplus in (0.02, 0.3, 2.0):
        sol = solve_elastica_1d([(0.0, 0.0), (40.0, 1.0), (80.0, 0.0)],
                                needed + surplus)
        seg = np.hypot(np.diff(sol.nodes[:, 0]), np.diff(sol.nodes[:, 1]))
        assert np.allclose(seg, sol.segment_length, rtol=1e-9)
        assert sol.arc_length == pytest.approx(80.0 + needed + surplus,
                                               rel=1e-12)


def test_multi_pin_constraints_are_met():
    lat = make_lattice("line", 30.0, 120.0)
    fld = BumpField1D(peak=52.0, amplitude=4.0, wavelength=90.0)
    heights = bump1d(lat.positions, fld)
    excess = fld.arc_excess(0.0, 120.0)
    sol = solve_elastica_1d(list(zip(lat.positions, heights)), excess)
    span = 120.0
    for px, py in zip(lat.positions, heights):
        assert _point_to_polyline(px, py, sol.nodes) <= 1e-6 * span
    assert sol.residual <= 1e-6 * span


def test_profile_holds_end_heights_outside_span():
    sol = solve_elastica_1d([(10.0, 0.0), (100.0, 0.0)], 0.2)
    assert sol.profile(np.array([-50.0]))[0] == sol.profile(np.array([10.0]))[0]
    assert sol.profile(np.array([500.0]))[0] == sol.profile(np.array([100.0]))[0]


def _residual_loop(theta, m, h, xs_c, ys_c, x_end, y_end):
    """Reference for _Constraints: the constraint rows built one pin at
    a time (vertical intercepts, or nearest-station x and y rows when the
    polyline folds back), Jacobian restricted to the free angles."""
    c, s = np.cos(theta), np.sin(theta)
    x = np.concatenate([[0.0], np.cumsum(h * c)])
    y = np.concatenate([[0.0], np.cumsum(h * s)])
    monotone = bool(np.all(np.diff(x) > 0.0))
    rows = [(x[m] - x_end, -h * s), (y[m] - y_end, h * c)]
    for xi, yi in zip(xs_c, ys_c):
        if monotone:
            j = min(max(int(np.searchsorted(x, xi, side="right")) - 1, 0),
                    m - 1)
            t = math.tan(theta[j])
            row = np.zeros(m)
            row[:j] = h * (c[:j] + t * s[:j])
            row[j] = (xi - x[j]) * (1.0 + t * t)
            rows.append((y[j] + (xi - x[j]) * t - yi, row))
        else:
            j = min(max(int(round(xi / h)), 0), m)
            rows.append((x[j] - xi, np.where(np.arange(m) < j, -h * s, 0.0)))
            rows.append((y[j] - yi, np.where(np.arange(m) < j, h * c, 0.0)))
    return (np.array([r for r, _ in rows]),
            np.array([row for _, row in rows])[:, 1:m - 1])


@pytest.mark.parametrize("fold", [False, True])
def test_residual_rows_match_per_pin_reference(fold):
    m = 128
    rng = np.random.default_rng(5)
    theta = rng.uniform(-0.4, 0.4, m)
    theta[[0, -1]] = 0.0
    if fold:
        theta[40:44] = 2.0              # x runs backwards for a few segments
    h = 1.05 / m
    x = np.cumsum(h * np.cos(theta))
    # pins in the first and the last segment, beyond the far end, and in
    # between
    xs_c = np.array([0.3 * x[0], 0.2, 0.5, 0.77, 0.5 * (x[-2] + x[-1]),
                     x[-1] + 0.1 * h])
    ys_c = rng.uniform(-0.05, 0.05, len(xs_c))
    rows = elastica._Constraints(m, h, xs_c, ys_c, 1.0, 0.01)
    # fill the buffers at another point first: every row must be rewritten
    rows.residual(np.zeros(m) if fold else theta.copy() * 0.5)
    rows.jacobian()
    r = rows.residual(theta)
    jac = rows.jacobian()[1:]
    r_ref, jac_ref = _residual_loop(theta, m, h, xs_c, ys_c, 1.0, 0.01)
    assert len(r) == 2 + (2 if fold else 1) * len(xs_c)
    # np.tan and math.tan may differ in the last bit
    np.testing.assert_allclose(r, r_ref, rtol=1e-13, atol=1e-15)
    np.testing.assert_allclose(jac, jac_ref, rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("fold", [False, True])
def test_curvature_diagonal_matches_finite_differences(fold):
    # sum_k r_k d2 r_k / d theta_i^2 from central differences of the
    # analytic Jacobian column i
    m = 64
    rng = np.random.default_rng(11)
    theta = rng.uniform(-0.4, 0.4, m)
    theta[[0, -1]] = 0.0
    if fold:
        theta[20:23] = 2.0
    h = 1.05 / m
    xs_c = np.array([0.2, 0.5, 0.77])
    rows = elastica._Constraints(m, h, xs_c, rng.uniform(-0.05, 0.05, 3),
                                 1.0, 0.01)
    r = rows.residual(theta).copy()
    rows.jacobian()
    got = rows.curvature(r)
    eps = 1e-6
    want = np.empty(m - 2)
    for i in range(m - 2):
        cols = []
        for sign in (1.0, -1.0):
            th = theta.copy()
            th[i + 1] += sign * eps
            rows.residual(th)
            cols.append(rows.jacobian()[1:, i].copy())
        want[i] = r @ (cols[0] - cols[1]) / (2.0 * eps)
    assert len(r) == 2 + (2 if fold else 1) * len(xs_c)
    np.testing.assert_allclose(got, want, rtol=0.0,
                               atol=1e-7 * np.max(np.abs(want)))


@settings(deadline=None, max_examples=60)
@given(m=st.integers(50, 200), k=st.integers(1, 5), amp=st.floats(0.0, 0.6),
       fold=st.booleans(), log_w=st.floats(0.0, 7.0),
       seed=st.integers(0, 2**32 - 1))
def test_inertia_test_agrees_with_dense_eigenvalues(m, k, amp, fold, log_w,
                                                    seed):
    # T' = bending tridiagonal + w * curvature diagonal is positive
    # definite, indefinite with T' + w J^T J positive definite, or neither,
    # depending on w and the residuals
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-amp, amp, m)
    theta[[0, -1]] = 0.0
    if fold:
        theta[m // 3:m // 3 + 3] = 2.0
    h = 1.05 / m
    rows = elastica._Constraints(m, h, np.sort(rng.uniform(0.05, 0.95, k)),
                                 rng.uniform(-0.2, 0.2, k), 1.0,
                                 rng.uniform(-0.1, 0.1))
    weight = 10.0 ** log_w
    r = rows.residual(theta).copy()
    gj = rows.jacobian().copy()
    gj[0] = rng.normal(size=m - 2)
    diag = 4.0 / h + weight * rows.curvature(r)
    off = np.full(m - 3, -2.0 / h)
    dense = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
             + weight * gj[1:].T @ gj[1:])
    lam = np.linalg.eigvalsh(dense)
    # a near-singular matrix is on neither side within roundoff
    assume(abs(lam[0]) > 1e-9 * np.max(np.abs(lam)))
    step = elastica._newton_step(gj, diag, off, weight)
    assert (step is not None) == (lam[0] > 0.0)
    if step is not None:
        np.testing.assert_allclose(dense @ step, -gj[0], rtol=0.0,
                                   atol=1e-8 * np.max(np.abs(gj[0])))


# ======================================================================
# convergence and scaling
# ======================================================================

def test_node_doubling_changes_profile_below_one_percent():
    lat = make_lattice("line", 30.0, 120.0)
    fld = BumpField1D(peak=47.0, amplitude=3.0, wavelength=90.0)
    heights = bump1d(lat.positions, fld)
    con = list(zip(lat.positions, heights))
    excess = fld.arc_excess(0.0, 120.0)
    lo = solve_elastica_1d(con, excess, nodes_per_span=64)
    hi = solve_elastica_1d(con, excess, nodes_per_span=128)
    xs = np.linspace(0.0, 120.0, 961)
    diff = np.max(np.abs(lo.profile(xs) - hi.profile(xs)))
    assert diff <= 0.01 * 3.0


def test_scale_equivariance_is_exact():
    con = [(0.0, 0.0), (30.0, 1.25), (60.0, 0.5), (90.0, 0.0)]
    excess = 0.12
    a = solve_elastica_1d(con, excess)
    b = solve_elastica_1d([(2.0 * x, 2.0 * y) for x, y in con], 2.0 * excess)
    assert np.array_equal(b.nodes, 2.0 * a.nodes)


def test_stage_objectives_never_increase():
    sol = solve_elastica_1d([(0.0, 0.0), (35.0, 2.0), (70.0, 0.0)], 0.4)
    for seq in sol.stage_objectives:
        for prev, cur in zip(seq, seq[1:]):
            assert cur <= prev + 1e-12 * abs(prev)


def test_determinism():
    con = [(0.0, 0.0), (30.0, 0.7), (60.0, 0.0)]
    a = solve_elastica_1d(con, 0.05)
    b = solve_elastica_1d(con, 0.05)
    assert np.array_equal(a.nodes, b.nodes)


def test_hint_curve_reaches_same_solution():
    fld = BumpField1D(peak=45.0, amplitude=2.0, wavelength=90.0)
    lat = make_lattice("line", 30.0, 90.0)
    con = list(zip(lat.positions, bump1d(lat.positions, fld)))
    excess = fld.arc_excess(0.0, 90.0)
    plain = solve_elastica_1d(con, excess)
    hx = np.linspace(0.0, 90.0, 2049)
    hinted = solve_elastica_1d(con, excess, initial=(hx, bump1d(hx, fld)))
    xs = np.linspace(0.0, 90.0, 361)
    assert np.allclose(plain.profile(xs), hinted.profile(xs), atol=1e-3)


@st.composite
def _pinned_beam(draw, max_pins=6):
    """3 to max_pins pins 20-40 mm apart at heights 0-5 mm, and an excess
    that exceeds the chord polyline's by 0.05-3 mm (a smaller surplus over
    uneven pins is a known failure: see the xfail below)."""
    n = draw(st.integers(3, max_pins))
    gaps = draw(st.lists(st.floats(20.0, 40.0), min_size=n - 1,
                         max_size=n - 1))
    xs = np.concatenate([[0.0], np.cumsum(gaps)])
    ys = np.array(draw(st.lists(st.floats(0.0, 5.0), min_size=n,
                                max_size=n)))
    span = float(xs[-1])
    needed = float(np.sum(np.hypot(np.diff(xs), np.diff(ys)))) - span
    return list(zip(xs, ys)), needed + draw(st.floats(0.05, 3.0)), span


@settings(deadline=None, max_examples=15)
@given(_pinned_beam())
def test_solved_beams_meet_their_constraints(case):
    con, excess, span = case
    sol = solve_elastica_1d(con, excess)
    assert sol.residual <= elastica._TOL * span
    assert sol.arc_length == pytest.approx(span + excess, abs=1e-9)
    assert sol.nodes[1, 1] == sol.nodes[0, 1]
    assert sol.nodes[-1, 1] == sol.nodes[-2, 1]
    assert np.array_equal(solve_elastica_1d(con, excess).nodes, sol.nodes)


# The solver as it stood before its penalty stages took Newton steps: a
# residual built by concatenation with a Jacobian closure over (k, m)
# masks, Gauss-Newton stages through a banded Cholesky factor of the bending
# Hessian, and a projection loop around them.  The Newton stages must end
# no higher than its stages from the same start, and whole solves must stay
# near its solutions.

def _reference_residual_vector(theta, m, h, xs_c, ys_c, x_end, y_end):
    c = np.cos(theta)
    s = np.sin(theta)
    x = np.empty(m + 1)
    y = np.empty(m + 1)
    x[0] = 0.0
    y[0] = 0.0
    np.cumsum(h * c, out=x[1:])
    np.cumsum(h * s, out=y[1:])
    monotone = bool((x[1:] > x[:-1]).all())
    if monotone:
        j = np.minimum(np.searchsorted(x, xs_c, side="right") - 1, m - 1)
        t = np.tan(theta[j])
        pins = y[j] + (xs_c - x[j]) * t - ys_c
    else:
        j = np.rint(xs_c / h).astype(int)
        pins = np.column_stack([x[j] - xs_c, y[j] - ys_c]).ravel()
    r = np.concatenate([[x[m] - x_end, y[m] - y_end], pins])

    def jacobian():
        sf, cf = s[1:m - 1], c[1:m - 1]
        before = np.arange(1, m - 1)[None, :] < j[:, None]
        if monotone:
            block = np.where(before, h * (cf + t[:, None] * sf), 0.0)
            on = (j >= 1) & (j <= m - 2)
            block[on, j[on] - 1] = ((xs_c - x[j]) * (1.0 + t * t))[on]
        else:
            block = np.stack([np.where(before, -h * sf, 0.0),
                              np.where(before, h * cf, 0.0)],
                             axis=1).reshape(len(pins), m - 2)
        return np.vstack([-h * sf, h * cf, block])

    return r, jacobian


def _reference_gn_stage(theta_free, rows, weight, bend_ldl, max_steps,
                        newton):
    """Takes the solver's arguments, but always steps by Gauss-Newton
    through its own banded Cholesky factor of the bending Hessian."""
    m, h = rows.m, rows.h
    args = (m, h, rows.xs_c, rows.ys_c, rows.x_end, rows.y_end)
    ab = np.zeros((2, m - 2))
    ab[0, 1:] = -2.0 / h
    ab[1, :] = 4.0 / h
    chol = cholesky_banded(ab, lower=False)

    def evaluate(tf):
        th = np.zeros(m)
        th[1:m - 1] = tf
        dth = th[1:] - th[:-1]
        r, jacobian = _reference_residual_vector(th, *args)

        def grad():
            jac = jacobian()
            q = 2.0 * dth / h
            return (q[:-1] - q[1:]) + weight * (jac.T @ r), jac

        return float(dth @ dth) / h + 0.5 * weight * float(r @ r), grad

    f, grad = evaluate(theta_free)
    g, jac = grad()
    trace = [f]
    for _ in range(max_steps):
        if np.max(np.abs(g)) < 1e-12:
            break
        sol, _info = dpbtrs(chol, np.vstack([g, jac]).T, overwrite_b=1)
        v, wt = sol[:, 0], sol[:, 1:]
        small = jac @ wt
        small.flat[::small.shape[0] + 1] += 1.0 / weight
        corr = wt @ np.linalg.solve(small, jac @ v)
        step = -(v - corr)
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g
            slope = float(g @ step)
        alpha = 1.0
        for _bt in range(30):
            if -alpha * slope <= elastica._ROUNDOFF * abs(f):
                return theta_free, trace
            cand = np.minimum(np.maximum(theta_free + alpha * step, -1.45), 1.45)
            fc, grad = evaluate(cand)
            if fc <= f + 1e-4 * alpha * slope:
                theta_free, f = cand, fc
                g, jac = grad()
                trace.append(f)
                break
            alpha *= 0.5
        else:
            break
        if trace[-2] - trace[-1] <= 1e-15 * max(abs(trace[-1]), 1e-30):
            break
    return theta_free, trace


def _reference_project(theta, rows, steps):
    m = rows.m
    args = (m, rows.h, rows.xs_c, rows.ys_c, rows.x_end, rows.y_end)
    theta = theta.copy()
    for _ in range(steps):
        r, jacobian = _reference_residual_vector(theta, *args)
        if np.max(np.abs(r)) < 1e-13:
            break
        jac = jacobian()
        jjt = jac @ jac.T
        jjt.flat[::len(r) + 1] += 1e-12 * max(np.trace(jjt), 1e-30)
        lam = np.linalg.solve(jjt, r)
        theta[1:m - 1] -= jac.T @ lam
    r, _ = _reference_residual_vector(theta, *args)
    return theta, float(np.max(np.abs(r)))


def _solve_or_best(con, excess, initial):
    try:
        return solve_elastica_1d(con, excess, initial=initial)
    except ElasticaConvergenceError as err:
        return err.solution


def _reference_solve(con, excess, initial):
    """The reference solver, with its stages run to their own stop rules
    instead of the step cap: Gauss-Newton stages that stop at the cap are
    still far from their minimum on some beams, where Newton stages are
    not."""
    def converged_stage(theta_free, rows, weight, bend_ldl, max_steps,
                        newton):
        return _reference_gn_stage(theta_free, rows, weight, bend_ldl,
                                   2000, newton)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elastica, "_gn_stage", converged_stage)
        mp.setattr(elastica, "_project", _reference_project)
        return _solve_or_best(con, excess, initial)


def _warm_case(con, excess, span, cold, more, lift):
    """The next probe of a replay: the beam's excess and middle pin have
    moved, and the solve is seeded with the last solution."""
    moved = [(x, y + (lift if i == len(con) // 2 else 0.0))
             for i, (x, y) in enumerate(con)]
    needed = float(np.sum(np.hypot(np.diff([x for x, _ in moved]),
                                   np.diff([y for _, y in moved])))) - span
    return moved, max(excess + more, needed + 0.05), \
        (cold.nodes[:, 0], cold.nodes[:, 1])


def _stage_ends(con, excess, initial):
    """Every penalty stage of one solve: the final penalised objective of
    the solver's stage, of the reference's stage from the same start, and
    of the reference's stage continued from where the solver's ended."""
    ends = []
    stage = elastica._gn_stage

    def both(*args, **kwargs):
        _, ref = _reference_gn_stage(*args, **kwargs)
        theta_free, trace = stage(*args, **kwargs)
        _, after = _reference_gn_stage(theta_free, *args[1:], **kwargs)
        ends.append((trace[-1], ref[-1], after[-1]))
        return theta_free, trace

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(elastica, "_gn_stage", both)
        _solve_or_best(con, excess, initial)
    return ends


# A pin that sits on a polyline node kinks the stage objective, and both
# steps stall on such a kink where their paths meet it: here the Newton
# stage ends 5.5e-8 of f above the reference's, at a point the reference
# cannot improve either.
@example(case=([(0.0, 0.0), (20.0, 5.0), (40.0, 0.0), (60.0, 3.193359375)],
               1.535171653864495, 60.0), more=0.0, lift=0.0)
@settings(deadline=None, max_examples=15)
@given(case=_pinned_beam(), more=st.floats(0.0, 0.3),
       lift=st.floats(-0.3, 0.3))
def test_newton_stages_end_no_higher_than_gauss_newton(case, more, lift):
    con, excess, span = case
    cold = _solve_or_best(con, excess, None)
    for args in ((con, excess, None),
                 _warm_case(con, excess, span, cold, more, lift)):
        for new, ref, after in _stage_ends(*args):
            tol = 1e-8 * abs(ref)
            assert new <= ref + tol or new <= after + tol


def _near_or_lower(got, ref, span):
    """got lies within 1e-4 of the span of ref, or it is a converged shape
    of no higher bending energy: where a stage starts near a saddle, the
    two steps can leave it for different buckled branches."""
    return (np.max(np.abs(got.nodes - ref.nodes)) <= 1e-4 * span
            or (got.residual <= elastica._TOL * span
                and got.energy <= ref.energy * (1.0 + 1e-9)))


# Six pins at uneven heights, where the Newton solve ends 4.1 mm from the
# reference's, on a branch of lower energy (0.04363 against 0.04435 1/mm).
@example(case=([(0.0, 2.07421875), (27.15625, 3.8046875), (60.921875, 2.0),
                (85.859375, 4.7890625), (113.59375, 0.0), (145.953125, 0.0)],
               1.9816965470495234, 145.953125), more=0.0, lift=0.0)
@settings(deadline=None, max_examples=15)
@given(case=_pinned_beam(), more=st.floats(0.0, 0.3),
       lift=st.floats(-0.3, 0.3))
def test_newton_solves_stay_near_the_reference(case, more, lift):
    con, excess, span = case
    cold = _solve_or_best(con, excess, None)
    assert _near_or_lower(cold, _reference_solve(con, excess, None), span)
    warm = _warm_case(con, excess, span, cold, more, lift)
    assert _near_or_lower(_solve_or_best(*warm), _reference_solve(*warm),
                          span)


# The solver's step as it stood before it was cut to fewer NumPy calls per
# step: the same floating-point operations in the same order, spelled with
# masks, fancy indexing and the NumPy wrapper functions.  Every stage,
# projection and whole solve must match it bit for bit.

class _RefConstraints:
    """elastica._Constraints, built with masks and fancy indexing."""

    def __init__(self, m, h, xs_c, ys_c, x_end, y_end):
        self.m, self.h = m, h
        self.xs_c, self.ys_c = xs_c, ys_c
        self.x_end, self.y_end = x_end, y_end
        k = len(xs_c)
        self._cs = np.empty((2, m))           # cos and sin of the angles
        self._steps = np.empty((2, m))        # segment steps in x and y
        self._xy = np.zeros((2, m + 1))       # node coordinates
        self._r = np.empty(2 + 2 * k)
        self._free = np.arange(m - 2)
        # row 0 covers every free angle (the end rows), row 1 + k the free
        # angles before pin k's station
        self._before = np.ones((1 + k, m - 2))
        self._w = np.empty((2, 1 + k))
        # row 0 is left for the caller's gradient, so that [g | J^T] is the
        # transpose of one block
        self._gj = np.empty((3 + 2 * k, m - 2))

    def residual(self, theta: np.ndarray) -> np.ndarray:
        m, h, xs_c, ys_c = self.m, self.h, self.xs_c, self.ys_c
        cs, xy = self._cs, self._xy
        np.cos(theta, out=cs[0])
        np.sin(theta, out=cs[1])
        np.multiply(h, cs, out=self._steps)
        np.cumsum(self._steps, axis=1, out=xy[:, 1:])
        x, y = xy
        # 0 = x[0] < xs_c < 1 <= m h, so every j below is a valid node index
        self._monotone = bool((x[1:] > x[:-1]).all())
        if self._monotone:
            j = np.minimum(np.searchsorted(x, xs_c, side="right") - 1, m - 1)
            self._t = np.tan(theta[j])
            r = self._r[:2 + len(j)]
            np.add(y[j], (xs_c - x[j]) * self._t, out=r[2:])
            r[2:] -= ys_c
        else:
            j = np.rint(xs_c / h).astype(int)
            r = self._r[:2 + 2 * len(j)]
            np.subtract(x[j], xs_c, out=r[2::2])
            np.subtract(y[j], ys_c, out=r[3::2])
        r[0] = x[m] - self.x_end
        r[1] = y[m] - self.y_end
        self._j = j
        return r

    def jacobian(self) -> np.ndarray:
        m, h, j = self.m, self.h, self._j
        k = len(j)
        c, s = self._cs[0, 1:m - 1], self._cs[1, 1:m - 1]
        gj = self._gj[:(3 if self._monotone else 3 + k) + k]
        np.multiply(-h, s, out=gj[1])
        np.multiply(h, c, out=gj[2])
        # pin row k depends on the free angles before its station j[k],
        # which are the first j[k] - 1 (free angle i is angle i + 1)
        before = self._before[1:]
        np.less(self._free, np.maximum(j - 1, 0)[:, None], out=before)
        if self._monotone:
            t = self._t
            pins = gj[3:]
            np.multiply(t[:, None], s, out=pins)
            pins += c
            pins *= h
            pins *= before
            self._on = on = (1 <= j) & (j <= m - 2)
            self._own_at = j[on] - 1
            self._own = ((self.xs_c - self._xy[0, j]) * (1.0 + t * t))[on]
            pins[on, self._own_at] = self._own
        else:
            np.multiply(gj[1:3], before[:, None, :],
                        out=gj[3:].reshape(k, 2, m - 2))
        return gj

    def curvature(self, r: np.ndarray) -> np.ndarray:
        m, k = self.m, len(self._j)
        # (weights of the cos terms, of the sin terms) per row of _before,
        # whose first row, all ones, holds the end rows
        w = self._w[:, :k + 1]
        if self._monotone:
            w[0, 0], w[1, 0] = r[0], r[1]
            np.multiply(r[2:], -self._t, out=w[0, 1:])
            w[1, 1:] = r[2:]
        else:
            w[:, 0] = r[:2]
            w[0, 1:] = r[2::2]
            w[1, 1:] = r[3::2]
        cs = w @ self._before[:k + 1]
        cs *= self._cs[:, 1:m - 1]
        out = cs[0] + cs[1]
        out *= -self.h
        if self._monotone:
            np.add.at(out, self._own_at,
                      2.0 * self._own * (self._t * r[2:])[self._on])
        return out


def _ref_woodbury_step(sol, jac, weight, neg=0):
    v, wt = sol[:, 0], sol[:, 1:]
    small = jac @ wt
    small.flat[::small.shape[0] + 1] += 1.0 / weight
    if neg and neg + np.count_nonzero(np.linalg.eigvalsh(small) > 0.0) \
            != small.shape[0]:
        return None
    return wt @ dgesv(small, jac @ v)[2] - v


def _ref_newton_step(gj, diag, off, weight):
    # Sturm count of the eigenvalues at or below zero; an infinite
    # tolerance skips the bisection that would locate them
    neg = dstebz(diag, off, 1, -np.inf, 0.0, 0, 0, np.inf, b"B")[0]
    if neg > gj.shape[0] - 1:
        return None
    # LAPACK solves [g | J^T] in a Fortran-ordered copy
    sol, info = dgtsv(off, diag, off, gj.T)[3:]
    if info != 0:
        return None
    return _ref_woodbury_step(sol, gj[1:], weight, neg)


def _ref_gn_stage(theta_free, rows, weight, bend_ldl, max_steps, newton):
    m, h = rows.m, rows.h
    th = np.zeros(m)
    dth = np.empty(m - 1)
    off = np.full(m - 3, -2.0 / h)
    r = None

    def objective(tf):
        nonlocal r
        th[1:m - 1] = tf
        np.subtract(th[1:], th[:-1], out=dth)
        r = rows.residual(th)
        return float(dth @ dth) / h + 0.5 * weight * float(r @ r)

    def gradient():
        gj = rows.jacobian()
        q = 2.0 * dth / h
        np.subtract(q[:-1], q[1:], out=gj[0])
        gj[0] += weight * (gj[1:].T @ r)
        return gj, 4.0 / h + weight * rows.curvature(r)

    f = objective(theta_free)
    gj, diag = gradient()
    trace = [f]
    for _ in range(max_steps):
        g, jac = gj[0], gj[1:]
        if np.max(np.abs(g)) < 1e-12:
            break
        step = _ref_newton_step(gj, diag, off, weight) if newton else None
        if step is None:
            step = _ref_woodbury_step(dpttrs(*bend_ldl, gj.T)[0], jac, weight)
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g
            slope = float(g @ step)
        # Armijo backtracking on the penalised objective
        alpha = 1.0
        for _bt in range(30):
            if -alpha * slope <= elastica._ROUNDOFF * abs(f):
                return theta_free, trace
            cand = np.minimum(np.maximum(theta_free + alpha * step, -1.45), 1.45)
            fc = objective(cand)
            if fc <= f + 1e-4 * alpha * slope:
                theta_free, f = cand, fc
                gj, diag = gradient()
                trace.append(f)
                break
            alpha *= 0.5
        else:
            break
        if trace[-2] - trace[-1] <= 1e-15 * max(abs(trace[-1]), 1e-30):
            break
    return theta_free, trace


def _ref_initial_angles(con, m, total_len, initial):
    xs = con[:, 0]
    if initial is not None:
        px, py = np.asarray(initial[0], float), np.asarray(initial[1], float)
    else:
        ys = con[:, 1]
        px = np.linspace(xs[0], xs[-1], 16 * m + 1)
        if len(xs) > 3:
            py = PchipInterpolator(xs, ys)(px)
        else:
            py = np.interp(px, xs, ys)
    seg = np.hypot(np.diff(px), np.diff(py))
    s_cum = np.concatenate([[0.0], np.cumsum(seg)])
    length = s_cum[-1]
    deficit = total_len - length
    if deficit > 1e-12 * total_len:
        gaps = np.diff(xs)
        shares = deficit * gaps / float(np.sum(gaps))
        bump = np.zeros_like(px)
        for i, (x0, width, share) in enumerate(zip(xs[:-1], gaps, shares)):
            amp = (2.0 / math.pi) * math.sqrt(max(width * share, 0.0))
            sign = 1.0 if i % 2 == 0 else -1.0
            u = np.clip((px - x0) / width, 0.0, 1.0)
            bump += sign * 0.5 * amp * (1.0 - np.cos(2.0 * math.pi * u))
        py = py + bump
        seg = np.hypot(np.diff(px), np.diff(py))
        s_cum = np.concatenate([[0.0], np.cumsum(seg)])
        length = s_cum[-1]
    stations = np.linspace(0.0, length, m + 1)
    rx = np.interp(stations, s_cum, px)
    ry = np.interp(stations, s_cum, py)
    theta = np.arctan2(np.diff(ry), np.diff(rx))
    theta[0] = 0.0
    theta[-1] = 0.0
    return theta


def _ref_project(theta, rows, steps):
    theta = theta.copy()
    for _ in range(steps):
        r = rows.residual(theta)
        if np.max(np.abs(r)) < 1e-13:
            break
        jac = rows.jacobian()[1:]
        jjt = jac @ jac.T
        jjt.flat[::len(r) + 1] += 1e-12 * max(np.trace(jjt), 1e-30)
        lam = dgesv(jjt, r)[2]
        theta[1:rows.m - 1] -= jac.T @ lam
    r = rows.residual(theta)
    return theta, float(np.max(np.abs(r)))


def _ref_point_polyline_distance(points, nodes) -> np.ndarray:
    a = nodes[:-1]
    ab = nodes[1:] - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    # (points, segments): each point's projection onto every segment
    t = np.clip(np.einsum("kij,ij->ki", points[:, None, :] - a, ab) / denom,
                0.0, 1.0)
    proj = a + t[:, :, None] * ab
    return np.min(np.hypot(points[:, 0, None] - proj[:, :, 0],
                           points[:, 1, None] - proj[:, :, 1]), axis=1)


def _ref_solve(constraints, excess_length, initial):
    """solve_elastica_1d on the reference pieces, for beams with an arc
    surplus.  Returns the solution and whether it converged."""
    conn, origin, scale, exn, flat = elastica.normalize_beam(constraints,
                                                             excess_length)
    assert exn > 1e-14
    total = 1.0 + exn
    m = max(min(64 * (conn.shape[0] - 1), elastica._MAX_SEGMENTS), 128)
    h = total / m
    if initial is not None:
        initial = ((np.asarray(initial[0], float) - origin[0]) / scale,
                   (np.asarray(initial[1], float) - origin[1]) / scale)
    theta = _ref_initial_angles(conn, m, total, initial)
    xs_c = conn[1:-1, 0]
    x_end, y_end = conn[-1]
    rows = _RefConstraints(m, h, xs_c, conn[1:-1, 1], x_end, y_end)
    stage_objectives, n_iter = [], 0
    theta_free = theta[1:m - 1].copy()
    bend_ldl = dpttrf(np.full(m - 2, 4.0 / h), np.full(m - 3, -2.0 / h))[:2]
    for stage, weight in enumerate(elastica._PENALTY_STAGES):
        theta_free, trace = _ref_gn_stage(theta_free, rows, weight, bend_ldl,
                                          elastica._MAX_ITER, stage > 0)
        n_iter += max(len(trace) - 1, 0)
        stage_objectives.append(trace)
    theta = np.zeros(m)
    theta[1:m - 1] = theta_free
    theta, worst = _ref_project(theta, rows, elastica._PROJECTION_STEPS)
    if worst > elastica._TOL:
        theta_fb = _ref_initial_angles(conn, m, total, None)
        theta_fb, worst_fb = _ref_project(theta_fb, rows,
                                          2 * elastica._PROJECTION_STEPS)
        if worst_fb < worst:
            theta, worst = theta_fb, worst_fb
    x = np.concatenate([[0.0], np.cumsum(h * np.cos(theta))])
    y = np.concatenate([[0.0], np.cumsum(h * np.sin(theta))])
    nodes_n = np.column_stack([x, y])
    dth = np.diff(theta)
    worst = float(np.hypot(x[-1] - x_end, y[-1] - y_end))
    if len(xs_c):
        worst = max(float(np.max(_ref_point_polyline_distance(conn[1:-1],
                                                              nodes_n))),
                    worst)
    return elastica.ElasticaSolution(
        nodes_n * scale + origin, h * scale, float(dth @ dth) / h / scale,
        excess_length, worst * scale, stage_objectives,
        n_iter), worst <= elastica._TOL


def _solve_and_flag(con, excess, initial):
    try:
        return solve_elastica_1d(con, excess, initial=initial), True
    except ElasticaConvergenceError as err:
        return err.solution, False


def _assert_bitwise_equal(got, ref):
    (sol, ok), (want, want_ok) = got, ref
    assert np.array_equal(sol.nodes, want.nodes)
    assert sol.n_iterations == want.n_iterations
    assert sol.stage_objectives == want.stage_objectives
    assert sol.residual == want.residual
    assert sol.energy == want.energy
    assert ok == want_ok


@settings(deadline=None, max_examples=40)
@given(case=_pinned_beam(max_pins=12), more=st.floats(0.0, 0.3),
       lift=st.floats(-0.3, 0.3))
def test_solves_match_the_reference_step_bit_for_bit(case, more, lift):
    # a cold solve, then the next replay probe warm-started from it: each
    # runs Gauss-Newton steps in stage 1 and Newton steps after it
    con, excess, span = case
    cold = _solve_and_flag(con, excess, None)
    _assert_bitwise_equal(cold, _ref_solve(con, excess, None))
    warm = _warm_case(con, excess, span, cold[0], more, lift)
    _assert_bitwise_equal(_solve_and_flag(*warm), _ref_solve(*warm))


@settings(deadline=None, max_examples=40)
@given(case=_pinned_beam(max_pins=12), newton=st.booleans(),
       fold=st.booleans())
def test_stages_and_projections_match_the_reference_bit_for_bit(case, newton,
                                                                fold):
    # one stage of either step kind, and one projection, from the cold seed
    # or from the seed with a stretch folded back
    con, excess, _ = case
    conn, _, _, exn, _ = elastica.normalize_beam(con, excess)
    m = 64 * (len(con) - 1)
    h = (1.0 + exn) / m
    theta = elastica._initial_angles(conn, m, 1.0 + exn, None)
    if fold:
        theta[m // 3:m // 3 + 3] = 2.0
    args = (m, h, conn[1:-1, 0], conn[1:-1, 1], *conn[-1])
    bend_ldl = dpttrf(np.full(m - 2, 4.0 / h), np.full(m - 3, -2.0 / h))[:2]
    weight = 1e5 if newton else 1e3
    got = elastica._gn_stage(theta[1:m - 1].copy(), elastica._Constraints(*args),
                             weight, bend_ldl, elastica._MAX_ITER, newton)
    want = _ref_gn_stage(theta[1:m - 1].copy(), _RefConstraints(*args), weight,
                         bend_ldl, elastica._MAX_ITER, newton)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]
    got = elastica._project(theta, elastica._Constraints(*args), 6)
    want = _ref_project(theta, _RefConstraints(*args), 6)
    assert np.array_equal(got[0], want[0]) and got[1] == want[1]


@pytest.mark.xfail(strict=True, raises=ElasticaConvergenceError,
                   reason="surplus below ~0.02 mm over uneven pins stalls "
                          "the penalty cascade and its projections")
def test_small_surplus_over_uneven_pins_converges():
    con = [(0.0, 1.0), (30.0, 4.0), (60.0, 0.5)]
    needed = math.hypot(30.0, 3.0) + math.hypot(30.0, 3.5) - 60.0
    solve_elastica_1d(con, needed + 0.005)


# ======================================================================
# degenerate and infeasible inputs
# ======================================================================

def test_micro_excess_flat_pins_converges():
    # all pins at zero with a vanishingly small arc surplus: the flat state
    # is infeasible and the first buckled branch carries almost no energy,
    # so this is the stiffest case for the solver
    stations = 30.0 * np.arange(5)
    con = [(x, 0.0) for x in stations]
    excess = 3.240197e-6
    sol = solve_elastica_1d(con, excess)
    assert sol.residual <= 1e-6 * 120.0
    assert sol.arc_length == pytest.approx(120.0 + excess, abs=1e-9)
    assert np.max(np.abs(sol.nodes[:, 1])) < 0.05


def test_infeasible_excess_raises():
    con = [(0.0, 0.0), (45.0, 10.0), (90.0, 0.0)]
    # reaching the middle pin needs at least 2*hypot(45,10) - 90 of surplus
    with pytest.raises(InfeasibleExcessError, match="infeasible excess"):
        solve_elastica_1d(con, 0.1)


def test_convergence_error_carries_best_iterate(monkeypatch):
    # starve the schedule: one weak stage of one step, no projection
    monkeypatch.setattr(elastica, "_MAX_ITER", 1)
    monkeypatch.setattr(elastica, "_PENALTY_STAGES", (10.0,))
    monkeypatch.setattr(elastica, "_PROJECTION_STEPS", 0)
    con = [(0.0, 0.0), (45.0, 6.0), (90.0, 0.0)]
    needed = 2.0 * math.hypot(45.0, 6.0) - 90.0
    with pytest.raises(ElasticaConvergenceError) as info:
        solve_elastica_1d(con, needed * 1.5)
    err = info.value
    assert err.solution.nodes.shape[1] == 2
    assert err.residual == err.solution.residual > elastica._TOL * 90.0


def test_input_validation():
    with pytest.raises(ValueError):
        solve_elastica_1d([(0.0, 0.0)], 0.0)
    with pytest.raises(ValueError, match="sorted"):
        solve_elastica_1d([(0.0, 0.0), (50.0, 1.0), (20.0, 0.0)], 1.0)
    with pytest.raises(ValueError):
        solve_elastica_1d([(0.0, 0.0), (90.0, 0.0)], -1.0)
    with pytest.raises(ValueError):
        solve_elastica_1d([(0.0, 0.0), (90.0, 0.0)], math.nan)
    with pytest.raises(ValueError, match="at least 50"):
        solve_elastica_1d([(0.0, 0.0), (90.0, 0.0)], 0.0, nodes_per_span=10)


# ======================================================================
# small-deflection limit against the foundation series
# ======================================================================

def test_matches_linear_series_at_small_slope():
    # Pin the elastica through sample points of the linearised solution for
    # a point-constrained beam loaded axially near buckling (mode-1
    # dominated), prescribing the linear shape's own arc surplus.  At peak
    # deflection ~0.5 mm over a 90 mm span the two theories must agree.
    l, d = 90.0, 30.0
    beam = BeamSpec(youngs_modulus=193e9, width=4.0, thickness=0.1,
                    length=450.0)
    fnd = FoundationSpec(0.0)
    ncr1 = critical_load(1, beam, fnd, l)
    load = LoadCase(point_load=1.0, axial_load=0.55 * ncr1, wavelength=l)
    xs = np.linspace(0.0, l, 20001)
    y = deflection_series(xs, load, beam, fnd, n_max=64)
    scale = 0.5 / deflection_series(np.array([d]), load, beam, fnd, n_max=64)[0]
    y = scale * y
    pins = scale * deflection_series(np.array([d, l - d]), load, beam, fnd,
                                     n_max=64)
    excess = float(np.sum(np.hypot(np.diff(xs), np.diff(y)))) - l

    sol = solve_elastica_1d(
        [(0.0, 0.0), (d, pins[0]), (l - d, pins[1]), (l, 0.0)], excess)
    psi = sol.profile(xs)
    rel = math.sqrt(np.trapezoid((psi - y) ** 2, xs)
                    / np.trapezoid(y ** 2, xs))
    assert rel <= 0.05
