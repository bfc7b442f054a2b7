"""Discrete elastica for the reinforcement beams.

A beam pinned to pixel tops is modelled as an inextensible polyline with
uniform arc-length segments.  The solver minimises the discrete bending
energy sum(turn_angle^2) / segment_length subject to: the curve starts and
ends at the first and last constraint, passes through every interior
constraint, holds horizontal tangents at both ends (moveable clamps), and
has total arc length span + excess_length.  Constraints are enforced by a
quadratic penalty with an increasing weight schedule followed by a
Gauss-Newton projection onto the constraint set.  Each penalty stage is a
damped descent that evaluates only the objective at Armijo trial points
and ends once a trial step's predicted decrease is roundoff.  The first
stage, which leaves the seed and picks the branch, takes Gauss-Newton
steps.  The stiffer stages after it take Newton steps: their model adds
the diagonal of the constraint curvature to the Gauss-Newton Hessian, and
is used only where an exact inertia test finds it positive definite;
elsewhere the step is the Gauss-Newton one.

The solver is deterministic: no randomness, a fixed schedule, and an
internal rescaling to unit span so that geometrically similar problems
produce identical iterates.  The schedule is three penalty stages of
weight 1e3, 1e5 and 1e7, at most 60 steps each, then 6 projection steps
(12 from the fallback seed).  A solve converges when its worst violation
is within 1e-6 of the span.

Every iterate keeps its angles in the box |theta| <= 1.45 rad, where
cos theta > 0: node x strictly increases, so the beam is a height profile
over its line and each interior pin is met at a vertical intercept.  The
seed, the stages' trial points and the projection steps are clipped.

A step works on a few hundred angles, so its cost is the number of NumPy
and LAPACK calls it makes rather than their arithmetic.  A rewrite must
keep every floating-point operation and its order: 2.0 * dth / h and
(2.0 / h) * dth round differently, and the second moves most solves.

Importing this module loads NumPy only.  Each LAPACK routine, and SciPy's
PchipInterpolator, is bound at its first call (crslab._lazy), so SciPy
loads at the first beam solve.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._lazy import deferred

PchipInterpolator = deferred(globals(), "scipy.interpolate",
                             "PchipInterpolator")
dgesv = deferred(globals(), "scipy.linalg.lapack", "dgesv")
dgtsv = deferred(globals(), "scipy.linalg.lapack", "dgtsv")
dpttrf = deferred(globals(), "scipy.linalg.lapack", "dpttrf")
dpttrs = deferred(globals(), "scipy.linalg.lapack", "dpttrs")
dstebz = deferred(globals(), "scipy.linalg.lapack", "dstebz")
dsyevd = deferred(globals(), "scipy.linalg.lapack", "dsyevd")


# a predicted decrease below this fraction of |f| is roundoff in f
_ROUNDOFF = 16.0 * np.finfo(float).eps
_TOL = 1e-6                           # worst violation, relative to span
_MAX_ITER = 60                        # Newton or Gauss-Newton steps per stage
_PENALTY_STAGES = (1e3, 1e5, 1e7)
_MAX_SEGMENTS = 2400
_PROJECTION_STEPS = 6
_ANGLE_BOX = 1.45                     # |angle| bound: node x increases


class ElasticaError(ValueError):
    """Base class for elastica solver failures."""


class InfeasibleExcessError(ElasticaError):
    """Raised when span + excess_length cannot geometrically reach the
    constraint points."""


class ElasticaConvergenceError(ElasticaError):
    """Raised when the solver stops above tolerance.  Carries the best
    iterate in .solution and its worst violation in .residual."""

    def __init__(self, message: str, solution: "ElasticaSolution"):
        super().__init__(message)
        self.solution = solution
        self.residual = solution.residual

    def __reduce__(self):
        # the default rebuilds from self.args, which lacks the solution
        return type(self), (str(self), self.solution)


@dataclass
class ElasticaSolution:
    """A solved beam shape.

    nodes            -- (m+1, 2) polyline vertices, uniform arc spacing
    segment_length   -- arc length of every segment (mm)
    energy           -- sum(turn^2)/segment_length over interior turns (1/mm)
    excess           -- prescribed arc-length excess (mm)
    residual         -- worst constraint violation (mm): max over point-to-
                        polyline distances and the far-end gap
    stage_objectives -- per penalty stage, the penalised objective at each
                        accepted iterate (non-increasing within a stage)
    n_iterations     -- accepted penalty-stage steps, summed over the stages
    """

    nodes: np.ndarray
    segment_length: float
    energy: float
    excess: float
    residual: float
    stage_objectives: List[List[float]]
    n_iterations: int

    @property
    def arc_length(self) -> float:
        return self.segment_length * (self.nodes.shape[0] - 1)

    def profile(self, x: np.ndarray) -> np.ndarray:
        """Height at horizontal position x: linear interpolation in x over
        the nodes, whose x strictly increases.  Outside the span the end
        heights are held."""
        return np.interp(np.asarray(x, dtype=float),
                         self.nodes[:, 0], self.nodes[:, 1])


# ----------------------------------------------------------------------
# internals (all in span-normalised units: first constraint at the origin,
# span scaled to 1)
# ----------------------------------------------------------------------

class _Constraints:
    """The constraint residuals of one beam and their Jacobian with respect
    to the free angles, built in buffers, and views of them, allocated once
    per solve.

    Rows: far-end x gap, far-end y gap, then one vertical-intercept gap per
    interior constraint.  The angles lie in the box |theta| <= _ANGLE_BOX,
    so node x strictly increases and the vertical through a constraint
    meets the polyline once (or its last segment's extension, beyond it).
    """

    def __init__(self, m, h, xs_c, ys_c, x_end, y_end):
        self.m, self.h = m, h
        self.xs_c, self.ys_c = xs_c, ys_c
        self.x_end, self.y_end = x_end, y_end
        k = len(xs_c)
        self._cs = np.empty((2, m))           # cos and sin of the angles
        self._c, self._s = self._cs[:, 1:m - 1]   # ... of the free ones
        self._steps = np.empty((2, m))        # segment steps in x and y
        self._xy = np.zeros((2, m + 1))       # node coordinates
        self._x, self._y = self._xy
        self._end = np.array([x_end, y_end])
        self._r = np.empty(2 + k)
        # row 0 covers every free angle (the end rows), row 1 + k the free
        # angles before pin k's station (free angle i is angle i + 1)
        self._angle = np.arange(1, m - 1)
        self._before = np.ones((1 + k, m - 2))
        self._w = np.empty((2, 1 + k))
        # row 0 is left for the caller's gradient, so that [g | J^T] is the
        # transpose of one block
        self._gj = np.empty((3 + k, m - 2))

    def residual(self, theta: np.ndarray) -> np.ndarray:
        """r at the angles theta, a view that the next call overwrites."""
        m, xs_c, x, y, xy = self.m, self.xs_c, self._x, self._y, self._xy
        np.cos(theta, out=self._cs[0])
        np.sin(theta, out=self._cs[1])
        np.multiply(self.h, self._cs, out=self._steps)
        np.add.accumulate(self._steps, axis=1, out=xy[:, 1:])
        # 0 = x[0] < xs_c, so the station j of each pin is the number of
        # nodes x[1:m] at or left of it
        self._j = j = x[1:m].searchsorted(xs_c, "right")
        self._t = t = np.tan(theta[j])
        self._d = d = xs_c - x[j]
        r = self._r
        np.add(y[j], d * t, out=r[2:])
        r[2:] -= self.ys_c
        np.subtract(xy[:, m], self._end, out=r[:2])
        return r

    def jacobian(self) -> np.ndarray:
        """[spare row; J] at the angles of the last residual call, with J
        taken with respect to the free angles theta[1:m-1].  Pin row k
        depends on the free angles before its station j[k], which are the
        first j[k] - 1, and on its own angle theta[j[k]]."""
        m, h, c, s, gj = self.m, self.h, self._c, self._s, self._gj
        np.multiply(-h, s, out=gj[1])
        np.multiply(h, c, out=gj[2])
        pins = gj[3:]
        np.multiply(self._t[:, None], s, out=pins)
        pins += c
        pins *= h
        for row, j, d, t in zip(pins, self._j, self._d, self._t):
            row[j - 1 if j else 0:] = 0.0           # from the station on
            if 0 < j < m - 1:                       # the own angle is free
                row[j - 1] = d * (1.0 + t * t)
        return gj

    def curvature(self, r: np.ndarray) -> np.ndarray:
        """The diagonal of sum_i r_i * Hessian(r_i) over the free angles, at
        the angles of the last jacobian call, without the coupling between
        a pin's own angle and the angles before it.

        Per row, the second derivatives are -h cos(theta_i) (end x) and
        -h sin(theta_i) (end y) on every free angle; a pin row has
        h (t cos(theta_i) - sin(theta_i)) on the angles before its station j
        and 2 (x_c - x_j) sec^2(theta_j) tan(theta_j) on its own."""
        m, w, before = self.m, self._w, self._before
        # (weights of the cos terms, of the sin terms) per row of before,
        # whose first row, all ones, holds the end rows
        w[:, 0] = r[:2]
        np.multiply(r[2:], -self._t, out=w[0, 1:])
        w[1, 1:] = r[2:]
        np.less(self._angle, self._j[:, None], out=before[1:])
        cs = w @ before
        cs *= self._cs[:, 1:m - 1]
        out = cs[0] + cs[1]
        out *= -self.h
        for j, d, t, rk in zip(self._j, self._d, self._t, r[2:]):
            if 0 < j < m - 1:
                out[j - 1] += 2.0 * (d * (1.0 + t * t)) * (t * rk)
        return out


def _woodbury_step(sol, jac, weight, neg=0):
    """The step -(T + w J^T J)^{-1} g, from sol = T^{-1} [g | J^T] by the
    Woodbury identity with the k x k matrix S = I/w + J T^{-1} J^T.

    neg is the number of eigenvalues of T at or below zero.  By Haynsworth
    inertia additivity, T + w J^T J is positive definite exactly when neg
    plus the number of positive eigenvalues of S is k; when neg > 0 and
    the count falls short, None is returned."""
    v, wt = sol[:, 0], sol[:, 1:]
    small = jac @ wt
    small.ravel()[::small.shape[0] + 1] += 1.0 / weight
    # dsyevd on the lower triangle, as np.linalg.eigvalsh does it
    if neg and neg + np.count_nonzero(dsyevd(small, 0, 1)[0] > 0.0) \
            != small.shape[0]:
        return None
    return wt @ dgesv(small, jac @ v)[2] - v


def _newton_step(gj, diag, off, weight):
    """The step -(T' + w J^T J)^{-1} g for gj = [g; J] and the symmetric
    tridiagonal T' (diagonal diag, off-diagonal off), or None when that
    matrix is not positive definite."""
    # Sturm count of the eigenvalues at or below zero; an infinite
    # tolerance skips the bisection that would locate them
    neg = dstebz(diag, off, 1, -np.inf, 0.0, 0, 0, np.inf, b"B")[0]
    if neg > gj.shape[0] - 1:
        return None
    # LAPACK solves [g | J^T] in a Fortran-ordered copy
    sol, info = dgtsv(off, diag, off, gj.T)[3:]
    if info != 0:
        return None
    return _woodbury_step(sol, gj[1:], weight, neg)


def _gn_stage(theta_free, rows, weight, bend_ldl, max_steps, newton):
    """Minimise bend + (weight/2)|r|^2 by damped (Gauss-)Newton steps.

    The Gauss-Newton model Hessian is H + w J^T J, with H the bending
    Hessian (2/h) tridiag(-1, 2, -1); bend_ldl is its dpttrf factor, computed
    once per solve.  That model drops the constraint curvature
    w sum_i r_i Hess(r_i), which is of the size of the multipliers at a
    penalty minimum, so Gauss-Newton converges only linearly in the stiff
    stages (Nocedal & Wright, Numerical Optimization, 2nd ed., 17.1).  With
    newton true, the model is T' + w J^T J instead, where T' is H plus the
    diagonal of that curvature (_Constraints.curvature).  T' alone is often
    indefinite, so the Newton step is taken only when T' + w J^T J is
    positive definite: an exact inertia test from a Sturm count of T' and,
    when T' is indefinite, the eigenvalues of a k x k matrix.  Otherwise
    the step is the Gauss-Newton one.  Either step solves its model by the
    Woodbury identity, a tridiagonal solve for [g | J^T] and a k x k solve
    for the k constraint rows, so each costs O(m k).

    The caller passes newton=False in the first stage, which starts from
    the seed: Newton steps there can settle on the flat state of a beam
    with all pins at one height so closely that the later stages no longer
    leave it, which moves such beams to another branch.

    Armijo backtracking keeps the objective non-increasing.  Trial points
    evaluate only f; the gradient and Jacobian are built at accepted points
    alone, and the curvature there only in a Newton stage, the one stage
    kind that reads it.  The stage ends once a trial step's predicted
    decrease -alpha g.d is roundoff in f (at most _ROUNDOFF |f|): there the
    Armijo test compares rounding noise, and further halvings only spend
    evaluations (Nocedal & Wright, 3.1).
    """
    m, h = rows.m, rows.h
    th = np.zeros(m)
    th_free, th_hi, th_lo = th[1:m - 1], th[1:], th[:-1]
    dth = np.empty(m - 1)
    q = np.empty(m - 1)
    q_lo, q_hi = q[:-1], q[1:]
    off = np.full(m - 3, -2.0 / h)
    r = None

    def objective(tf):
        """f at tf, which becomes the point that gradient() works at."""
        nonlocal r
        th_free[:] = tf
        np.subtract(th_hi, th_lo, out=dth)
        r = rows.residual(th)
        return float(dth @ dth) / h + 0.5 * weight * float(r @ r)

    def gradient():
        """[g; J] at the last objective() point, and the diagonal of T' in
        a Newton stage (None in a Gauss-Newton one)."""
        gj = rows.jacobian()
        np.multiply(2.0, dth, out=q)      # 2.0 * dth / h, in that order
        np.divide(q, h, out=q)
        np.subtract(q_lo, q_hi, out=gj[0])
        gj[0] += weight * (gj[1:].T @ r)
        return gj, 4.0 / h + weight * rows.curvature(r) if newton else None

    f = objective(theta_free)
    gj, diag = gradient()
    trace = [f]
    for _ in range(max_steps):
        g = gj[0]
        if np.maximum.reduce(abs(g)) < 1e-12:
            break
        step = _newton_step(gj, diag, off, weight) if newton else None
        if step is None:
            step = _woodbury_step(dpttrs(*bend_ldl, gj.T)[0], gj[1:], weight)
        slope = float(g @ step)
        if slope >= 0.0:
            step = -g
            slope = float(g @ step)
        # Armijo backtracking on the penalised objective, f >= 0
        alpha = 1.0
        for _bt in range(30):
            if -alpha * slope <= _ROUNDOFF * f:
                return theta_free, trace
            cand = alpha * step
            cand += theta_free
            np.minimum(np.maximum(cand, -_ANGLE_BOX, out=cand), _ANGLE_BOX,
                       out=cand)
            fc = objective(cand)
            if fc <= f + 1e-4 * alpha * slope:
                theta_free, f = cand, fc
                gj, diag = gradient()
                trace.append(f)
                break
            alpha *= 0.5
        else:
            break
        if trace[-2] - f <= 1e-15 * max(f, 1e-30):
            break
    return theta_free, trace


def _initial_angles(con, m, total_len, initial):
    """Segment angles for the starting iterate: resample the hint curve (or
    a monotone interpolant through the constraints) by arc length, then make
    up any length deficit with per-gap arch modes.

    The slack is split between the inter-constraint gaps in proportion to
    their width and absorbed by a raised-cosine arch per gap, signs
    alternating, so the seeded curve already satisfies the pins.  A single
    full-span arch would cross the interior pins and, for small slack,
    leave the optimiser at the flat saddle where the end-shortening
    Jacobian vanishes.  The angles are clipped into the angle box, which
    only a hint that runs backwards or rises steeply leaves.
    """
    xs = con[:, 0]
    if initial is not None:
        px, py = np.asarray(initial[0], float), np.asarray(initial[1], float)
    else:
        # as normalize_beam judges pins: within 1e-14 of the span is zero
        ys = np.where(abs(con[:, 1]) <= 1e-14, 0.0, con[:, 1])
        px = np.linspace(xs[0], xs[-1], 16 * m + 1)
        if len(xs) > 3:
            py = PchipInterpolator(xs, ys)(px)
        else:
            py = np.interp(px, xs, ys)

    def arc(py):
        """The arc length from the start at every point of (px, py)."""
        s = np.zeros(len(px))
        np.hypot(px[1:] - px[:-1], py[1:] - py[:-1]).cumsum(out=s[1:])
        return s

    s_cum = arc(py)
    deficit = total_len - s_cum[-1]
    if deficit > 1e-12 * total_len:
        gaps = xs[1:] - xs[:-1]
        shares = deficit * gaps / float(gaps.sum())
        bump = np.zeros_like(px)
        for i, (x0, width, share) in enumerate(zip(xs[:-1], gaps, shares)):
            amp = (2.0 / math.pi) * math.sqrt(max(width * share, 0.0))
            sign = 1.0 if i % 2 == 0 else -1.0
            u = np.clip((px - x0) / width, 0.0, 1.0)
            bump += sign * 0.5 * amp * (1.0 - np.cos(2.0 * math.pi * u))
        py = py + bump
        s_cum = arc(py)
    stations = np.linspace(0.0, s_cum[-1], m + 1)
    rx = np.interp(stations, s_cum, px)
    ry = np.interp(stations, s_cum, py)
    theta = np.arctan2(ry[1:] - ry[:-1], rx[1:] - rx[:-1])
    np.minimum(np.maximum(theta, -_ANGLE_BOX, out=theta), _ANGLE_BOX,
               out=theta)
    theta[0] = 0.0
    theta[-1] = 0.0
    return theta


def _project(theta, rows, steps):
    """Gauss-Newton projection onto the constraint set (minimum-norm
    steps), each step's free angles clipped into the angle box.  Returns
    the projected angles and the final max |residual|."""
    theta = theta.copy()
    free = theta[1:rows.m - 1]
    for _ in range(steps):
        r = rows.residual(theta)
        if abs(r).max() < 1e-13:
            break
        jac = rows.jacobian()[1:]
        jjt = jac @ jac.T
        jjt.ravel()[::len(r) + 1] += 1e-12 * max(jjt.trace(), 1e-30)
        free -= jac.T @ dgesv(jjt, r)[2]
        np.minimum(np.maximum(free, -_ANGLE_BOX, out=free), _ANGLE_BOX,
                   out=free)
    return theta, float(abs(rows.residual(theta)).max())


def _point_polyline_distance(points, nodes) -> np.ndarray:
    """Distance from each point to the polyline (min over segments)."""
    (ax, ay), (bx, by) = nodes[:-1].T, nodes[1:].T
    abx, aby = bx - ax, by - ay
    denom = np.maximum(abx * abx + aby * aby, 1e-300)
    # (points, segments): each point's projection onto every segment
    px, py = points[:, :1], points[:, 1:]
    t = (px - ax) * abx
    t += (py - ay) * aby
    t /= denom
    np.clip(t, 0.0, 1.0, out=t)
    return np.hypot(px - (ax + t * abx), py - (ay + t * aby)).min(axis=1)


def normalize_beam(constraints: Sequence[Tuple[float, float]],
                   excess_length: float):
    """Validate one beam and rescale it to unit span.

    Returns (conn, origin, scale, exn, flat): the constraints shifted so
    the first sits at the origin and divided by the span (scale), the
    excess over the span, and whether every pin is at height zero.  Raises
    ValueError for malformed input and InfeasibleExcessError("infeasible
    excess") when the arc budget cannot reach the constraint heights.
    """
    con = np.asarray(constraints, dtype=float)
    if con.ndim != 2 or con.shape[1] != 2 or con.shape[0] < 2:
        raise ValueError("need at least two (x, y) constraints")
    if not np.isfinite(con).all():
        raise ValueError("constraints must be finite")
    if (con[1:, 0] - con[:-1, 0] <= 0.0).any():
        raise ValueError("constraints must be sorted by strictly increasing x")
    if not np.isfinite(excess_length) or excess_length < 0.0:
        raise ValueError("excess_length must be finite and >= 0")

    origin = con[0].copy()
    scale = con[-1, 0] - con[0, 0]
    conn = (con - origin) / scale
    exn = excess_length / scale
    total = 1.0 + exn
    dx, dy = (conn[1:] - conn[:-1]).T
    chords = float(np.hypot(dx, dy).sum())
    flat = bool((abs(conn[:, 1]) <= 1e-14).all())
    if total < chords * (1.0 - 1e-12) or (not flat and total <= chords):
        raise InfeasibleExcessError("infeasible excess")
    return conn, origin, scale, exn, flat


def solve_elastica_1d(constraints: Sequence[Tuple[float, float]],
                      excess_length: float,
                      nodes_per_span: int = 64,
                      initial: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                      ) -> ElasticaSolution:
    """Minimum-bending-energy inextensible curve through the constraints.

    constraints    -- (x, y) pixel points sorted by x, at least two; the
                      first and last are the beam ends (clamped horizontal)
    excess_length  -- arc length beyond the end-to-end span (mm, >= 0)
    nodes_per_span -- segments per gap between constraints, >= 50; the
                      beam gets min(nodes_per_span * gaps, 2400) of them,
                      and never fewer than 2 * nodes_per_span
    initial        -- optional (x, y) arrays of a hint curve; used to seed
                      the iterate (the rendering path seeds with the target
                      shape so the solver starts on the physical branch)

    Raises InfeasibleExcessError("infeasible excess") when the arc budget
    cannot reach the constraint heights, and ElasticaConvergenceError (with
    the best iterate attached) when tolerance is not met.
    """
    if nodes_per_span < 50:
        raise ValueError("nodes_per_span must be at least 50")
    conn, origin, scale, exn, flat = normalize_beam(constraints, excess_length)
    total = 1.0 + exn

    n_span = conn.shape[0] - 1
    m = min(nodes_per_span * n_span, _MAX_SEGMENTS)
    m = max(m, 2 * nodes_per_span)
    h = total / m

    if flat and exn <= 1e-14:
        nodes = np.column_stack([np.linspace(0.0, 1.0, m + 1), np.zeros(m + 1)])
        nodes = nodes * scale + origin
        return ElasticaSolution(nodes, h * scale, 0.0, excess_length, 0.0,
                                [[0.0]], 0)

    if initial is not None:
        init = ((np.asarray(initial[0], float) - origin[0]) / scale,
                (np.asarray(initial[1], float) - origin[1]) / scale)
    else:
        init = None
    theta = _initial_angles(conn, m, total, init)

    xs_c = conn[1:-1, 0]
    x_end, y_end = conn[-1]
    rows = _Constraints(m, h, xs_c, conn[1:-1, 1], x_end, y_end)

    stage_objectives: List[List[float]] = []
    n_iter = 0
    theta_free = theta[1:m - 1].copy()
    # bending Hessian (2/h)*tridiag(-1, 2, -1) on the free angles, factored
    # once per solve and reused by every Gauss-Newton step
    bend_ldl = dpttrf(np.full(m - 2, 4.0 / h), np.full(m - 3, -2.0 / h))[:2]
    for stage, weight in enumerate(_PENALTY_STAGES):
        theta_free, trace = _gn_stage(theta_free, rows, weight, bend_ldl,
                                      _MAX_ITER, newton=stage > 0)
        n_iter += max(len(trace) - 1, 0)
        stage_objectives.append(trace)

    theta = np.zeros(m)
    theta[1:m - 1] = theta_free
    theta, worst = _project(theta, rows, _PROJECTION_STEPS)

    if not worst <= _TOL:
        # The penalty cascade cannot resolve excesses far below the scale
        # set by the stage weights (the flat state then wins every stage
        # and is a saddle of the end-shortening constraint).  The pchip
        # plus per-gap arch seed is already near-feasible there, so a
        # plain projection from it recovers the constraint set.  A NaN
        # residual (a NaN hint gives one) tries it too, and any other wins.
        theta_fb = _initial_angles(conn, m, total, None)
        theta_fb, worst_fb = _project(theta_fb, rows, 2 * _PROJECTION_STEPS)
        if worst_fb < worst or math.isnan(worst):
            theta, worst = theta_fb, worst_fb

    nodes_n = np.zeros((m + 1, 2))
    (h * np.column_stack([np.cos(theta), np.sin(theta)])).cumsum(
        axis=0, out=nodes_n[1:])

    dth = theta[1:] - theta[:-1]
    energy_n = float(dth @ dth) / h

    x_last, y_last = nodes_n[m]
    worst = float(np.hypot(x_last - x_end, y_last - y_end))
    if len(xs_c):
        worst = max(float(_point_polyline_distance(conn[1:-1], nodes_n).max()),
                    worst)

    nodes = nodes_n * scale + origin
    sol = ElasticaSolution(nodes, h * scale, energy_n / scale, excess_length,
                           worst * scale, stage_objectives, n_iter)
    if not worst <= _TOL:                   # a NaN residual fails too
        raise ElasticaConvergenceError("elastica did not converge", sol)
    return sol
