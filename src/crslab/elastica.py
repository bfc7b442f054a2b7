"""Discrete elastica for the reinforcement beams.

A beam pinned to pixel tops is modelled as an inextensible polyline with
uniform arc-length segments.  The solver minimises the discrete bending
energy sum(turn_angle^2) / segment_length subject to: the curve starts and
ends at the first and last constraint, passes through every interior
constraint, holds horizontal tangents at both ends (moveable clamps), and
has total arc length span + excess_length.  Constraints are enforced by a
quadratic penalty with an increasing weight schedule followed by a
Gauss-Newton projection onto the constraint set.  Each penalty stage is a
damped Gauss-Newton descent that evaluates only the objective at Armijo
trial points and ends once a trial step's predicted decrease is roundoff.

The solver is deterministic: no randomness, fixed iteration budgets, and
an internal rescaling to unit span so that geometrically similar problems
produce identical iterates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.interpolate import PchipInterpolator
from scipy.linalg import cholesky_banded
from scipy.linalg.lapack import dpbtrs


# a predicted decrease below this fraction of |f| is roundoff in f
_ROUNDOFF = 16.0 * np.finfo(float).eps


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


@dataclass(frozen=True)
class ElasticaSettings:
    """Solver knobs.  Defaults satisfy the resolution contract of at least
    50 nodes per inter-pixel span."""

    nodes_per_span: int = 64
    tol: float = 1e-6                  # worst violation, relative to span
    max_iter: int = 60                 # Gauss-Newton steps per penalty stage
    penalty_stages: Tuple[float, ...] = (1e3, 1e5, 1e7)
    max_segments: int = 2400
    projection_steps: int = 6

    def __post_init__(self):
        if self.nodes_per_span < 50:
            raise ValueError("nodes_per_span must be at least 50")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


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
        """Height at horizontal position x (arc-length-to-x interpolation of
        the node polyline).  Outside the span the end heights are held."""
        return np.interp(np.asarray(x, dtype=float),
                         self.nodes[:, 0], self.nodes[:, 1])


# ----------------------------------------------------------------------
# internals (all in span-normalised units: first constraint at the origin,
# span scaled to 1)
# ----------------------------------------------------------------------

def _residual_vector(theta, m, h, xs_c, ys_c, x_end, y_end):
    """Constraint residuals, and a function that builds their Jacobian wrt
    the free angles (so that callers needing only r skip it).

    Rows: far-end x gap, far-end y gap, then one vertical-intercept gap per
    interior constraint.  If the polyline transiently folds (x not strictly
    increasing) the vertical intercept is undefined, so those rows pin the
    arc station closest to the constraint instead (an x and a y row each).
    """
    c = np.cos(theta)
    s = np.sin(theta)
    x = np.empty(m + 1)
    y = np.empty(m + 1)
    x[0] = 0.0
    y[0] = 0.0
    np.cumsum(h * c, out=x[1:])
    np.cumsum(h * s, out=y[1:])
    # 0 = x[0] < xs_c < 1 <= m h, so every j below is a valid node index
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
        # pin row k depends on the free angles before its station j[k]
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


def _gn_stage(theta_free, m, h, xs_c, ys_c, x_end, y_end, weight, chol,
              max_steps):
    """Minimise bend + (weight/2)|r|^2 by damped Gauss-Newton.

    The Hessian is approximated by H_bend + weight*J^T J; steps solve
    (H + w J^T J) d = -g through the banded Cholesky factor of H_bend and
    the Woodbury identity, so each step costs O(m * n_constraints).
    Armijo backtracking keeps the objective non-increasing.  Trial points
    evaluate only f; the gradient and Jacobian are built at accepted points
    alone.  The stage ends once a trial step's predicted decrease
    -alpha g.d is roundoff in f (at most _ROUNDOFF |f|): there the Armijo
    test compares rounding noise, and further halvings only spend
    evaluations (Nocedal & Wright, Numerical Optimization, 2nd ed., 3.1).
    """

    def evaluate(tf):
        """f at tf, and a function that builds (g, J) there."""
        th = np.zeros(m)
        th[1:m - 1] = tf
        dth = th[1:] - th[:-1]
        r, jacobian = _residual_vector(th, m, h, xs_c, ys_c, x_end, y_end)

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
        # Woodbury: (H + w J^T J)^{-1} g, one banded solve for [g | J^T],
        # passed in the Fortran order that LAPACK solves in place
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
        # Armijo backtracking on the penalised objective
        alpha = 1.0
        for _bt in range(30):
            if -alpha * slope <= _ROUNDOFF * abs(f):
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


def _initial_angles(con, m, total_len, initial):
    """Segment angles for the starting iterate: resample the hint curve (or
    a monotone interpolant through the constraints) by arc length, then make
    up any length deficit with per-gap arch modes.

    The slack is split between the inter-constraint gaps in proportion to
    their width and absorbed by a raised-cosine arch per gap, signs
    alternating, so the seeded curve already satisfies the pins.  A single
    full-span arch would cross the interior pins and, for small slack,
    leave the optimiser at the flat saddle where the end-shortening
    Jacobian vanishes.
    """
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


def _project(theta, m, h, xs_c, ys_c, x_end, y_end, steps):
    """Gauss-Newton projection onto the constraint set (minimum-norm
    steps).  Returns the projected angles and the final max |residual|."""
    theta = theta.copy()
    for _ in range(steps):
        r, jacobian = _residual_vector(theta, m, h, xs_c, ys_c, x_end, y_end)
        if np.max(np.abs(r)) < 1e-13:
            break
        jac = jacobian()
        jjt = jac @ jac.T
        jjt.flat[::len(r) + 1] += 1e-12 * max(np.trace(jjt), 1e-30)
        lam = np.linalg.solve(jjt, r)
        theta[1:m - 1] -= jac.T @ lam
    r, _ = _residual_vector(theta, m, h, xs_c, ys_c, x_end, y_end)
    return theta, float(np.max(np.abs(r)))


def _point_polyline_distance(points, nodes) -> np.ndarray:
    """Distance from each point to the polyline (min over segments)."""
    a = nodes[:-1]
    ab = nodes[1:] - a
    denom = np.maximum(np.einsum("ij,ij->i", ab, ab), 1e-300)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        t = np.clip(np.einsum("ij,ij->i", p - a, ab) / denom, 0.0, 1.0)
        proj = a + t[:, None] * ab
        out[i] = np.min(np.hypot(p[0] - proj[:, 0], p[1] - proj[:, 1]))
    return out


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
    if np.any(np.diff(con[:, 0]) <= 0.0):
        raise ValueError("constraints must be sorted by strictly increasing x")
    if not np.isfinite(excess_length) or excess_length < 0.0:
        raise ValueError("excess_length must be finite and >= 0")

    origin = con[0].copy()
    scale = con[-1, 0] - con[0, 0]
    conn = (con - origin) / scale
    exn = excess_length / scale
    total = 1.0 + exn
    chords = float(np.sum(np.hypot(np.diff(conn[:, 0]), np.diff(conn[:, 1]))))
    flat = bool(np.all(np.abs(conn[:, 1]) <= 1e-14))
    if total < chords * (1.0 - 1e-12) or (not flat and total <= chords):
        raise InfeasibleExcessError("infeasible excess")
    return conn, origin, scale, exn, flat


def solve_elastica_1d(constraints: Sequence[Tuple[float, float]],
                      excess_length: float,
                      settings: Optional[ElasticaSettings] = None,
                      initial: Optional[Tuple[np.ndarray, np.ndarray]] = None,
                      ) -> ElasticaSolution:
    """Minimum-bending-energy inextensible curve through the constraints.

    constraints    -- (x, y) pixel points sorted by x, at least two; the
                      first and last are the beam ends (clamped horizontal)
    excess_length  -- arc length beyond the end-to-end span (mm, >= 0)
    initial        -- optional (x, y) arrays of a hint curve; used to seed
                      the iterate (the rendering path seeds with the target
                      shape so the solver starts on the physical branch)

    Raises InfeasibleExcessError("infeasible excess") when the arc budget
    cannot reach the constraint heights, and ElasticaConvergenceError (with
    the best iterate attached) when tolerance is not met.
    """
    settings = settings or ElasticaSettings()
    conn, origin, scale, exn, flat = normalize_beam(constraints, excess_length)
    total = 1.0 + exn

    n_span = conn.shape[0] - 1
    m = min(settings.nodes_per_span * n_span, settings.max_segments)
    m = max(m, 2 * settings.nodes_per_span)
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

    xs_c, ys_c = conn[1:-1, 0], conn[1:-1, 1]
    x_end, y_end = conn[-1]

    stage_objectives: List[List[float]] = []
    n_iter = 0
    theta_free = theta[1:m - 1].copy()
    # bending Hessian (2/h)*tridiag(-1, 2, -1) on the free angles, factored
    # once per solve and reused by every Gauss-Newton step
    ab = np.zeros((2, m - 2))
    ab[0, 1:] = -2.0 / h
    ab[1, :] = 4.0 / h
    chol = cholesky_banded(ab, lower=False)
    for weight in settings.penalty_stages:
        theta_free, trace = _gn_stage(theta_free, m, h, xs_c, ys_c,
                                      x_end, y_end, weight, chol,
                                      settings.max_iter)
        n_iter += max(len(trace) - 1, 0)
        stage_objectives.append(trace)

    theta = np.zeros(m)
    theta[1:m - 1] = theta_free
    theta, worst = _project(theta, m, h, xs_c, ys_c, x_end, y_end,
                            settings.projection_steps)

    if worst > settings.tol:
        # The penalty cascade cannot resolve excesses far below the scale
        # set by the stage weights (the flat state then wins every stage
        # and is a saddle of the end-shortening constraint).  The pchip
        # plus per-gap arch seed is already near-feasible there, so a
        # plain projection from it recovers the constraint set.
        theta_fb = _initial_angles(conn, m, total, None)
        theta_fb, worst_fb = _project(theta_fb, m, h, xs_c, ys_c,
                                      x_end, y_end,
                                      2 * settings.projection_steps)
        if worst_fb < worst:
            theta, worst = theta_fb, worst_fb

    x = np.concatenate([[0.0], np.cumsum(h * np.cos(theta))])
    y = np.concatenate([[0.0], np.cumsum(h * np.sin(theta))])
    nodes_n = np.column_stack([x, y])

    dth = np.diff(theta)
    energy_n = float(dth @ dth) / h

    worst = float(np.hypot(x[-1] - x_end, y[-1] - y_end))
    if len(xs_c):
        worst = max(float(np.max(_point_polyline_distance(conn[1:-1], nodes_n))),
                    worst)

    nodes = nodes_n * scale + origin
    sol = ElasticaSolution(nodes, h * scale, energy_n / scale, excess_length,
                           worst * scale, stage_objectives, n_iter)
    if worst > settings.tol:
        raise ElasticaConvergenceError("elastica did not converge", sol)
    return sol
