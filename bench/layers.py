"""The package's layers as the traced run sees them, and the per-layer
metrics computed from their spans.

Counts (calls, points, iterations, failures, no-peak results, residuals)
come from the first traced round, whose inputs depend on the seed alone,
so they repeat exactly for a seed.  Times are medians over every traced
round of the per-round totals; call latencies pool every traced call.
"""
from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from crslab import cli, control, distortion, fields, reconstruct
from crslab.distortion import NoPeakError

from spans import (Recorder, Span, median_or_zero, nearest_rank, outermost,
                   self_times)

# constraint counts that occur: 3..5 pins on the 19-pixel hexagonal beams,
# 9, 11, 14, 21 and 41 on the line lattices of the 1D sweep
PIN_BUCKETS = (3, 4, 5, 9, 11, 14, 21, 41)


def _n_points(arg) -> int:
    shape = np.shape(arg)
    return int(shape[0]) if shape else 1


def _solve_info(args, result, error):
    sol = result if result is not None else getattr(error, "solution", None)
    return (len(args[0]),
            sol.n_iterations if sol is not None else 0,
            float(sol.residual) if sol is not None else 0.0,
            error is not None)


def _surface_points(args, result, error):
    point = args[1:]
    if len(point) == 2:
        return int(np.broadcast(np.asarray(point[0]),
                                np.asarray(point[1])).size)
    return int(np.atleast_2d(np.asarray(point[0])).shape[0])


def recorder() -> Recorder:
    """A recorder with every layer boundary the workloads cross."""
    rec = Recorder()
    rec.add("fields.nearest_index", fields.Lattice, "nearest_index",
            lambda a, r, e: _n_points(a[1]))
    rec.add("fields.contains", fields.Lattice, "contains")
    rec.add("fields.arc_excess", fields.BumpField1D, "arc_excess")
    rec.add("fields.arc_excess", fields.LineRestriction, "arc_excess")
    rec.add("rng.uniform_block", distortion, "uniform_block")
    rec.add("elastica.solve", reconstruct, "solve_elastica_1d", _solve_info)
    rec.add("reconstruct.build", reconstruct.CrsProfile1D, "__init__")
    rec.add("reconstruct.build", reconstruct.CrsSurface2D, "__init__")
    rec.add("reconstruct.build", reconstruct.CrsSurface2D, "from_state")
    rec.add("reconstruct.eval", reconstruct.CrsSurface2D, "__call__",
            _surface_points)
    rec.add("reconstruct.eval", reconstruct.CrsProfile1D, "__call__",
            lambda a, r, e: int(np.size(a[1])))
    rec.add("reconstruct.eval", reconstruct.CrsProfile1D, "extended",
            lambda a, r, e: int(np.size(a[1])))
    rec.add("distortion.find_peak", distortion, "find_peak",
            lambda a, r, e: isinstance(e, NoPeakError))
    rec.add("distortion.find_peak", control, "find_peak",
            lambda a, r, e: isinstance(e, NoPeakError))
    rec.add("distortion.shape", distortion, "shape_distortion")
    rec.add("distortion.position", distortion, "position_distortion")
    rec.add("control.step_servos", control, "step_servos")
    rec.add("control.compression_plan", control, "compression_plan")
    rec.add("control.run_session", cli, "run_session")
    rec.add("cli.main", cli, "main")
    return rec


# layer -> metrics: "calls" and "points" count the first round's spans,
# "s" is inclusive and "self_s" exclusive seconds per round (median)
_TABLE = (
    ("fields.nearest_index", ("calls", "points", "s")),
    ("fields.contains", ("s",)),
    ("fields.arc_excess", ("calls", "s")),
    ("rng.uniform_block", ("s",)),
    ("elastica.solve", ("calls", "s")),
    ("reconstruct.build", ("calls", "self_s")),
    ("reconstruct.eval", ("calls", "points", "s")),
    ("distortion.find_peak", ("calls", "self_s")),
    ("distortion.shape", ("self_s",)),
    ("distortion.position", ("self_s",)),
    ("control.step_servos", ("calls", "s")),
    ("control.compression_plan", ("s",)),
    ("control.run_session", ("self_s",)),
    ("cli.main", ("self_s",)),
)


def layer_metrics(spans: Sequence[Span], n_rounds: int) -> Dict[str, float]:
    """Per-layer metrics from the spans of n_rounds traced rounds."""
    selfs = self_times(spans)
    incl = {}          # (layer, round) -> inclusive seconds
    excl = {}          # (layer, round) -> self seconds
    first: Dict[str, List[Span]] = {}
    for s in spans:
        key = (s.layer, s.round)
        if outermost(s):
            incl[key] = incl.get(key, 0.0) + s.duration
        excl[key] = excl.get(key, 0.0) + selfs[id(s)]
        if s.round == 0:
            first.setdefault(s.layer, []).append(s)

    def per_round(table, layer):
        return median_or_zero([table.get((layer, r), 0.0)
                               for r in range(n_rounds)])

    out: Dict[str, float] = {}
    for layer, kinds in _TABLE:
        for kind in kinds:
            name = f"{layer}.{kind}"
            if kind == "calls":
                out[name] = len(first.get(layer, []))
            elif kind == "points":
                out[name] = sum(s.info for s in first.get(layer, []))
            elif kind == "s":
                out[name] = per_round(incl, layer)
            else:
                out[name] = per_round(excl, layer)

    solves = [s for s in spans if s.layer == "elastica.solve"]
    ms = [1e3 * s.duration for s in solves]
    out["elastica.solve.ms_p50"] = nearest_rank(ms, 0.5)
    out["elastica.solve.ms_p99"] = nearest_rank(ms, 0.99)
    for k in PIN_BUCKETS:
        out[f"elastica.solve.ms_p50.pins-{k}"] = nearest_rank(
            [1e3 * s.duration for s in solves if s.info[0] == k], 0.5)
    solves0 = first.get("elastica.solve", [])
    out["elastica.solve.iters"] = sum(s.info[1] for s in solves0)
    out["elastica.solve.failed"] = sum(1 for s in solves0 if s.info[3])
    out["elastica.solve.residual_max"] = max(
        (s.info[2] for s in solves0), default=0.0)

    peaks0 = first.get("distortion.find_peak", [])
    out["distortion.find_peak.no_peak"] = sum(1 for s in peaks0 if s.info)
    evals = sum(1 for s in first.get("reconstruct.eval", [])
                if s.parent is not None
                and s.parent.layer == "distortion.find_peak")
    out["distortion.find_peak.evals_per_call"] = \
        evals / len(peaks0) if peaks0 else 0.0
    return out


UNITS = {"calls": "count", "points": "count", "s": "s", "self_s": "s",
         "ms_p50": "ms", "ms_p99": "ms", "iters": "count", "failed": "count",
         "residual_max": "mm", "no_peak": "count",
         "evals_per_call": "evals/call", "overhead_s": "s"}


def unit_of(name: str) -> str:
    parts = name.split(".")
    last = parts[-1]
    if last.startswith("pins-"):
        last = parts[-2]
    return UNITS[last]
