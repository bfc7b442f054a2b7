"""Span recorder for the traced benchmark run.

Wrappers are installed at the binding each caller actually resolves: the
package modules import one another with ``from .x import y``, so a call
from ``crslab.reconstruct`` to the solver goes through
``crslab.reconstruct.solve_elastica_1d``, not ``crslab.elastica``.  Methods
are wrapped on their classes, which every caller resolves.

Spans are kept in memory while the benchmark runs; self times and per-layer
metrics are computed at the end.
"""
from __future__ import annotations

import math
import statistics
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence


class Span:
    """One call into a layer: its name, the span that caused it, start and
    end on the perf_counter clock, the round it belongs to, and an optional
    layer-specific record filled from the call's arguments and result."""

    __slots__ = ("layer", "parent", "round", "start", "end", "info")

    def __init__(self, layer: str, parent: Optional["Span"], round_: int,
                 start: float = 0.0, end: float = 0.0, info=None):
        self.layer = layer
        self.parent = parent
        self.round = round_
        self.start = start
        self.end = end
        self.info = info

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time per span (keyed by id(span)): its duration minus the part
    of its interval that its direct child spans cover.  Calls are
    synchronous and single-threaded, so children never overlap and the
    covered part is the sum of their durations."""
    covered: Dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            covered[id(s.parent)] = covered.get(id(s.parent), 0.0) + s.duration
    return {id(s): s.duration - covered.get(id(s), 0.0) for s in spans}


def outermost(span: Span) -> bool:
    """False when an enclosing span belongs to the same layer, so that a
    layer's inclusive time counts nested calls once."""
    p = span.parent
    while p is not None:
        if p.layer == span.layer:
            return False
        p = p.parent
    return True


class Recorder:
    """Installs timing wrappers, records spans, and removes the wrappers."""

    def __init__(self):
        self.spans: List[Span] = []
        self.round = 0
        self._stack: List[Span] = []
        self._patches: list = []
        self._saved: list = []

    def add(self, layer: str, owner, attr: str,
            info: Optional[Callable] = None) -> None:
        """Register owner.attr (a module function, method or classmethod)
        to be timed as `layer`.  info(args, result, error) returns the
        span's record."""
        self._patches.append((layer, owner, attr, info))

    def install(self) -> None:
        for layer, owner, attr, info in self._patches:
            raw = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                setattr(owner, attr,
                        classmethod(self._wrap(layer, raw.__func__, info)))
            else:
                setattr(owner, attr, self._wrap(layer, raw, info))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, layer: str, fn: Callable, info: Optional[Callable]):
        stack, spans = self._stack, self.spans

        def timed(*args, **kwargs):
            span = Span(layer, stack[-1] if stack else None, self.round)
            stack.append(span)
            result = error = None
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                error = err
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                if info is not None:
                    span.info = info(args, result, error)
                spans.append(span)

        timed.__wrapped__ = fn
        timed.__name__ = getattr(fn, "__name__", layer)
        timed.__doc__ = getattr(fn, "__doc__", None)
        return timed

    def write_csv(self, path: str) -> None:
        """Write every span as id,parent,layer,round,start_s,end_s, with
        times relative to the first span's start."""
        order = sorted(self.spans, key=lambda s: s.start)
        ids = {id(s): i for i, s in enumerate(order)}
        t0 = order[0].start if order else 0.0
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("id,parent,layer,round,start_s,end_s\n")
            for i, s in enumerate(order):
                parent = "" if s.parent is None else ids[id(s.parent)]
                fh.write(f"{i},{parent},{s.layer},{s.round},"
                         f"{s.start - t0:.9f},{s.end - t0:.9f}\n")


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The q-quantile by the nearest-rank rule; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def median_or_zero(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0
