"""Control pipeline simulation: fingertip pose to servo motion.

Reproduces the rendering loop of the 2D device: each fingertip sample is
turned into a raised-cosine target surface, the target is converted into
per-pixel height commands and per-beam boundary compressions, and the slew
limited servos integrate toward those commands.  Latency is modeled as a
fixed processing delay per frame plus the measured actuation time for the
displayed peak to settle near the commanded one.

The module also owns the plain-text wire formats: fingertip traces read as
``t_ms,x_f_mm,y_f_mm,z_f_mm`` lines and command logs written as
``t_ms,channel,commanded_mm,actual_mm`` lines, both with a mandatory
header, UTF-8 and LF line endings.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .distortion import NoPeakError, find_peak
from .elastica import ElasticaError
from .fields import BeamLine, BumpField2D, Lattice
from .reconstruct import CrsSurface2D

_TRACE_HEADER = "t_ms,x_f_mm,y_f_mm,z_f_mm"
_LOG_HEADER = "t_ms,channel,commanded_mm,actual_mm"
_WAVELENGTH = 90.0          # rendered bump diameter in mm
_DEVICE_DELAY_MS = 75.0     # processing budget of a device-side frame
_VR_DELAY_MS = 160.0        # processing budget of a VR-originated frame
_SETTLE_MARGIN_MS = 250.0   # simulated time past the last full stroke


# ======================================================================
# specifications and records
# ======================================================================

@dataclass(frozen=True)
class ServoSpec:
    """Linear servo limits.

    travel         -- stroke in mm
    speed_s_per_cm -- inverse speed (seconds of motion per cm of stroke);
                      the default 0.08 s/cm is 125 mm/s, which covers the
                      full 9 mm stroke in 72 ms
    """

    travel: float = 9.0
    speed_s_per_cm: float = 0.08

    def __post_init__(self):
        if self.travel <= 0.0 or self.speed_s_per_cm <= 0.0:
            raise ValueError("travel and speed must be positive")

    @property
    def rate_mm_per_ms(self) -> float:
        return 10.0 / self.speed_s_per_cm / 1000.0

    @property
    def full_travel_ms(self) -> float:
        return self.travel / self.rate_mm_per_ms


@dataclass(frozen=True)
class FingertipSample:
    """One tracked fingertip pose: time in ms, position in mm relative to
    the display centre, press depth z_f in mm (>= 0)."""

    t_ms: float
    x_f: float
    y_f: float
    z_f: float

    def __post_init__(self):
        if not all(np.isfinite(v) for v in (self.t_ms, self.x_f, self.y_f,
                                            self.z_f)):
            raise ValueError("fingertip sample must be finite")
        if self.z_f < 0.0:
            raise ValueError("press depth must be >= 0")


@dataclass(frozen=True)
class CompressionPlan:
    """Per-beam arc-length excess split into two end compressions.

    Arrays are aligned with lattice.beam_lines() order; ends[:, 0] is the
    compression at the beam start (station 0 side).
    """

    beam_names: Tuple[str, ...]
    excess: np.ndarray
    ends: np.ndarray

    def __post_init__(self):
        if np.any(self.excess < 0.0) or np.any(self.ends < 0.0):
            raise ValueError("compressions must be >= 0")
        if not np.allclose(self.ends.sum(axis=1), self.excess,
                           rtol=1e-9, atol=1e-12):
            raise ValueError("end compressions must sum to the excess")


@dataclass
class ClampEvent:
    """A pixel command that exceeded servo limits and was clamped."""

    channel: int
    requested: float
    commanded: float


@dataclass
class FrameLog:
    """Per input frame bookkeeping.

    actuation_ms is the time from the frame's activation to the first peak
    probe (one every probe_every_ms) whose displayed peak lies within
    pitch/4 of the commanded position; the peak's height is not checked.
    It stays None without peak tracking, for a skipped frame or a release
    (zero depth), and when no probe gets there before the next frame
    activates.
    """

    sample: FingertipSample
    t_active_ms: float
    skipped: bool = False
    violation: Optional[str] = None
    clamps: List[ClampEvent] = field(default_factory=list)
    actuation_ms: Optional[float] = None
    processing_ms: float = 0.0
    peak_location: Optional[np.ndarray] = None

    @property
    def total_latency_ms(self) -> Optional[float]:
        if self.actuation_ms is None:
            return None
        return self.processing_ms + self.actuation_ms


@dataclass
class SessionLog:
    """Full record of one simulated session."""

    frames: List[FrameLog]
    command_rows: List[Tuple[float, str, float, float]]
    violations: List[str]
    channel_names: List[str]
    final_state: Optional[np.ndarray] = None

    @property
    def mean_actuation_ms(self) -> float:
        lags = [f.actuation_ms for f in self.frames if f.actuation_ms is not None]
        return float(np.mean(lags)) if lags else float("nan")


# ======================================================================
# rendering and planning
# ======================================================================

def render_target(sample: FingertipSample) -> BumpField2D:
    """Target surface for a fingertip pose: a raised-cosine bump of height
    z_f and fixed 90 mm wavelength centred under the finger.  Zero press
    depth renders a flat (released) display."""
    return BumpField2D((sample.x_f, sample.y_f), sample.z_f, _WAVELENGTH)


def compression_plan(fld: BumpField2D, beams: Sequence[BeamLine],
                     servo: ServoSpec) -> CompressionPlan:
    """Boundary compressions that give every beam the target's arc length.

    Each beam needs excess equal to the arc length of the target restricted
    to its line minus its span (adaptive quadrature).  The excess is split
    between the two ends proportionally to the excess accumulated on each
    half of the beam, so a bump near one end is fed mostly from that end.
    Raises when any single end exceeds the servo travel, listing every
    offending beam.
    """
    names = []
    excess = np.zeros(len(beams))
    ends = np.zeros((len(beams), 2))
    bad: List[str] = []
    for i, beam in enumerate(beams):
        names.append(beam.name)
        restr = fld.along_line(beam.origin, beam.direction)
        total = restr.arc_excess(0.0, beam.span)
        if total <= 0.0:
            continue
        first_half = restr.arc_excess(0.0, 0.5 * beam.span)
        excess[i] = total
        ends[i, 0] = first_half
        ends[i, 1] = total - first_half
        if ends[i, 0] > servo.travel or ends[i, 1] > servo.travel:
            bad.append(beam.name)
    if bad:
        raise ValueError("compression exceeds servo travel for beams: "
                         + ", ".join(bad))
    return CompressionPlan(tuple(names), excess, ends)


def pixel_commands(fld: BumpField2D, lattice: Lattice, servo: ServoSpec,
                   ) -> Tuple[np.ndarray, List[ClampEvent]]:
    """Per-pixel height commands: the field sampled at the pixels, clamped
    to the servo stroke.  Returns the commands and the clamp events."""
    if lattice.ndim == 1:
        raise ValueError("pixel commands need a 2D lattice")
    raw = fld(lattice.positions[:, 0], lattice.positions[:, 1])
    cmds = np.clip(raw, 0.0, servo.travel)
    clamps = [ClampEvent(int(i), float(raw[i]), float(cmds[i]))
              for i in np.flatnonzero(np.abs(raw - cmds) > 0.0)]
    return cmds, clamps


def step_servos(state: np.ndarray, commands: np.ndarray, dt_ms: float,
                spec: ServoSpec) -> np.ndarray:
    """Advance every channel one step toward its command.

    Motion per step is limited to rate * dt and positions stay inside
    [0, travel].  With the default 125 mm/s rate and 1 ms steps each move
    is at most 0.125 mm, so a full 0 to 9 mm stroke takes exactly 72 steps.
    """
    if dt_ms <= 0.0:
        raise ValueError("dt must be positive")
    state = np.asarray(state, dtype=float)
    commands = np.asarray(commands, dtype=float)
    max_move = spec.rate_mm_per_ms * dt_ms
    delta = np.clip(commands - state, -max_move, max_move)
    return np.clip(state + delta, 0.0, spec.travel)


# ======================================================================
# session simulation
# ======================================================================

@dataclass(frozen=True)
class SessionConfig:
    """Knobs of a simulated session.

    vr_originated switches the processing delay from the 75 ms device
    budget to the 160 ms full pipeline budget.  The session runs until
    250 ms after the last sample's delay and a full servo stroke have
    elapsed.  Peak probes rebuild the displayed surface from the actual
    servo state every probe_every_ms and report, per frame, the time until
    the displayed peak comes within pitch/4 of the command.
    """

    lattice: Lattice
    servo: ServoSpec = ServoSpec()
    dt_ms: float = 1.0
    vr_originated: bool = False
    track_peaks: bool = True
    probe_every_ms: float = 6.0
    log_every_ms: float = 5.0

    @property
    def processing_delay_ms(self) -> float:
        return _VR_DELAY_MS if self.vr_originated else _DEVICE_DELAY_MS


def run_session(trace: Sequence[FingertipSample],
                config: SessionConfig) -> SessionLog:
    """Simulate the full pipeline over a fingertip trace.

    Every sample is activated after the configured processing delay; the
    activated target is rendered, planned and commanded, and all servo
    channels (pixels first, then the two compression ends of every beam)
    integrate under the slew limit.  Frames whose compression plan is
    infeasible are logged as violations and skipped, leaving the previous
    commands in place.  The log carries the commanded versus actual time
    series and the per-frame latency ledger.

    Each peak probe builds the displayed surface with the last surface it
    built as ``previous`` (CrsSurface2D.from_state): a beam whose pins and
    excess have not changed since then, and whose solve there converged,
    keeps its solution; every other beam is solved warm from its previous
    nodes.
    """
    lat = config.lattice
    if lat.ndim != 2:
        raise ValueError("sessions need a 2D lattice")
    times = [s.t_ms for s in trace]
    if any(t1 < t0 for t0, t1 in zip(times, times[1:])):
        raise ValueError("trace not time-sorted")

    beams = lat.beam_lines()
    channel_names = [f"p{i:02d}" for i in range(lat.n_pixels)]
    for b in beams:
        channel_names.extend([f"c:{b.name}:a", f"c:{b.name}:b"])
    n_ch = len(channel_names)

    log = SessionLog([], [], [], channel_names)
    if not trace:
        return log

    delay = config.processing_delay_ms
    dt = config.dt_ms
    t_end = times[-1] + delay + config.servo.full_travel_ms \
        + _SETTLE_MARGIN_MS
    state = np.zeros(n_ch)
    commands = np.zeros(n_ch)

    pending = deque(trace)
    active: Optional[FrameLog] = None
    previous: Optional[CrsSurface2D] = None
    next_probe = 0.0
    next_log = 0.0
    d_quarter = 0.25 * lat.pitch

    t = 0.0
    step = 0
    n_steps = int(math.ceil(t_end / dt)) + 1
    for step in range(n_steps):
        t = step * dt
        # activate every sample whose delay has elapsed
        while pending and pending[0].t_ms + delay <= t:
            sample = pending.popleft()
            frame = FrameLog(sample, t, processing_ms=delay)
            fld = render_target(sample)
            try:
                plan = compression_plan(fld, beams, config.servo)
            except ValueError as err:
                frame.skipped = True
                frame.violation = str(err)
                log.violations.append(f"t={t:g} ms: {err}")
                log.frames.append(frame)
                continue
            cmds, clamps = pixel_commands(fld, lat, config.servo)
            frame.clamps = clamps
            commands = np.concatenate([cmds, plan.ends.ravel()])
            active = frame if sample.z_f > 0.0 else None
            log.frames.append(frame)
            next_probe = t

        state = step_servos(state, commands, dt, config.servo)

        if t >= next_log:
            for ch in range(n_ch):
                log.command_rows.append((t, channel_names[ch],
                                         float(commands[ch]), float(state[ch])))
            next_log = t + config.log_every_ms

        if (config.track_peaks and active is not None
                and active.actuation_ms is None and t >= next_probe):
            next_probe = t + config.probe_every_ms
            heights = state[:lat.n_pixels]
            comp = state[lat.n_pixels:].reshape(-1, 2).sum(axis=1)
            target = render_target(active.sample)
            try:
                surf = CrsSurface2D.from_state(
                    lat, heights, comp, hint_field=target, previous=previous,
                    strict=False)
            except ElasticaError:
                continue
            previous = surf
            try:
                res = find_peak(surf)
            except NoPeakError:
                continue
            goal = np.array([active.sample.x_f, active.sample.y_f])
            if np.linalg.norm(res.location - goal) <= d_quarter:
                active.actuation_ms = t - active.t_active_ms
                active.peak_location = np.asarray(res.location)
                active = None

    log.final_state = state
    return log


# ======================================================================
# wire formats
# ======================================================================

def read_trace(path: str) -> List[FingertipSample]:
    """Parse a fingertip trace file.  The first line must be the exact
    header; every following non-empty line is four comma-separated floats.
    Malformed lines raise with their line number."""
    samples: List[FingertipSample] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if not lines or lines[0].strip() != _TRACE_HEADER:
        raise ValueError(f"line 1: expected header {_TRACE_HEADER!r}")
    for ln, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise ValueError(f"line {ln}: expected 4 fields, got {len(parts)}")
        try:
            vals = [float(p) for p in parts]
        except ValueError:
            raise ValueError(f"line {ln}: non-numeric field") from None
        try:
            samples.append(FingertipSample(*vals))
        except ValueError as err:
            raise ValueError(f"line {ln}: {err}") from None
    return samples


def write_trace(path: str, samples: Sequence[FingertipSample]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_TRACE_HEADER + "\n")
        for s in samples:
            fh.write(",".join(format(v, ".12g")
                              for v in (s.t_ms, s.x_f, s.y_f, s.z_f)) + "\n")


def format_command_rows(rows: Sequence[Tuple[float, str, float, float]]
                        ) -> str:
    """The CSV lines of (t_ms, channel, commanded_mm, actual_mm) rows, each
    ending in LF, with every number in the .12g format."""
    return "".join(map("%.12g,%s,%.12g,%.12g\n".__mod__, rows))


def write_command_log(path: str, log: SessionLog) -> None:
    """Write the commanded-versus-actual time series of a session."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_LOG_HEADER + "\n" + format_command_rows(log.command_rows))
