"""Servo control and session replay: timing envelopes, compression
planning, slew enforcement, trace I/O and the latency ledger."""
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from crslab.cli import _fmt
from crslab.control import (
    CompressionPlan,
    FingertipSample,
    ServoSpec,
    SessionConfig,
    compression_plan,
    format_command_rows,
    pixel_commands,
    read_trace,
    render_target,
    run_session,
    step_servos,
    write_command_log,
    write_trace,
)
from crslab.fields import BumpField2D, make_lattice


# ======================================================================
# servo primitives
# ======================================================================

def test_servo_rate_constants_are_exact():
    servo = ServoSpec()
    assert servo.rate_mm_per_ms == 0.125
    assert servo.full_travel_ms == 72.0
    with pytest.raises(ValueError):
        ServoSpec(travel=0.0)
    with pytest.raises(ValueError):
        ServoSpec(speed_s_per_cm=-1.0)


def test_full_stroke_takes_exactly_72_steps():
    servo = ServoSpec()
    state = np.zeros(1)
    cmd = np.full(1, 9.0)
    steps = 0
    while state[0] < 9.0:
        state = step_servos(state, cmd, 1.0, servo)
        steps += 1
        assert steps <= 100
    assert steps == 72
    assert state[0] == 9.0


def test_step_servos_slew_fuzz():
    # ten simulated seconds of random commands: the per-step move never
    # exceeds rate * dt and positions stay inside the stroke
    servo = ServoSpec()
    rng = np.random.default_rng(1101)
    state = np.zeros(8)
    bound = servo.rate_mm_per_ms * 1.0
    for _ in range(10000):
        cmd = rng.uniform(-2.0, 11.0, size=8)
        nxt = step_servos(state, cmd, 1.0, servo)
        assert np.all(np.abs(nxt - state) <= bound + 1e-12)
        assert np.all((nxt >= 0.0) & (nxt <= servo.travel))
        state = nxt


def test_step_servos_rejects_bad_dt():
    with pytest.raises(ValueError):
        step_servos(np.zeros(2), np.zeros(2), 0.0, ServoSpec())


# ======================================================================
# rendering and planning
# ======================================================================

def test_render_target_geometry():
    fld = render_target(FingertipSample(0.0, 3.0, -2.0, 1.5))
    assert fld.peak == (3.0, -2.0)
    assert fld.amplitude == 1.5
    assert fld.wavelength == 90.0
    flat = render_target(FingertipSample(0.0, 0.0, 0.0, 0.0))
    assert flat.amplitude == 0.0


def test_fingertip_sample_validation():
    with pytest.raises(ValueError):
        FingertipSample(0.0, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        FingertipSample(math.nan, 0.0, 0.0, 0.0)


def test_compression_plan_symmetric_bump():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    beams = lat.beam_lines()
    # bump centred on the lattice: the central beam of each family sees a
    # symmetric restriction, so its two end feeds match
    fld = BumpField2D((0.0, 0.0), 2.0, 90.0)
    plan = compression_plan(fld, beams, ServoSpec())
    assert plan.ends.shape == (len(beams), 2)
    assert np.allclose(plan.ends.sum(axis=1), plan.excess, atol=1e-12)
    for i, beam in enumerate(beams):
        restr = fld.along_line(beam.origin, beam.direction)
        assert plan.excess[i] == pytest.approx(
            restr.arc_excess(0.0, beam.span), abs=1e-12)
        mid = 0.5 * beam.span
        if abs(restr.s_peak - mid) < 1e-9 and plan.excess[i] > 0.0:
            assert plan.ends[i, 0] == pytest.approx(plan.ends[i, 1], rel=1e-6)


def test_compression_plan_feeds_from_near_end():
    lat = make_lattice("square", 30.0, (120.0, 120.0))
    beams = lat.beam_lines()
    fld = BumpField2D((20.0, 0.0), 2.0, 90.0)    # near the start of row 0
    plan = compression_plan(fld, beams, ServoSpec())
    row0 = next(i for i, b in enumerate(beams)
                if abs(b.origin[1]) < 1e-9 and abs(b.direction[0]) > 0.5)
    assert plan.ends[row0, 0] > plan.ends[row0, 1]


def test_compression_plan_monotone_in_amplitude():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    beams = lat.beam_lines()
    small = compression_plan(BumpField2D((0.0, 0.0), 1.0, 90.0), beams,
                             ServoSpec())
    large = compression_plan(BumpField2D((0.0, 0.0), 2.0, 90.0), beams,
                             ServoSpec())
    active = small.excess > 1e-12
    assert np.all(large.excess[active] > small.excess[active])


def test_compression_plan_lists_every_offending_beam():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    beams = lat.beam_lines()
    fld = BumpField2D((0.0, 0.0), 60.0, 90.0)    # far beyond the stroke
    with pytest.raises(ValueError) as err:
        compression_plan(fld, beams, ServoSpec())
    msg = str(err.value)
    assert "compression exceeds servo travel" in msg
    # the central beams of all three families are over budget together
    assert msg.count("f0") >= 1 and msg.count("f1") >= 1 and msg.count("f2") >= 1


def test_compression_plan_validates_consistency():
    with pytest.raises(ValueError):
        CompressionPlan(("b",), np.array([1.0]), np.array([[0.2, 0.3]]))
    with pytest.raises(ValueError):
        CompressionPlan(("b",), np.array([1.0]), np.array([[1.2, -0.2]]))


def test_pixel_commands_clamp_to_stroke():
    lat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField2D((0.0, 0.0), 12.0, 90.0)
    cmds, clamps = pixel_commands(fld, lat, ServoSpec())
    assert cmds.max() == 9.0
    assert len(clamps) >= 1
    centre = int(np.argmin(np.linalg.norm(lat.positions, axis=1)))
    assert any(c.channel == centre and c.requested == pytest.approx(12.0)
               for c in clamps)
    inside = pixel_commands(BumpField2D((0.0, 0.0), 2.0, 90.0), lat,
                            ServoSpec())
    assert inside[1] == []


# ======================================================================
# trace I/O
# ======================================================================

def test_trace_round_trip(tmp_path):
    path = str(tmp_path / "trace.csv")
    samples = [FingertipSample(0.0, 1.0, -2.0, 0.5),
               FingertipSample(16.5, 1.25, -1.75, 0.75)]
    write_trace(path, samples)
    back = read_trace(path)
    assert back == samples


def test_trace_parse_errors_carry_line_numbers(tmp_path):
    path = str(tmp_path / "bad.csv")
    with open(path, "w") as fh:
        fh.write("t_ms,x_f_mm,y_f_mm,z_f_mm\n0,0,0,0\n1,2,3\n")
    with pytest.raises(ValueError, match="line 3"):
        read_trace(path)
    with open(path, "w") as fh:
        fh.write("t,x,y,z\n")
    with pytest.raises(ValueError, match="line 1"):
        read_trace(path)
    with open(path, "w") as fh:
        fh.write("t_ms,x_f_mm,y_f_mm,z_f_mm\n0,0,0,abc\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trace(path)
    with open(path, "w") as fh:
        fh.write("t_ms,x_f_mm,y_f_mm,z_f_mm\n0,0,0,-1\n")
    with pytest.raises(ValueError, match="line 2"):
        read_trace(path)


# ======================================================================
# session replay
# ======================================================================

def _session_config(track_peaks=True, **kw):
    lat = make_lattice("hexagonal", 30.0, 60.0)
    return SessionConfig(lattice=lat, track_peaks=track_peaks, **kw)


def test_session_channels_and_schema():
    cfg = _session_config(track_peaks=False)
    trace = [FingertipSample(0.0, 7.0, -4.0, 2.0)]
    log = run_session(trace, cfg)
    n_beams = len(cfg.lattice.beam_lines())
    assert len(log.channel_names) == cfg.lattice.n_pixels + 2 * n_beams
    assert log.channel_names[0] == "p00"
    assert any(name.endswith(":a") for name in log.channel_names)
    assert log.violations == []
    # command rows reference known channels only
    names = set(log.channel_names)
    assert all(row[1] in names for row in log.command_rows)


def test_session_latency_for_stationary_press():
    # a single press: processing delay plus at most the full-stroke time
    cfg = _session_config()
    log = run_session([FingertipSample(0.0, 7.0, -4.0, 2.0)], cfg)
    frame = log.frames[0]
    assert frame.processing_ms == 75.0
    assert frame.actuation_ms is not None
    assert frame.actuation_ms <= 72.0 + cfg.probe_every_ms
    assert frame.total_latency_ms == pytest.approx(
        75.0 + frame.actuation_ms)
    assert frame.peak_location is not None
    # the settled peak lands within a quarter pitch of the press point
    assert np.linalg.norm(frame.peak_location - np.array([7.0, -4.0])) \
        <= cfg.lattice.pitch / 4.0 + 1e-9


def test_session_vr_delay_budget():
    cfg = _session_config(track_peaks=False, vr_originated=True)
    log = run_session([FingertipSample(0.0, 0.0, 0.0, 1.0)], cfg)
    assert log.frames[0].processing_ms == 160.0


def test_session_infeasible_frame_is_skipped_not_fatal():
    cfg = _session_config(track_peaks=False)
    trace = [FingertipSample(0.0, 0.0, 0.0, 60.0),     # beyond any budget
             FingertipSample(40.0, 0.0, 0.0, 2.0)]     # feasible follow-up
    log = run_session(trace, cfg)
    assert log.frames[0].skipped
    assert log.frames[0].violation is not None
    assert len(log.violations) == 1
    assert not log.frames[1].skipped


def test_session_rejects_unsorted_trace():
    cfg = _session_config(track_peaks=False)
    trace = [FingertipSample(10.0, 0.0, 0.0, 1.0),
             FingertipSample(0.0, 0.0, 0.0, 1.0)]
    with pytest.raises(ValueError, match="not time-sorted"):
        run_session(trace, cfg)


def test_session_empty_trace_empty_log():
    log = run_session([], _session_config(track_peaks=False))
    assert log.frames == []
    assert log.command_rows == []
    assert log.violations == []


def test_session_determinism():
    trace = [FingertipSample(0.0, 7.0, -4.0, 2.0),
             FingertipSample(30.0, 10.0, 0.0, 1.0),
             FingertipSample(120.0, 12.0, 3.0, 2.5)]
    for track_peaks in (False, True):
        cfg = _session_config(track_peaks=track_peaks)
        a = run_session(trace, cfg)
        b = run_session(trace, cfg)
        assert a.command_rows == b.command_rows
        lags = [f.actuation_ms for f in a.frames]
        assert lags == [f.actuation_ms for f in b.frames]
        assert any(lag is not None for lag in lags) == track_peaks
        for fa, fb in zip(a.frames, b.frames):
            assert (fa.peak_location is None) == (fb.peak_location is None)
            if fa.peak_location is not None:
                assert np.array_equal(fa.peak_location, fb.peak_location)


_cells = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072e-308, 1e300,
                     -1e300, 1e-300, -1e-300]),
    st.integers(-10**15, 10**15).map(float))


@example(rows=[(0.0, "p0", -0.0, 5e-324), (72.0, "b3-lo", 1e300, -1e-300)])
@given(rows=st.lists(st.tuples(_cells, st.sampled_from(["p0", "b3-lo"]),
                               _cells, _cells), max_size=8))
def test_command_rows_format_as_csv_cells(rows):
    # the replay CSV and write_command_log format rows as _fmt formats
    # every other CSV cell
    want = "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert format_command_rows(rows) == want


def test_command_log_format(tmp_path):
    cfg = _session_config(track_peaks=False)
    log = run_session([FingertipSample(0.0, 7.0, -4.0, 2.0)], cfg)
    path = str(tmp_path / "log.csv")
    write_command_log(path, log)
    raw = open(path, "rb").read()
    assert b"\r" not in raw
    lines = raw.decode().split("\n")
    assert lines[0] == "t_ms,channel,commanded_mm,actual_mm"
    assert len(lines) == len(log.command_rows) + 2   # header + trailing LF
    cells = lines[1].split(",")
    assert len(cells) == 4
    float(cells[0]); float(cells[2]); float(cells[3])
