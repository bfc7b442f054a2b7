"""The helper pool behind CrsSurface2D builds: outcomes in item order, equal
to a serial run, and helpers that never outlive their parent."""
import json
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from crslab import _pool, reconstruct
from crslab.elastica import ElasticaConvergenceError
from crslab.fields import BumpField2D, make_lattice, sample_pixels
from crslab.reconstruct import CrsSurface2D

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")
LATTICES = {"hexagonal": make_lattice("hexagonal", 30.0, 60.0),
            "square": make_lattice("square", 30.0, (90.0, 60.0))}


def _square(x):
    if x < 0:
        raise ValueError(f"negative: {x}")
    return x * x, os.getpid()


def _nested(x):
    """A call made inside a helper: it must run serially there."""
    time.sleep(0.01)    # long enough for the helper to claim some items
    return _pool.map_outcomes(_square, [x, x + 1]), os.getpid()


def _serial(monkeypatch):
    monkeypatch.setattr(_pool, "_helpers", lambda n_items: None)


# ----------------------------------------------------------------------
# the map
# ----------------------------------------------------------------------

def test_outcomes_come_back_in_item_order_with_their_exceptions():
    items = [3, -1, 0, 7, -2, 5, 1, 4, 2, 6]
    for _ in range(3):
        out = _pool.map_outcomes(_square, items)
        for x, o in zip(items, out):
            if x < 0:
                assert type(o) is ValueError and str(o) == f"negative: {x}"
            else:
                assert o[0] == x * x
    assert _pool.map_outcomes(_square, []) == []
    assert _pool.map_outcomes(_square, [2])[0] == (4, os.getpid())


def test_a_helper_runs_a_nested_call_serially(helper_pool):
    helpers = {p.pid for p in helper_pool.procs}
    for _ in range(5):
        outs = _pool.map_outcomes(_nested, list(range(8)))
        for x, (inner, pid) in enumerate(outs):
            # every inner item ran in the process that ran the outer one
            assert inner == [(x * x, pid), ((x + 1) ** 2, pid)]
        if {pid for _, pid in outs} & helpers:
            break
    else:
        pytest.fail("no item reached a helper in 5 calls")
    # the parent's pipes still carry only its own replies
    assert [o[0] for o in _pool.map_outcomes(_square, range(6))] \
        == [x * x for x in range(6)]


def _unpicklable_at_3(x):
    """(x * x, pid), but for item 3 a function, which does not pickle; it
    returns the pid of the process that made it."""
    pid = os.getpid()
    if x == 3:
        return lambda: pid
    return x * x, pid


def test_an_outcome_that_does_not_pickle_is_run_again_by_the_caller(
        monkeypatch, helper_pool):
    # the caller claims no item, so the helpers run them all, and a
    # helper's one reply holds pickled outcomes next to None for item 3
    monkeypatch.setattr(_pool, "_claims", lambda *args: iter(()))
    helpers = {p.pid for p in helper_pool.procs}
    out = _pool.map_outcomes(_unpicklable_at_3, range(6))
    for x, o in enumerate(out):
        if x == 3:
            assert o() == os.getpid()
        else:
            assert o[0] == x * x and o[1] in helpers
    assert _pool._POOL is helper_pool


def _square_nap_at_tens(x):
    if x % 10 == 0:
        time.sleep(0.002)   # a helper wakes and takes the call's other item
    return _square(x)


def test_every_call_gets_its_own_outcomes(helper_pool):
    # two items per call: the caller claims both before a helper wakes,
    # except in the calls that nap, where a helper takes one; a helper
    # answers every call that it was asked, with an empty reply when it
    # took nothing, and the call reads that reply before it returns
    pid = os.getpid()
    took_all = by_helper = 0
    for k in range(300):
        items = [2 * k, 2 * k + 1]
        out = _pool.map_outcomes(_square_nap_at_tens, items)
        assert [o[0] for o in out] == [x * x for x in items]
        took_all += all(o[1] == pid for o in out)
        by_helper += any(o[1] != pid for o in out)
    assert took_all > 0 and by_helper > 0
    items = list(range(1000, 1010))
    assert [o[0] for o in _pool.map_outcomes(_square, items)] \
        == [x * x for x in items]
    assert _pool._POOL is helper_pool


def test_convergence_error_outcomes_survive_the_pipe():
    """A helper sends ElasticaConvergenceError back whole (it pickles)."""
    lat = LATTICES["hexagonal"]
    heights, excess = _tight_state(lat, 0)
    jobs = [(np.column_stack([b.stations, heights[b.pixel_idx]]), ex, None)
            for b, ex in zip(lat.beam_lines(), excess)]
    out = _pool.map_outcomes(reconstruct._solve_beam, jobs)
    errors = [o for o in out if isinstance(o, ElasticaConvergenceError)]
    assert errors
    for err in errors:
        assert err.residual == err.solution.residual > 0.0


# ----------------------------------------------------------------------
# equal to a serial build
# ----------------------------------------------------------------------

def _tight_state(lat, seed):
    """Random pixel heights and, for every beam, 2 um more arc than the
    polyline through its pins: uneven pins with so little surplus stop
    above tolerance on some beams."""
    heights = np.random.default_rng(seed).uniform(0.0, 4.0, lat.n_pixels)
    excess = []
    for beam in lat.beam_lines():
        pins = np.column_stack([beam.stations, heights[beam.pixel_idx]])
        chord = float(np.sum(np.hypot(*np.diff(pins, axis=0).T)))
        excess.append(chord - beam.span + 0.002)
    return heights, np.array(excess)


def _same_solutions(a, b):
    assert len(a.solutions) == len(b.solutions)
    for i, (x, y) in enumerate(zip(a.solutions, b.solutions)):
        assert x.nodes.tobytes() == y.nodes.tobytes(), i
        assert (x.energy, x.residual, x.n_iterations) \
            == (y.energy, y.residual, y.n_iterations), i
        assert x.stage_objectives == y.stage_objectives, i
    for x, y in zip(a._converged_pins, b._converged_pins):
        assert (x is None) == (y is None)
        assert x is None or x.tobytes() == y.tobytes()


def _build(serial, fn, *args, **kwargs):
    """fn(*args, **kwargs) with the helpers, or serially; an error it
    raises is returned."""
    with pytest.MonkeyPatch.context() as mp:
        if serial:
            _serial(mp)
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            return err


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(sorted(LATTICES)),
       peak=st.tuples(st.floats(-30.0, 30.0), st.floats(-25.0, 25.0)),
       amplitude=st.floats(0.5, 3.0),
       scales=st.lists(st.floats(0.3, 1.0), min_size=3, max_size=3),
       seed=st.integers(0, 2**32 - 1))
def test_builds_equal_serial_builds(kind, peak, amplitude, scales, seed):
    lat = LATTICES[kind]
    fld = BumpField2D(peak, amplitude, 90.0)
    builds = [_build(serial, CrsSurface2D, fld, lat)
              for serial in (False, True)]
    _same_solutions(*builds)
    # a replay's probes: warm, non-strict, each on the last surface
    excess = [sol.excess for sol in builds[0].solutions]
    last = builds
    for scale in scales:
        heights = scale * sample_pixels(fld, lat)
        last = [_build(serial, CrsSurface2D.from_state, lat,
                       heights, excess, hint_field=fld, previous=prev,
                       strict=False)
                for serial, prev in zip((False, True), last)]
        _same_solutions(*last)
    # strict: the same error, that of the same first failing beam
    heights, tight = _tight_state(lat, seed)
    errors = [_build(serial, CrsSurface2D.from_state, lat,
                     heights, tight, hint_field=fld, strict=True)
              for serial in (False, True)]
    if isinstance(errors[1], Exception):
        assert type(errors[0]) is type(errors[1])
        assert str(errors[0]) == str(errors[1])
        if isinstance(errors[1], ElasticaConvergenceError):
            assert errors[0].solution.nodes.tobytes() \
                == errors[1].solution.nodes.tobytes()
    else:
        _same_solutions(*errors)


def test_strict_build_raises_the_first_failing_beam_after_all_solves(
        monkeypatch):
    lat = LATTICES["hexagonal"]
    heights, tight = _tight_state(lat, 0)
    loose = CrsSurface2D.from_state(lat, heights, tight, strict=False)
    failed = [i for i, p in enumerate(loose._converged_pins) if p is None]
    assert len(failed) >= 2
    solved = []
    solve = reconstruct.solve_elastica_1d

    def counting(*args, **kwargs):
        solved.append(args)
        return solve(*args, **kwargs)

    _serial(monkeypatch)
    monkeypatch.setattr(reconstruct, "solve_elastica_1d", counting)
    with pytest.raises(ElasticaConvergenceError) as info:
        CrsSurface2D.from_state(lat, heights, tight, strict=True)
    assert len(solved) == len(lat.beam_lines())
    first = loose.solutions[failed[0]]
    assert info.value.solution.nodes.tobytes() == first.nodes.tobytes()


def test_interrupt_in_the_callers_share_leaves_no_stale_reply(monkeypatch,
                                                              helper_pool):
    lat, fld = LATTICES["hexagonal"], BumpField2D((7.0, -4.0), 2.0, 90.0)
    solve = reconstruct.solve_elastica_1d

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    with monkeypatch.context() as mp:
        # only this process's solves are interrupted; the helper's run
        mp.setattr(reconstruct, "solve_elastica_1d", interrupted)
        with pytest.raises(KeyboardInterrupt):
            CrsSurface2D(fld, lat)
    assert reconstruct.solve_elastica_1d is solve
    # another field, so that a stale reply would not match
    fld = BumpField2D((-9.0, 5.0), 1.5, 90.0)
    again = CrsSurface2D(fld, lat)
    _serial(monkeypatch)
    _same_solutions(again, CrsSurface2D(fld, lat))


# ----------------------------------------------------------------------
# lifetime
# ----------------------------------------------------------------------

_CHILD = textwrap.dedent("""
    import sys
    from crslab import _pool
    from crslab.fields import BumpField2D, make_lattice
    from crslab.reconstruct import CrsSurface2D
    lat = make_lattice("hexagonal", 30.0, 60.0)
    fld = BumpField2D((7.0, -4.0), 2.0, 90.0)
    CrsSurface2D(fld, lat)
    pool = _pool._POOL
    print(" ".join(str(p.pid) for p in (pool.procs if pool else [])),
          flush=True)
    while sys.argv[1] == "forever":
        CrsSurface2D(fld, lat)
""")


def _child(mode):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    return subprocess.Popen([sys.executable, "-c", _CHILD, mode], env=env,
                            stdout=subprocess.PIPE, text=True)


def _running(pid: int) -> bool:
    """Whether pid runs; a zombie has exited."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def _left_running(pids, seconds: float) -> list:
    """The pids still running after up to ``seconds``; those are killed,
    so that a failing test leaves no process behind."""
    deadline = time.monotonic() + seconds
    while any(map(_running, pids)) and time.monotonic() < deadline:
        time.sleep(0.05)
    left = [pid for pid in pids if _running(pid)]
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    return left


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_helpers_exit_with_their_parent(helper_pool):
    proc = _child("once")
    out, _ = proc.communicate(timeout=60)
    assert proc.returncode == 0
    pids = [int(p) for p in out.split()]
    assert pids
    assert _left_running(pids, 5.0) == []


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_helpers_exit_when_their_parent_is_killed_mid_build(helper_pool):
    proc = _child("forever")
    try:
        pids = [int(p) for p in proc.stdout.readline().split()]
        assert pids
        time.sleep(0.3)     # builds are running
        assert proc.poll() is None
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        assert _left_running(pids, 5.0) == []
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()



# ----------------------------------------------------------------------
# helpers forked before SciPy loads
# ----------------------------------------------------------------------

_SCIPY_LATE = textwrap.dedent("""
    import hashlib, json, sys
    from crslab import _pool, distortion
    from crslab.distortion import position_distortion, shape_distortion
    from crslab.fields import BumpField2D, make_lattice
    from crslab.reconstruct import CrsSurface2D, ReconstructionModel
    if sys.argv[1] == "serial":
        _pool._helpers = lambda n_items: None
    lat = make_lattice("hexagonal", 30.0, 60.0)
    # pixel-only draws fork the helpers, and neither they nor this process
    # have loaded SciPy yet; with no heartbeat, every draw is a pool item
    distortion._HEARTBEAT_S = 0.0
    pix = shape_distortion(ReconstructionModel("pixel-only"), lat, 90.0, 7, 3)
    pool = _pool._POOL
    pids = [p.pid for p in pool.procs] if pool else []
    scipy_at_fork = "scipy" in sys.modules
    surf = CrsSurface2D(BumpField2D((7.0, -4.0), 2.0, 90.0), lat)
    nodes = hashlib.sha256(b"".join(s.nodes.tobytes()
                                    for s in surf.solutions)).hexdigest()
    crs = position_distortion(ReconstructionModel("crs"), lat, 90.0, 5, 4)
    print(json.dumps({"pids": pids, "scipy_at_fork": scipy_at_fork,
                      "out": [repr(pix), pix.value.hex(), nodes, repr(crs),
                              crs.value.hex(), crs.standard_error.hex()]}))
""")


def _scipy_late(mode) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _SCIPY_LATE, mode], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads /proc")
def test_helpers_forked_before_scipy_loads_equal_a_serial_run(helper_pool):
    shared = _scipy_late("shared")
    assert shared["pids"]
    assert _left_running(shared["pids"], 5.0) == []
    assert shared["scipy_at_fork"] is False
    serial = _scipy_late("serial")
    assert serial["pids"] == []
    assert shared["out"] == serial["out"]
