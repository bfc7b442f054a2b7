"""Command-line harness: exit codes, config handling, provenance headers,
determinism of emitted CSV."""
import json
import math

import pytest

from crslab import cli
from crslab.control import SessionLog


def _run(argv):
    return cli.main(list(argv))


def _read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# ======================================================================
# usage plumbing
# ======================================================================

def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        _run(["--help"])
    assert exc.value.code == 0
    for command in ("distortion-sweep", "phase-diagram", "elastica-demo",
                    "replay", "strain-table", "validate-config"):
        with pytest.raises(SystemExit) as exc:
            _run([command, "--help"])
        assert exc.value.code == 0


def test_unknown_command_and_flag_exit_one():
    with pytest.raises(SystemExit) as exc:
        _run(["mystery-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        _run(["strain-table", "--frobnicate"])
    assert exc.value.code == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        _run(["--version"])
    assert exc.value.code == 0


# ======================================================================
# config layering and validation
# ======================================================================

def test_unknown_config_key_exits_two(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    rc = _run(["strain-table", "--out", out, "--set", "cell_size=4"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "cell_size" in err
    assert "cell_mm" in err          # valid keys are listed back


def test_bad_config_value_exits_two(tmp_path, capsys):
    out = str(tmp_path / "o.csv")
    rc = _run(["phase-diagram", "--out", out, "--set", "resolution=-3"])
    assert rc == 2
    assert "resolution" in capsys.readouterr().err


@pytest.mark.parametrize("setting, message", [
    ("h_mm=[]", "key 'h_mm': expected a non-empty list of floats"),
    ("cell_mm=4", "key 'cell_mm': expected a non-empty list of floats"),
    ("h_mm=[-1.0]", "key 'h_mm': expected float >= 0"),
    ("cell_mm=[0.0]", "key 'cell_mm': expected float > 0"),
])
def test_bad_list_value_message(tmp_path, capsys, setting, message):
    rc = _run(["strain-table", "--out", str(tmp_path / "o.csv"),
               "--set", setting])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"crslab strain-table: config error: {message}\n")


def _float_keys():
    """(command, key, listed) for every key whose value is a float or a
    list of floats."""
    for command, schema in sorted(cli._SCHEMAS.items()):
        for key, (default, _) in sorted(schema.items()):
            listed = isinstance(default, list)
            values = default if listed else [default]
            if all(isinstance(v, float) for v in values):
                yield command, key, listed


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("via", ["set", "file"])
@pytest.mark.parametrize("command, key, listed", list(_float_keys()),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_float_keys_reject_nan_and_infinity(monkeypatch, tmp_path, capsys,
                                            command, key, listed, via, token):
    # JSON's NaN and Infinity tokens parse to floats; no float key takes
    # one, so the command never starts
    def started(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"), started)
    value = f"[{token}]" if listed else token
    argv = [command] + (["trace.csv"] if command == "replay" else [])
    argv += ["--out", str(tmp_path / "o.csv")]
    if via == "set":
        argv += ["--set", f"{key}={value}"]
    else:
        cfg = tmp_path / "c.json"
        cfg.write_text(f'{{"experiment": "{command}", "{key}": {value}}}')
        argv += ["--config", str(cfg)]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"crslab {command}: config error: key {key!r}: "
                          "expected finite float")
    assert not (tmp_path / "o.csv").exists()


def test_config_file_and_flag_layering(tmp_path):
    cfg = tmp_path / "sweep.json"
    cfg.write_text(json.dumps({
        "experiment": "distortion-sweep",
        "models": ["pixel-only"],
        "d_over_l": [0.2, 0.3, 0.4, 0.5],
        "n_position": 500,
        "n_shape": 10,
        "include_interior": False,
        "seed": 5,
    }))
    out1 = str(tmp_path / "a.csv")
    assert _run(["distortion-sweep", "--config", str(cfg),
                 "--out", out1]) == 0
    assert "# seed: 5" in _read(out1)
    # the --seed flag wins over the file value
    out2 = str(tmp_path / "b.csv")
    assert _run(["distortion-sweep", "--config", str(cfg),
                 "--out", out2, "--seed", "9"]) == 0
    assert "# seed: 9" in _read(out2)


def test_config_experiment_mismatch(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"experiment": "phase-diagram"}))
    rc = _run(["strain-table", "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2
    assert "experiment" in capsys.readouterr().err


def test_malformed_json_exits_two(tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    rc = _run(["strain-table", "--config", str(cfg),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_validate_config_command(tmp_path, capsys):
    cfg = tmp_path / "v.json"
    cfg.write_text(json.dumps({"experiment": "strain-table",
                               "cell_mm": [4.0], "h_mm": [2.0]}))
    assert _run(["validate-config", str(cfg)]) == 0
    assert "ok: strain-table config" in capsys.readouterr().out
    cfg.write_text(json.dumps({"cell_mm": [4.0]}))
    assert _run(["validate-config", str(cfg)]) == 2
    cfg.write_text(json.dumps({"experiment": "strain-table",
                               "cell_mm": "four"}))
    assert _run(["validate-config", str(cfg)]) == 2


@pytest.mark.parametrize("command, digest", [
    ("distortion-sweep", "89c067c88502"),
    ("phase-diagram", "c404f5494838"),
    ("elastica-demo", "e997e77fc6b1"),
    ("replay", "f35d16c2406e"),
    ("strain-table", "f3236b0519b7"),
])
def test_default_config_hashes_are_pinned(command, digest):
    # the keys that set SweepConfig, ServoSpec and SessionConfig fields take
    # those fields' defaults; each CSV header prints this hash
    assert cli._config_hash(cli._load_config(command, None, (), None)) == digest


def test_replay_builds_its_session_from_the_config(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(cli, "run_session",
                        lambda trace, config: seen.append(config) or
                        SessionLog([], [], [], []))
    trace = tmp_path / "trace.csv"
    trace.write_text("t_ms,x_f_mm,y_f_mm,z_f_mm\n0,0,0,2\n")
    assert _run(["replay", str(trace), "--out", str(tmp_path / "o.csv"),
                 "--set", "servo_travel_mm=7", "--set", "probe_every_ms=4",
                 "--set", "lattice=square"]) == 0
    (config,) = seen
    assert config.servo == cli.ServoSpec(travel=7.0)
    assert (config.probe_every_ms, config.log_every_ms) == (4.0, 5.0)
    assert config.lattice.kind == "square"


# ======================================================================
# command outputs
# ======================================================================

def test_strain_table_values(tmp_path):
    out = str(tmp_path / "strain.csv")
    rc = _run(["strain-table", "--out", out,
               "--set", "cell_mm=[4,1]", "--set", "h_mm=[0,2]"])
    assert rc == 0
    lines = [ln for ln in _read(out).split("\n")
             if ln and not ln.startswith("#")]
    assert lines[0] == "cell_mm,h_mm,strain"
    table = {(c[0], c[1]): float(c[2])
             for c in (ln.split(",") for ln in lines[1:])}
    assert table[("4", "0")] == 0.0
    assert table[("4", "2")] == pytest.approx(math.sqrt(2.0) - 1.0, rel=1e-9)
    assert table[("1", "2")] == pytest.approx(2.0 * math.sqrt(4.25) - 1.0,
                                              rel=1e-9)


def test_phase_diagram_boundary_rows(tmp_path):
    out = str(tmp_path / "phase.csv")
    rc = _run(["phase-diagram", "--out", out, "--set", "resolution=8"])
    assert rc == 0
    lines = [ln for ln in _read(out).split("\n")
             if ln and not ln.startswith("#")]
    assert lines[0] == "E_over_beta,I_over_d4,delta,class"
    boundary = [ln.split(",") for ln in lines[1:]
                if ln.endswith(",boundary")]
    assert len(boundary) >= 8
    for cells in boundary:
        assert abs(float(cells[2]) - 1.0) <= 1e-9
    grid = [ln.split(",") for ln in lines[1:] if not ln.endswith(",boundary")]
    assert len(grid) == 64
    for cells in grid:
        label = "collapse" if float(cells[2]) < 1.0 else "no-collapse"
        assert cells[3] == label


def test_elastica_demo_flat_and_symmetric(tmp_path):
    out = str(tmp_path / "flat.csv")
    rc = _run(["elastica-demo", "--out", out, "--set", "amplitude_mm=0"])
    assert rc == 0
    lines = [ln for ln in _read(out).split("\n")
             if ln and not ln.startswith("#")]
    assert lines[0] == "x_mm,psi_mm"
    assert all(float(ln.split(",")[1]) == 0.0 for ln in lines[1:])

    out2 = str(tmp_path / "bump.csv")
    rc = _run(["elastica-demo", "--out", out2,
               "--set", "peak_offset_mm=0", "--set", "points=201"])
    assert rc == 0
    rows = [ln.split(",") for ln in _read(out2).split("\n")
            if ln and not ln.startswith("#")][1:]
    xs = [float(r[0]) for r in rows]
    ys = [float(r[1]) for r in rows]
    mid = 0.5 * (xs[0] + xs[-1])
    for i in range(len(xs) // 2):
        j = len(xs) - 1 - i
        assert abs((mid - xs[i]) - (xs[j] - mid)) < 1e-9
        assert ys[i] == pytest.approx(ys[j], abs=5e-3)
    assert max(ys) > 0.9          # the bump is actually rendered


def test_elastica_demo_rejects_coarse_beam(tmp_path, capsys):
    rc = _run(["elastica-demo", "--out", str(tmp_path / "o.csv"),
               "--set", "nodes_per_span=10"])
    assert rc == 2
    assert "nodes_per_span must be at least 50" in capsys.readouterr().err


def test_distortion_sweep_output_schema(tmp_path):
    out = str(tmp_path / "sweep.csv")
    rc = _run(["distortion-sweep", "--out", out,
               "--set", "models=[\"pixel-only\"]",
               "--set", "d_over_l=[0.2,0.3,0.4,0.5]",
               "--set", "n_position=400", "--set", "n_shape=10",
               "--set", "include_interior=false"])
    assert rc == 0
    text = _read(out)
    assert text.startswith("# crslab ")
    assert "# command: distortion-sweep" in text
    assert "# config: " in text
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    assert lines[0] == "model,lattice,d_over_l,metric,value,stderr,n,seed"
    body = [ln.split(",") for ln in lines[1:]]
    grid_rows = [r for r in body if r[3] in ("Dp", "Ds")]
    fit_rows = [r for r in body if r[3].endswith(("_fit_c", "_fit_p",
                                                  "_fit_res"))]
    assert len(grid_rows) == 8           # 1 model x 2 metrics x 4 points
    assert len(fit_rows) == 6            # c, p, residual per metric
    # the Dp fit on this config reproduces the quarter-pitch law loosely
    c_row = next(r for r in body if r[3] == "Dp_fit_c")
    assert float(c_row[4]) == pytest.approx(0.25, rel=0.05)


def test_replay_round_trip(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    trace.write_text("t_ms,x_f_mm,y_f_mm,z_f_mm\n0,7,-4,2\n",
                     encoding="utf-8")
    out = str(tmp_path / "log.csv")
    rc = _run(["replay", str(trace), "--out", out,
               "--set", "track_peaks=false"])
    assert rc == 0
    text = _read(out)
    lines = [ln for ln in text.split("\n") if ln and not ln.startswith("#")]
    assert lines[0] == "t_ms,channel,commanded_mm,actual_mm"
    assert len(lines) > 10
    summary = capsys.readouterr().out
    assert "frames: 1" in summary
    assert "violations: 0" in summary


def test_replay_empty_trace(tmp_path):
    trace = tmp_path / "empty.csv"
    trace.write_text("t_ms,x_f_mm,y_f_mm,z_f_mm\n", encoding="utf-8")
    out = str(tmp_path / "log.csv")
    assert _run(["replay", str(trace), "--out", out,
                 "--set", "track_peaks=false"]) == 0
    lines = [ln for ln in _read(out).split("\n")
             if ln and not ln.startswith("#")]
    assert lines == ["t_ms,channel,commanded_mm,actual_mm"]


def test_replay_bad_trace_exits_two(tmp_path, capsys):
    trace = tmp_path / "bad.csv"
    trace.write_text("t_ms,x_f_mm,y_f_mm,z_f_mm\n10,0,0,1\n0,0,0,1\n",
                     encoding="utf-8")
    rc = _run(["replay", str(trace), "--out", str(tmp_path / "o.csv"),
               "--set", "track_peaks=false"])
    assert rc == 2
    assert "not time-sorted" in capsys.readouterr().err
    rc = _run(["replay", str(tmp_path / "missing.csv"),
               "--out", str(tmp_path / "o.csv")])
    assert rc == 2


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    from crslab.elastica import ElasticaError

    def boom(*args, **kwargs):
        raise ElasticaError("forced failure")

    monkeypatch.setattr(cli, "CrsProfile1D", boom)
    rc = _run(["elastica-demo", "--out", str(tmp_path / "o.csv")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


# ======================================================================
# determinism
# ======================================================================

def test_reruns_are_byte_identical(tmp_path):
    argsets = (
        ["strain-table", "--set", "cell_mm=[1,2,4]", "--set", "h_mm=[0,1,2]"],
        ["phase-diagram", "--set", "resolution=6"],
        ["elastica-demo", "--set", "points=101"],
        ["distortion-sweep", "--set", "models=[\"pixel-only\"]",
         "--set", "d_over_l=[0.25,0.5]", "--set", "n_position=200",
         "--set", "n_shape=5", "--set", "include_interior=false"],
    )
    for i, args in enumerate(argsets):
        a = str(tmp_path / f"{i}a.csv")
        b = str(tmp_path / f"{i}b.csv")
        assert _run(args + ["--out", a]) == 0
        assert _run(args + ["--out", b]) == 0
        assert _read(a) == _read(b), args[0]


def test_console_script_wiring(tmp_path):
    import os
    import subprocess
    import sys

    import crslab
    out = str(tmp_path / "o.csv")
    # the child imports the same crslab as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(crslab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "crslab", "strain-table", "--out", out],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "strain" in _read(out)


def test_seed_changes_output(tmp_path):
    base = ["distortion-sweep", "--set", "models=[\"pixel-only\"]",
            "--set", "d_over_l=[0.25,0.5]", "--set", "n_position=200",
            "--set", "n_shape=5", "--set", "include_interior=false"]
    a = str(tmp_path / "s1.csv")
    b = str(tmp_path / "s2.csv")
    assert _run(base + ["--out", a, "--seed", "1"]) == 0
    assert _run(base + ["--out", b, "--seed", "2"]) == 0
    assert _read(a) != _read(b)
