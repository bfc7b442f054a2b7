"""Command-line harness: sweeps, grids and replays as CSV artifacts.

Every subcommand reads an optional JSON config (unknown keys rejected),
applies flag overrides (flags win), and writes one CSV table with a
provenance header: package version, command name, a short hash of the
effective config, and the seed where one is used.  No timestamps, '.'
decimals and LF endings, so identical inputs give byte-identical files.

Exit codes: 0 success, 1 usage error, 2 config or input-data error,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import __version__
from .control import (ServoSpec, SessionConfig, format_command_rows,
                      read_trace, run_session)
from .distortion import NoPeakError, SweepConfig, distortion_sweep, sweep_fits
from .elastica import ElasticaError
from .fields import BumpField1D, make_lattice
from .mechanics import PhaseDiagram, membrane_strain, phase_diagram
from .reconstruct import CrsProfile1D


class ConfigError(Exception):
    """Invalid config file or config value; maps to exit code 2."""


# ======================================================================
# config schemas
# ======================================================================

def _typed(kind, extra: str = ""):
    def check(value):
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise ConfigError(f"expected {kind.__name__}{extra}")
        # JSON's NaN and Infinity tokens parse to floats
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"expected finite float{extra}")
        return value
    return check


def _pos(kind):
    base = _typed(kind, " > 0")
    def check(value):
        value = base(value)
        if value <= 0:
            raise ConfigError(f"expected {kind.__name__} > 0")
        return value
    return check


def _nonneg(kind):
    base = _typed(kind, " >= 0")
    def check(value):
        value = base(value)
        if value < 0:
            raise ConfigError(f"expected {kind.__name__} >= 0")
        return value
    return check


def _choice(*options):
    def check(value):
        if value not in options:
            raise ConfigError("expected one of " + ", ".join(map(repr, options)))
        return value
    return check


def _list_of(item_check, kind):
    item = item_check(kind)
    def check(value):
        if not isinstance(value, list) or not value:
            raise ConfigError(f"expected a non-empty list of {kind.__name__}s")
        return [item(v) for v in value]
    return check


def _model_list(value):
    allowed = ("pixel-only", "linear", "crs")
    if not isinstance(value, list) or not value:
        raise ConfigError("expected a non-empty list of model names")
    for v in value:
        if v not in allowed:
            raise ConfigError("expected models from " + ", ".join(allowed))
    return list(value)


def _optional(check):
    def wrapped(value):
        return None if value is None else check(value)
    return wrapped


# CLI key -> (field, validator) of config objects' keys: the field's default
_FIELD_KEYS: Dict[type, Dict[str, Tuple[str, Callable]]] = {
    SweepConfig: {
        "wavelength_mm": ("wavelength", _pos(float)),
        "amplitude_mm": ("amplitude", _pos(float)),
        "n_position": ("n_position", _pos(int)),
        "n_shape": ("n_shape", _pos(int)),
        "n_position_crs": ("n_position_crs", _pos(int)),
        "n_shape_crs": ("n_shape_crs", _pos(int)),
        "seed": ("seed", _nonneg(int)),
        "span_wavelengths": ("span_wavelengths", _pos(float)),
        "radius_wavelengths": ("radius_wavelengths", _pos(float)),
        "hex_rings": ("hex_rings", _optional(_pos(int))),
        "grid_points": ("grid_points", _optional(_pos(int))),
        "include_interior": ("include_interior", _typed(bool)),
        "points_per_wavelength": ("points_per_wavelength", _pos(int)),
        "no_peak_policy": ("no_peak_policy", _choice("nearest_capped", "discard")),
    },
    ServoSpec: {
        "servo_travel_mm": ("travel", _pos(float)),
        "servo_speed_s_per_cm": ("speed_s_per_cm", _pos(float)),
    },
    SessionConfig: {
        "dt_ms": ("dt_ms", _pos(float)),
        "vr_originated": ("vr_originated", _typed(bool)),
        "track_peaks": ("track_peaks", _typed(bool)),
        "probe_every_ms": ("probe_every_ms", _pos(float)),
        "log_every_ms": ("log_every_ms", _pos(float)),
    },
}


def _field_keys(config_type: type) -> Dict[str, Tuple[object, Callable]]:
    """Schema entries, key -> (default, validator), of config_type's keys."""
    defaults = {f.name: f.default for f in dataclasses.fields(config_type)}
    return {key: (defaults[name], check)
            for key, (name, check) in _FIELD_KEYS[config_type].items()}


def _build(config_type: type, cfg: dict, **given):
    """A config_type from its keys' values in cfg and the given fields."""
    return config_type(**given, **{
        name: cfg[key] for key, (name, _) in _FIELD_KEYS[config_type].items()})


# key -> (default, validator); the "experiment" key is handled separately
_SCHEMAS: Dict[str, Dict[str, Tuple[object, Callable]]] = {
    "distortion-sweep": {
        "lattice": ("line", _choice("line", "square", "hexagonal")),
        "models": (["pixel-only", "linear", "crs"], _model_list),
        "d_over_l": ([0.1, 0.2, 0.3, 0.4, 0.5], _list_of(_pos, float)),
        **_field_keys(SweepConfig),
    },
    "phase-diagram": {
        "e_over_beta_min": (1e4, _pos(float)),
        "e_over_beta_max": (1e9, _pos(float)),
        "i_over_d4_min": (1e-11, _pos(float)),
        "i_over_d4_max": (1e-4, _pos(float)),
        "resolution": (64, _pos(int)),
        "log_spacing": (True, _typed(bool)),
    },
    "elastica-demo": {
        "d_over_l": (1.0 / 3.0, _pos(float)),
        "wavelength_mm": (90.0, _pos(float)),
        "amplitude_mm": (9.0, _nonneg(float)),
        "peak_offset_mm": (0.0, _typed(float)),
        "n_pixels": (5, _pos(int)),
        "points": (481, _pos(int)),
        "nodes_per_span": (64, _pos(int)),
    },
    "replay": {
        "lattice": ("hexagonal", _choice("square", "hexagonal")),
        "pitch_mm": (30.0, _pos(float)),
        "extent_mm": (60.0, _pos(float)),
        **_field_keys(ServoSpec),
        **_field_keys(SessionConfig),
    },
    "strain-table": {
        "cell_mm": ([4.0, 1.0], _list_of(_pos, float)),
        "h_mm": ([0.0, 1.0, 2.0], _list_of(_nonneg, float)),
    },
}


def _read_json(path: str) -> dict:
    """The JSON object a config file holds."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"{path}: {err.strerror or err}")
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON (line {err.lineno}: "
                          f"{err.msg})")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return raw


def _load_config(command: str, path: Optional[str],
                 sets: Sequence[str], seed: Optional[int]) -> dict:
    """Effective config: schema defaults <- file <- --set pairs <- --seed."""
    schema = _SCHEMAS[command]
    cfg = {key: default for key, (default, _) in schema.items()}

    if path is not None:
        raw = _read_json(path)
        kind = raw.pop("experiment", command)
        if kind != command:
            raise ConfigError(f"{path}: experiment: config is for "
                              f"{kind!r}, not {command!r}")
        for key, value in raw.items():
            if key not in schema:
                raise ConfigError(f"{path}: unknown key {key!r} (valid: "
                                  + ", ".join(sorted(schema)) + ")")
            cfg[key] = value

    for item in sets:
        key, sep, text = item.partition("=")
        if not sep:
            raise ConfigError(f"--set {item!r}: expected KEY=VALUE")
        if key not in schema:
            raise ConfigError(f"--set: unknown key {key!r} (valid: "
                              + ", ".join(sorted(schema)) + ")")
        try:
            cfg[key] = json.loads(text)
        except json.JSONDecodeError:
            cfg[key] = text

    if seed is not None:
        if "seed" not in schema:
            raise ConfigError(f"--seed is not used by {command!r}")
        cfg["seed"] = seed

    for key, (_, check) in schema.items():
        try:
            cfg[key] = check(cfg[key])
        except ConfigError as err:
            raise ConfigError(f"key {key!r}: {err}") from None
    return cfg


# ======================================================================
# CSV emission
# ======================================================================

def _fmt(value) -> str:
    if type(value) is float:
        return format(value, ".12g")
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".12g")


def _config_hash(cfg: dict) -> str:
    """Short hash of an effective config, as CSV headers print it."""
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _table(command: str, cfg: dict, columns: Sequence[str],
           rows: Sequence[Sequence[object]], seed: Optional[int]) -> str:
    lines = [f"# crslab {__version__}",
             f"# command: {command}",
             f"# config: {_config_hash(cfg)}"]
    if seed is not None:
        lines.append(f"# seed: {seed}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _write(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ======================================================================
# subcommands
# ======================================================================

def cmd_distortion_sweep(cfg: dict, out: str) -> int:
    sweep_cfg = _build(SweepConfig, cfg)
    estimates = distortion_sweep(cfg["models"], cfg["d_over_l"],
                                 cfg["lattice"], sweep_cfg)
    rows: List[Sequence[object]] = []
    for est in estimates:
        model = est.model if est.region == "full" else f"{est.model}:interior"
        rows.append((model, cfg["lattice"], est.d_over_l, est.metric,
                     est.value, est.standard_error, est.n_samples,
                     est.rng_seed))
    for model, metric, region, fit in sweep_fits(estimates):
        name = model if region == "full" else f"{model}:interior"
        n_pts = sum(1 for e in estimates
                    if (e.model, e.metric, e.region) == (model, metric, region))
        rows.append((name, cfg["lattice"], None, f"{metric}_fit_c",
                     fit.coefficient, None, n_pts, cfg["seed"]))
        rows.append((name, cfg["lattice"], None, f"{metric}_fit_p",
                     fit.exponent, None, n_pts, cfg["seed"]))
        rows.append((name, cfg["lattice"], None, f"{metric}_fit_res",
                     fit.residual, None, n_pts, cfg["seed"]))
    text = _table("distortion-sweep", cfg,
                  ("model", "lattice", "d_over_l", "metric", "value",
                   "stderr", "n", "seed"), rows, cfg["seed"])
    _write(text, out)
    return 0


def cmd_phase_diagram(cfg: dict, out: str) -> int:
    pd = phase_diagram((cfg["e_over_beta_min"], cfg["e_over_beta_max"]),
                       (cfg["i_over_d4_min"], cfg["i_over_d4_max"]),
                       resolution=cfg["resolution"],
                       log_spacing=cfg["log_spacing"])
    rows: List[Sequence[object]] = []
    for i, e_val in enumerate(pd.e_over_beta):
        for j, i_val in enumerate(pd.i_over_d4):
            label = "collapse" if pd.collapse[i, j] else "no-collapse"
            rows.append((e_val, i_val, pd.delta[i, j], label))
    # the analytic Δ = 1 contour, one row per material axis value
    for e_val in pd.e_over_beta:
        i_val = float(PhaseDiagram.boundary_i_over_d4(e_val))
        delta = (16.0 * math.pi ** 4 / 27.0) * e_val * i_val
        rows.append((e_val, i_val, delta, "boundary"))
    text = _table("phase-diagram", cfg,
                  ("E_over_beta", "I_over_d4", "delta", "class"), rows, None)
    _write(text, out)
    return 0


def cmd_elastica_demo(cfg: dict, out: str) -> int:
    pitch = cfg["d_over_l"] * cfg["wavelength_mm"]
    half = 0.5 * (cfg["n_pixels"] - 1) * pitch
    lattice = make_lattice("line", pitch, (-half, half))
    field = BumpField1D(cfg["peak_offset_mm"], cfg["amplitude_mm"],
                        cfg["wavelength_mm"])
    profile = CrsProfile1D(field, lattice, cfg["nodes_per_span"])
    xs = np.linspace(-half, half, cfg["points"])
    psi = profile(xs)
    rows = [(x, y) for x, y in zip(xs, psi)]
    text = _table("elastica-demo", cfg, ("x_mm", "psi_mm"), rows, None)
    _write(text, out)
    return 0


def cmd_replay(cfg: dict, out: str, trace_path: str) -> int:
    trace = read_trace(trace_path)
    lattice = make_lattice(cfg["lattice"], cfg["pitch_mm"],
                           cfg["extent_mm"] if cfg["lattice"] == "hexagonal"
                           else ((0.0, cfg["extent_mm"]),
                                 (0.0, cfg["extent_mm"])))
    session = _build(SessionConfig, cfg, lattice=lattice,
                     servo=_build(ServoSpec, cfg))
    log = run_session(trace, session)
    text = _table("replay", cfg,
                  ("t_ms", "channel", "commanded_mm", "actual_mm"), (), None)
    _write(text + format_command_rows(log.command_rows), out)

    lags = [f.total_latency_ms for f in log.frames
            if f.total_latency_ms is not None]
    summary = [
        f"frames: {len(log.frames)}",
        f"skipped: {sum(1 for f in log.frames if f.skipped)}",
        f"violations: {len(log.violations)}",
        "mean_actuation_ms: " + _fmt(log.mean_actuation_ms
                                     if lags else None),
        "mean_total_latency_ms: " + _fmt(float(np.mean(lags))
                                         if lags else None),
    ]
    stream = sys.stdout if out != "-" else sys.stderr
    for line in summary:
        print(line, file=stream)
    for violation in log.violations:
        print("violation: " + violation, file=stream)
    return 0


def cmd_strain_table(cfg: dict, out: str) -> int:
    rows = [(c, h, membrane_strain(c, h))
            for c in cfg["cell_mm"] for h in cfg["h_mm"]]
    text = _table("strain-table", cfg, ("cell_mm", "h_mm", "strain"),
                  rows, None)
    _write(text, out)
    return 0


def cmd_validate_config(path: str) -> int:
    kind = _read_json(path).get("experiment")
    if kind is None:
        raise ConfigError(f"{path}: missing 'experiment' key (one of "
                          + ", ".join(sorted(_SCHEMAS)) + ")")
    if kind not in _SCHEMAS:
        raise ConfigError(f"{path}: experiment: unknown kind {kind!r} "
                          "(one of " + ", ".join(sorted(_SCHEMAS)) + ")")
    cfg = _load_config(kind, path, (), None)
    print(f"ok: {kind} config ({_config_hash(cfg)})")
    return 0


# ======================================================================
# entry point
# ======================================================================

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here is 1."""

    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="crslab",
                     description="Haptic display continuity experiments "
                                 "(CSV emitting).")
    parser.add_argument("--version", action="version",
                        version=f"crslab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=False):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--out", default="-",
                       help="output CSV path ('-' for stdout)")
        p.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if seeded:
            p.add_argument("--seed", type=int,
                           help="override the sampling seed")

    common(sub.add_parser("distortion-sweep",
                          help="Monte Carlo D_p / D_s tables with power-law "
                               "fits"), seeded=True)
    common(sub.add_parser("phase-diagram",
                          help="collapse classification grid over (E/beta, "
                               "I/d^4)"))
    common(sub.add_parser("elastica-demo",
                          help="displayed beam profile for one bump target"))
    replay = sub.add_parser("replay",
                            help="simulate the servo pipeline over a "
                                 "fingertip trace")
    replay.add_argument("trace", help="fingertip trace CSV")
    common(replay)
    common(sub.add_parser("strain-table",
                          help="membrane strain for pixel-cell geometries"))
    validate = sub.add_parser("validate-config",
                              help="check a config file and print its hash")
    validate.add_argument("config_path", help="JSON config file")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate-config":
            return cmd_validate_config(args.config_path)
        cfg = _load_config(args.command, args.config, args.set,
                           getattr(args, "seed", None))
        if args.command == "distortion-sweep":
            return cmd_distortion_sweep(cfg, args.out)
        if args.command == "phase-diagram":
            return cmd_phase_diagram(cfg, args.out)
        if args.command == "elastica-demo":
            return cmd_elastica_demo(cfg, args.out)
        if args.command == "replay":
            return cmd_replay(cfg, args.out, args.trace)
        if args.command == "strain-table":
            return cmd_strain_table(cfg, args.out)
        raise AssertionError(f"unhandled command {args.command!r}")
    except ConfigError as err:
        print(f"crslab {args.command}: config error: {err}", file=sys.stderr)
        return 2
    except (ElasticaError, NoPeakError, np.linalg.LinAlgError) as err:
        print(f"crslab {args.command}: numerical failure: {err}",
              file=sys.stderr)
        return 3
    except (ValueError, OSError) as err:
        print(f"crslab {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
