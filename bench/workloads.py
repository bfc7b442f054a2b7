"""The four benchmark workloads and the reference check.

Every workload draws its inputs from a fixed pool of POOL entries, so that
the seed commit's outputs for every possible input are stored in
reference.json.  The workload seed picks the order in which a run visits
the pool; one visit is a "round" of closed-loop calls through the package's
public entry points, each call waiting for the previous one.

An operation is one estimate call or one replayed fingertip frame.  It
fails when it raises, when it is refused (a skipped frame), or when its
output leaves the tolerance: byte-identical, or within the reference
estimate's standard error with the sample count unchanged.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from crslab import cli, control, distortion, fields, reconstruct

POOL = 48
STRATUM = 4
WAVELENGTH = 90.0
PIX = reconstruct.ReconstructionModel("pixel-only")
CRS = reconstruct.ReconstructionModel("crs")


def visit_order(workload: str, seed: int,
                costs: Sequence[float]) -> List[int]:
    """The order in which a run visits the pool.

    Inputs differ in cost (a replay whose peak never settles probes every
    6 ms until the next frame), so a run of a few rounds would otherwise
    time a different mix of cheap and dear inputs for every seed.  The
    entries are ranked by their cost at the seed commit and cut into strata
    of STRATUM entries; rounds take the strata in an order that pairs the
    cheapest with the dearest, so every prefix of a run holds nearly the
    same mix.  The seed picks which entry of each stratum a cycle visits
    (random.Random hashes a str seed with SHA-512, so the order does not
    depend on PYTHONHASHSEED)."""
    ranked = sorted(range(POOL), key=lambda e: (costs[e], e))
    strata = [ranked[i:i + STRATUM] for i in range(0, POOL, STRATUM)]
    k = len(strata)
    pairs = [(i, k - 1 - i) for i in range(k // 2)]
    sequence = [j for pair in pairs[0::2] + pairs[1::2] for j in pair]
    rng = random.Random(f"{workload}:{seed}")
    picks = [rng.sample(stratum, len(stratum)) for stratum in strata]
    return [picks[j][c] for c in range(STRATUM) for j in sequence]


class RoundResult:
    """What one round produced: the samples it completed (Monte Carlo draws
    or fingertip samples), the simulated time it covered, and an output
    record that the workload compares with its reference entry."""

    def __init__(self, samples: int, output, sim_ms: float = 0.0):
        self.samples = samples
        self.output = output
        self.sim_ms = sim_ms


# ======================================================================
# tolerance checks
# ======================================================================

def estimate_ok(got: Optional[Sequence[float]], ref: Sequence[float]) -> bool:
    """(value, se, n) against the reference: n unchanged and the value
    within the reference standard error (exact when that error is 0)."""
    if got is None:
        return False
    value, _, n = got
    ref_value, ref_se, ref_n = ref
    return int(n) == int(ref_n) and abs(value - ref_value) <= ref_se


def sweep_csv_failures(text: Optional[str], ref: str) -> Tuple[int, List[str]]:
    """Check a distortion-sweep CSV against the reference CSV.

    Byte-identical passes.  Otherwise every line must keep its non-value
    fields (model, lattice, d/l, metric, n, seed) and every estimate row its
    value within the reference standard error.  Fit rows (empty stderr)
    derive from the estimate rows and are held to their non-value fields.
    Returns (estimate rows attempted, labels of the failed ones); a
    structural difference fails every row."""
    ref_lines = ref.splitlines()
    estimates = [ln for ln in ref_lines
                 if not ln.startswith("#") and ln.count(",") == 7
                 and ln.split(",")[5] not in ("", "stderr")]
    labels = [",".join(ln.split(",")[:4]) for ln in estimates]
    if text == ref:
        return len(labels), []
    lines = (text or "").splitlines()
    if len(lines) != len(ref_lines):
        return len(labels), [f"{lb} (csv has {len(lines)} lines, reference "
                             f"{len(ref_lines)})" for lb in labels]
    failed = []
    for got, want in zip(lines, ref_lines):
        if got == want:
            continue
        g, w = got.split(","), want.split(",")
        keys = (0, 1, 2, 3, 6, 7)
        if (want.startswith("#") or len(g) != len(w)
                or any(g[k] != w[k] for k in keys if k < len(w))):
            return len(labels), [f"{lb} (csv line differs: {got!r})"
                                 for lb in labels]
        if w[5] == "":
            continue
        try:
            ok = estimate_ok((float(g[4]), float(g[5]), int(g[6])),
                             (float(w[4]), float(w[5]), int(w[6])))
        except ValueError:
            ok = False
        if not ok:
            failed.append(f"{','.join(w[:4])} (value {g[4]}, reference "
                          f"{w[4]} +- {w[5]})")
    return len(labels), failed


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ======================================================================
# workloads
# ======================================================================

class EstimateWorkload:
    """A fixed list of estimate calls per round, all on the entry's seed."""

    def __init__(self, seed_base: int):
        self.seed_base = seed_base
        self.calls: List[Tuple[str, object]] = []

    def run_round(self, entry: int) -> RoundResult:
        seed = self.seed_base + entry
        samples = 0
        outputs: List[Optional[list]] = []
        for label, call in self.calls:
            try:
                est = call(seed)
            except Exception as err:            # counted as a failed op
                outputs.append([None, f"{type(err).__name__}: {err}"])
                continue
            samples += est.n_samples
            outputs.append([est.value, est.standard_error, est.n_samples])
        return RoundResult(samples, outputs)

    def reference(self, result: RoundResult):
        for (label, _), got in zip(self.calls, result.output):
            if got[0] is None:
                raise ValueError(f"{label} raised {got[1]}")
        return result.output

    def check(self, result: RoundResult, ref) -> Tuple[int, List[str]]:
        failed = []
        for (label, _), got, want in zip(self.calls, result.output, ref):
            if got[0] is None:
                failed.append(f"{label} raised {got[1]}")
            elif not estimate_ok(got, want):
                failed.append(f"{label}: {got} outside reference {want}")
        return len(self.calls), failed


def pixel_shape_2d() -> EstimateWorkload:
    """C05: pixel-only D_s, interior region, square and hexagonal lattices
    at d/l 0.1..0.3; four draws per estimate."""
    wl = EstimateWorkload(1000)
    cfg = distortion.SweepConfig()
    for kind in ("square", "hexagonal"):
        for dol in (0.1, 0.15, 0.2, 0.25, 0.3):
            lat = distortion.lattice_for(kind, dol, cfg)

            def call(seed, lat=lat):
                return distortion.shape_distortion(
                    PIX, lat, WAVELENGTH, 4, seed, region="interior")
            wl.calls.append((f"Ds pixel-only {kind} d/l={dol}", call))
    return wl


def crs_hex_19() -> EstimateWorkload:
    """C09: pixel-only and CRS D_p and D_s on paired draws, 19-pixel
    hexagonal display (pitch 30 mm, extent 60 mm)."""
    wl = EstimateWorkload(3000)
    lat = fields.make_lattice("hexagonal", 30.0, 60.0)
    for label, fn, model, n in (
            ("Dp pixel-only", "position_distortion", PIX, 2000),
            ("Dp crs", "position_distortion", CRS, 4),
            ("Ds pixel-only", "shape_distortion", PIX, 4),
            ("Ds crs", "shape_distortion", CRS, 4)):
        def call(seed, fn=fn, model=model, n=n):
            return getattr(distortion, fn)(model, lat, WAVELENGTH, n, seed)
        wl.calls.append((label, call))
    return wl


class SweepWorkload:
    """`crslab distortion-sweep` through cli.main on the line lattice, all
    three models at d/l 0.1..0.5, with reduced sample counts."""

    seed_base = 2000
    overrides = ("lattice=line", 'models=["pixel-only","linear","crs"]',
                 "d_over_l=[0.1,0.2,0.3,0.4,0.5]", "n_position=2000",
                 "n_shape=100", "n_position_crs=4", "n_shape_crs=4",
                 "include_interior=false")

    def argv(self, entry: int) -> List[str]:
        args = ["distortion-sweep", "--out", "-",
                "--seed", str(self.seed_base + entry)]
        for item in self.overrides:
            args += ["--set", item]
        return args

    def run_round(self, entry: int) -> RoundResult:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(self.argv(entry))
            except Exception as exc:            # counted as failed ops
                code = f"{type(exc).__name__}: {exc}"
        text = out.getvalue() if code == 0 else None
        samples = 0
        for line in (text or "").splitlines():
            parts = line.split(",")
            if len(parts) == 8 and parts[5] not in ("", "stderr"):
                samples += int(parts[6])
        return RoundResult(samples, {"csv": text, "exit": code,
                                     "stderr": err.getvalue()})

    def reference(self, result: RoundResult):
        if result.output["exit"] != 0:
            raise ValueError(f"sweep exit {result.output['exit']}: "
                             f"{result.output['stderr'].strip()}")
        return result.output["csv"]

    def check(self, result: RoundResult, ref) -> Tuple[int, List[str]]:
        attempted, failed = sweep_csv_failures(result.output["csv"], ref)
        if result.output["exit"] != 0:
            why = f"exit {result.output['exit']}: " \
                  f"{result.output['stderr'].strip()}"
            failed = [f"sweep {why}"] * attempted
        return attempted, failed


def make_trace(seed: int) -> List[control.FingertipSample]:
    """A press, two slides and a lift on the 19-pixel hexagonal display.

    The finger starts within 15 mm of the centre and stays within 25 mm;
    frames are 60..120 ms apart; press depths stay within 1.5..6 mm, well
    inside the 9 mm servo travel, so no compression plan is refused."""
    rng = random.Random(seed)
    ang, r = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 15.0)
    x, y = r * math.cos(ang), r * math.sin(ang)
    z = rng.uniform(2.0, 5.0)
    t = 0.0
    trace = [control.FingertipSample(t, x, y, z)]
    for _ in range(2):
        t += rng.uniform(60.0, 120.0)
        ang, step = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(2.0, 10.0)
        x = min(25.0, max(-25.0, x + step * math.cos(ang)))
        y = min(25.0, max(-25.0, y + step * math.sin(ang)))
        z = min(6.0, max(1.5, z + rng.uniform(-1.0, 1.0)))
        trace.append(control.FingertipSample(t, x, y, z))
    t += rng.uniform(60.0, 120.0)
    trace.append(control.FingertipSample(t, x, y, 0.0))
    return trace


class ReplayWorkload:
    """`crslab replay` through cli.main with peak tracking on, one
    generated trace per round.  The session log is read from the
    run_session binding in crslab.cli, which is where cli.main resolves
    it; the wrapper adds one call per replay."""

    seed_base = 4000

    def __init__(self, workdir: str):
        self.paths: Dict[int, str] = {}
        self.frames: Dict[int, int] = {}
        for entry in range(POOL):
            trace = make_trace(self.seed_base + entry)
            path = os.path.join(workdir, f"trace-{entry:02d}.csv")
            control.write_trace(path, trace)
            self.paths[entry] = path
            self.frames[entry] = len(trace)

    def run_round(self, entry: int) -> RoundResult:
        logs = []
        original = cli.run_session

        def capture(trace, config):
            log = original(trace, config)
            logs.append(log)
            return log

        out, err = io.StringIO(), io.StringIO()
        cli.run_session = capture
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(["replay", self.paths[entry], "--out", "-",
                                 "--set", "track_peaks=true"])
        except Exception as exc:                # counted as failed ops
            code = f"{type(exc).__name__}: {exc}"
        finally:
            cli.run_session = original
        frames = self.frames[entry]
        if code != 0 or not logs:
            return RoundResult(frames, {"exit": code,
                                        "stderr": err.getvalue()})
        log = logs[0]
        # the command log's last row is the end of the simulated session
        sim_ms = log.command_rows[-1][0] if log.command_rows else 0.0
        return RoundResult(frames, {
            "exit": 0,
            "sha256": sha256(out.getvalue()),
            "actuation_ms": [f.actuation_ms for f in log.frames],
            "skipped": [f.skipped for f in log.frames],
        }, sim_ms)

    def reference(self, result: RoundResult):
        if result.output["exit"] != 0:
            raise ValueError(f"replay exit {result.output['exit']}: "
                             f"{result.output['stderr'].strip()}")
        return {"sha256": result.output["sha256"],
                "actuation_ms": result.output["actuation_ms"]}

    def check(self, result: RoundResult, ref) -> Tuple[int, List[str]]:
        out = result.output
        n = len(ref["actuation_ms"])
        if out["exit"] != 0:
            return n, [f"replay exit {out['exit']}: {out['stderr'].strip()}"] * n
        if out["sha256"] != ref["sha256"]:
            return n, ["replay command CSV differs from the reference"] * n
        if len(out["actuation_ms"]) != n:
            return n, [f"{len(out['actuation_ms'])} frames logged, "
                       f"reference has {n}"] * n
        failed = []
        for i, (got, want, skipped) in enumerate(
                zip(out["actuation_ms"], ref["actuation_ms"], out["skipped"])):
            if skipped:
                failed.append(f"frame {i} refused")
            elif got != want:
                failed.append(f"frame {i} actuation_ms {got} != {want}")
        return n, failed


def make(name: str, workdir: str):
    if name == "pixel-shape-2d":
        return pixel_shape_2d()
    if name == "crs-sweep-1d":
        return SweepWorkload()
    if name == "crs-hex-19":
        return crs_hex_19()
    if name == "replay-track":
        return ReplayWorkload(workdir)
    raise ValueError(f"unknown workload {name!r}")

