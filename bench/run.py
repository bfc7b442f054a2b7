"""crslab benchmark: closed-loop calls through the package's public entry
points, one client, one thread.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S
    python3 bench/run.py --make-reference

A run sets up (imports, lattices, generated inputs), then runs rounds of
calls until S seconds have passed, checks every output against
reference.json, and prints one JSON object as its last line of output.
With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
every round twice, untraced and traced on the same inputs, and reports the
per-layer metrics and the tracing overhead.  --make-reference records the
outputs of every pool entry of every workload as the new reference.
"""
from __future__ import annotations

import os

# one thread per BLAS/OpenMP pool before numpy loads: the benchmark is a
# single-threaded client, and no run may use more threads than the CPUs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference.json")
OUT = os.path.join(BENCH, "out")
NAMES = ("pixel-shape-2d", "crs-sweep-1d", "crs-hex-19", "replay-track")
SETUP_REPEATS = 3
# typical Calibration time on the 2-CPU Xeon host the benchmark was set up
# on; it fixes only the scale of the calibrated throughput
NOMINAL_CAL_S = 0.04


class BenchError(Exception):
    """The benchmark cannot run here (missing sources or reference)."""


def import_package():
    """Import crslab from this checkout's src/ and never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "crslab", "__init__.py")):
        raise BenchError(f"no crslab sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import crslab
    if os.path.dirname(os.path.dirname(os.path.abspath(crslab.__file__))) != SRC:
        raise BenchError(f"crslab imported from {crslab.__file__}, not {SRC}")


def setup(workload: str):
    """Import the package, build the lattices and generate the inputs.
    Returns (workload object, its scratch dir)."""
    import_package()
    import workloads
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    return workloads.make(workload, workdir), workdir


def setup_in_subprocess(workload: str) -> float:
    """Set-up time measured in a fresh interpreter, so imports count."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload],
        capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def machine_facts() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "git_rev": git_rev(),
            "threads": os.environ["OMP_NUM_THREADS"]}


def git_rev() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a git
    repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def load_reference(workload: str) -> dict:
    """{"outputs": [per pool entry], "cost_s": [per pool entry]}."""
    import workloads
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh)["workloads"][workload]
    except (OSError, KeyError, ValueError) as err:
        raise BenchError(f"no reference for {workload}: {err}") from None
    if len(ref["outputs"]) != workloads.POOL:
        raise BenchError(f"reference for {workload} has "
                         f"{len(ref['outputs'])} entries, not {workloads.POOL}")
    return ref


class Calibration:
    """A fixed kernel that belongs to the benchmark, not to the package: the
    geometric mean of the times of an interpreter loop and of a memory-bound
    NumPy reduction, the two kinds of work the package does.

    A shared host's speed drifts by up to a third within minutes, because
    other tenants share its cores.  Timing this kernel before and after
    every round and scaling the round's wall time by NOMINAL_CAL_S over the
    kernel's time cancels part of that drift; the program's own speed-ups
    and slow-downs pass through unchanged, since the kernel runs none of its
    code."""

    def __init__(self):
        import numpy
        self._np = numpy
        self._block = numpy.random.default_rng(0).random((66049, 7, 2))

    def __call__(self) -> float:
        t0 = perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i
        t1 = perf_counter()
        for _ in range(3):
            self._np.sum((self._block - 0.5) ** 2, axis=2).min(axis=1)
        t2 = perf_counter()
        return math.sqrt((t1 - t0) * (t2 - t1))


class Tally:
    """Operations attempted and failed, with the failures' labels."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, wl, result, ref, entry: int) -> None:
        attempted, failed = wl.check(result, ref["outputs"][entry])
        self.attempted += attempted
        self.failures.extend(f"entry {entry}: {f}" for f in failed)


def measure(wl, order, ref, seconds: float, trace: bool):
    """Run rounds until `seconds` have passed.  Returns the per-round
    (wall seconds, result) of the timed rounds, the tally, the calibration
    times taken before every untraced round and after the last, and for a
    traced run the recorder and the per-round tracing overheads."""
    tally = Tally()
    rounds, overheads, cals = [], [], []
    rec = calibrate = None
    if trace:
        import layers
        rec = layers.recorder()
    else:
        calibrate = Calibration()
    deadline = perf_counter() + seconds
    r = 0
    while True:
        entry = order[r % len(order)]
        if not trace:
            cals.append(calibrate())
            t0 = perf_counter()
            result = wl.run_round(entry)
            rounds.append((perf_counter() - t0, result))
            tally.add(wl, result, ref, entry)
        else:
            # the same inputs untraced and traced, alternating which goes
            # first so that warm caches favour neither
            walls = {}
            for traced in ((False, True) if r % 2 == 0 else (True, False)):
                if traced:
                    rec.round = r
                    rec.install()
                try:
                    t0 = perf_counter()
                    result = wl.run_round(entry)
                    walls[traced] = perf_counter() - t0
                finally:
                    rec.uninstall()
                tally.add(wl, result, ref, entry)
            rounds.append((walls[True], result))
            overheads.append(walls[True] - walls[False])
        r += 1
        if perf_counter() >= deadline:
            if calibrate is not None:
                cals.append(calibrate())
            return rounds, tally, cals, rec, overheads


def pair_rate(rounds, amount) -> float:
    """Median over consecutive pairs of rounds of amount(result) per wall
    second.  Each pair holds one cheap and one dear input (see
    workloads.visit_order), so pairs are alike where single rounds are not;
    an odd last round is left out."""
    pairs = [rounds[i:i + 2] for i in range(0, len(rounds) - 1, 2)] or [rounds]
    return statistics.median(sum(amount(res) for _, res in pair)
                             / sum(wall for wall, _ in pair) for pair in pairs)


def calibrated(rounds, cals):
    """Rounds with their wall times scaled to the nominal host speed by the
    mean of the calibrations taken just before and just after each."""
    return [(wall * NOMINAL_CAL_S * 2.0 / (cals[i] + cals[i + 1]), res)
            for i, (wall, res) in enumerate(rounds)]


def end_to_end(rounds, setup_times):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    throughput = pair_rate(rounds, lambda res: res.samples)
    return {
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "samples_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def per_layer(rec, rounds, overheads, workload: str, seed: int):
    import layers
    values = layers.layer_metrics(rec.spans, len(rounds))
    values["trace.overhead_s"] = statistics.median(overheads)
    rec.write_csv(os.path.join(OUT, f"spans-{workload}-seed{seed}.csv"))
    return {name: {"value": v, "unit": layers.unit_of(name)}
            for name, v in values.items()}


def run(args) -> int:
    t0 = perf_counter()
    wl, workdir = setup(args.workload)
    setup_times = [perf_counter() - t0]
    try:
        import workloads
        ref = load_reference(args.workload)
        order = workloads.visit_order(args.workload, args.seed,
                                      ref["cost_s"])
        if not args.trace:
            setup_times += [setup_in_subprocess(args.workload)
                            for _ in range(SETUP_REPEATS - 1)]
        rounds, tally, cals, rec, overheads = measure(
            wl, order, ref, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("machine: " + json.dumps(machine_facts(), sort_keys=True))
    walls = [w for w, _ in rounds]
    print(f"workload: {args.workload} seed={args.seed} rounds={len(rounds)} "
          "round_s=" + ",".join(f"{w:.4f}" for w in walls))
    if args.trace:
        metrics = per_layer(rec, rounds, overheads, args.workload, args.seed)
    else:
        print(f"calibration_s median={statistics.median(cals):.5f} "
              f"nominal={NOMINAL_CAL_S}; uncalibrated samples_per_s = "
              f"{pair_rate(rounds, lambda res: res.samples):.6g} 1/s")
        rounds = calibrated(rounds, cals)
        metrics = end_to_end(rounds, setup_times)
        if rounds[0][1].sim_ms:
            realtime = pair_rate(rounds, lambda res: res.sim_ms) / 1e3
            print(f"realtime_factor = {realtime:.6g} "
                  "(simulated ms per calibrated wall ms)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    failed = len(tally.failures)
    print(f"failed_frac = {failed / max(tally.attempted, 1):.6g} "
          f"({failed} of {tally.attempted} operations)")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def make_reference() -> int:
    """Record every pool entry's outputs at this commit, and its cost: the
    faster of two round times, which must give identical outputs."""
    import_package()
    import workloads
    data = {"git_rev": git_rev(), "machine": machine_facts(),
            "workloads": {}}
    for name in NAMES:
        wl, workdir = setup(name)
        outputs, costs = [], []
        try:
            for entry in range(workloads.POOL):
                walls, ref = [], None
                for _ in range(2):
                    t0 = perf_counter()
                    result = wl.run_round(entry)
                    walls.append(perf_counter() - t0)
                    try:
                        if ref is None:
                            ref = wl.reference(result)
                    except ValueError as err:
                        raise BenchError(f"{name} entry {entry}: {err}")
                    _, failed = wl.check(result, ref)
                    if failed:
                        raise BenchError(f"{name} entry {entry}: {failed[0]}")
                outputs.append(ref)
                costs.append(min(walls))
                print(f"{name} entry {entry} ok {min(walls):.3f} s",
                      flush=True)
            data["workloads"][name] = {"outputs": outputs, "cost_s": costs}
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    with open(REFERENCE, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    code = 0
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[1:-1] if proc.returncode == 0 else lines))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            code = proc.returncode
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--make-reference", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.make_reference:
            return make_reference()
        if args.workload is None:
            parser.error("--workload is required")
        if args.setup_only:
            t0 = perf_counter()
            _, workdir = setup(args.workload)
            elapsed = perf_counter() - t0
            shutil.rmtree(workdir, ignore_errors=True)
            print(json.dumps({"setup_s": elapsed}))
            return 0
        if args.workload == "all":
            return run_all(args)
        return run(args)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
