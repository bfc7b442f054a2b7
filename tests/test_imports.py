"""Start-up: importing crslab loads NumPy only, and SciPy loads at the first
beam solve, arc integral or root find.  Each check runs in a fresh
interpreter, because this test session has long since loaded SciPy."""
import json
import os
import subprocess
import sys
import textwrap

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

_CHILD = textwrap.dedent("""
    import json, os, sys
    import crslab
    import crslab.cli
    from crslab import cli
    from crslab.control import ServoSpec, compression_plan
    from crslab.distortion import position_distortion, shape_distortion
    from crslab.elastica import solve_elastica_1d
    from crslab.fields import BumpField2D, make_lattice
    from crslab.mechanics import BeamSpec, range_limits
    from crslab.reconstruct import ReconstructionModel

    def scipy_modules():
        return sorted(m for m in sys.modules
                      if m == "scipy" or m.startswith("scipy."))

    seen = {"import": scipy_modules()}
    for lat in (make_lattice("line", 30.0, 240.0),
                make_lattice("square", 30.0, (180.0, 150.0)),
                make_lattice("hexagonal", 30.0, 60.0)):
        for variant in ("pixel-only", "linear"):
            model = ReconstructionModel(variant)
            position_distortion(model, lat, 90.0, 5, 1)
            shape_distortion(model, lat, 90.0, 5, 1)
    seen["estimates"] = scipy_modules()
    out = sys.argv[1]
    cfg = os.path.join(out, "table.json")
    with open(cfg, "w") as fh:
        json.dump({"experiment": "strain-table", "cell_mm": [4.0],
                   "h_mm": [2.0]}, fh)
    codes = [cli.main(["strain-table", "--out",
                       os.path.join(out, "strain.csv")]),
             cli.main(["phase-diagram", "--out",
                       os.path.join(out, "phase.csv"),
                       "--set", "resolution=6"]),
             cli.main(["validate-config", cfg])]
    seen["commands"] = scipy_modules()
    # four pins: the seed of a beam with more than three interpolates them
    solve_elastica_1d([(0.0, 0.0), (30.0, 1.0), (60.0, -1.0), (90.0, 0.0)],
                      0.5)
    seen["solve"] = scipy_modules()
    lat = make_lattice("hexagonal", 30.0, 60.0)
    compression_plan(BumpField2D((0.0, 0.0), 2.0, 90.0), lat.beam_lines(),
                     ServoSpec())
    seen["plan"] = scipy_modules()
    range_limits(BeamSpec(2000.0, 5.0, 0.5, 100.0), 0.002, 9.0,
                 wavelength=90.0)
    seen["range"] = scipy_modules()
    # the first calls put the routines themselves in the modules' globals
    import scipy.integrate, scipy.interpolate, scipy.optimize
    import scipy.linalg.lapack
    from crslab import elastica, fields, mechanics
    bound = [getattr(elastica, n) is getattr(scipy.linalg.lapack, n)
             for n in ("dgesv", "dgtsv", "dpttrf", "dpttrs", "dstebz",
                       "dsyevd")]
    bound += [elastica.PchipInterpolator is scipy.interpolate.PchipInterpolator,
              fields.quad is scipy.integrate.quad,
              mechanics.brentq is scipy.optimize.brentq]
    print(json.dumps({"codes": codes, "seen": seen, "bound": bound}))
""")


def test_import_and_pixel_only_work_load_no_scipy(tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
               + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(tmp_path)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0]
    seen = report["seen"]
    assert seen["import"] == []
    assert seen["estimates"] == []
    assert seen["commands"] == []
    # each first call loads the SciPy subpackage it needs
    assert {"scipy.linalg", "scipy.interpolate"} <= set(seen["solve"])
    assert "scipy.integrate" in seen["plan"]
    assert "scipy.optimize" in seen["range"]
    assert report["bound"] == [True] * 9
