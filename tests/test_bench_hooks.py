"""The benchmark's traced run (bench/layers.py) wraps package functions and
methods by name, each in the module or class body that defines it.  A
refactor that moves or renames one of them breaks that run; this test makes
it break Tier-1 as well."""
import inspect
import os

import numpy as np

from crslab import cli, control, distortion, fields, reconstruct
from crslab.fields import BumpField1D, make_lattice

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")


def _namespaces():
    """Every package module the hooks reach, and every class in them."""
    mods = (cli, control, distortion, fields, reconstruct)
    classes = {cls for mod in mods
               for _, cls in inspect.getmembers(mod, inspect.isclass)
               if cls.__module__.startswith("crslab.")}
    return list(mods) + sorted(classes, key=lambda c: c.__qualname__)


def test_bench_layer_hooks_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    import layers

    before = {ns: dict(vars(ns)) for ns in _namespaces()}
    rec = layers.recorder()
    try:
        rec.install()
        wrapped = [(ns, name) for ns, names in before.items()
                   for name, value in names.items()
                   if vars(ns).get(name) is not value]
        assert (reconstruct.CrsProfile1D, "extended") in wrapped
        assert (reconstruct.CrsSurface2D, "__call__") in wrapped
        # the wrappers run: a 1D CRS build solves one beam, and both
        # evaluation paths record a span
        lat = make_lattice("line", 30.0, 120.0)
        prof = reconstruct.CrsProfile1D(BumpField1D(45.0, 1.0, 90.0), lat)
        prof(np.array([10.0]))
        prof.extended(np.array([10.0]))
        seen = {span.layer for span in rec.spans}
        assert {"reconstruct.build", "elastica.solve",
                "reconstruct.eval"} <= seen
    finally:
        rec.uninstall()
    for ns, names in before.items():
        now = vars(ns)
        assert now.keys() == names.keys(), ns
        assert all(now[name] is value for name, value in names.items()), ns
