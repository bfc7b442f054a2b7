"""SciPy routines bound at their first call.

Importing crslab loads NumPy only: SciPy's subpackages take most of a
second and some 50 MB to import, and the pixel-only and linear models never
call them.  A module that needs ``scipy.linalg.lapack.dgesv`` instead binds

    dgesv = deferred(globals(), "scipy.linalg.lapack", "dgesv")

The stand-in's first call imports the SciPy module, puts the routine itself
in the module's globals in the stand-in's place, and calls it.  Later calls
look up the routine directly, so a hot loop pays no import statement and no
extra call layer.
"""
from __future__ import annotations

import importlib


def deferred(namespace: dict, module: str, name: str):
    """A stand-in for ``module.name`` under ``name`` in ``namespace`` (a
    module's globals()) that binds the routine there at its first call.
    A stand-in that something else has replaced in the meantime, such as
    a test's wrapper, is left replaced."""

    def first_call(*args, **kwargs):
        routine = getattr(importlib.import_module(module), name)
        if namespace.get(name) is first_call:
            namespace[name] = routine
        return routine(*args, **kwargs)

    first_call.__name__ = first_call.__qualname__ = name
    return first_call
