"""Fixtures shared by the test modules."""
import multiprocessing

import pytest

from crslab import _pool


@pytest.fixture
def helper_pool():
    """This process's helper pool, forked if need be.  The test is skipped
    only where crslab runs no helper by design: one usable CPU, no ``fork``
    start method, or a daemonic process.  Anywhere else a helper must run,
    so a pool that cannot fork fails the test instead of skipping it."""
    if (_pool._usable_cpus() < 2
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        pytest.skip("crslab runs no helper here")
    _pool.map_outcomes(abs, [1, 2])
    assert _pool._POOL is not None and _pool._POOL.procs, \
        "no helper runs, though this process may fork one"
    return _pool._POOL
