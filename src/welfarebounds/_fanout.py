"""Independent units of work spread over one forked worker process per CPU.

Workers are forked, so they start with numpy and the package imported;
`spawn` or `forkserver` would import both again in each worker.
The worker count is the process's affinity mask, with no option to set
it: under `taskset -c 0` every unit runs inline, with the same results.

A fork is not made where it is unsafe or not allowed, and the units then
run inline: in a daemonic process (a multiprocessing pool's worker, which
may have no children) and while another Python thread runs (it may hold a
lock that the child would inherit held).  What is left is native threads:
from Python 3.12, os.fork() warns (DeprecationWarning) when the process has
any other thread, as it does once numpy's OpenBLAS has started its pool.
OpenBLAS stops that pool around a fork (pthread_atfork), so the warning is
silenced for the pool's forks alone.  The CI workflow runs the tests on
Python 3.12.
"""

from __future__ import annotations

import os
import sys
import threading
import warnings


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 (everything inline) where the OS has none."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _may_fork() -> bool:
    """False in a daemonic process and while other Python threads run."""
    if threading.active_count() > 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is None or not multiprocessing.current_process().daemon


def fan_out(func, units: list) -> list:
    """[func(unit) for unit in units], over min(CPUs, units) forked workers.

    func must be a module-level function and the units and results
    picklable.  Units go to the workers one at a time, in order, and the
    results come back in unit order.  With one worker, or where a fork is
    unsafe (see the module docstring), the units run inline and
    multiprocessing is not imported.  An exception in a unit is raised to
    the caller.
    """
    workers = min(_cpus(), len(units))
    if workers < 2 or not _may_fork():
        return [func(unit) for unit in units]
    import multiprocessing

    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
        )
        pool = multiprocessing.get_context("fork").Pool(workers)
    with pool:
        results = pool.map(func, units, chunksize=1)
        pool.close()
        pool.join()
    return results
