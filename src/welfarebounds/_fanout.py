"""Independent units of work spread over one forked worker process per CPU.

fan_out forks its workers itself with os.fork, so they start with numpy
and the package imported and cost a few milliseconds to start and stop;
`spawn` or `forkserver` would import both again in each worker.  The
worker count is the process's affinity mask, with no option to set it:
under `taskset -c 0` every unit runs inline, with the same results.

The parent writes every unit's index into one pipe, which the workers
share as a queue: a worker reads the next index when it is done with a
unit, so a large unit does not hold up the small ones behind it.  Each
index is a 4-byte record, the parent writes whole records only, and Linux
fills a pipe in page-sized pieces of each write, so a read of 4 bytes
takes one whole index (a short read would fail the worker, never give it
a wrong index).  When the queue is drained, a worker pickles its (index,
ok, result or exception) list into a pipe of its own and ends at
os._exit.  A worker that ends without its results (killed by the
out-of-memory killer, say) makes fan_out raise WorkerLost, and no worker
outlives a call: if the parent raises, it kills and reaps every worker
that is left.

A fork is not made where it is unsafe or not allowed, and the units then
run inline: in one of fan_out's own workers (a nested call), in a daemonic
multiprocessing process (which may have no children), and while another
Python thread runs (it may hold a lock that the child would inherit held).
What is left is native threads: from Python 3.12, os.fork() warns
(DeprecationWarning) when the process has any other thread.  A CLI process
has none, since welfarebounds.cli gives numpy one BLAS thread before numpy
loads; a library caller that imports numpy first, as the test process
does, may have OpenBLAS's thread pool running.  OpenBLAS stops that pool
around a fork (pthread_atfork), so the warning is silenced for fan_out's
forks alone.  The CI workflow runs the tests on Python 3.12.
"""

from __future__ import annotations

import os
import pickle
import signal
import struct
import sys
import threading
import warnings
from typing import NoReturn

from .errors import WorkerLost

# One unit index in the queue pipe.
_INDEX = struct.Struct("=I")

# True in fan_out's workers, whose own fan_out calls run inline.
_in_worker = False


def _cpus() -> int:
    """CPUs in this process's affinity mask; 1 (everything inline) where the OS has none."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _may_fork() -> bool:
    """False in a fan_out worker, in a daemonic process, and while other Python threads run."""
    if _in_worker or threading.active_count() > 1:
        return False
    multiprocessing = sys.modules.get("multiprocessing")
    return multiprocessing is None or not multiprocessing.current_process().daemon


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _pipe(buffering: int = -1):
    """A pipe's (read end, write end) as binary files."""
    read_fd, write_fd = os.pipe()
    return open(read_fd, "rb", buffering=buffering), open(write_fd, "wb", buffering=buffering)


def _work(func, units: list, queue, results, inherited: list) -> NoReturn:
    """A worker's life: close the `inherited` pipe ends, run the queued units,
    pickle their outcomes into `results`, end at os._exit."""
    global _in_worker
    _in_worker = True
    code = 1
    try:
        for fh in inherited:
            fh.close()
        outcomes = []
        while record := queue.read(_INDEX.size):
            (index,) = _INDEX.unpack(record)
            try:
                outcomes.append((index, True, func(units[index])))
            except Exception as exc:
                outcomes.append((index, False, exc))
        _flush_std_streams()
        pickle.dump(outcomes, results, pickle.HIGHEST_PROTOCOL)
        results.close()
        code = 0
    finally:
        os._exit(code)


def fan_out(func, units: list) -> list:
    """[func(unit) for unit in units], over min(CPUs, units) forked workers.

    The results must be picklable; func and the units reach the workers
    through the fork.  Each worker takes the next unit as it is done with
    one, and the results come back in unit order.  With one worker, or
    where a fork is unsafe (see the module docstring), the units run
    inline.  An exception in a unit is raised to the caller, the first in
    unit order, without the worker's traceback; a worker that ends without
    its results raises WorkerLost.
    """
    workers = min(_cpus(), len(units))
    if workers < 2 or not _may_fork():
        return [func(unit) for unit in units]
    _flush_std_streams()
    # unbuffered: a worker's read takes one index, not a buffer's worth
    queue_in, queue_out = _pipe(buffering=0)
    pipes = [_pipe() for _ in range(workers)]  # each worker's result pipe
    pids = []  # the workers not yet reaped, in the order of their pipes
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded, use of fork\(\)", DeprecationWarning
            )
            for _, writer in pipes:
                pid = os.fork()
                if pid == 0:
                    ends = [end for pipe in pipes for end in pipe if end is not writer]
                    _work(func, units, queue_in, writer, [queue_out, *ends])
                writer.close()
                pids.append(pid)
        queue_in.close()
        # written after the forks: a large queue outgrows the pipe's buffer
        queue = memoryview(b"".join(map(_INDEX.pack, range(len(units)))))
        try:
            while queue:
                queue = queue[queue_out.write(queue):]
        except BrokenPipeError:
            pass  # no worker is left to read the queue; the result pipes say why
        queue_out.close()
        results = [None] * len(units)
        failures = {}
        for pid, (reader, _) in zip(list(pids), pipes):
            payload = reader.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            pids.remove(pid)
            if code != 0:
                how = f"signal {-code}" if code < 0 else f"exit status {code}"
                raise WorkerLost(f"a worker process ended by {how} before returning its results")
            for index, ok, value in pickle.loads(payload):
                if ok:
                    results[index] = value
                else:
                    failures[index] = value
        if failures:
            raise failures[min(failures)]
        return results
    finally:
        for end in (queue_in, queue_out, *(end for pipe in pipes for end in pipe)):
            end.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
