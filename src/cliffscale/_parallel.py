"""The CPUs this process may use, and pure cells run on all of them in forked processes.

``run_split`` runs a list of cells, each a pure function of its index,
first serially and then, once that has taken ``SERIAL_START_S``, in one
forked process per usable CPU, each pinned to its own share of the CPUs.
A cell's result does not depend on the process that computes it, so the
results are the serial ones; a cell that raises or warns anywhere is run
again serially, so the caller sees the serial run's exception or warning.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import warnings

# Seconds of serial cells before the rest are split. Forking a child with
# numpy and scipy loaded, returning its results through a pipe and reaping
# it took 5.2-7.2 ms (median 5.6 ms over 30) on a 2-core x86-64 box. A run
# that ends within this time never forks; on two CPUs a run of T serial
# seconds then takes about 0.02 + (T - 0.02) / 2 + 0.006 s, which is less
# than T from T = 0.032 s on, and costs at most 0.006 s below that.
SERIAL_START_S = 0.02


def usable_cpus() -> list[int]:
    """The numbers of the CPUs this process may run on, ascending."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return list(range(os.cpu_count() or 1))


def _run_share(call, share) -> tuple[list, int | None]:
    """The share's results in order, up to its first cell that raised or warned, and that cell.

    Warnings are recorded, not shown, so that the caller's filters see
    each one only when its cell runs again serially.
    """
    values = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for i in share:
            try:
                value = call(i)
            except Exception:
                return values, i
            if caught:
                return values, i
            values.append(value)
    return values, None


def _fork_share(call, share, cpus) -> tuple[int, object]:
    """(pid, reader) of a child that runs the share on the given CPUs and pickles ``_run_share``'s result."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.sched_setaffinity(0, cpus)
            with os.fdopen(write_fd, "wb") as out:
                pickle.dump(_run_share(call, share), out, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            # Whatever happened, the child never returns into its caller's frames.
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def run_split(call, total: int) -> tuple[list, int]:
    """``[call(i) for i in range(total)]`` and the number of processes whose results it holds.

    Cells run serially until they have taken ``SERIAL_START_S``. If two
    or more remain and this process may use two or more CPUs, process w
    of k then takes the remaining cells w, w + k, w + 2k, ..., since cell
    cost may grow with the index; this process is process 0. Each
    process is pinned to every k-th usable CPU from its own, so threads
    a cell starts per usable CPU do not oversubscribe the cores.

    The results are exact only if each cell is a pure function of its
    index. From the first cell that raised or warned in any share on,
    cells run again serially here, so the caller gets what a serial run
    gives; the share of a child that could not be started or died counts
    as failing at its first cell. Every child is reaped before this
    returns or raises.
    """
    done = []
    deadline = time.perf_counter() + SERIAL_START_S
    while len(done) < total and time.perf_counter() < deadline:
        done.append(call(len(done)))
    start = len(done)
    cpus = usable_cpus()
    k = min(len(cpus), total - start)
    if k < 2 or not hasattr(os, "sched_setaffinity"):
        done.extend(call(i) for i in range(start, total))
        return done, 1

    import signal  # imported here: importing the CLI does not load it

    shares = [range(start + w, total, k) for w in range(k)]
    # A child inherits unwritten buffered output, which would be written twice.
    sys.stdout.flush()
    sys.stderr.flush()
    # Each share's _run_share result; None for a share whose child could not
    # be started or did not report, which then counts as failing at its first cell.
    outcomes = [None] * k
    children = {}  # pid -> (share number, reader), until the child is reaped
    try:
        for w in range(1, k):
            try:
                pid, reader = _fork_share(call, shares[w], cpus[w::k])
            except OSError:  # no process or pipe to be had
                continue
            children[pid] = w, reader
        os.sched_setaffinity(0, cpus[::k])
        outcomes[0] = _run_share(call, shares[0])
        for pid, (w, reader) in list(children.items()):
            payload = reader.read()
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            reader.close()
            if status == 0 and payload:  # exited with 0 after writing its results
                outcomes[w] = pickle.loads(payload)
    finally:
        os.sched_setaffinity(0, cpus)
        for pid, (_, reader) in children.items():
            os.kill(pid, signal.SIGKILL)
            reader.close()
            os.waitpid(pid, 0)

    results = done + [None] * (total - start)
    first_failure = total
    for share, outcome in zip(shares, outcomes):
        values, failed = outcome or ([], share[0])
        got = share[: len(values)]
        results[got.start : got.stop : got.step] = values
        if failed is not None:
            first_failure = min(first_failure, failed)
    for i in range(first_failure, total):
        results[i] = call(i)
    return results, sum(outcome is not None for outcome in outcomes)
