"""Scoped control of the BLAS thread count numpy's products run on.

``curves.run_cells`` is the one decider: every cell runs on one BLAS
thread, in whichever process runs it. This module only sets and restores
the count.

The count is process-wide: nested scopes restore it in order, but two
threads that scope it at once can restore each other's value.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def _controls():
    """(get, set, shutdown) for the BLAS numpy links, or None without a thread count control.

    Opening numpy's own extension module resolves the symbols of the
    BLAS it was linked against, whichever wheel or build supplied it.
    ``shutdown`` stops OpenBLAS's worker threads; it is None when the
    BLAS does not export it.
    """
    import ctypes

    try:
        import numpy._core._multiarray_umath as umath

        lib = ctypes.CDLL(umath.__file__)
    except (ImportError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        shutdown = getattr(lib, "blas_thread_shutdown_", None)
        if shutdown is not None:
            shutdown.argtypes, shutdown.restype = [], ctypes.c_int
        return get, set_, shutdown
    return None


def thread_count() -> int | None:
    """The BLAS thread count now in effect, or None when it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[0]()


def _set(controls, count: int) -> None:
    """Set the count, then stop the worker threads that setting it may have started.

    After a fork OpenBLAS re-creates its pool on every set, whatever the
    count, and a new worker spins a core for ~0.13 s before it sleeps.
    The next product that wants more than one thread starts them again.
    """
    _, set_, shutdown = controls
    set_(count)
    if shutdown is not None:
        shutdown()


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with ``count`` BLAS threads, then restore the previous count.

    Does nothing when the BLAS offers no thread control.
    """
    controls = _controls()
    if controls is None:
        yield
        return
    previous = controls[0]()
    _set(controls, count)
    try:
        yield
    finally:
        _set(controls, previous)
