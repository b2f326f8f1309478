"""Scoped control of the BLAS thread count numpy's products run on.

Which count a block runs on is its runner's decision
(``linreg.run_linreg_scaling``, ``harmonic.training.train``); this module
only sets and restores it.

The count is process-wide: nested scopes restore it in order, but two
threads that scope it at once can restore each other's value.
"""

from __future__ import annotations

import contextlib
import functools


@functools.cache
def _controls():
    """(get, set) for the thread count of the BLAS numpy links, or None.

    Opening numpy's own extension module resolves the symbols of the
    BLAS it was linked against, whichever wheel or build supplied it.
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
        return get, set_
    return None


def thread_count() -> int | None:
    """The BLAS thread count now in effect, or None when it cannot be read."""
    controls = _controls()
    return None if controls is None else controls[0]()


@contextlib.contextmanager
def blas_threads(count: int):
    """Run the block with ``count`` BLAS threads, then restore the previous count.

    Does nothing when the BLAS offers no thread control.
    """
    controls = _controls()
    if controls is None:
        yield
        return
    get, set_ = controls
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)

