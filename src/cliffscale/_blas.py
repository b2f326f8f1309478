"""Scoped control of the BLAS thread count numpy's products run on.

After a multithreaded product, OpenBLAS keeps its worker threads
busy-waiting for more work. A serial loop that makes a small product
every few hundred microseconds therefore keeps every other core
spinning for the whole run while saving no wall time, so the runners
make their small products on one thread.

The count is process-wide: nested scopes restore it in order, but two
threads that scope it at once can restore each other's value.
"""

from __future__ import annotations

import contextlib
import functools

# The m*n*k of a block's largest product from which it keeps the thread
# count it was given. Below it a second thread saves little or no wall
# time and doubles the CPU time. Measured on a 2-core x86-64 box
# (scipy-openblas 0.3.31), wall per call at 1 -> 2 threads, the CPU time
# at 2 threads being about twice its wall:
#   ridge fit on n full rows, float64, max(n, d) * d^2:
#     d=100 n=1000 1.0e7: 0.49-0.54 -> 0.46-1.40 ms
#     d=200 n=400  1.6e7: 1.32-1.34 -> 1.05-1.27 ms
#     d=283 n=566  4.5e7: 2.06-2.28 -> 2.12-2.29 ms
#     d=400 n=800  1.3e8: 6.65-6.79 -> 4.84-5.52 ms
#   harmonic train() step, float32, width 256, no regularizer, rows * 256^2:
#     rows=64   4.2e6: 1.46-1.77 -> 1.49-1.65 ms
#     rows=128  8.4e6: 1.93-2.30 -> 1.68-2.11 ms
#     rows=256  1.7e7: 3.01-3.16 -> 2.80 ms
#     rows=1024 6.7e7: 8.6-10.8  -> 7.84-7.87 ms
# 2^24 = 256^3 keeps the default 256-row batch at width 256 threaded,
# and every linreg lstsq or ridge cell up to d = 256 on one thread: such a
# cell fits at most d rows from n = d on (linreg.sample_dataset_sufficient),
# so its largest product is d^3 at any n.
ONE_THREAD_BELOW = 2**24


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


def threads_for(largest_product: int):
    """One BLAS thread for a block whose largest product's m*n*k is below ONE_THREAD_BELOW.

    At or above it the block keeps the thread count it was given.
    """
    if largest_product < ONE_THREAD_BELOW:
        return blas_threads(1)
    return contextlib.nullcontext()
