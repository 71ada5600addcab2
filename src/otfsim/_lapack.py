"""numpy's own OpenBLAS through ctypes: ``zpotrf`` in place, the ``zgemm``
Gram and the library's thread count; and :func:`map_in_order`, the one
worker pool, which its callers size from :func:`usable_cpus`.

``np.linalg.cholesky`` copies its input into Fortran order, hands that
buffer to the ``zpotrf`` of the OpenBLAS that numpy bundles, and copies the
factor back out. Calling the same routine on a Fortran-ordered matrix the
caller already owns skips both copies and gives the same bits, because
LAPACK sees the same matrix in the same memory layout. Likewise numpy forms
``K @ K.conj().T`` by handing a conjugated copy of K to the bundled
``zgemm``; asking that ``zgemm`` for K times K^H directly skips the copy
and gives the same values.

A threaded Cholesky factor's last bits depend on the thread count, so
:func:`one_blas_thread` runs a block with the library on one thread, and
:func:`cholesky` always factors inside it. The library, its symbols and its
thread control are looked up on first use, never at import. Where one is
missing (another numpy build, another platform) its handle returns None:
:func:`gram` and :func:`cholesky` then fall back to numpy themselves, and
the pin does nothing. Each decides here, once, whether an array suits the
library, so no other array ever reaches a ctypes call.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

# numpy's wheels bundle scipy-openblas with 64-bit LAPACK integers under
# this file name (numpy.libs on Linux and Windows, numpy/.dylibs on macOS)
# and these symbol prefixes.
_LIBRARY = "libscipy_openblas64_*"
# CBLAS enum values.
_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS = 101, 111, 113


@functools.cache
def _library() -> Optional[ctypes.CDLL]:
    """numpy's bundled OpenBLAS, or None when it is not found."""
    package = Path(np.__file__).resolve().parent
    for library in sorted([*(package.parent / "numpy.libs").glob(_LIBRARY),
                           *(package / ".dylibs").glob(_LIBRARY)]):
        try:
            return ctypes.CDLL(str(library))
        except OSError:
            continue
    return None


def _function(symbol: str, argtypes: list, restype=None):
    """The bundled library's ``symbol`` as a ctypes function, or None."""
    function = getattr(_library(), symbol, None)
    if function is not None:
        function.argtypes = argtypes
        function.restype = restype
    return function


@functools.cache
def zpotrf():
    """numpy's bundled ``zpotrf`` as a ctypes function, or None when the
    library or the symbol is not found."""
    int_pointer = ctypes.POINTER(ctypes.c_int64)
    return _function("scipy_zpotrf_64_", [ctypes.c_char_p, int_pointer, ctypes.c_void_p,
                                          int_pointer, int_pointer])


@functools.cache
def zgemm():
    """numpy's bundled ``cblas_zgemm`` as a ctypes function, or None."""
    enum, size, pointer = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
    return _function("scipy_cblas_zgemm64_", [enum, enum, enum, size, size, size, pointer,
                                              pointer, size, pointer, size, pointer, pointer,
                                              size])


@functools.cache
def thread_control() -> Optional[tuple]:
    """The bundled library's process-wide thread-count getter and setter, or
    None. (Its exported ``openblas_set_num_threads_local`` is not used: it
    changed the count that other threads read back.)"""
    get = _function("scipy_openblas_get_num_threads64_", [], ctypes.c_int)
    set_ = _function("scipy_openblas_set_num_threads64_", [ctypes.c_int])
    return None if get is None or set_ is None else (get, set_)


_ONE = np.array(1.0 + 0.0j)
_ZERO = np.array(0.0j)


def gram(matrix: np.ndarray) -> np.ndarray:
    """``matrix @ matrix.conj().swapaxes(-1, -2)`` of a complex128 (..., rows,
    cols) array. A C-contiguous 2-D matrix with both sides above 1 takes one
    ``zgemm`` call with ``ConjTrans`` on ``matrix`` itself, when :func:`zgemm`
    is found, and skips the conjugate copy: it has the bits of numpy's
    product, but that where ``matrix`` holds exact zeros an exact-zero entry
    may carry the other sign. numpy takes another BLAS path when either side
    is 1, so such a matrix, stacks, other layouts and a missing symbol stay
    on numpy."""
    if (matrix.dtype != np.complex128 or matrix.ndim != 2 or min(matrix.shape) < 2
            or not matrix.flags.c_contiguous or zgemm() is None):
        return matrix @ matrix.conj().swapaxes(-1, -2)
    rows, cols = matrix.shape
    out = np.empty((rows, rows), np.complex128)
    zgemm()(_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS, rows, rows, cols, _ONE.ctypes.data,
            matrix.ctypes.data, cols, matrix.ctypes.data, cols, _ZERO.ctypes.data,
            out.ctypes.data, rows)
    return out


def cholesky(matrix: np.ndarray) -> Optional[np.ndarray]:
    """The lower Cholesky factor of each Hermitian matrix in a (..., n, n)
    stack, or None when one is not positive definite, always with BLAS on one
    thread. A writeable Fortran-ordered square complex128 matrix is factored
    in place by ``zpotrf('L')`` when :func:`zpotrf` is found, with the bits
    of ``np.linalg.cholesky``, and returned: only its lower triangle is the
    factor. Anything else goes to ``np.linalg.cholesky``."""
    with one_blas_thread():
        if (matrix.dtype != np.complex128 or matrix.ndim != 2
                or matrix.shape[0] != matrix.shape[1] or not matrix.flags.f_contiguous
                or not matrix.flags.writeable or zpotrf() is None):
            try:
                return np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return None
        size = ctypes.c_int64(matrix.shape[0])
        info = ctypes.c_int64(0)
        zpotrf()(b"L", ctypes.byref(size), matrix.ctypes.data, ctypes.byref(size),
                 ctypes.byref(info))
    return matrix if info.value == 0 else None


_pin_lock = threading.Lock()
_pin_users = 0
_pin_saved = 1


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with the bundled library on one thread. The pin is
    process-wide and counts its users, so blocks may nest and overlap across
    threads: the first user in saves the count and sets 1, the last one out
    restores it, also when the block raises. Without :func:`thread_control`
    the block runs unpinned."""
    global _pin_users, _pin_saved
    control = thread_control()
    if control is None:
        yield
        return
    get, set_ = control
    with _pin_lock:
        if _pin_users == 0:
            _pin_saved = get()
            set_(1)
        _pin_users += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_users -= 1
            if _pin_users == 0:
                set_(_pin_saved)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(workers: int, processes: bool):
    """``workers`` threads or processes. Linux processes start by fork, not
    the default from Python 3.14 on: a spawned worker imports numpy and the
    package again, +1.1 s wall per effective-channel run at M=64, N=16, 2 vCPUs."""
    # Imported here, so that importing the package loads no pool module.
    from concurrent import futures
    if not processes:
        return futures.ThreadPoolExecutor(workers)
    import multiprocessing
    fork = multiprocessing.get_context("fork") if sys.platform == "linux" else None
    return futures.ProcessPoolExecutor(workers, mp_context=fork)


@contextlib.contextmanager
def map_in_order(function: Callable, items: Sequence, workers: int,
                 processes: bool = False) -> Iterator[Iterator]:
    """Iterate over ``function(item)`` for each of ``items``, in item order.

    Fewer than 2 workers or items run in the caller's thread. Otherwise
    ``workers`` threads, or with ``processes`` worker processes, run them
    with at most two items per worker in flight, and with BLAS on one thread
    while the pool lives, so that BLAS threads do not compete with the
    workers for the CPUs. Once any item has failed, no further item is
    submitted, and reading on raises the lowest failing item's error, as a
    serial run does. No worker outlives the ``with`` block, also when it
    raises; a thread pool's queued items then never start."""
    workers = min(workers, len(items))
    if workers < 2:
        yield map(function, items)
        return

    def in_order(pool):
        pending = []
        for item in items:
            if len(pending) == 2 * workers:
                yield pending.pop(0).result()
            if any(future.done() and future.exception() is not None for future in pending):
                break
            pending.append(pool.submit(function, item))
        while pending:
            yield pending.pop(0).result()

    with one_blas_thread():
        pool = _pool(workers, processes)
        try:
            yield in_order(pool)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
