"""numpy's own OpenBLAS through ctypes: ``zpotrf`` in place, the ``zgemm``
Gram and the library's thread count; :func:`map_in_order`, the one worker
pool; the pin of glibc's malloc thresholds; and :func:`lazy_zeros`, the
allocator of mostly-zero arrays. No other module asks about the platform.

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
:func:`cholesky` always factors inside it. The library is found whole or
not at all, on first use, never at import: :func:`_bundled` is its routines
or None. Without it (another numpy build, another platform) :func:`gram`
and :func:`cholesky` fall back to numpy themselves, the pin does nothing
and :func:`map_in_order` starts no threads of its own choosing. Each
decides here, once, whether an array suits the library, so no other array
ever reaches a ctypes call.

After each threaded call, and once when it loads, OpenBLAS keeps its idle
worker threads spinning for ``2**OPENBLAS_THREAD_TIMEOUT`` clock cycles
before they sleep: by default 2**28, about 0.13 s of one CPU at 2 GHz, which
no product of this package gains from. So, if numpy is not loaded yet, this
module sets ``OPENBLAS_THREAD_TIMEOUT=22`` (2**22 cycles, about 2 ms) before
it imports numpy, since the library reads it once, when numpy loads it. A
timeout already in the environment is left as it is, and once numpy is
loaded nothing is set. The timeout changes when idle threads sleep, not how
a product is split among them, so no output bit depends on it. The package
imports this module first, so the default holds for the CLI and for any
program that imports the package before numpy.

glibc's malloc serves a block of at least its mmap threshold from a fresh
mapping, which ``free`` unmaps, and returns the heap's top to the system
once more than its trim threshold is free there. Both start at 128 KiB and
by default rise when a mapped block is freed: after a large array is freed,
later arrays of a few MiB come from the heap, and their pages stay resident
after they are freed, so peak RSS followed the order of allocations rather
than which arrays were alive. So at import this module pins both
thresholds with ``mallopt`` at :data:`_MALLOC_THRESHOLD`, 4 MiB, the size
from which numpy asks for huge pages: a fixed threshold does not move. A
threshold the user set, by its ``MALLOC_*_`` variable or its
``glibc.malloc.*`` key in ``GLIBC_TUNABLES``, is left as it is, and where
the C library has no ``mallopt`` (macOS's, for one) nothing is set. The
pin is process-wide and changes where an array's memory comes from, not a
value in it.

numpy advises huge pages for every array of 4 MiB or more, so the first
write into a 2 MiB stretch of it makes all 2 MiB resident. That suits the
dense arrays, which are written in full, but not the large references that
are mostly zero and written only on a band or a diagonal: the frame-length
channel matrix H, a materialized block-diagonal factor and
``effective-channel``'s two window matrices. Those come from
:func:`lazy_zeros`, which advises ``MADV_NOHUGEPAGE`` on the array's whole
pages right after ``np.zeros``, so a write makes one 4 KiB page resident.
The advice is per array, not process-wide (numpy's
``NUMPY_MADVISE_HUGEPAGE=0``): the dense K, the Grams and the Fortran copy
of the capacity path are written in full and keep their huge pages, which
spare them one page fault per 4 KiB. Only Linux gets the advice, through the same C library handle as
``mallopt``, since other systems number their ``madvise`` advice
differently; elsewhere :func:`lazy_zeros` is ``np.zeros``. The advice
changes which pages are resident, not a value in the array.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import ctypes
import functools
import os
import sys
import threading
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")

# glibc's mallopt parameters and the value both are pinned at, numpy's
# huge-page size (``1 << 22`` in its allocator).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLD = 4 << 20
# Each parameter's environment variable and GLIBC_TUNABLES key.
_MALLOC_SETTINGS = {
    _M_MMAP_THRESHOLD: ("MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),
    _M_TRIM_THRESHOLD: ("MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),
}


def _pin_malloc_thresholds(environ, libc) -> None:
    """Set each of malloc's mmap and trim thresholds that ``environ`` does
    not set to :data:`_MALLOC_THRESHOLD`, by ``libc.mallopt``; nothing when
    ``libc`` has no ``mallopt``."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    tunables = {item.partition("=")[0] for item in environ.get("GLIBC_TUNABLES", "").split(":")}
    for parameter, (variable, key) in _MALLOC_SETTINGS.items():
        if variable not in environ and key not in tunables:
            mallopt(parameter, _MALLOC_THRESHOLD)


# The process's own symbols, the C library's among them; None off POSIX.
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None
if _LIBC is not None:
    _pin_malloc_thresholds(os.environ, _LIBC)

import numpy as np  # noqa: E402  (after the timeout and the pin above)

# Linux's madvise and its MADV_NOHUGEPAGE advice, or None on other systems.
_MADV_NOHUGEPAGE = 15
_madvise = getattr(_LIBC, "madvise", None) if sys.platform.startswith("linux") else None
if _madvise is not None:
    _madvise.argtypes = [ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int]
    _madvise.restype = ctypes.c_int
_PAGE = os.sysconf("SC_PAGE_SIZE") if _madvise is not None else 1


def lazy_zeros(shape, dtype=np.complex128) -> np.ndarray:
    """``np.zeros(shape, dtype)`` for a large array that is mostly zero and
    written sparsely. On Linux an array of :data:`_MALLOC_THRESHOLD` bytes or
    more, the size from which numpy advises huge pages, is then advised
    ``MADV_NOHUGEPAGE`` on its whole pages, so that each write makes one small
    page resident; elsewhere, and below that size, it is ``np.zeros``."""
    array = np.zeros(shape, dtype)
    if _madvise is not None and array.nbytes >= _MALLOC_THRESHOLD:
        start = -(-array.ctypes.data // _PAGE) * _PAGE
        stop = (array.ctypes.data + array.nbytes) // _PAGE * _PAGE
        _madvise(start, stop - start, _MADV_NOHUGEPAGE)
    return array


# numpy's wheels bundle scipy-openblas with 64-bit LAPACK integers under
# this file name (numpy.libs on Linux and Windows, numpy/.dylibs on macOS)
# and these symbol prefixes.
_LIBRARY = "libscipy_openblas64_*"
# CBLAS enum values.
_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS = 101, 111, 113
_ENUM, _SIZE, _POINTER = ctypes.c_int, ctypes.c_int64, ctypes.c_void_p
_SIZE_POINTER = ctypes.POINTER(_SIZE)
# The routines the package calls, by field of the handle: each one's symbol,
# argument types and result type. The thread count is the process-wide one:
# the exported ``openblas_set_num_threads_local`` is not used, since it
# changed the count that other threads read back.
_ROUTINES = {
    "zpotrf": ("scipy_zpotrf_64_",
               [ctypes.c_char_p, _SIZE_POINTER, _POINTER, _SIZE_POINTER, _SIZE_POINTER], None),
    "zgemm": ("scipy_cblas_zgemm64_", [_ENUM, _ENUM, _ENUM, _SIZE, _SIZE, _SIZE, _POINTER,
                                       _POINTER, _SIZE, _POINTER, _SIZE, _POINTER, _POINTER,
                                       _SIZE], None),
    "get_threads": ("scipy_openblas_get_num_threads64_", [], ctypes.c_int),
    "set_threads": ("scipy_openblas_set_num_threads64_", [ctypes.c_int], None),
    "config": ("scipy_openblas_get_config64_", [], ctypes.c_char_p),  # the build string
}
_Bundled = collections.namedtuple("_Bundled", _ROUTINES)


@functools.cache
def _bundled() -> Optional[_Bundled]:
    """numpy's bundled OpenBLAS as one handle of its routines, or None when
    the library or any one of them is not found."""
    package = Path(np.__file__).resolve().parent
    for path in sorted([*(package.parent / "numpy.libs").glob(_LIBRARY),
                        *(package / ".dylibs").glob(_LIBRARY)]):
        try:
            library = ctypes.CDLL(str(path))
        except OSError:
            continue
        routines = []
        for symbol, argtypes, restype in _ROUTINES.values():
            routine = getattr(library, symbol, None)
            if routine is None:
                return None
            routine.argtypes, routine.restype = argtypes, restype
            routines.append(routine)
        return _Bundled(*routines)
    return None


_ONE = np.array(1.0 + 0.0j)
_ZERO = np.array(0.0j)


def gram(matrix: np.ndarray) -> np.ndarray:
    """``matrix @ matrix.conj().swapaxes(-1, -2)`` of a complex128 (..., rows,
    cols) array. A C-contiguous 2-D matrix with both sides above 1 takes one
    ``zgemm`` call with ``ConjTrans`` on ``matrix`` itself, when the library
    is found, and skips the conjugate copy: it has the bits of numpy's
    product, but that where ``matrix`` holds exact zeros an exact-zero entry
    may carry the other sign. numpy takes another BLAS path when either side
    is 1, so such a matrix, stacks, other layouts and a missing library stay
    on numpy."""
    if (matrix.dtype != np.complex128 or matrix.ndim != 2 or min(matrix.shape) < 2
            or not matrix.flags.c_contiguous or (bundled := _bundled()) is None):
        return matrix @ matrix.conj().swapaxes(-1, -2)
    rows, cols = matrix.shape
    out = np.empty((rows, rows), np.complex128)
    bundled.zgemm(_ROW_MAJOR, _NO_TRANS, _CONJ_TRANS, rows, rows, cols, _ONE.ctypes.data,
                  matrix.ctypes.data, cols, matrix.ctypes.data, cols, _ZERO.ctypes.data,
                  out.ctypes.data, rows)
    return out


def cholesky(matrix: np.ndarray) -> Optional[np.ndarray]:
    """The lower Cholesky factor of each Hermitian matrix in a (..., n, n)
    stack, or None when one is not positive definite, always with BLAS on one
    thread. A writeable Fortran-ordered square complex128 matrix is factored
    in place by ``zpotrf('L')`` when the library is found, with the bits
    of ``np.linalg.cholesky``, and returned: only its lower triangle is the
    factor. Anything else goes to ``np.linalg.cholesky``."""
    with one_blas_thread():
        if (matrix.dtype != np.complex128 or matrix.ndim != 2
                or matrix.shape[0] != matrix.shape[1] or not matrix.flags.f_contiguous
                or not matrix.flags.writeable or (bundled := _bundled()) is None):
            try:
                return np.linalg.cholesky(matrix)
            except np.linalg.LinAlgError:
                return None
        size = ctypes.c_int64(matrix.shape[0])
        info = ctypes.c_int64(0)
        bundled.zpotrf(b"L", ctypes.byref(size), matrix.ctypes.data, ctypes.byref(size),
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
    restores it, also when the block raises. Without the library the block
    runs unpinned."""
    global _pin_users, _pin_saved
    bundled = _bundled()
    if bundled is None:
        yield
        return
    with _pin_lock:
        if _pin_users == 0:
            _pin_saved = bundled.get_threads()
            bundled.set_threads(1)
        _pin_users += 1
    try:
        yield
    finally:
        with _pin_lock:
            _pin_users -= 1
            if _pin_users == 0:
                bundled.set_threads(_pin_saved)


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool(workers: int):
    """A pool of ``workers`` threads."""
    # Imported here, so that importing the package loads no pool module.
    from concurrent import futures
    return futures.ThreadPoolExecutor(workers)


@contextlib.contextmanager
def map_in_order(function: Callable, items: Sequence,
                 workers: Optional[int] = None) -> Iterator[Iterator]:
    """Iterate over ``function(item)`` for each of ``items``, in item order.

    None ``workers`` means one per usable CPU; but threads share the
    process's BLAS, so without the library, whose pin keeps BLAS threads out
    of their way, they are not started: the items run in the caller's thread.
    Fewer than 2 workers or items run in the caller's thread. Otherwise
    ``workers`` threads run them with at most two items per worker in
    flight, and with BLAS on one thread while the pool lives, so that BLAS
    threads do not compete with the workers for the CPUs. Once any item has
    failed, no further item is submitted, and reading on raises the lowest
    failing item's error, as a serial run does. A thread runs each item in a
    copy of the caller's context, so it sees the caller's numpy error state.
    No worker outlives the ``with`` block, also when it raises, and queued
    items then never start."""
    if workers is None:
        workers = usable_cpus() if _bundled() is not None else 1
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
            pending.append(pool.submit(contextvars.copy_context().run, function, item))
        while pending:
            yield pending.pop(0).result()

    with one_blas_thread():
        pool = _pool(workers)
        try:
            yield in_order(pool)
        finally:
            pool.shutdown(wait=True, cancel_futures=True)
