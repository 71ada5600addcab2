"""The process-wide settings of the ``otfsim`` command, made by :func:`tune`:
OpenBLAS's idle-thread timeout and the pin of glibc's malloc thresholds.
:mod:`otfsim.cli` calls it on import, before it imports numpy. Importing the
package makes neither, so a program that embeds the library keeps its own.
This module imports no numpy, and importing it changes nothing.

After each threaded call, and once when it loads, OpenBLAS keeps its idle
worker threads spinning for ``2**OPENBLAS_THREAD_TIMEOUT`` clock cycles
before they sleep: by default 2**28, about 0.13 s of one CPU at 2 GHz, which
no product of this package gains from. So, if numpy is not loaded yet,
:func:`tune` sets ``OPENBLAS_THREAD_TIMEOUT=22`` (2**22 cycles, about 2 ms),
since the library reads it once, when numpy loads it; on 2 vCPUs this cut
``verify``'s CPU time from about 4.0 to 3.0 s at the same wall time. A
timeout already in the environment is left as it is, and once numpy is
loaded nothing is set. The timeout changes when idle threads sleep, not how
a product is split among them, so no output bit depends on it.

glibc's malloc serves a block of at least its mmap threshold from a fresh
mapping, which ``free`` unmaps, and returns the heap's top to the system
once more than its trim threshold is free there. Both start at 128 KiB and
by default rise when a mapped block is freed: after a large array is freed,
later arrays of a few MiB come from the heap, and their pages stay resident
after they are freed, so peak RSS followed the order of allocations rather
than which arrays were alive. So :func:`tune` pins both thresholds with
``mallopt`` at :data:`_MALLOC_THRESHOLD`, 4 MiB, the size from which numpy
asks for huge pages: a fixed threshold does not move. Pinned, large-frame
``capacity`` peaked at 199.6 MiB instead of 213.7, and ``verify`` on the
reference-export config at 108 instead of 112. A threshold the user set, by
its ``MALLOC_*_`` variable or its ``glibc.malloc.*`` key in
``GLIBC_TUNABLES``, is left as it is, and where the C library has no
``mallopt`` (macOS's, for one) nothing is set. The pin changes where an
array's memory comes from, not a value in it.
"""

from __future__ import annotations

import ctypes
import os
import sys

# glibc's mallopt parameters and the value both are pinned at, numpy's
# huge-page size (``1 << 22`` in its allocator).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MALLOC_THRESHOLD = 4 << 20
# Each parameter's environment variable and GLIBC_TUNABLES key.
_MALLOC_SETTINGS = {
    _M_MMAP_THRESHOLD: ("MALLOC_MMAP_THRESHOLD_", "glibc.malloc.mmap_threshold"),
    _M_TRIM_THRESHOLD: ("MALLOC_TRIM_THRESHOLD_", "glibc.malloc.trim_threshold"),
}
# The process's own symbols, the C library's among them; None off POSIX.
_LIBC = ctypes.CDLL(None) if os.name == "posix" else None


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


def tune() -> None:
    """Set OpenBLAS's idle-thread timeout to 22 unless it is set or numpy is
    loaded already, and pin each malloc threshold the user did not set."""
    if "numpy" not in sys.modules:
        os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "22")
    _pin_malloc_thresholds(os.environ, _LIBC)
