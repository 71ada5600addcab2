"""numpy's own LAPACK ``zpotrf``, called in place through ctypes.

``np.linalg.cholesky`` copies its input into Fortran order, hands that
buffer to the ``zpotrf`` of the OpenBLAS that numpy bundles, and copies the
factor back out. Calling the same routine on a Fortran-ordered matrix the
caller already owns skips both copies and gives the same bits, because
LAPACK sees the same matrix in the same memory layout. The library and its
symbol are looked up on first use, never at import. Where either is
missing (another numpy build, another platform) :func:`zpotrf` returns
None and callers use ``np.linalg.cholesky``.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np

from .errors import DimensionError

# numpy's wheels bundle scipy-openblas with 64-bit LAPACK integers under
# this file name (numpy.libs on Linux and Windows, numpy/.dylibs on macOS)
# and this symbol prefix.
_LIBRARY = "libscipy_openblas64_*"
_SYMBOL = "scipy_zpotrf_64_"


@functools.cache
def zpotrf():
    """numpy's bundled ``zpotrf`` as a ctypes function, or None when the
    library or the symbol is not found."""
    package = Path(np.__file__).resolve().parent
    for library in sorted([*(package.parent / "numpy.libs").glob(_LIBRARY),
                           *(package / ".dylibs").glob(_LIBRARY)]):
        try:
            function = getattr(ctypes.CDLL(str(library)), _SYMBOL)
        except (OSError, AttributeError):
            continue
        int_pointer = ctypes.POINTER(ctypes.c_int64)
        function.argtypes = [ctypes.c_char_p, int_pointer, ctypes.c_void_p, int_pointer,
                             int_pointer]
        function.restype = None
        return function
    return None


def factor_lower(matrix: np.ndarray) -> bool:
    """Overwrite the lower triangle of the Hermitian ``matrix`` with its
    Cholesky factor by ``zpotrf('L')``; False when the matrix is not
    positive definite. ``matrix`` must be a writeable, Fortran-ordered,
    square complex128 array, and :func:`zpotrf` must not be None."""
    if (matrix.dtype != np.complex128 or matrix.ndim != 2
            or matrix.shape[0] != matrix.shape[1] or not matrix.flags.f_contiguous
            or not matrix.flags.writeable):
        raise DimensionError("zpotrf needs a writeable Fortran-ordered square complex128 "
                             f"matrix, got {matrix.dtype} {matrix.shape}")
    size = ctypes.c_int64(matrix.shape[0])
    info = ctypes.c_int64(0)
    zpotrf()(b"L", ctypes.byref(size), matrix.ctypes.data, ctypes.byref(size),
             ctypes.byref(info))
    return info.value == 0
