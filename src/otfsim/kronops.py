"""Complex dense linear algebra kernels used throughout the package.

Normalized DFT matrices, Kronecker products, column-stacking
vectorization, and matrix-free application of Kronecker-structured
operators (DFT factors go through the FFT, so a factor of size n costs
O(total * log n) instead of a dense product; 0/1 selection factors are
gathers; block-diagonal factors go through one batched product over their
blocks). One in-place rule: every stage writes into the array it is
given, and the public ``apply`` of an operator or a chain first copies
the caller's input once, so the caller's array is never written. A chain of
FFT, window, gather and single dense stages is materialized one slab of
identity columns at a time. The package's three guards live here too:
every dense allocation, every finiteness check and every raising
tolerance verdict goes through ``require_dense``, ``require_finite`` and
``require_within``.

Conventions: ``vec`` stacks columns (Fortran order), so for conformable
A, X, B the identity ``kron(B.T, A) @ vec(X) == vec(A @ X @ B)`` holds.
All arrays are complex128.
"""

from __future__ import annotations

from functools import reduce
from typing import Iterator, Optional, Sequence, Tuple, Union

import numpy as np

from ._lapack import lazy_zeros
from .errors import DimensionError, NonFiniteError, SizeCapError, StructureError

# Refuse dense materialization above this many entries (~1.6 GB complex128).
DENSE_ENTRY_CAP = 100_000_000

# Identity columns per slab of OperatorChain.slabs: a multiple of the column
# blocking of OpenBLAS's zgemm kernels (4 on its SkylakeX and Haswell ones),
# so that a slab's columns fall into the column blocks they have in one
# product over every column. verify on a SISO M=64, N=16 frame (C=1024,
# F=1152), 2 vCPUs, 2 runs each: 64 columns peaked at 93.5-93.8 MiB with
# 37-43k minor faults, 128 at 93.7-93.8 MiB with 85-91k, 256 at 94.5-96.1 MiB
# with 112-137k and 512 at 110 MiB; whole products peaked at 107.8 MiB with
# 50-64k.
SLAB_COLUMNS = 64


def require_dense(rows: int, cols: int, what: str) -> None:
    """Raise :class:`SizeCapError` if a dense ``rows`` x ``cols`` ``what`` would exceed
    ``DENSE_ENTRY_CAP`` (read at call time). Every dense builder calls this first."""
    if rows * cols > DENSE_ENTRY_CAP:
        raise SizeCapError(f"{what} would have {rows}x{cols} entries (cap {DENSE_ENTRY_CAP})")


def require_finite(values: np.ndarray, what: str) -> None:
    """Raise :class:`NonFiniteError` if ``values`` holds a NaN or an infinity.
    The one finiteness test of the package."""
    if not np.all(np.isfinite(values)):
        raise NonFiniteError(f"{what} contains non-finite entries")


def require_within(deviation: float, tolerance: float, message: str) -> None:
    """Raise :class:`StructureError`, carrying ``deviation`` and ``tolerance``,
    unless ``deviation <= tolerance``, so a NaN deviation fails. ``message`` is
    formatted with those two fields only on failure. The one tolerance verdict
    that raises."""
    if not deviation <= tolerance:
        raise StructureError(message.format(deviation=deviation, tolerance=tolerance),
                             deviation=deviation, tolerance=tolerance)


def dft_matrix(n: int) -> np.ndarray:
    """Normalized n-point DFT matrix: entry (m, k) = exp(-2j*pi*m*k/n)/sqrt(n)."""
    if n < 1:
        raise DimensionError(f"DFT size must be >= 1, got {n}")
    require_dense(n, n, "DFT matrix")
    return np.fft.fft(np.eye(n), axis=0, norm="ortho")


def idft_matrix(n: int) -> np.ndarray:
    """Conjugate transpose of ``dft_matrix(n)`` (the inverse, by unitarity)."""
    return dft_matrix(n).conj().T


def vec(x: np.ndarray) -> np.ndarray:
    """Stack the columns of a matrix into one vector."""
    return np.asarray(x).reshape(-1, order="F")


def unvec(v: np.ndarray, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec` for a ``rows x cols`` matrix."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise DimensionError(f"cannot reshape length-{v.size} vector to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with a guard against runaway dense sizes."""
    a = np.atleast_2d(np.asarray(a))
    b = np.atleast_2d(np.asarray(b))
    require_dense(a.shape[0] * b.shape[0], a.shape[1] * b.shape[1], "dense Kronecker product")
    return np.kron(a, b)


def off_block_max(matrix: np.ndarray, block: int) -> float:
    """Largest |entry| of a square matrix outside its diagonal ``block`` x
    ``block`` blocks, 0.0 when there is none. The scan goes one block row
    at a time, so the matrix is never copied."""
    size = matrix.shape[0]
    worst = [np.max(np.abs(part)) for i in range(0, size, block)
             for part in (matrix[i:i + block, :i], matrix[i:i + block, i + block:]) if part.size]
    return float(np.max(worst)) if worst else 0.0


class DenseFactor:
    """Arbitrary dense matrix factor."""

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim != 2:
            raise DimensionError("dense factor must be a 2-D array")
        require_finite(matrix, "dense factor")
        self.matrix = matrix
        self.rows, self.cols = matrix.shape

    def materialize(self) -> np.ndarray:
        return self.matrix

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        out = np.tensordot(self.matrix, tensor, axes=([1], [axis]))
        return np.moveaxis(out, 0, axis)

    def _apply_over(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        """:meth:`apply`, written into ``tensor``'s memory, which the caller
        owns. When the factor is square, ``tensor`` is C-contiguous and
        ``np.tensordot`` would copy it into its operand, that copy is taken
        here and the product goes into ``tensor``: the same ``np.dot`` of the
        same operands, so the same bits, without a third array."""
        if self.rows != self.cols or not tensor.flags.c_contiguous:
            return self.apply(tensor, axis)
        moved = np.moveaxis(tensor, axis, 0)
        operand = moved.reshape(self.cols, -1)
        if np.may_share_memory(operand, tensor):  # no copy to take
            return self.apply(tensor, axis)
        out = np.dot(self.matrix, operand, out=tensor.reshape(operand.shape))
        return np.moveaxis(out.reshape(moved.shape), 0, axis)


class BlockDiagonalFactor:
    """Block-diagonal matrix diag(B_0, ..., B_{N-1}) from an (N, rows, cols)
    stack of equal blocks, applied as one batched product so the zero
    blocks are never stored or multiplied."""

    def __init__(self, blocks: np.ndarray):
        blocks = np.asarray(blocks, dtype=np.complex128)
        if blocks.ndim != 3:
            raise DimensionError("block-diagonal factor needs an (N, rows, cols) stack")
        require_finite(blocks, "block-diagonal factor")
        self.blocks = blocks
        count, block_rows, block_cols = blocks.shape
        self.rows, self.cols = count * block_rows, count * block_cols

    def materialize(self) -> np.ndarray:
        require_dense(self.rows, self.cols, "dense block-diagonal matrix")
        count, block_rows, block_cols = self.blocks.shape
        dense = lazy_zeros((count, block_rows, count, block_cols))
        dense[np.arange(count), :, np.arange(count), :] = self.blocks
        return dense.reshape(self.rows, self.cols)

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        moved = np.moveaxis(tensor, axis, 0)
        count, _, block_cols = self.blocks.shape
        out = self.blocks @ moved.reshape(count, block_cols, -1)
        return np.moveaxis(out.reshape((self.rows,) + moved.shape[1:]), 0, axis)


class SelectionFactor:
    """0/1 selection matrix whose row i picks entry ``index[i]`` of a
    length-``cols`` input, applied as a gather: each output entry is the
    selected input entry, exactly, with no product formed."""

    def __init__(self, index, cols: int):
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        if index.size < 1 or cols < 1:
            raise DimensionError(f"selection needs rows and columns, got {index.size}x{cols}")
        if index.min() < 0 or index.max() >= cols:
            raise DimensionError(f"selection index out of range for {cols} columns")
        self.index = index
        self.rows, self.cols = index.size, cols

    def materialize(self) -> np.ndarray:
        require_dense(self.rows, self.cols, "dense selection matrix")
        dense = np.zeros((self.rows, self.cols), dtype=np.complex128)
        dense[np.arange(self.rows), self.index] = 1.0
        return dense

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        return np.take(tensor, self.index, axis=axis)


class IdentityFactor:
    """Identity of size n; application is a no-op."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"identity size must be >= 1, got {n}")
        self.rows = self.cols = n

    def materialize(self) -> np.ndarray:
        return np.eye(self.rows, dtype=np.complex128)

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        return tensor


class DftFactor:
    """Normalized DFT of size n, applied via FFT along the factor's axis."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"DFT size must be >= 1, got {n}")
        self.rows = self.cols = n

    def materialize(self) -> np.ndarray:
        return dft_matrix(self.rows)

    def apply(self, tensor: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.fft.fft(tensor, axis=axis, norm="ortho", out=out)


class InverseDftFactor:
    """Conjugate transpose of the normalized DFT, applied via inverse FFT."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"DFT size must be >= 1, got {n}")
        self.rows = self.cols = n

    def materialize(self) -> np.ndarray:
        return idft_matrix(self.rows)

    def apply(self, tensor: np.ndarray, axis: int, out: Optional[np.ndarray] = None) -> np.ndarray:
        return np.fft.ifft(tensor, axis=axis, norm="ortho", out=out)


class DiagonalFactor:
    """Diagonal matrix factor, applied as a broadcast multiply."""

    def __init__(self, diagonal: np.ndarray):
        diagonal = np.asarray(diagonal, dtype=np.complex128).reshape(-1)
        require_finite(diagonal, "diagonal factor")
        self.diagonal = diagonal
        self.rows = self.cols = diagonal.size

    def materialize(self) -> np.ndarray:
        return np.diag(self.diagonal)

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        return tensor * self._along(tensor, axis)

    def _apply_over(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        """:meth:`apply`, written into ``tensor``, which the caller owns: the
        same broadcast multiply, so the same bits, without a second array.
        numpy multiplies a lone complex entry in place by its scalar loop,
        whose bits differ from its vector loop's, so a one-entry ``tensor``
        takes :meth:`apply`."""
        if tensor.size == 1:
            return self.apply(tensor, axis)
        return np.multiply(tensor, self._along(tensor, axis), out=tensor)

    def _along(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        shape = [1] * tensor.ndim
        shape[axis] = self.rows
        return self.diagonal.reshape(shape)


Factor = Union[DenseFactor, BlockDiagonalFactor, SelectionFactor, IdentityFactor, DftFactor,
               InverseDftFactor, DiagonalFactor]


class KronOperator:
    """Kronecker product of an ordered list of factors.

    Represents ``factors[0] (x) factors[1] (x) ... (x) factors[-1]`` and
    applies it to vectors (or to matrices, column by column) without
    materializing the product: the input is reshaped into a tensor whose
    axes follow the factor order (first factor slowest) and each factor
    acts along its own axis. ``apply`` copies the caller's ``x`` once and
    works in the copy. Every factor writes into the array it is given: a DFT
    factor transforms it in place, a diagonal factor multiplies it in place
    and a square dense factor writes its product into it (see
    :meth:`DenseFactor._apply_over`), so a two-factor DFT stage holds no
    array besides its input.
    """

    def __init__(self, factors: Sequence[Factor]):
        if not factors:
            raise DimensionError("KronOperator needs at least one factor")
        self.factors = list(factors)
        rows = cols = 1
        for f in self.factors:
            rows *= f.rows
            cols *= f.cols
        self.shape = (rows, cols)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply(np.array(x, dtype=np.complex128, order="C"))

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """The product with ``x``, which is the operator's own: every factor
        writes into the array it is given, where it can."""
        x = np.asarray(x, dtype=np.complex128)
        single = x.ndim == 1
        if single:
            x = x[:, None]
        if x.ndim != 2 or x.shape[0] != self.shape[1]:
            raise DimensionError(
                f"operator of shape {self.shape} cannot act on input of shape {x.shape}"
            )
        batch = x.shape[1]
        tensor = x.reshape([f.cols for f in self.factors] + [batch])
        for axis, factor in enumerate(self.factors):
            if isinstance(factor, (DftFactor, InverseDftFactor)):
                tensor = factor.apply(tensor, axis, out=tensor)
            elif isinstance(factor, (DenseFactor, DiagonalFactor)):
                tensor = factor._apply_over(tensor, axis)
            else:
                tensor = factor.apply(tensor, axis)
        out = tensor.reshape(self.shape[0], batch)
        return out[:, 0] if single else out

    def materialize(self) -> np.ndarray:
        require_dense(*self.shape, "materialized Kronecker operator")
        return reduce(np.kron, (f.materialize() for f in self.factors))


# Factors that act on each column of their input on its own, by the same
# operations whatever the other columns: FFTs, broadcast multiplies, gathers.
_COLUMN_EXACT = (DftFactor, InverseDftFactor, DiagonalFactor, SelectionFactor, IdentityFactor)


def _slabbable(stage: KronOperator) -> bool:
    """Whether ``stage`` is applied slab by slab: every factor is column-exact,
    or the stage is one dense matrix, one zgemm over the columns. That zgemm
    gives each column the bits it has in the whole product on OpenBLAS's
    SkylakeX kernels; under its Haswell kernels a narrower product can take
    other bits at some shapes. A dense factor beside another one, or a
    block-diagonal factor, is a batched product whose bits under the Haswell
    kernels moved with the slab width (the specialization builders at M=64,
    N=16, at one BLAS thread and at two), so its chain goes through whole."""
    factors = stage.factors
    return (all(isinstance(f, _COLUMN_EXACT) for f in factors)
            or (len(factors) == 1 and isinstance(factors[0], DenseFactor)))


class OperatorChain:
    """Product of operator stages, listed left to right in matrix order.

    ``OperatorChain([A, B, C]).apply(x)`` computes ``A @ (B @ (C @ x))``.
    Stages are :class:`KronOperator` instances (wrap a plain matrix in a
    single :class:`DenseFactor` to insert it).

    ``apply`` copies the caller's ``x`` once; :meth:`materialize` and
    :meth:`slabs` make their identity columns; :meth:`_apply_owned` takes
    an array its caller hands over. From there every stage writes into the
    array it is given, as :class:`KronOperator` does, so a DFT or diagonal
    stage holds no array besides its input, and a square dense factor
    beside another one holds its input and one copy of it.
    """

    def __init__(self, stages: Sequence[KronOperator]):
        if not stages:
            raise DimensionError("OperatorChain needs at least one stage")
        self.stages = list(stages)
        for left, right in zip(self.stages, self.stages[1:]):
            if left.shape[1] != right.shape[0]:
                raise DimensionError(
                    f"stages not conformable: {left.shape} cannot follow {right.shape}"
                )
        self.shape = (self.stages[0].shape[0], self.stages[-1].shape[1])

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self._apply_owned(np.array(x, dtype=np.complex128, order="C"))

    def _apply_owned(self, x: np.ndarray) -> np.ndarray:
        """:meth:`apply` to an ``x`` that the caller hands over as the chain's
        own and does not read again: every stage writes into the array it is
        given, so a chain of FFT and diagonal stages works in ``x``'s memory."""
        for stage in reversed(self.stages):
            x = stage._apply(x)
        return x

    def _apply_to_identity(self, start: int, stop: int) -> np.ndarray:
        """The stages applied to columns ``start:stop`` of the C x C identity.
        The columns are made here, as the chain's own, so the first stage may
        overwrite them and nothing else holds them once it is done."""
        return self._apply_owned(np.eye(self.shape[1], stop - start, -start,
                                        dtype=np.complex128))

    def slabs(self) -> Iterator[Tuple[slice, np.ndarray]]:
        """(columns, the chain applied to those columns of the C x C identity)
        for consecutive slabs of ``SLAB_COLUMNS`` columns; the last slab takes
        the remainder too, so no slab is narrower than ``SLAB_COLUMNS`` unless
        C is. Each slab's identity columns are made for it, as the chain's
        own, so no whole identity or whole stage array is held."""
        cols = self.shape[1]
        starts = range(0, max(cols - SLAB_COLUMNS, 0) + 1, SLAB_COLUMNS)
        for start, stop in zip(starts, [*starts[1:], cols]):
            yield slice(start, stop), self._apply_to_identity(start, stop)

    def materialize(self) -> np.ndarray:
        """The stages applied to the C x C identity. When every stage can be
        slabbed, the result is filled one slab of :meth:`slabs` at a time: this
        holds the result and one slab's widest stage, max(C, every stage's
        rows) rows by fewer than 2 ``SLAB_COLUMNS`` columns. Otherwise the
        identity goes through whole, and the widest array held is max(C,
        every stage's rows) x C."""
        rows, cols = self.shape
        widest = max(cols, *(stage.shape[0] for stage in self.stages))
        if not all(_slabbable(stage) for stage in self.stages):
            require_dense(widest, cols, "materialized operator chain")
            return self._apply_to_identity(0, cols)
        require_dense(rows, cols, "materialized operator chain")
        require_dense(widest, min(cols, 2 * SLAB_COLUMNS - 1), "operator chain slab")
        result = np.empty(self.shape, dtype=np.complex128)
        for columns, slab in self.slabs():
            result[:, columns] = slab
            del slab  # before the next slab is made
        return result
