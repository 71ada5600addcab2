"""Complex dense linear algebra kernels used throughout the package.

Normalized DFT matrices, Kronecker products, column-stacking
vectorization, and matrix-free application of Kronecker-structured
operators (DFT factors go through the FFT, so a factor of size n costs
O(total * log n) instead of a dense product; block-diagonal factors go
through one batched product over their blocks). The package's three
guards live here too: every dense allocation, every finiteness check and
every raising tolerance verdict goes through ``require_dense``,
``require_finite`` and ``require_within``.

Conventions: ``vec`` stacks columns (Fortran order), so for conformable
A, X, B the identity ``kron(B.T, A) @ vec(X) == vec(A @ X @ B)`` holds.
All arrays are complex128.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence, Union

import numpy as np

from .errors import DimensionError, NonFiniteError, SizeCapError, StructureError

# Refuse dense materialization above this many entries (~1.6 GB complex128).
DENSE_ENTRY_CAP = 100_000_000


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


def _max_abs(x: np.ndarray) -> float:
    return float(np.max(np.abs(x))) if x.size else 0.0


def mixed_product_holds(a, b, c, d, tol: float = 1e-10) -> bool:
    """Whether kron(a, b) @ kron(c, d) equals kron(a @ c, b @ d) to tolerance.

    Test utility; relative to the right-hand side's largest entry.
    """
    a, b, c, d = (np.atleast_2d(np.asarray(m)) for m in (a, b, c, d))
    if a.shape[1] != c.shape[0] or b.shape[1] != d.shape[0]:
        raise DimensionError(
            f"inner dimensions not conformable: {a.shape}x{c.shape}, {b.shape}x{d.shape}"
        )
    lhs = kron(a, b) @ kron(c, d)
    rhs = kron(a @ c, b @ d)
    return _max_abs(lhs - rhs) <= tol * max(1.0, _max_abs(rhs))


def vec_identity_holds(a, x, b, tol: float = 1e-10) -> bool:
    """Whether kron(b.T, a) @ vec(x) equals vec(a @ x @ b) to tolerance."""
    a, x, b = (np.atleast_2d(np.asarray(m)) for m in (a, x, b))
    if a.shape[1] != x.shape[0] or x.shape[1] != b.shape[0]:
        raise DimensionError(
            f"a @ x @ b not conformable: {a.shape}, {x.shape}, {b.shape}"
        )
    lhs = kron(b.T, a) @ vec(x)
    rhs = vec(a @ x @ b)
    return _max_abs(lhs - rhs) <= tol * max(1.0, _max_abs(rhs))


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
        dense = np.zeros((count, block_rows, count, block_cols), dtype=np.complex128)
        dense[np.arange(count), :, np.arange(count), :] = self.blocks
        return dense.reshape(self.rows, self.cols)

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        moved = np.moveaxis(tensor, axis, 0)
        count, _, block_cols = self.blocks.shape
        out = self.blocks @ moved.reshape(count, block_cols, -1)
        return np.moveaxis(out.reshape((self.rows,) + moved.shape[1:]), 0, axis)


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

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.fft(tensor, axis=axis, norm="ortho")


class InverseDftFactor:
    """Conjugate transpose of the normalized DFT, applied via inverse FFT."""

    def __init__(self, n: int):
        if n < 1:
            raise DimensionError(f"DFT size must be >= 1, got {n}")
        self.rows = self.cols = n

    def materialize(self) -> np.ndarray:
        return idft_matrix(self.rows)

    def apply(self, tensor: np.ndarray, axis: int) -> np.ndarray:
        return np.fft.ifft(tensor, axis=axis, norm="ortho")


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
        shape = [1] * tensor.ndim
        shape[axis] = self.rows
        return tensor * self.diagonal.reshape(shape)


Factor = Union[DenseFactor, BlockDiagonalFactor, IdentityFactor, DftFactor, InverseDftFactor,
               DiagonalFactor]


class KronOperator:
    """Kronecker product of an ordered list of factors.

    Represents ``factors[0] (x) factors[1] (x) ... (x) factors[-1]`` and
    applies it to vectors (or to matrices, column by column) without
    materializing the product: the input is reshaped into a tensor whose
    axes follow the factor order (first factor slowest) and each factor
    acts along its own axis.
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
            tensor = factor.apply(tensor, axis)
        out = tensor.reshape(self.shape[0], batch)
        return out[:, 0] if single else out

    def materialize(self) -> np.ndarray:
        require_dense(*self.shape, "materialized Kronecker operator")
        return reduce(np.kron, (f.materialize() for f in self.factors))


class OperatorChain:
    """Product of operator stages, listed left to right in matrix order.

    ``OperatorChain([A, B, C]).apply(x)`` computes ``A @ (B @ (C @ x))``.
    Stages are :class:`KronOperator` instances (wrap a plain matrix in a
    single :class:`DenseFactor` to insert it).
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
        for stage in reversed(self.stages):
            x = stage.apply(x)
        return x

    def materialize(self) -> np.ndarray:
        require_dense(*self.shape, "materialized operator chain")
        return self.apply(np.eye(self.shape[1], dtype=np.complex128))
