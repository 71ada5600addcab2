"""Single-antenna OFDM-based OTFS transceiver stages.

The delay-Doppler data grid is an M x N complex matrix: rows index delay
bins (equivalently subcarriers after the 2-D transform), columns index
Doppler bins (equivalently OFDM symbols). Vectorized signals follow the
column-stacking convention, so element ``l*M + k`` of a length-M*N
time-frequency vector belongs to subcarrier k of OFDM symbol l, and all
diagonal window matrices are aligned to that layout.

The complete noiseless chain, as a single matrix acting on vec(data), is

    (F_N x F_M^H) V (I_N x F_M) (I_N x R_cp) H (I_N x A_cp) (I_N x F_M^H) U (F_N^H x F_M)

(left to right: receive 2-D transform, receive window, OFDM demodulation,
CP removal, time-domain channel, CP insertion, OFDM modulation, transmit
window, transmit 2-D transform). ``effective_matrix_general`` builds
exactly this product; the separable-window, rectangular-window and
frequency-domain builders are algebraic specializations of it and must
agree with it under their preconditions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError
from .kronops import (
    BlockDiagonalFactor,
    DenseFactor,
    DftFactor,
    DiagonalFactor,
    IdentityFactor,
    InverseDftFactor,
    KronOperator,
    OperatorChain,
    SelectionFactor,
    dft_matrix,
    require_dense,
    unvec,
    vec,
)


@dataclass(frozen=True)
class OtfsFrameConfig:
    """Frame geometry: subcarrier/delay-bin count, OFDM-symbol/Doppler-bin
    count, and cyclic-prefix length in samples."""

    num_subcarriers: int
    num_symbols: int
    cp_len: int = 0

    def __post_init__(self):
        if self.num_subcarriers < 1:
            raise DimensionError(f"num_subcarriers must be >= 1, got {self.num_subcarriers}")
        if self.num_symbols < 1:
            raise DimensionError(f"num_symbols must be >= 1, got {self.num_symbols}")
        if not 0 <= self.cp_len < self.num_subcarriers:
            raise DimensionError(
                f"cp_len must satisfy 0 <= cp_len < num_subcarriers, "
                f"got cp_len={self.cp_len}, num_subcarriers={self.num_subcarriers}"
            )

    @property
    def grid_size(self) -> int:
        """Symbols per frame in the delay-Doppler grid (M*N)."""
        return self.num_subcarriers * self.num_symbols

    @property
    def symbol_len(self) -> int:
        """Time-domain samples per OFDM symbol including CP."""
        return self.num_subcarriers + self.cp_len

    @property
    def frame_len(self) -> int:
        """Time-domain samples per OTFS frame, N*(M+cp)."""
        return self.num_symbols * self.symbol_len


@dataclass(frozen=True)
class WindowSpec:
    """Transmit or receive time-frequency window.

    ``rectangular`` is the identity; ``separable`` has per-symbol taper
    ``time_taper`` (length N) and per-subcarrier taper ``freq_taper``
    (length M) so the diagonal element at ``l*M + k`` is
    ``time_taper[l] * freq_taper[k]``; ``general`` carries the full
    length-M*N diagonal directly.
    """

    kind: str
    time_taper: Optional[np.ndarray] = None
    freq_taper: Optional[np.ndarray] = None
    taps: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.kind not in ("rectangular", "separable", "general"):
            raise DimensionError(f"unknown window kind: {self.kind!r}")
        if self.kind == "separable":
            if self.time_taper is None or self.freq_taper is None:
                raise DimensionError("separable window needs time_taper and freq_taper")
            object.__setattr__(self, "time_taper", np.asarray(self.time_taper, dtype=np.complex128).reshape(-1))
            object.__setattr__(self, "freq_taper", np.asarray(self.freq_taper, dtype=np.complex128).reshape(-1))
        if self.kind == "general":
            if self.taps is None:
                raise DimensionError("general window needs taps")
            object.__setattr__(self, "taps", np.asarray(self.taps, dtype=np.complex128).reshape(-1))

    @classmethod
    def rectangular(cls) -> "WindowSpec":
        return cls(kind="rectangular")

    @classmethod
    def separable(cls, time_taper, freq_taper) -> "WindowSpec":
        return cls(kind="separable", time_taper=time_taper, freq_taper=freq_taper)

    @classmethod
    def general(cls, taps) -> "WindowSpec":
        return cls(kind="general", taps=taps)

    def diagonal(self, cfg: OtfsFrameConfig) -> np.ndarray:
        """Length-M*N diagonal of the window matrix, element l*M + k."""
        m, n = cfg.num_subcarriers, cfg.num_symbols
        if self.kind == "rectangular":
            return np.ones(m * n, dtype=np.complex128)
        if self.kind == "separable":
            if self.time_taper.size != n or self.freq_taper.size != m:
                raise DimensionError(
                    "window tapers have lengths "
                    f"{self.time_taper.size}/{self.freq_taper.size}, need {n}/{m}"
                )
            return np.kron(self.time_taper, self.freq_taper)
        if self.taps.size != m * n:
            raise DimensionError(f"window has {self.taps.size} taps, need {m * n}")
        return self.taps


@dataclass(frozen=True)
class CpMatrices:
    """CP insertion matrix (prepends the last cp_len samples of an OFDM
    symbol) and CP removal matrix (drops the first cp_len samples).
    ``remove @ add`` is exactly identity."""

    add: np.ndarray        # (M+cp) x M
    remove: np.ndarray     # M x (M+cp)


def cp_matrices(cfg: OtfsFrameConfig) -> CpMatrices:
    m, cp = cfg.num_subcarriers, cfg.cp_len
    eye = np.eye(m)
    tail = eye[:, m - cp:] if cp > 0 else np.zeros((m, 0))
    add = np.concatenate([tail, eye], axis=1).T
    remove = np.eye(cfg.symbol_len)[cp:, :]
    return CpMatrices(add=add, remove=remove)


def isfft(data_grid: np.ndarray) -> np.ndarray:
    """Delay-Doppler grid -> time-frequency grid (inverse 2-D symplectic
    transform): DFT along the delay axis, inverse DFT along the Doppler axis.
    """
    data_grid = np.asarray(data_grid, dtype=np.complex128)
    out = np.fft.fft(data_grid, axis=0, norm="ortho")
    return np.fft.ifft(out, axis=1, norm="ortho")


def sfft(tf_grid: np.ndarray) -> np.ndarray:
    """Time-frequency grid -> delay-Doppler grid; exact inverse of :func:`isfft`."""
    tf_grid = np.asarray(tf_grid, dtype=np.complex128)
    out = np.fft.ifft(tf_grid, axis=0, norm="ortho")
    return np.fft.fft(out, axis=1, norm="ortho")


def apply_window(x: np.ndarray, window: WindowSpec, cfg: OtfsFrameConfig) -> np.ndarray:
    """Multiply a vectorized time-frequency signal by the window diagonal."""
    x = np.asarray(x, dtype=np.complex128)
    if x.shape != (cfg.grid_size,):
        raise DimensionError(f"expected length {cfg.grid_size}, got shape {x.shape}")
    return x * window.diagonal(cfg)


def ofdm_modulate(tf_signal: np.ndarray, cfg: OtfsFrameConfig) -> np.ndarray:
    """Per-symbol IDFT followed by CP insertion.

    Input: length M*N vectorized time-frequency signal. Output: length
    N*(M+cp) time-domain frame, symbols concatenated in order.
    """
    tf_signal = np.asarray(tf_signal, dtype=np.complex128)
    if tf_signal.shape != (cfg.grid_size,):
        raise DimensionError(f"expected length {cfg.grid_size}, got shape {tf_signal.shape}")
    m = cfg.num_subcarriers
    blocks = tf_signal.reshape((m, cfg.num_symbols), order="F")
    time_blocks = np.fft.ifft(blocks, axis=0, norm="ortho")
    with_cp = np.concatenate([time_blocks[m - cfg.cp_len:, :], time_blocks], axis=0)
    return with_cp.reshape(-1, order="F")


def ofdm_demodulate(received: np.ndarray, cfg: OtfsFrameConfig) -> np.ndarray:
    """CP removal followed by per-symbol DFT; inverse of :func:`ofdm_modulate`
    when there is no channel."""
    received = np.asarray(received, dtype=np.complex128)
    if received.shape != (cfg.frame_len,):
        raise DimensionError(f"expected length {cfg.frame_len}, got shape {received.shape}")
    blocks = received.reshape((cfg.symbol_len, cfg.num_symbols), order="F")
    body = blocks[cfg.cp_len:, :]
    return np.fft.fft(body, axis=0, norm="ortho").reshape(-1, order="F")


def siso_chain(
    data_grid: np.ndarray,
    channel,
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """Run the full transmit/channel/receive chain stage by stage and return
    the M x N estimate grid.

    ``channel`` is an :class:`~otfsim.channel.LtvChannel` spanning the frame.
    """
    data_grid = np.asarray(data_grid, dtype=np.complex128)
    if data_grid.shape != (cfg.num_subcarriers, cfg.num_symbols):
        raise DimensionError(
            f"data grid shape {data_grid.shape} does not match "
            f"{cfg.num_subcarriers}x{cfg.num_symbols}"
        )
    tx_windowed = apply_window(vec(isfft(data_grid)), tx_window, cfg)
    received = channel.apply(ofdm_modulate(tx_windowed, cfg))
    rx_windowed = apply_window(ofdm_demodulate(received, cfg), rx_window, cfg)
    return sfft(unvec(rx_windowed, cfg.num_subcarriers, cfg.num_symbols))


def effective_operator_general(
    channel_matrix: np.ndarray,
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    cfg: OtfsFrameConfig,
) -> OperatorChain:
    """The end-to-end chain as a product of factorized stages (matrix-free)."""
    channel_matrix = np.asarray(channel_matrix, dtype=np.complex128)
    if channel_matrix.shape != (cfg.frame_len, cfg.frame_len):
        raise DimensionError(
            f"channel matrix must be {cfg.frame_len}x{cfg.frame_len}, "
            f"got {channel_matrix.shape}"
        )
    m, n, cp = cfg.num_subcarriers, cfg.num_symbols, cfg.cp_len
    # CP removal and insertion as gathers: the rows of cp_matrices' remove
    # and add, each row's one 1 at these indices.
    return OperatorChain([
        KronOperator([DftFactor(n), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(rx_window.diagonal(cfg))]),
        KronOperator([IdentityFactor(n), DftFactor(m)]),
        KronOperator([IdentityFactor(n), SelectionFactor(np.arange(cp, m + cp), cfg.symbol_len)]),
        KronOperator([DenseFactor(channel_matrix)]),
        KronOperator([IdentityFactor(n), SelectionFactor(np.arange(-cp, m) % m, m)]),
        KronOperator([IdentityFactor(n), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(tx_window.diagonal(cfg))]),
        KronOperator([InverseDftFactor(n), DftFactor(m)]),
    ])


def effective_matrix_general(
    channel_matrix: np.ndarray,
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """Dense M*N x M*N matrix mapping vec(data) to vec(estimate), noiseless."""
    return effective_operator_general(channel_matrix, tx_window, rx_window, cfg).materialize()


def effective_matrix_separable(
    block_channel: np.ndarray,
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """Specialized build for separable windows.

    ``block_channel`` is the (N, M, M) stack of per-symbol channel matrices
    (the post-CP-removal, pre-CP-insertion channel). With transmit taper
    pair (a, b) and receive pair (p, q) the chain collapses to

        (I_N x F_M^H Q F_M)(F_N x I_M)(P x I_M) Hblk (A x I_M)(F_N^H x I_M)(I_N x F_M^H B F_M)

    which this builds directly; it must agree with the general builder.
    """
    if tx_window.kind != "separable" or rx_window.kind != "separable":
        raise DimensionError("separable builder requires separable tx and rx windows")
    m, n = cfg.num_subcarriers, cfg.num_symbols
    if len(block_channel) != n:
        raise DimensionError(f"need {n} per-symbol channel blocks, got {len(block_channel)}")
    fm = dft_matrix(m)
    rx_freq = fm.conj().T @ np.diag(rx_window.freq_taper) @ fm
    tx_freq = fm.conj().T @ np.diag(tx_window.freq_taper) @ fm
    chain = OperatorChain([
        KronOperator([IdentityFactor(n), DenseFactor(rx_freq)]),
        KronOperator([DftFactor(n), IdentityFactor(m)]),
        KronOperator([DiagonalFactor(rx_window.time_taper), IdentityFactor(m)]),
        KronOperator([BlockDiagonalFactor(block_channel)]),
        KronOperator([DiagonalFactor(tx_window.time_taper), IdentityFactor(m)]),
        KronOperator([InverseDftFactor(n), IdentityFactor(m)]),
        KronOperator([IdentityFactor(n), DenseFactor(tx_freq)]),
    ])
    return chain.materialize()


def effective_matrix_rectangular(
    block_channel: np.ndarray,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """Specialized build for rectangular windows:
    (F_N x I_M) Hblk (F_N^H x I_M), all per-symbol DFT factors cancelled."""
    m, n = cfg.num_subcarriers, cfg.num_symbols
    if len(block_channel) != n:
        raise DimensionError(f"need {n} per-symbol channel blocks, got {len(block_channel)}")
    chain = OperatorChain([
        KronOperator([DftFactor(n), IdentityFactor(m)]),
        KronOperator([BlockDiagonalFactor(block_channel)]),
        KronOperator([InverseDftFactor(n), IdentityFactor(m)]),
    ])
    return chain.materialize()


def to_frequency_domain(block_channel: np.ndarray) -> np.ndarray:
    """Per-symbol frequency-domain channel blocks F_M C F_M^H, stacked into
    an (N, M, M) array."""
    block_channel = np.asarray(block_channel, dtype=np.complex128)
    fm = dft_matrix(block_channel.shape[1])
    return fm @ block_channel @ fm.conj().T


def effective_matrix_frequency_domain(
    freq_block_channel: np.ndarray,
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """Specialized build from the frequency-domain channel:
    (F_N x F_M^H) V Hf U (F_N^H x F_M); the effective frequency-domain
    channel is V Hf U."""
    m, n = cfg.num_subcarriers, cfg.num_symbols
    if len(freq_block_channel) != n:
        raise DimensionError(f"need {n} per-symbol channel blocks, got {len(freq_block_channel)}")
    chain = OperatorChain([
        KronOperator([DftFactor(n), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(rx_window.diagonal(cfg))]),
        KronOperator([BlockDiagonalFactor(freq_block_channel)]),
        KronOperator([DiagonalFactor(tx_window.diagonal(cfg))]),
        KronOperator([InverseDftFactor(n), DftFactor(m)]),
    ])
    return chain.materialize()


@dataclass(frozen=True)
class TwoDConvResult:
    """Outcome of trying to read an effective matrix as a 2-D circular
    convolution: the extracted M x N kernel, whether the matrix really is
    2-D circulant, and the worst entrywise deviation from the circulant
    reconstruction."""

    kernel: np.ndarray
    is_circulant: bool
    max_deviation: float


def dd_channel_as_2d_convolution(
    effective: np.ndarray,
    cfg: OtfsFrameConfig,
) -> TwoDConvResult:
    """Extract the delay-Doppler impulse response and test circulant structure.

    The kernel is the effective matrix's response to a unit impulse at
    delay 0, Doppler 0 (its first column). The matrix is then rebuilt
    entrywise from the kernel under the 2-D circular convolution model and
    compared; a non-circulant effective matrix (general fast fading) gives
    ``is_circulant=False`` with the measured deviation rather than raising.
    """
    m, n = cfg.num_subcarriers, cfg.num_symbols
    effective = np.asarray(effective, dtype=np.complex128)
    if effective.shape != (m * n, m * n):
        raise DimensionError(f"effective matrix must be {m * n}x{m * n}, got {effective.shape}")
    kernel = unvec(effective[:, 0], m, n)
    idx = np.arange(m * n)
    delay = idx % m
    doppler = idx // m
    d_delay = (delay[:, None] - delay[None, :]) % m
    d_doppler = (doppler[:, None] - doppler[None, :]) % n
    rebuilt = kernel[d_delay, d_doppler]
    dev = float(np.max(np.abs(effective - rebuilt)))
    return TwoDConvResult(kernel=kernel, is_circulant=dev <= 1e-9, max_deviation=dev)


def convolve_2d_circular(data_grid: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """2-D circular convolution of a delay-Doppler grid with a kernel of the
    same shape, via 2-D FFTs."""
    data_grid = np.asarray(data_grid, dtype=np.complex128)
    kernel = np.asarray(kernel, dtype=np.complex128)
    if data_grid.shape != kernel.shape:
        raise DimensionError("data grid and kernel must have the same shape")
    return np.fft.ifft2(np.fft.fft2(data_grid) * np.fft.fft2(kernel))


def transmit_basis(cfg: OtfsFrameConfig) -> np.ndarray:
    """Discrete transmit basis, shape (M, N, frame_len): entry (k, l, :) is
    the CP-extended complex exponential occupying OFDM symbol slot l.
    ``ofdm_modulate`` synthesizes exactly ``sum x[k,l] * basis[k,l]``."""
    m, n, cp = cfg.num_subcarriers, cfg.num_symbols, cfg.cp_len
    require_dense(m * n, cfg.frame_len, "transmit basis")
    blen = cfg.symbol_len
    basis = np.zeros((m, n, cfg.frame_len), dtype=np.complex128)
    j = np.arange(blen)
    for k in range(m):
        pulse = np.exp(2j * np.pi * k * (j - cp) / m) / np.sqrt(m)
        for l in range(n):
            basis[k, l, l * blen:(l + 1) * blen] = pulse
    return basis


def receive_basis(cfg: OtfsFrameConfig) -> np.ndarray:
    """Discrete receive basis, shape (M, N, frame_len): zero over each CP,
    conjugate exponential over the symbol body. Projecting the received
    frame onto it (plain sum, entry (k,l) dotted with the frame) equals
    CP removal followed by the per-symbol DFT."""
    m, n, cp = cfg.num_subcarriers, cfg.num_symbols, cfg.cp_len
    require_dense(m * n, cfg.frame_len, "receive basis")
    blen = cfg.symbol_len
    basis = np.zeros((m, n, cfg.frame_len), dtype=np.complex128)
    j = np.arange(cp, blen)
    for k in range(m):
        pulse = np.exp(-2j * np.pi * k * (j - cp) / m) / np.sqrt(m)
        for l in range(n):
            basis[k, l, l * blen + cp:(l + 1) * blen] = pulse
    return basis
