"""Multi-antenna stacking of the OTFS chain.

Per-antenna delay-Doppler grids are stacked row-wise into an (M*n_t) x N
matrix; its column-stacked vector orders entries symbol-major, then
antenna, then delay bin, i.e. element ``(n*n_t + t)*M + m`` is data symbol
(m, n) of transmit antenna t. Every stacked operator in this module is
aligned to that one layout. All antennas share the same transmit window
and the same receive window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .channel import ChannelModel, LtvChannel, require_block_diagonal, synthesize, trial_rng
from .errors import DimensionError
from .kronops import (
    DftFactor,
    DiagonalFactor,
    IdentityFactor,
    InverseDftFactor,
    KronOperator,
    OperatorChain,
    require_dense,
    vec,
)
from .transceiver import OtfsFrameConfig, WindowSpec


@dataclass(frozen=True)
class MimoConfig:
    frame: OtfsFrameConfig
    num_tx: int = 1
    num_rx: int = 1

    def __post_init__(self):
        if self.num_tx < 1 or self.num_rx < 1:
            raise DimensionError(
                f"antenna counts must be >= 1, got num_tx={self.num_tx}, num_rx={self.num_rx}"
            )

    @property
    def tx_vector_len(self) -> int:
        return self.frame.grid_size * self.num_tx

    @property
    def rx_vector_len(self) -> int:
        return self.frame.grid_size * self.num_rx


def _k_arrays(mcfg: MimoConfig, channel_length: int) -> List[Tuple[str, int, int]]:
    """What K's build holds besides B_1: the tap tables as :func:`mimo_block_channel`
    stacks them, one array as large as every antenna pair's table together, the
    block channel, K's row slab and K."""
    m, n_t = mcfg.frame.num_subcarriers, mcfg.num_tx
    rows, cols = mcfg.rx_vector_len, mcfg.tx_vector_len
    return [
        ("stacked tap tables", mcfg.num_rx * n_t * mcfg.frame.frame_len, channel_length),
        ("per-symbol block channel stack", rows, m * n_t),
        ("row slab of B", m * n_t, cols),
        ("whole-block K", rows, cols),
    ]


def capacity_trial_arrays(mcfg: MimoConfig, channel_length: int) -> List[Tuple[str, int, int]]:
    """The dense arrays, as (name, rows, cols), that one capacity trial builds
    from its draw of channels ``channel_length`` taps long: K's build, K's Gram
    and one more R x R array (the Gram's Fortran-ordered copy, or its shifted
    copy at a noise level before the last), then every K_n and their Grams.
    Not all are alive at once, and the trial's own B_1, which
    :func:`whole_block_k` frees on return, is no larger than the Gram's copy,
    which is not alive beside it, so their sum bounds what a trial holds
    beside the plan's modulator; the sweep's worker rule reads it."""
    m, rows = mcfg.frame.num_subcarriers, mcfg.rx_vector_len
    return [
        *_k_arrays(mcfg, channel_length),
        ("K K^H", rows, rows),
        ("copy of K K^H", rows, rows),
        ("per-symbol K_n stack", rows, m * mcfg.num_tx),
        ("per-symbol Gram stack", rows, m * mcfg.num_rx),
    ]


def dense_arrays(mode: str, mcfg: MimoConfig, channel_length: int) -> List[Tuple[str, int, int]]:
    """The memory model: the dense arrays that a run of the subcommand ``mode``
    allocates, as (name, rows, cols), for channels ``channel_length`` taps long.
    Every other array of the run is never larger than one listed: DFT, CP and
    window matrices, vectors and grids, the stages of verify's SISO builds
    beside H, and temporaries no larger than a listed array.

    Each is checked against the cap in list order, so the first one over it
    raises :class:`SizeCapError` naming it; each subcommand's entry point calls
    this before it draws any channel. The cap bounds each array on its own,
    and the builders keep their own checks.

    - ``capacity``: B_1, which each trial builds in :func:`whole_block_k`,
      the plan's per-symbol modulator, then :func:`capacity_trial_arrays`.
    - ``simulate`` and ``effective-channel``: the build of
      :func:`mimo_effective_matrix`, B_1 and K's, then the R x C result.
    - ``verify``: the largest Kronecker product of ``check_kron_identities``,
      the frame-length channel matrix H, :func:`mimo_effective_matrix`'s
      arrays with more than one antenna, then a capacity run's.
    """
    frame = mcfg.frame
    m, n_t = frame.num_subcarriers, mcfg.num_tx
    transform = ("one-antenna transform B_1", frame.grid_size, frame.grid_size)
    effective = [transform, *_k_arrays(mcfg, channel_length),
                 ("effective matrix", mcfg.rx_vector_len, mcfg.tx_vector_len)]
    capacity = [transform, ("per-symbol modulator", frame.num_symbols * m * n_t, m * n_t),
                *capacity_trial_arrays(mcfg, channel_length)]
    # check_kron_identities' largest product: kron(kron(a, b), d) of 3x4, 2x3
    # and 3x2 operands.
    verify = [("Kronecker identity product", 18, 24),
              ("dense channel matrix", frame.frame_len, frame.frame_len),
              *(effective if n_t * mcfg.num_rx > 1 else []), *capacity]
    arrays = {"capacity": capacity, "simulate": effective, "effective-channel": effective,
              "verify": verify}[mode]
    for name, rows, cols in arrays:
        require_dense(rows, cols, name)
    return arrays


def stack_grids(grids: Sequence[np.ndarray], mcfg: MimoConfig) -> np.ndarray:
    """Row-stack per-antenna M x N grids into the (M*n_t) x N data matrix."""
    if len(grids) != mcfg.num_tx:
        raise DimensionError(f"need {mcfg.num_tx} grids, got {len(grids)}")
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    grids = [np.asarray(g, dtype=np.complex128) for g in grids]
    for i, g in enumerate(grids):
        if g.shape != (m, n):
            raise DimensionError(f"grid {i} has shape {g.shape}, need {m}x{n}")
    return np.concatenate(grids, axis=0)


def mimo_isfft(stacked: np.ndarray, mcfg: MimoConfig) -> np.ndarray:
    """Stacked inverse 2-D transform: per-antenna DFT along delay, shared
    inverse DFT along the Doppler axis, then column stacking."""
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    stacked = np.asarray(stacked, dtype=np.complex128)
    if stacked.shape != (m * mcfg.num_tx, n):
        raise DimensionError(
            f"stacked grid must be {m * mcfg.num_tx}x{n}, got {stacked.shape}"
        )
    per_antenna = stacked.reshape(mcfg.num_tx, m, n)
    out = np.fft.fft(per_antenna, axis=1, norm="ortho").reshape(m * mcfg.num_tx, n)
    return vec(np.fft.ifft(out, axis=1, norm="ortho"))


def mimo_window_diagonal(window: WindowSpec, mcfg: MimoConfig, antennas: int) -> np.ndarray:
    """Diagonal of the stacked window: the single shared per-symbol window,
    repeated across the antenna axis."""
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    per_symbol = window.diagonal(mcfg.frame).reshape(n, m)
    return np.repeat(per_symbol[:, None, :], antennas, axis=1).reshape(-1)


def mimo_window(x: np.ndarray, window: WindowSpec, mcfg: MimoConfig, antennas: int) -> np.ndarray:
    """Apply the shared window to a stacked time-frequency vector."""
    x = np.asarray(x, dtype=np.complex128)
    diag = mimo_window_diagonal(window, mcfg, antennas)
    if x.shape != diag.shape:
        raise DimensionError(f"expected length {diag.size}, got shape {x.shape}")
    return x * diag


def channel_table(
    model: ChannelModel,
    mcfg: MimoConfig,
    seed: int,
    *key: int,
) -> List[List[LtvChannel]]:
    """Rx-major table of antenna-pair channels: entry [r][t] is the t -> r
    channel drawn from ``trial_rng(seed, *key, r, t)``."""
    return [
        [synthesize(model, mcfg.frame, rng=trial_rng(seed, *key, r, t))
         for t in range(mcfg.num_tx)]
        for r in range(mcfg.num_rx)
    ]


def _validated_channels(channels, mcfg: MimoConfig) -> list:
    if len(channels) != mcfg.num_rx or any(len(row) != mcfg.num_tx for row in channels):
        raise DimensionError(
            f"channel table must be {mcfg.num_rx} x {mcfg.num_tx} (rx-major)"
        )
    table = [[ch for ch in row] for row in channels]
    lengths = {ch.length for row in table for ch in row}
    if len(lengths) != 1:
        raise DimensionError(f"all antenna-pair channels must share one length, got {lengths}")
    for row in table:
        for ch in row:
            if ch.span != mcfg.frame.frame_len:
                raise DimensionError(
                    f"channel span {ch.span} does not match frame length {mcfg.frame.frame_len}"
                )
    return table


def mimo_block_channel(
    channels: Sequence[Sequence[LtvChannel]],
    mcfg: MimoConfig,
) -> np.ndarray:
    """Per-symbol stacked channel matrices, an (N, M*n_r, M*n_t) array.

    Block (r, t) of the n-th matrix is the n-th per-symbol block of the
    (t -> r) antenna-pair channel after CP insertion and removal, gathered
    from the tap table: ``block_n[k, (k - l) mod M] += taps[n(M+cp)+cp+k, l]``
    for every tap whose input sample lies in its own symbol. A tap of a
    symbol n >= 1 that reaches before the symbol start is an off-block
    entry of the reduced channel; the first antenna pair (rx-major) with
    one above ``CP_TOL`` raises :class:`StructureError`. Taps reaching before
    the frame start meet the zero initial state and drop out.
    """
    require_dense(mcfg.rx_vector_len, mcfg.frame.num_subcarriers * mcfg.num_tx,
                  "per-symbol block channel stack")
    table = _validated_channels(channels, mcfg)
    frame = mcfg.frame
    m, n, cp = frame.num_subcarriers, frame.num_symbols, frame.cp_len
    taps = np.array([[ch.taps for ch in row] for row in table])  # (n_r, n_t, frame_len, L)
    length = taps.shape[-1]
    # body[k, l, n, r, t]: tap l of the k-th sample after the CP of symbol n.
    body = taps.reshape(mcfg.num_rx, mcfg.num_tx, n, frame.symbol_len, length)[
        :, :, :, cp:].transpose(3, 4, 2, 0, 1)
    # Input-sample offset of tap (k, l) from its symbol start; a negative
    # one that still lands inside the frame is interference across symbols.
    offset = (cp + np.arange(m)[:, None] - np.arange(length))[..., None]
    leaks = (offset < 0) & (offset >= -frame.symbol_len * np.arange(n))  # (M, L, N)
    worst = np.where(leaks[..., None, None], np.abs(body), 0.0).max(axis=(0, 1, 2))
    for pair_worst in worst.reshape(-1):
        require_block_diagonal(float(pair_worst))
    blocks = np.zeros((n, mcfg.num_rx, m, mcfg.num_tx, m), dtype=np.complex128)
    for lag in range(length):
        rows = np.arange(max(lag - cp, 0), m)
        blocks[:, :, rows, :, (rows - lag) % m] += body[rows, lag]
    return blocks.reshape(n, m * mcfg.num_rx, m * mcfg.num_tx)


@dataclass
class MimoChainResult:
    """Intermediate signals of one stage-by-stage MIMO transmission."""

    tf_signal: np.ndarray         # stacked time-frequency vector
    tx_windowed: np.ndarray
    modulated: List[np.ndarray]   # per-tx-antenna time-domain frames with CP
    received: List[np.ndarray]    # per-rx-antenna channel outputs plus noise
    demodulated: np.ndarray       # stacked post-CP-removal, post-DFT vector
    rx_windowed: np.ndarray
    estimate: np.ndarray          # stacked estimate, length M*N*n_r


def mimo_chain(
    stacked: np.ndarray,
    channels: Sequence[Sequence[LtvChannel]],
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    mcfg: MimoConfig,
    noise: Optional[Sequence[np.ndarray]] = None,
) -> MimoChainResult:
    """Run the stacked transmit/channel/receive chain sample by sample.

    The channel step is the physical one: each receive antenna sees the
    superposition of every transmit antenna's frame through its own
    time-varying channel, plus optional per-antenna noise.
    """
    table = _validated_channels(channels, mcfg)
    frame = mcfg.frame
    m, n, cp = frame.num_subcarriers, frame.num_symbols, frame.cp_len
    tf_signal = mimo_isfft(stacked, mcfg)
    tx_windowed = mimo_window(tf_signal, tx_window, mcfg, mcfg.num_tx)

    time_blocks = np.fft.ifft(tx_windowed.reshape(n * mcfg.num_tx, m), axis=1, norm="ortho")
    per_symbol = time_blocks.reshape(n, mcfg.num_tx, m)
    modulated = []
    for t in range(mcfg.num_tx):
        blocks = per_symbol[:, t, :]
        with_cp = np.concatenate([blocks[:, m - cp:], blocks], axis=1)
        modulated.append(with_cp.reshape(-1))

    if noise is not None and len(noise) != mcfg.num_rx:
        raise DimensionError(f"need {mcfg.num_rx} noise vectors, got {len(noise)}")
    received = []
    for r in range(mcfg.num_rx):
        out = np.zeros(frame.frame_len, dtype=np.complex128)
        for t in range(mcfg.num_tx):
            out += table[r][t].apply(modulated[t])
        if noise is not None:
            w = np.asarray(noise[r], dtype=np.complex128)
            if w.shape != (frame.frame_len,):
                raise DimensionError(f"noise vectors must have length {frame.frame_len}")
            out = out + w
        received.append(out)

    body = np.stack(
        [rx.reshape(n, frame.symbol_len)[:, cp:] for rx in received], axis=1)
    demodulated = np.fft.fft(body.reshape(n * mcfg.num_rx, m), axis=1, norm="ortho").reshape(-1)
    rx_windowed = mimo_window(demodulated, rx_window, mcfg, mcfg.num_rx)
    final = KronOperator([
        DftFactor(n), IdentityFactor(mcfg.num_rx), InverseDftFactor(m),
    ])
    estimate = final.apply(rx_windowed)
    return MimoChainResult(
        tf_signal=tf_signal,
        tx_windowed=tx_windowed,
        modulated=modulated,
        received=received,
        demodulated=demodulated,
        rx_windowed=rx_windowed,
        estimate=estimate,
    )


def mimo_modulation_stages(tx_window: WindowSpec, mcfg: MimoConfig) -> List[KronOperator]:
    """The channel-independent transmit stages: OFDM modulation, the transmit
    window and the inverse 2-D transform, as factorized stages from the data
    vector to each symbol's samples before CP insertion. With the per-symbol
    block channel in front, their product is the whole-block K of the capacity
    routes."""
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    return [
        KronOperator([IdentityFactor(n * mcfg.num_tx), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(mimo_window_diagonal(tx_window, mcfg, mcfg.num_tx))]),
        KronOperator([InverseDftFactor(n), IdentityFactor(mcfg.num_tx), DftFactor(m)]),
    ]


def one_antenna_transform(tx_window: WindowSpec, frame: OtfsFrameConfig) -> np.ndarray:
    """B_1, the (M*N)^2 product of :func:`mimo_modulation_stages` for one antenna."""
    return OperatorChain(mimo_modulation_stages(tx_window, MimoConfig(frame))).materialize()


def whole_block_k(block_channel: np.ndarray, tx_window: WindowSpec,
                  mcfg: MimoConfig) -> np.ndarray:
    """The one builder of the whole-block K = diag(blocks) B, R x C, from the
    stack of :func:`mimo_block_channel` and the transmit window, and the one
    caller of :func:`one_antenna_transform`: it builds B_1 and drops it on
    return, so no caller holds B_1 beside what it makes of K.

    B, the C x C product of :func:`mimo_modulation_stages`, is B_1 on each
    antenna's rows and columns and zero elsewhere, and is never held. Symbol
    s's rows of K are block_s times symbol s's M*n_t rows of B: a slab, made
    after K and refilled for each symbol, whose antenna-t rows hold B_1's
    symbol-s rows in antenna t's columns. Each product is a zgemm call of the
    batched ``blocks @ B.reshape(N, M*n_t, C)``, with the same operands up to
    the signs of zeros in B, so K has the bits of ``OperatorChain.materialize``
    with the block-channel stage in front."""
    m, n, n_t = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols, mcfg.num_tx
    rows, cols = mcfg.rx_vector_len, mcfg.tx_vector_len
    transform = one_antenna_transform(tx_window, mcfg.frame).reshape(n, m, n, m)
    require_dense(rows, cols, "whole-block K")
    k_matrix = np.empty((rows, cols), dtype=np.complex128)
    k_rows = k_matrix.reshape(n, rows // n, cols)
    require_dense(m * n_t, cols, "row slab of B")
    # slab[t, i, s', t', j]: row (t, i) and column (s', t', j) of the slab.
    slab = np.zeros((n_t, m, n, n_t, m), dtype=np.complex128)
    antennas = np.arange(n_t)
    for symbol in range(n):
        slab[antennas, :, :, antennas] = transform[symbol]
        np.matmul(block_channel[symbol], slab.reshape(m * n_t, cols), out=k_rows[symbol])
    return k_matrix


def mimo_effective_matrix(
    channels: Sequence[Sequence[LtvChannel]],
    tx_window: WindowSpec,
    rx_window: WindowSpec,
    mcfg: MimoConfig,
) -> np.ndarray:
    """Dense (M*N*n_r) x (M*N*n_t) matrix whose action on the stacked data
    vector equals the noiseless chain: the receive stages applied to the K of
    :func:`whole_block_k`, which the chain frees after its first stage."""
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    return OperatorChain([
        KronOperator([DftFactor(n), IdentityFactor(mcfg.num_rx), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(mimo_window_diagonal(rx_window, mcfg, mcfg.num_rx))]),
        KronOperator([IdentityFactor(n * mcfg.num_rx), DftFactor(m)]),
    ]).apply(whole_block_k(mimo_block_channel(channels, mcfg), tx_window, mcfg))
