"""Mutual information and Monte Carlo ergodic capacity.

Per OFDM symbol n, the noiseless map from stacked time-frequency samples
to stacked received samples is ``K_n = Hblk_n (I_{n_t} x F_M^H) W_n``
with W_n the (shared) transmit window restricted to that symbol; the full
OTFS-block map K appends the stacked inverse 2-D transform on the right.
Because that transform is unitary and everything else is per-symbol block
diagonal, K K^H is block diagonal with blocks K_n K_n^H, so the block
mutual information log2 det(I + K K^H / sigma2) splits into per-symbol
terms exactly. Both routes are computed here independently and their
agreement is part of the contract. Only the log-dets depend on sigma2, so
each trial forms its channels, K, every K_n and every Gram once for all SNRs.

MI follows the paper's convention: identity input covariance, and only
the transmit window appears in K (the receive window sits after the point
where MI is measured, so it does not enter).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .channel import ChannelModel
from .errors import ConfigError, NonFiniteError
from .kronops import (OperatorChain, idft_matrix, off_block_max, require_dense, require_finite,
                      require_within)
from .mimo import (MimoConfig, channel_table, mimo_block_channel, mimo_transmit_stages,
                   mimo_window_diagonal)
from .transceiver import WindowSpec

# Bounds on K K^H's off-diagonal blocks and on the gap between the two MI routes.
BLOCK_TOL = 1e-12
ADDITIVITY_TOL = 1e-8


def _gram(k_matrix: np.ndarray) -> np.ndarray:
    """K K^H of each matrix in a (..., rows, cols) stack. A non-finite K, or a
    Gram that overflows, shows on the Gram's diagonal (sums of |K_ij|^2), so
    only that diagonal is checked."""
    k_matrix = np.asarray(k_matrix, dtype=np.complex128)
    gram = k_matrix @ k_matrix.conj().swapaxes(-1, -2)
    require_finite(np.diagonal(gram, axis1=-2, axis2=-1), "K K^H")
    return gram


def _log_det_bits(gram: np.ndarray, noise_var: float) -> np.ndarray:
    """log2 det(I + gram / sigma2) in bits of each matrix in a (..., R, R) stack,
    via Cholesky so large blocks stay in the log domain instead of overflowing.
    A sigma2 so small that gram / sigma2 overflows, or that leaves the unit
    shift of a rank-deficient gram below rounding so the Cholesky fails,
    raises NonFiniteError."""
    if noise_var <= 0:
        raise ConfigError(f"noise variance must be > 0 for MI, got {noise_var}")
    shifted = gram / noise_var
    diagonal = np.arange(gram.shape[-1])
    shifted[..., diagonal, diagonal] += 1.0
    require_finite(np.diagonal(shifted, axis1=-2, axis2=-1),
                   f"I + K K^H / sigma2 at sigma2={noise_var:g}")
    try:
        chol = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError as err:
        raise NonFiniteError(f"Cholesky of I + K K^H / sigma2 at sigma2={noise_var:g}: {err}; "
                             "sigma2 is too small for the scale of K K^H") from err
    return 2.0 * np.sum(np.log2(np.real(np.diagonal(chol, axis1=-2, axis2=-1))), axis=-1)


def mutual_information(k_matrix: np.ndarray, noise_var: float) -> float:
    """log2 det(I + K K^H / sigma2) in bits, from the Cholesky factor."""
    return float(_log_det_bits(_gram(k_matrix), noise_var))


def per_symbol_k_matrices(
    block_channel: np.ndarray,
    tx_window: WindowSpec,
    mcfg: MimoConfig,
) -> np.ndarray:
    """K_n for each OFDM symbol, an (N, M*n_r, M*n_t) array."""
    m = mcfg.frame.num_subcarriers
    modulator = np.kron(np.eye(mcfg.num_tx), idft_matrix(m))
    window = mimo_window_diagonal(tx_window, mcfg, mcfg.num_tx).reshape(
        mcfg.frame.num_symbols, 1, m * mcfg.num_tx)
    return np.asarray(block_channel, dtype=np.complex128) @ (modulator * window)


def full_k_matrix(
    block_channel: np.ndarray,
    tx_window: WindowSpec,
    mcfg: MimoConfig,
) -> np.ndarray:
    """The whole-block K, shape (M*N*n_r) x (M*N*n_t)."""
    return OperatorChain(mimo_transmit_stages(block_channel, tx_window, mcfg)).materialize()


@dataclass(frozen=True)
class BlockMiResult:
    """Block and per-symbol MIs plus the measured deviations: largest
    off-diagonal-block |entry| of K K^H and |block MI - per-symbol sum|."""

    total_bits: float
    per_symbol_bits: List[float]
    off_block_deviation: float
    additivity_gap: float


def _trial_block_mis(channels, tx_window: WindowSpec, noise_vars: Sequence[float],
                     mcfg: MimoConfig) -> List[BlockMiResult]:
    """One :class:`BlockMiResult` per noise variance for one channel draw.

    The trial's largest dense arrays are K, (M*N*n_r) x (M*N*n_t), and its
    Gram, (M*N*n_r) x (M*N*n_r); both are checked against the size cap
    before anything is built."""
    rows, cols = mcfg.rx_vector_len, mcfg.tx_vector_len
    require_dense(rows, max(rows, cols), "whole-block K and its Gram")
    block_channel = mimo_block_channel(channels, mcfg)
    gram = _gram(full_k_matrix(block_channel, tx_window, mcfg))
    worst = off_block_max(gram, mcfg.frame.num_subcarriers * mcfg.num_rx)
    require_within(worst, BLOCK_TOL,
                   "K K^H has off-diagonal block magnitude {deviation:.3e} > {tolerance:.1e}")
    symbol_grams = _gram(per_symbol_k_matrices(block_channel, tx_window, mcfg))
    results = []
    for noise_var in noise_vars:
        total = float(_log_det_bits(gram, noise_var))
        per_symbol = _log_det_bits(symbol_grams, noise_var).tolist()
        gap = abs(total - sum(per_symbol))
        require_within(gap, ADDITIVITY_TOL, "block MI differs from per-symbol sum by "
                       "{deviation:.3e} > {tolerance:.1e}")
        results.append(BlockMiResult(total_bits=total, per_symbol_bits=per_symbol,
                                     off_block_deviation=worst, additivity_gap=gap))
    return results


def otfs_block_mi(
    channels,
    tx_window: WindowSpec,
    noise_var: float,
    mcfg: MimoConfig,
) -> BlockMiResult:
    """Block MI from the full K plus per-symbol MIs from each K_n.

    ``channels`` is the rx-major table of per-antenna-pair channels; a CP
    shorter than their memory surfaces as the reduction's
    :class:`StructureError`. On top of that, the result verifies that
    K K^H really is block diagonal and that the block MI equals the
    per-symbol sum; violations raise :class:`StructureError` since they
    indicate a broken decoupling. This is the one-noise-variance case of
    the per-trial pass that :func:`capacity_sweep` runs over its grid.
    """
    return _trial_block_mis(channels, tx_window, [noise_var], mcfg)[0]


@dataclass(frozen=True)
class CapacityResult:
    """Monte Carlo capacity estimate with both computation routes kept.

    ``per_trial_otfs_bits`` comes from the full-block log-det,
    ``per_trial_ofdm_bits`` from the per-symbol sums; the derived
    bits/sample estimates must agree per trial to numerical precision.
    """

    per_trial_otfs_bits: np.ndarray
    per_trial_ofdm_bits: np.ndarray
    capacity_otfs: float
    capacity_ofdm: float
    trials: int
    ci_halfwidth: float

    def __post_init__(self):
        if self.capacity_otfs < 0 or self.capacity_ofdm < 0:
            raise ValueError("capacity estimates must be non-negative")


def ergodic_capacity(
    model: ChannelModel,
    tx_window: WindowSpec,
    noise_var: float,
    mcfg: MimoConfig,
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> CapacityResult:
    """Monte Carlo estimate of ergodic capacity in bits per time sample at
    one noise variance: the one-point case of :func:`capacity_sweep`."""
    return capacity_sweep([noise_var], model, tx_window, mcfg, trials,
                          seed=seed, threads=threads)[0]


def capacity_sweep(
    noise_vars: Sequence[float],
    model: ChannelModel,
    tx_window: WindowSpec,
    mcfg: MimoConfig,
    trials: int,
    seed: int = 0,
    threads: int = 1,
) -> List[CapacityResult]:
    """Monte Carlo ergodic capacity in bits per time sample per noise level.

    Trial k draws its channels from the stream keyed by (seed, k), so the
    thread count never changes results, and all noise levels share them, so
    the curve is monotone in the noise variance. Per trial the channels, K,
    every K_n and every Gram are built once, and each noise level costs one
    log-det per route. The OTFS route divides the block MI by the frame
    length, the OFDM route the mean per-symbol MI by the symbol length.
    """
    if not noise_vars:
        raise ConfigError("noise variance grid must be non-empty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    frame = mcfg.frame

    def one_trial(trial: int) -> List[BlockMiResult]:
        channels = channel_table(model, mcfg, seed, trial)
        return _trial_block_mis(channels, tx_window, noise_vars, mcfg)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(one_trial, range(trials)))
    else:
        outcomes = [one_trial(trial) for trial in range(trials)]

    results = []
    for point in zip(*outcomes):
        otfs_bits = np.array([r.total_bits for r in point])
        ofdm_bits = np.array([float(sum(r.per_symbol_bits)) for r in point])
        otfs_rates = otfs_bits / frame.frame_len
        ofdm_rates = ofdm_bits / (frame.num_symbols * frame.symbol_len)
        ci = 1.96 * float(np.std(otfs_rates, ddof=1)) / np.sqrt(trials) if trials > 1 else 0.0
        results.append(CapacityResult(
            per_trial_otfs_bits=otfs_bits, per_trial_ofdm_bits=ofdm_bits,
            capacity_otfs=float(np.mean(otfs_rates)), capacity_ofdm=float(np.mean(ofdm_rates)),
            trials=trials, ci_halfwidth=ci))
    return results
