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
each trial forms its channels, K, every K_n and every Gram once for all SNRs,
and the parts of K and of every K_n that do not depend on the channel are
built at most once per run, each only by the route that reads it.

The transmit side of K is the same window and 2-D transform on every
antenna, so the plan keeps only the one-antenna (M*N) x (M*N) transform B_1
and forms K one OFDM symbol's rows at a time, from a row slab of the
stacked transform rebuilt out of B_1. At its peak a trial holds B_1, K and
its Gram, or the Gram and its shifted copy.

MI follows the paper's convention: identity input covariance, and only
the transmit window appears in K (the receive window sits after the point
where MI is measured, so it does not enter).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional, Sequence

import numpy as np

from . import _lapack
from .channel import ChannelModel, require_cp_covers
from .errors import ConfigError, NonFiniteError
from .kronops import (OperatorChain, idft_matrix, off_block_max, require_dense, require_finite,
                      require_within)
from .mimo import (MimoConfig, channel_table, mimo_block_channel, mimo_modulation_stages,
                   mimo_window_diagonal)
from .transceiver import WindowSpec

# Bounds on K K^H's off-diagonal blocks and on the gap between the two MI routes.
BLOCK_TOL = 1e-12
ADDITIVITY_TOL = 1e-8

# A sweep whose trials each hold at most this many dense bytes at once
# (``_SweepPlan.trial_bytes``) runs them side by side by default, one per
# usable CPU, with BLAS on one thread; a larger trial runs alone, with BLAS
# threads inside its K and Gram. Measured on 2 vCPUs with numpy's bundled
# OpenBLAS on 2 threads, 2x2 frames, 3 runs each, 2 workers against 1: a
# 48 MiB trial (R=1024, 6 trials) took 1.10-1.22 s against 1.30-1.67 s for
# +50 MiB peak RSS; a 192 MiB trial (R=2048, 2 trials) 2.37-2.62 s against
# 2.65-2.83 s for +142 MiB, 55% more memory for little time.
_PARALLEL_TRIAL_BYTES = 128 << 20


def _gram(k_matrix: np.ndarray) -> np.ndarray:
    """K K^H of each matrix in a (..., rows, cols) stack, by :func:`_lapack.gram`.
    A non-finite K, or a Gram that overflows, shows on the Gram's diagonal
    (sums of |K_ij|^2), so only that diagonal is checked."""
    gram = _lapack.gram(np.asarray(k_matrix, dtype=np.complex128))
    require_finite(np.diagonal(gram, axis1=-2, axis2=-1), "K K^H")
    return gram


def _log_det_bits(gram: np.ndarray, noise_var: float) -> np.ndarray:
    """log2 det(I + gram / sigma2) in bits of each matrix in a (..., R, R) stack,
    via Cholesky so large blocks stay in the log domain instead of overflowing.
    A sigma2 so small that gram / sigma2 overflows, or that leaves the unit
    shift of a rank-deficient gram below rounding so the Cholesky fails,
    raises NonFiniteError.

    A single matrix is shifted into a Fortran-ordered buffer, the layout a
    Cholesky factors in, so :func:`_lapack.cholesky` can factor it in place;
    a Fortran-ordered ``gram`` makes that divide read contiguous memory."""
    if noise_var <= 0:
        raise ConfigError(f"noise variance must be > 0 for MI, got {noise_var}")
    shifted = np.divide(gram, noise_var, out=np.empty(gram.shape, np.complex128,
                                                      order="F" if gram.ndim == 2 else "C"))
    diagonal = np.arange(gram.shape[-1])
    shifted[..., diagonal, diagonal] += 1.0
    require_finite(np.diagonal(shifted, axis1=-2, axis2=-1),
                   f"I + K K^H / sigma2 at sigma2={noise_var:g}")
    factor = _lapack.cholesky(shifted)
    if factor is None:
        raise NonFiniteError(f"Cholesky of I + K K^H / sigma2 at sigma2={noise_var:g}: "
                             "Matrix is not positive definite; sigma2 is too small for the "
                             "scale of K K^H")
    return 2.0 * np.sum(np.log2(np.real(np.diagonal(factor, axis1=-2, axis2=-1))), axis=-1)


def mutual_information(k_matrix: np.ndarray, noise_var: float) -> float:
    """log2 det(I + K K^H / sigma2) in bits, from the Cholesky factor."""
    return float(_log_det_bits(_gram(k_matrix), noise_var))


class _SweepPlan:
    """The channel-independent parts of K and of every K_n for one transmit
    window and geometry, shared by every trial of a run.

    The constructor is the cap check: it raises :class:`SizeCapError` unless
    the whole-block K, (M*N*n_r) x (M*N*n_t), and its Gram, (M*N*n_r) x
    (M*N*n_r), fit under the dense cap, so an oversized run stops before any
    channel is drawn. Each part is built on first use and then kept, so
    that verify, which builds its plan before its dense checks, holds
    neither part while those run:

    - ``transform`` is B_1, the (M*N) x (M*N) product of
      :func:`mimo_modulation_stages` for one antenna. Every antenna has the
      same window and transforms, so the C x C B of the stacked layout is
      B_1 on each antenna's rows and columns and zero elsewhere, and B is
      never held: :meth:`full_k` rebuilds one symbol's M*n_t rows of it at
      a time;
    - ``modulator`` is the (N, M*n_t, M*n_t) stack kron(I_{n_t}, F_M^H) W_n,
      so K_n = block_n modulator_n.

    B_1 feeds only the block route and the modulator only the per-symbol
    route, so the two stay independent. Both K builders take the
    (N, M*n_r, M*n_t) complex128 stack of :func:`mimo_block_channel` as it
    is. ``trial_bytes`` is what one trial holds at its peak besides these
    parts.
    """

    def __init__(self, tx_window: WindowSpec, mcfg: MimoConfig):
        rows, cols = mcfg.rx_vector_len, mcfg.tx_vector_len
        require_dense(rows, max(rows, cols), "whole-block K and its Gram")
        self.tx_window = tx_window
        self.mcfg = mcfg
        # K and two R x R arrays: the Gram and its Fortran-ordered or shifted copy.
        self.trial_bytes = np.dtype(np.complex128).itemsize * rows * (cols + 2 * rows)

    @cached_property
    def transform(self) -> np.ndarray:
        stages = mimo_modulation_stages(self.tx_window, MimoConfig(self.mcfg.frame))
        transform = OperatorChain(stages).materialize()
        transform.flags.writeable = False
        return transform

    @cached_property
    def modulator(self) -> np.ndarray:
        mcfg = self.mcfg
        m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
        width = m * mcfg.num_tx
        require_dense(n * width, width, "per-symbol modulator")
        window = mimo_window_diagonal(self.tx_window, mcfg, mcfg.num_tx).reshape(n, 1, width)
        modulator = np.kron(np.eye(mcfg.num_tx), idft_matrix(m)) * window
        modulator.flags.writeable = False
        return modulator

    def full_k(self, block_channel: np.ndarray) -> np.ndarray:
        """The whole-block K, shape (M*N*n_r) x (M*N*n_t): K = diag(blocks) B.

        Symbol s's rows of K are block_s times symbol s's M*n_t rows of B,
        a slab in which antenna t's rows hold B_1's symbol-s rows in antenna
        t's columns. One slab buffer is refilled for each symbol; its zeros
        are never written. Each product is the zgemm call that the batched
        ``blocks @ B.reshape(N, M*n_t, C)`` makes, with the same operands up
        to the signs of zeros in B, so K has the same bits as
        ``OperatorChain.materialize`` with the block-channel stage in front."""
        mcfg = self.mcfg
        m, n, n_t = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols, mcfg.num_tx
        rows, cols = mcfg.rx_vector_len, mcfg.tx_vector_len
        require_dense(m * n_t, cols, "row slab of B")
        one_antenna = self.transform.reshape(n, m, n, m)
        # slab[t, i, s', t', j]: row (t, i) and column (s', t', j) of the slab.
        slab = np.zeros((n_t, m, n, n_t, m), dtype=np.complex128)
        antennas = np.arange(n_t)
        k_matrix = np.empty((rows, cols), dtype=np.complex128)
        k_rows = k_matrix.reshape(n, rows // n, cols)
        for symbol in range(n):
            slab[antennas, :, :, antennas] = one_antenna[symbol]
            np.matmul(block_channel[symbol], slab.reshape(m * n_t, cols), out=k_rows[symbol])
        return k_matrix

    def per_symbol_k(self, block_channel: np.ndarray) -> np.ndarray:
        """K_n for each OFDM symbol, an (N, M*n_r, M*n_t) array."""
        return block_channel @ self.modulator


@dataclass(frozen=True)
class BlockMiResult:
    """Block and per-symbol MIs plus the measured deviations: largest
    off-diagonal-block |entry| of K K^H and |block MI - per-symbol sum|."""

    total_bits: float
    per_symbol_bits: List[float]
    off_block_deviation: float
    additivity_gap: float


def _trial_block_mis(channels, plan: _SweepPlan,
                     noise_vars: Sequence[float]) -> List[BlockMiResult]:
    """One :class:`BlockMiResult` per noise variance for one channel draw."""
    mcfg = plan.mcfg
    block_channel = mimo_block_channel(channels, mcfg)
    gram = _gram(plan.full_k(block_channel))
    worst = off_block_max(gram, mcfg.frame.num_subcarriers * mcfg.num_rx)
    require_within(worst, BLOCK_TOL,
                   "K K^H has off-diagonal block magnitude {deviation:.3e} > {tolerance:.1e}")
    # Fortran order once per trial, so that each noise level's shift reads it contiguously.
    gram = np.asfortranarray(gram)
    symbol_grams = _gram(plan.per_symbol_k(block_channel))
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
    return _trial_block_mis(channels, _SweepPlan(tx_window, mcfg), [noise_var])[0]


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
    threads: Optional[int] = None,
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
    threads: Optional[int] = None,
) -> List[CapacityResult]:
    """Monte Carlo ergodic capacity in bits per time sample per noise level.

    Trial k draws its channels from the stream keyed by (seed, k), so the
    thread count never changes results, and all noise levels share them, so
    the curve is monotone in the noise variance. ``threads`` trials run at
    once; None runs one at a time when a trial holds more than
    ``_PARALLEL_TRIAL_BYTES``, and else leaves the count to
    :func:`_lapack.map_in_order`. The channel-independent
    parts of K and of every K_n are built once, before any channel is drawn;
    per trial the channels, K, every K_n and every Gram are built once, and
    each noise level costs one log-det per route. The OTFS route divides the
    block MI by the frame length, the OFDM route the mean per-symbol MI by the
    symbol length. A CP shorter than the channel memory raises
    :class:`ConfigError` before anything is built or drawn.
    """
    if not noise_vars:
        raise ConfigError("noise variance grid must be non-empty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    frame = mcfg.frame
    require_cp_covers(model, frame)
    plan = _SweepPlan(tx_window, mcfg)
    # Both parts before the first draw, so a part over the cap stops the run
    # before any channel is drawn, and before trials share the plan across threads.
    plan.transform, plan.modulator

    def one_trial(trial: int) -> List[BlockMiResult]:
        return _trial_block_mis(channel_table(model, mcfg, seed, trial), plan, noise_vars)

    workers = 1 if threads is None and plan.trial_bytes > _PARALLEL_TRIAL_BYTES else threads
    with _lapack.map_in_order(one_trial, range(trials), workers) as outcomes:
        outcomes = list(outcomes)

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
