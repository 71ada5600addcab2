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
The part of every K_n that does not depend on the channel, the per-symbol
modulator, is built once per run, by its plan. K comes from
:func:`mimo.whole_block_k`, the one builder of K, which builds B_1, its
one-antenna transform, for each K and frees it before the trial's Gram is
made; B_1 feeds only the block route and the modulator only the per-symbol
route. At its peak a trial holds K and its Gram beside the plan's per-symbol
modulator; at a noise level before the last it holds the Gram and its
shifted copy, and the last level shifts the trial's own copy of the Gram in
place.
:func:`mimo.dense_arrays`, the memory model, lists these arrays: the plan
checks a capacity run's against the cap before any channel is drawn, and
the worker rule reads one trial's.

MI follows the paper's convention: identity input covariance, and only
the transmit window appears in K (the receive window sits after the point
where MI is measured, so it does not enter).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from . import _lapack
from .channel import ChannelModel, require_cp_covers
from .errors import ConfigError, NonFiniteError
from .kronops import idft_matrix, off_block_max, require_dense, require_finite, require_within
from .mimo import (MimoConfig, capacity_trial_arrays, channel_table, dense_arrays,
                   mimo_block_channel, mimo_window_diagonal, whole_block_k)
from .transceiver import OtfsFrameConfig, WindowSpec

# Bounds on K K^H's off-diagonal blocks and on the gap between the two MI routes.
BLOCK_TOL = 1e-12
ADDITIVITY_TOL = 1e-8

# A sweep whose trials each hold at most this many dense bytes, the sum of
# ``mimo.capacity_trial_arrays``, runs them side by side by default, one per
# usable CPU, with BLAS on one thread; a larger trial runs alone, with BLAS
# threads inside its K and Gram. Measured on 2 vCPUs with numpy's bundled
# OpenBLAS on 2 threads and malloc's thresholds pinned, 2x2 frames, 3 runs
# each, 2 workers against 1: a 48 MiB trial (R=1024, 6 trials) took
# 1.13-1.26 s against 1.22-1.58 s for +37 MiB peak RSS; a 192 MiB trial
# (R=2048, 2 trials) 2.04-2.36 s against 2.55-2.77 s for +134 MiB, 67% more
# memory for little time.
_PARALLEL_TRIAL_BYTES = 128 << 20


def _gram(k_matrix: np.ndarray) -> np.ndarray:
    """K K^H of each matrix in a (..., rows, cols) stack, by :func:`_lapack.gram`.
    A non-finite K, or a Gram that overflows, shows on the Gram's diagonal
    (sums of |K_ij|^2), so only that diagonal is checked."""
    gram = _lapack.gram(np.asarray(k_matrix, dtype=np.complex128))
    require_finite(np.diagonal(gram, axis1=-2, axis2=-1), "K K^H")
    return gram


def _log_det_bits(gram: np.ndarray, noise_var: float,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    """log2 det(I + gram / sigma2) in bits of each matrix in a (..., R, R) stack,
    via Cholesky so large blocks stay in the log domain instead of overflowing.
    A sigma2 so small that gram / sigma2 overflows, or that leaves the unit
    shift of a rank-deficient gram below rounding so the Cholesky fails,
    raises NonFiniteError.

    A single matrix is shifted into a Fortran-ordered buffer, the layout a
    Cholesky factors in, so :func:`_lapack.cholesky` can factor it in place;
    a Fortran-ordered ``gram`` makes that divide read contiguous memory.
    The buffer is ``out`` when given, which may be ``gram`` itself: the
    values are the same, and ``gram`` is then overwritten."""
    if noise_var <= 0:
        raise ConfigError(f"noise variance must be > 0 for MI, got {noise_var}")
    if out is None:
        out = np.empty(gram.shape, np.complex128, order="F" if gram.ndim == 2 else "C")
    shifted = np.divide(gram, noise_var, out=out)
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


class TrialPlan:
    """The channel-independent part of every K_n for one transmit window and
    geometry, shared by every trial of a run whose channels are
    ``channel_length`` taps long.

    The constructor first checks every array of a capacity run, as
    :func:`mimo.dense_arrays` lists them, against the dense cap, so an
    oversized run stops before anything is built or any channel is drawn.
    It then decides, once, whether a trial runs alone by default:
    ``runs_alone`` is true when the arrays of
    :func:`mimo.capacity_trial_arrays` take more than
    ``_PARALLEL_TRIAL_BYTES``. It then builds ``modulator``, the
    (N, M*n_t, M*n_t) stack kron(I_{n_t}, F_M^H) W_n, so that
    K_n = block_n modulator_n.

    Each trial's K comes from :func:`whole_block_k`, which builds its own
    B_1 from ``tx_window``, so the two routes share no part.
    """

    def __init__(self, tx_window: WindowSpec, mcfg: MimoConfig, channel_length: int):
        dense_arrays("capacity", mcfg, channel_length)
        self.mcfg = mcfg
        self.tx_window = tx_window
        held = np.dtype(np.complex128).itemsize * sum(
            rows * cols for _, rows, cols in capacity_trial_arrays(mcfg, channel_length))
        self.runs_alone = held > _PARALLEL_TRIAL_BYTES
        m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
        width = m * mcfg.num_tx
        require_dense(n * width, width, "per-symbol modulator")
        window = mimo_window_diagonal(tx_window, mcfg, mcfg.num_tx).reshape(n, 1, width)
        self.modulator = np.kron(np.eye(mcfg.num_tx), idft_matrix(m)) * window
        self.modulator.flags.writeable = False

    def per_symbol_k(self, block_channel: np.ndarray) -> np.ndarray:
        """K_n for each OFDM symbol, an (N, M*n_r, M*n_t) array."""
        return block_channel @ self.modulator

    def block_mis(self, draw: Callable[[int], list], keys: Sequence[int], noise_vars: Sequence,
                  threads: Optional[int] = None) -> List[List[BlockMiResult]]:
        """The one runner of trials: for each of ``keys`` in order, one
        :class:`BlockMiResult` per noise variance of the channel table
        ``draw(key)``. ``threads`` draws run at once; None runs one at a time
        when the plan's trials run alone, and else leaves the count to
        :func:`_lapack.map_in_order`."""
        workers = 1 if threads is None and self.runs_alone else threads
        with _lapack.map_in_order(lambda key: _trial_block_mis(draw(key), self, noise_vars),
                                  keys, workers) as outcomes:
            return list(outcomes)


@dataclass(frozen=True)
class BlockMiResult:
    """Block and per-symbol MIs plus the measured deviations: largest
    off-diagonal-block |entry| of K K^H and |block MI - per-symbol sum|."""

    total_bits: float
    per_symbol_bits: List[float]
    off_block_deviation: float
    additivity_gap: float


def _trial_block_mis(channels, plan: TrialPlan,
                     noise_vars: Sequence[float]) -> List[BlockMiResult]:
    """One :class:`BlockMiResult` per noise variance for one channel draw."""
    mcfg = plan.mcfg
    block_channel = mimo_block_channel(channels, mcfg)
    # K goes once the Gram is made.
    k_matrix = whole_block_k(block_channel, plan.tx_window, mcfg)
    gram = _gram(k_matrix)
    del k_matrix
    worst = off_block_max(gram, mcfg.frame.num_subcarriers * mcfg.num_rx)
    require_within(worst, BLOCK_TOL,
                   "K K^H has off-diagonal block magnitude {deviation:.3e} > {tolerance:.1e}")
    # Fortran order once per trial, so that each noise level's shift reads it
    # contiguously; this copy is the trial's own, so the last level shifts it in place.
    gram = np.asfortranarray(gram)
    symbol_grams = _gram(plan.per_symbol_k(block_channel))
    results = []
    for level, noise_var in enumerate(noise_vars, 1):
        total = float(_log_det_bits(gram, noise_var,
                                    out=gram if level == len(noise_vars) else None))
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
    indicate a broken decoupling. This is one draw of
    :meth:`TrialPlan.block_mis` at one noise variance.
    """
    # The trial's mimo_block_channel rejects a table that is empty or of mixed lengths.
    length = max((ch.length for row in channels for ch in row), default=1)
    plan = TrialPlan(tx_window, mcfg, length)
    return plan.block_mis(lambda key: channels, [0], [noise_var])[0][0]


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

    @classmethod
    def of_trials(cls, point: Sequence[BlockMiResult],
                  frame: OtfsFrameConfig) -> "CapacityResult":
        """The estimate at one noise level from each trial's result there. The
        OTFS route divides the block MI by the frame length, the OFDM route the
        mean per-symbol MI by the symbol length."""
        trials = len(point)
        otfs_bits = np.array([r.total_bits for r in point])
        ofdm_bits = np.array([float(sum(r.per_symbol_bits)) for r in point])
        otfs_rates = otfs_bits / frame.frame_len
        ofdm_rates = ofdm_bits / (frame.num_symbols * frame.symbol_len)
        ci = 1.96 * float(np.std(otfs_rates, ddof=1)) / np.sqrt(trials) if trials > 1 else 0.0
        return cls(per_trial_otfs_bits=otfs_bits, per_trial_ofdm_bits=ofdm_bits,
                   capacity_otfs=float(np.mean(otfs_rates)),
                   capacity_ofdm=float(np.mean(ofdm_rates)), trials=trials, ci_halfwidth=ci)


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
    the curve is monotone in the noise variance. The trials run through
    :meth:`TrialPlan.block_mis`, which picks how many run at once when
    ``threads`` is None; per trial the channels, K, every K_n and every Gram
    are built once, and each noise level costs one log-det per route;
    :meth:`CapacityResult.of_trials` makes each level's estimate. A CP shorter
    than the channel memory raises :class:`ConfigError` before anything is
    built or drawn.
    """
    if not noise_vars:
        raise ConfigError("noise variance grid must be non-empty")
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials}")
    if threads is not None and threads < 1:
        raise ConfigError(f"threads must be >= 1, got {threads}")
    require_cp_covers(model, mcfg.frame)
    outcomes = TrialPlan(tx_window, mcfg, model.channel_length).block_mis(
        lambda trial: channel_table(model, mcfg, seed, trial), range(trials), noise_vars, threads)
    return [CapacityResult.of_trials(point, mcfg.frame) for point in zip(*outcomes)]
