"""Runtime invariant suite backing the CLI verify mode.

Each check measures deviations at the configured dimensions and returns
one (deviation, tolerance) pair per report entry, the tolerance being the
one the library promises elsewhere; a pair may carry a detail string as a
third item. A check that raises :class:`StructureError` or
:class:`NonFiniteError` on the way, for example because the CP is shorter
than the channel memory, fails its entries with the error's deviation,
tolerance and message instead of ending the run, so a broken configuration
still produces a full report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from .capacity import ADDITIVITY_TOL, BLOCK_TOL, block_mis
from .channel import (CP_TOL, ChannelModel, assemble_h_matrix, reduce_to_block_channel,
                      synthesize, trial_rng)
from .errors import NonFiniteError, StructureError
from .kronops import dft_matrix, kron, vec
from .mimo import (
    MimoConfig,
    channel_table,
    dense_arrays,
    mimo_block_channel,
    mimo_chain,
    mimo_effective_matrix,
    stack_grids,
)
from .transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    effective_matrix_general,
    effective_matrix_rectangular,
    effective_operator_general,
    effective_matrix_separable,
    effective_matrix_frequency_domain,
    isfft,
    sfft,
    siso_chain,
    to_frequency_domain,
)


@dataclass
class CheckResult:
    name: str
    passed: bool
    deviation: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        """JSON-ready entry; a non-finite deviation or tolerance becomes None."""
        return {
            "name": self.name,
            "passed": self.passed,
            "deviation": self.deviation if math.isfinite(self.deviation) else None,
            "tolerance": self.tolerance if math.isfinite(self.tolerance) else None,
            "detail": self.detail,
        }


# Random operand sets of the Kronecker identity check, and channel draws of
# the capacity-route check.
KRON_CASES = 25
ROUTE_TRIALS = 3


@dataclass
class VerifyContext:
    """Everything a check needs: frame/antenna geometry, the configured
    channel model and windows, the first noise level, and the seed. Building
    the context checks every dense array of a verify run, as
    :func:`mimo.dense_arrays` lists them, against the cap, before any channel
    is drawn. It holds no dense array: each MI check's draws build their own,
    through :func:`capacity.block_mis`."""

    mcfg: MimoConfig
    channel_model: ChannelModel
    tx_window: WindowSpec
    rx_window: WindowSpec
    noise_var: float
    seed: int

    def __post_init__(self):
        dense_arrays("verify", self.mcfg, self.channel_model.channel_length)

    @property
    def frame(self) -> OtfsFrameConfig:
        return self.mcfg.frame


def _rand_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _siso_channel(ctx: VerifyContext, key: int):
    rng = trial_rng(ctx.seed, 50, key)
    return synthesize(ctx.channel_model, ctx.frame, rng=rng)


def _flat_channel_table(ctx: VerifyContext, base: int):
    """Rx-major channel table whose pair (r, t) uses the flat key
    ``base + r*n_t + t`` under ``trial_rng(seed, 50, .)``."""
    mcfg = ctx.mcfg
    return [[_siso_channel(ctx, base + r * mcfg.num_tx + t) for t in range(mcfg.num_tx)]
            for r in range(mcfg.num_rx)]


def check_kron_identities(ctx: VerifyContext) -> List[tuple]:
    rng = trial_rng(ctx.seed, 1)
    worst_mixed = worst_herm = worst_vec = worst_assoc = 0.0
    for _ in range(KRON_CASES):
        a = _rand_complex(rng, 3, 4)
        b = _rand_complex(rng, 2, 3)
        c = _rand_complex(rng, 4, 2)
        d = _rand_complex(rng, 3, 2)
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d)
        worst_mixed = max(worst_mixed, float(np.max(np.abs(lhs - rhs))))
        worst_herm = max(worst_herm, float(np.max(np.abs(
            kron(a, b).conj().T - kron(a.conj().T, b.conj().T)))))
        x = _rand_complex(rng, 4, 3)
        e = _rand_complex(rng, 3, 2)
        worst_vec = max(worst_vec, float(np.max(np.abs(
            kron(e.T, a) @ vec(x) - vec(a @ x @ e)))))
        worst_assoc = max(worst_assoc, float(np.max(np.abs(
            kron(kron(a, b), d) - kron(a, kron(b, d))))))
    return [(worst_mixed, 1e-10), (worst_herm, 1e-12), (worst_vec, 1e-10), (worst_assoc, 1e-12)]


def check_dft_unitarity(ctx: VerifyContext) -> List[tuple]:
    worst = 0.0
    sizes = sorted({ctx.frame.num_subcarriers, ctx.frame.num_symbols, ctx.frame.symbol_len})
    for size in sizes:
        f = dft_matrix(size)
        # F @ F^H evaluated column-by-column through the FFT (F^H is conj(F)
        # since F is symmetric), cheap even at large sizes.
        prod = np.fft.fft(f.conj(), axis=0, norm="ortho")
        worst = max(worst, float(np.max(np.abs(prod - np.eye(size)))))
    return [(worst, 1e-12, f"sizes {sizes}")]


def check_sfft_inverse(ctx: VerifyContext) -> List[tuple]:
    rng = trial_rng(ctx.seed, 2)
    grid = _rand_complex(rng, ctx.frame.num_subcarriers, ctx.frame.num_symbols)
    spread = isfft(grid)
    round_trip = float(np.max(np.abs(sfft(spread) - grid)))
    norm_gap = abs(np.linalg.norm(spread) - np.linalg.norm(grid))
    return [(max(round_trip, float(norm_gap)), 1e-12)]


def check_perfect_reconstruction(ctx: VerifyContext) -> List[tuple]:
    rng = trial_rng(ctx.seed, 3)
    frame = ctx.frame
    grid = _rand_complex(rng, frame.num_subcarriers, frame.num_symbols)
    ident = synthesize(ChannelModel.identity(), frame)
    rect = WindowSpec.rectangular()
    dev = float(np.max(np.abs(siso_chain(grid, ident, rect, rect, frame) - grid)))
    return [(dev, 1e-10)]


def check_chain_vs_matrix(ctx: VerifyContext) -> List[tuple]:
    rng = trial_rng(ctx.seed, 4)
    mcfg = ctx.mcfg
    frame = ctx.frame
    grids = [_rand_complex(rng, frame.num_subcarriers, frame.num_symbols)
             for _ in range(mcfg.num_tx)]
    stacked = stack_grids(grids, mcfg)
    channels = _flat_channel_table(ctx, 10)
    if mcfg.num_tx == 1 and mcfg.num_rx == 1:
        chain = siso_chain(grids[0], channels[0][0], ctx.tx_window, ctx.rx_window, frame)
        eff = effective_matrix_general(
            assemble_h_matrix(channels[0][0]), ctx.tx_window, ctx.rx_window, frame)
        return [(float(np.max(np.abs(vec(chain) - eff @ vec(grids[0])))), 1e-10)]
    chain = mimo_chain(stacked, channels, ctx.tx_window, ctx.rx_window, mcfg)
    eff = mimo_effective_matrix(channels, ctx.tx_window, ctx.rx_window, mcfg)
    return [(float(np.max(np.abs(chain.estimate - eff @ vec(stacked)))), 1e-10)]


def check_block_diagonality(ctx: VerifyContext) -> List[tuple]:
    # Probe with a tap at every delay up to the declared channel length, so
    # a CP shorter than the memory fails deterministically (a random draw
    # could miss the worst delay).
    length = ctx.channel_model.channel_length
    probe = ChannelModel.static_multipath(
        np.full(length, 1.0 / np.sqrt(length)), np.arange(length))
    channel = synthesize(probe, ctx.frame)
    # A CP shorter than the memory raises StructureError with the deviation.
    reduce_to_block_channel(assemble_h_matrix(channel), ctx.frame)
    return [(0.0, CP_TOL)]


def check_specializations(ctx: VerifyContext) -> List[tuple]:
    """Each specialization against the general operator of
    ``effective_matrix_general`` on the same channel, drawn once, one pair at
    a time. Each specialization is built whole first. The dense H is then
    assembled, and the general operator is compared with the specialization
    one slab of columns at a time (:meth:`OperatorChain.slabs`), taking the
    max |difference| per slab: the general matrix is never held whole, and
    the max of the slab maxima is the whole matrix's. A comparison holds the
    specialization, H and one slab's stages, more than any specialization's
    build holds, so it sets the check's peak. The specializations take the
    channel's blocks from the tap-table builder and the general operator
    takes its dense H, so the check also cross-checks the two builders."""
    rng = trial_rng(ctx.seed, 5)
    frame = ctx.frame
    channel = _siso_channel(ctx, 21)
    blocks = mimo_block_channel([[channel]], MimoConfig(frame))
    tx_sep = WindowSpec.separable(_rand_complex(rng, frame.num_symbols),
                                  _rand_complex(rng, frame.num_subcarriers))
    rx_sep = WindowSpec.separable(_rand_complex(rng, frame.num_symbols),
                                  _rand_complex(rng, frame.num_subcarriers))
    cases = (
        (tx_sep, rx_sep, lambda: effective_matrix_separable(blocks, tx_sep, rx_sep, frame)),
        (WindowSpec.rectangular(), WindowSpec.rectangular(),
         lambda: effective_matrix_rectangular(blocks, frame)),
        (ctx.tx_window, ctx.rx_window, lambda: effective_matrix_frequency_domain(
            to_frequency_domain(blocks), ctx.tx_window, ctx.rx_window, frame)),
    )

    def deviation(tx, rx, build) -> float:
        special = build()
        general = effective_operator_general(assemble_h_matrix(channel), tx, rx, frame)
        return float(np.max([np.max(np.abs(slab - special[:, columns]))
                             for columns, slab in general.slabs()]))

    return [(deviation(*case), 1e-10) for case in cases]


def _block_mis(ctx: VerifyContext, draw, keys) -> list:
    """:func:`capacity.block_mis` of the context's geometry and transmit window
    at its noise level, one draw at a time: side by side, the draws would set
    verify's peak memory."""
    return block_mis(ctx.tx_window, ctx.mcfg, ctx.channel_model.channel_length, draw, keys,
                     [ctx.noise_var], threads=1)


def check_mi_additivity(ctx: VerifyContext) -> List[tuple]:
    [[result]] = _block_mis(ctx, lambda key: _flat_channel_table(ctx, key), [30])
    return [(result.off_block_deviation, BLOCK_TOL), (result.additivity_gap, ADDITIVITY_TOL)]


def check_capacity_routes(ctx: VerifyContext) -> List[tuple]:
    outcomes = _block_mis(
        ctx, lambda key: channel_table(ctx.channel_model, ctx.mcfg, ctx.seed, key),
        range(40, 40 + ROUTE_TRIALS))
    worst = 0.0
    for [result] in outcomes:
        otfs_rate = result.total_bits / ctx.frame.frame_len
        ofdm_rate = float(np.mean(result.per_symbol_bits)) / ctx.frame.symbol_len
        worst = max(worst, abs(otfs_rate - ofdm_rate))
    return [(worst, ADDITIVITY_TOL)]


def run_invariant_checks(ctx: VerifyContext) -> List[CheckResult]:
    """The full suite, in reporting order: one entry per name. An entry
    passes when its deviation is within its tolerance. A check that raises
    :class:`StructureError` or :class:`NonFiniteError` fails each of its
    entries with the error's deviation, tolerance and message;
    :class:`SizeCapError` propagates."""
    suite = (
        (check_kron_identities, ("kron-mixed-product", "kron-hermitian-order",
                                 "kron-vec-identity", "kron-associativity")),
        (check_dft_unitarity, ("dft-unitarity",)),
        (check_sfft_inverse, ("sfft-inverse-pair",)),
        (check_perfect_reconstruction, ("perfect-reconstruction",)),
        (check_chain_vs_matrix, ("chain-vs-effective-matrix",)),
        (check_block_diagonality, ("block-diagonality",)),
        (check_specializations, ("specialization-separable", "specialization-rectangular",
                                 "specialization-frequency-domain")),
        (check_mi_additivity, ("kkh-block-diagonality", "mi-additivity")),
        (check_capacity_routes, ("capacity-route-equality",)),
    )
    results: List[CheckResult] = []
    for check, names in suite:
        try:
            measured = check(ctx)
        except (StructureError, NonFiniteError) as err:
            measured = [(err.deviation, err.tolerance, f"{err.label}: {err}")] * len(names)
        results.extend(CheckResult(name, dev <= tol, dev, tol, *detail)
                       for name, (dev, tol, *detail) in zip(names, measured, strict=True))
    return results
