"""Runtime invariant suite backing the CLI verify mode.

Each check measures a deviation at the configured dimensions and compares
it against the tolerance the library promises elsewhere. Checks that
depend on the per-symbol channel decoupling report a failure (rather than
crashing) when the CP is shorter than the channel memory, so a deliberately
broken configuration produces a readable report with the block-diagonality
check named as the culprit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .capacity import ADDITIVITY_TOL, BLOCK_TOL, otfs_block_mi
from .channel import (CP_TOL, ChannelModel, assemble_h_matrix, reduce_to_block_channel,
                      synthesize, trial_rng)
from .errors import StructureError
from .kronops import dft_matrix, kron, vec
from .mimo import (
    MimoConfig,
    channel_table,
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
        return {
            "name": self.name,
            "passed": self.passed,
            "deviation": self.deviation,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


@dataclass
class VerifyContext:
    """Everything a check needs: frame/antenna geometry, the configured
    channel model and windows, the first noise level, and the seed."""

    mcfg: MimoConfig
    channel_model: ChannelModel
    tx_window: WindowSpec
    rx_window: WindowSpec
    noise_var: float
    seed: int

    @property
    def frame(self) -> OtfsFrameConfig:
        return self.mcfg.frame


def _rand_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _siso_channel(ctx: VerifyContext, key: int):
    rng = trial_rng(ctx.seed, 50, key)
    return synthesize(ctx.channel_model, ctx.frame, rng=rng, enforce_cp=False)


def _flat_channel_table(ctx: VerifyContext, base: int):
    """Rx-major channel table whose pair (r, t) uses the flat key
    ``base + r*n_t + t`` under ``trial_rng(seed, 50, .)``."""
    mcfg = ctx.mcfg
    return [[_siso_channel(ctx, base + r * mcfg.num_tx + t) for t in range(mcfg.num_tx)]
            for r in range(mcfg.num_rx)]


def _gauge(dev: float, tol: float, name: str, detail: str = "") -> CheckResult:
    return CheckResult(name=name, passed=dev <= tol, deviation=dev, tolerance=tol, detail=detail)


def check_kron_identities(ctx: VerifyContext, cases: int = 25) -> List[CheckResult]:
    rng = trial_rng(ctx.seed, 1)
    worst_mixed = worst_herm = worst_vec = worst_assoc = 0.0
    for _ in range(cases):
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
    return [
        _gauge(worst_mixed, 1e-10, "kron-mixed-product"),
        _gauge(worst_herm, 1e-12, "kron-hermitian-order"),
        _gauge(worst_vec, 1e-10, "kron-vec-identity"),
        _gauge(worst_assoc, 1e-12, "kron-associativity"),
    ]


def check_dft_unitarity(ctx: VerifyContext) -> CheckResult:
    worst = 0.0
    sizes = sorted({ctx.frame.num_subcarriers, ctx.frame.num_symbols, ctx.frame.symbol_len})
    for size in sizes:
        f = dft_matrix(size)
        # F @ F^H evaluated column-by-column through the FFT (F^H is conj(F)
        # since F is symmetric), cheap even at large sizes.
        prod = np.fft.fft(f.conj(), axis=0, norm="ortho")
        worst = max(worst, float(np.max(np.abs(prod - np.eye(size)))))
    return _gauge(worst, 1e-12, "dft-unitarity", detail=f"sizes {sizes}")


def check_sfft_inverse(ctx: VerifyContext) -> CheckResult:
    rng = trial_rng(ctx.seed, 2)
    grid = _rand_complex(rng, ctx.frame.num_subcarriers, ctx.frame.num_symbols)
    spread = isfft(grid)
    round_trip = float(np.max(np.abs(sfft(spread) - grid)))
    norm_gap = abs(np.linalg.norm(spread) - np.linalg.norm(grid))
    return _gauge(max(round_trip, float(norm_gap)), 1e-12, "sfft-inverse-pair")


def check_perfect_reconstruction(ctx: VerifyContext) -> CheckResult:
    rng = trial_rng(ctx.seed, 3)
    frame = ctx.frame
    grid = _rand_complex(rng, frame.num_subcarriers, frame.num_symbols)
    ident = synthesize(ChannelModel.identity(), frame)
    rect = WindowSpec.rectangular()
    out = siso_chain(grid, ident, rect, WindowSpec.rectangular("receive"), frame)
    dev = float(np.max(np.abs(out.estimate_grid - grid)))
    return _gauge(dev, 1e-10, "perfect-reconstruction")


def check_chain_vs_matrix(ctx: VerifyContext) -> CheckResult:
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
        dev = float(np.max(np.abs(chain.estimate - eff @ vec(grids[0]))))
        return _gauge(dev, 1e-10, "chain-vs-effective-matrix")
    try:
        chain = mimo_chain(stacked, channels, ctx.tx_window, ctx.rx_window, mcfg)
        eff = mimo_effective_matrix(channels, ctx.tx_window, ctx.rx_window, mcfg)
    except StructureError as err:
        return CheckResult(
            name="chain-vs-effective-matrix", passed=False,
            deviation=err.deviation, tolerance=1e-10,
            detail="needs block-diagonal per-symbol channel; " + str(err))
    dev = float(np.max(np.abs(chain.estimate - eff @ vec(stacked))))
    return _gauge(dev, 1e-10, "chain-vs-effective-matrix")


def check_block_diagonality(ctx: VerifyContext) -> CheckResult:
    # Probe with a tap at every delay up to the declared channel length, so
    # a CP shorter than the memory fails deterministically (a random draw
    # could miss the worst delay).
    length = ctx.channel_model.channel_length
    probe = ChannelModel.static_multipath(
        np.full(length, 1.0 / np.sqrt(length)), np.arange(length))
    channel = synthesize(probe, ctx.frame, enforce_cp=False)
    try:
        reduce_to_block_channel(assemble_h_matrix(channel), ctx.frame)
    except StructureError as err:
        return CheckResult(
            name="block-diagonality", passed=False,
            deviation=err.deviation, tolerance=CP_TOL, detail=str(err))
    return _gauge(0.0, CP_TOL, "block-diagonality")


def _specialization_blocks(ctx: VerifyContext, key: int):
    """The dense H that ``effective_matrix_general`` takes and the per-symbol
    blocks from the tap-table builder, so the specialization checks also
    cross-check the two."""
    channel = _siso_channel(ctx, key)
    return assemble_h_matrix(channel), mimo_block_channel([[channel]], MimoConfig(ctx.frame))


def check_specializations(ctx: VerifyContext) -> List[CheckResult]:
    rng = trial_rng(ctx.seed, 5)
    frame = ctx.frame
    names = ("specialization-separable", "specialization-rectangular",
             "specialization-frequency-domain")
    try:
        h_matrix, blocks = _specialization_blocks(ctx, 21)
    except StructureError as err:
        return [CheckResult(name=name, passed=False, deviation=err.deviation,
                            tolerance=1e-10,
                            detail="needs block-diagonal per-symbol channel")
                for name in names]
    results = []

    tx_sep = WindowSpec.separable(_rand_complex(rng, frame.num_symbols),
                                  _rand_complex(rng, frame.num_subcarriers))
    rx_sep = WindowSpec.separable(_rand_complex(rng, frame.num_symbols),
                                  _rand_complex(rng, frame.num_subcarriers), role="receive")
    general = effective_matrix_general(h_matrix, tx_sep, rx_sep, frame)
    special = effective_matrix_separable(blocks, tx_sep, rx_sep, frame)
    results.append(_gauge(float(np.max(np.abs(general - special))), 1e-10, names[0]))

    rect_tx = WindowSpec.rectangular()
    rect_rx = WindowSpec.rectangular("receive")
    general = effective_matrix_general(h_matrix, rect_tx, rect_rx, frame)
    special = effective_matrix_rectangular(blocks, frame)
    results.append(_gauge(float(np.max(np.abs(general - special))), 1e-10, names[1]))

    general = effective_matrix_general(h_matrix, ctx.tx_window, ctx.rx_window, frame)
    special = effective_matrix_frequency_domain(
        to_frequency_domain(blocks), ctx.tx_window, ctx.rx_window, frame)
    results.append(_gauge(float(np.max(np.abs(general - special))), 1e-10, names[2]))
    return results


def check_mi_additivity(ctx: VerifyContext) -> List[CheckResult]:
    channels = _flat_channel_table(ctx, 30)
    names = ("kkh-block-diagonality", "mi-additivity")
    try:
        result = otfs_block_mi(channels, ctx.tx_window, ctx.noise_var, ctx.mcfg)
    except StructureError as err:
        return [CheckResult(name=name, passed=False, deviation=err.deviation,
                            tolerance=BLOCK_TOL if name == names[0] else ADDITIVITY_TOL,
                            detail=str(err))
                for name in names]
    return [
        _gauge(result.off_block_deviation, BLOCK_TOL, names[0]),
        _gauge(result.additivity_gap, ADDITIVITY_TOL, names[1]),
    ]


def check_capacity_routes(ctx: VerifyContext, trials: int = 3) -> CheckResult:
    mcfg = ctx.mcfg
    worst = 0.0
    for trial in range(trials):
        channels = channel_table(ctx.channel_model, mcfg, ctx.seed, 40 + trial,
                                 enforce_cp=False)
        try:
            result = otfs_block_mi(channels, ctx.tx_window, ctx.noise_var, mcfg)
        except StructureError as err:
            return CheckResult(name="capacity-route-equality", passed=False,
                               deviation=err.deviation, tolerance=ADDITIVITY_TOL,
                               detail="needs block-diagonal per-symbol channel")
        otfs_rate = result.total_bits / ctx.frame.frame_len
        ofdm_rate = float(np.mean(result.per_symbol_bits)) / ctx.frame.symbol_len
        worst = max(worst, abs(otfs_rate - ofdm_rate))
    return _gauge(worst, ADDITIVITY_TOL, "capacity-route-equality")


def run_invariant_checks(ctx: VerifyContext) -> List[CheckResult]:
    """The full suite, in reporting order."""
    results: List[CheckResult] = []
    results.extend(check_kron_identities(ctx))
    results.append(check_dft_unitarity(ctx))
    results.append(check_sfft_inverse(ctx))
    results.append(check_perfect_reconstruction(ctx))
    results.append(check_chain_vs_matrix(ctx))
    results.append(check_block_diagonality(ctx))
    results.extend(check_specializations(ctx))
    results.extend(check_mi_additivity(ctx))
    results.append(check_capacity_routes(ctx))
    return results
