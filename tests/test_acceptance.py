"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines; every
tolerance is fixed here, nothing is calibrated at runtime.
"""

import json
import time

import numpy as np

from otfsim.capacity import ergodic_capacity, otfs_block_mi
from otfsim.channel import (
    ChannelModel,
    LtvChannel,
    assemble_h_matrix,
    reduce_to_block_channel,
    synthesize,
    trial_rng,
)
from otfsim.cli import main
from otfsim.errors import StructureError
from otfsim.kronops import dft_matrix, kron, vec, unvec
from otfsim.mimo import MimoConfig, mimo_chain, mimo_effective_matrix, stack_grids
from otfsim.transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    convolve_2d_circular,
    dd_channel_as_2d_convolution,
    effective_matrix_frequency_domain,
    effective_matrix_general,
    effective_matrix_rectangular,
    effective_matrix_separable,
    siso_chain,
    to_frequency_domain,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_ltv(rng, cfg, length):
    taps = rand_complex(rng, cfg.frame_len, length) / np.sqrt(2 * length)
    return LtvChannel(taps=taps)


def test_criterion_01_perfect_reconstruction():
    start = time.perf_counter()
    cfg = OtfsFrameConfig(num_subcarriers=16, num_symbols=8, cp_len=4)
    rng = np.random.default_rng(1)
    data = rand_complex(rng, 16, 8)
    channel = synthesize(ChannelModel.identity(), cfg)
    out = siso_chain(data, channel, WindowSpec.rectangular(),
                     WindowSpec.rectangular(), cfg)
    dev = float(np.max(np.abs(out - data)))
    elapsed = time.perf_counter() - start
    report("01 perfect-reconstruction", dev <= 1e-10 and elapsed < 1.0,
           f"max |estimate - data| = {dev:.3e} (tol 1e-10), {elapsed:.2f}s (< 1s)")


def test_criterion_02_boxed_equation_fidelity():
    start = time.perf_counter()
    cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=4)
    worst = 0.0
    for trial in range(100):
        rng = np.random.default_rng(2000 + trial)
        channel = random_ltv(rng, cfg, length=4)
        tx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        rx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        data = rand_complex(rng, 8, 4)
        chain = siso_chain(data, channel, tx, rx, cfg)
        eff = effective_matrix_general(assemble_h_matrix(channel), tx, rx, cfg)
        worst = max(worst, float(np.max(np.abs(vec(chain) - eff @ vec(data)))))
    elapsed = time.perf_counter() - start
    report("02 boxed-equation-fidelity", worst <= 1e-10 and elapsed < 30.0,
           f"worst chain/matrix gap over 100 channels = {worst:.3e} (tol 1e-10), "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_03_specialization_equivalence():
    cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
    worst = {"separable": 0.0, "rectangular": 0.0, "frequency-domain": 0.0}
    for trial in range(50):
        rng = np.random.default_rng(3000 + trial)
        channel = random_ltv(rng, cfg, length=4)
        h = assemble_h_matrix(channel)
        blocks = reduce_to_block_channel(h, cfg)

        tx = WindowSpec.separable(rand_complex(rng, 4), rand_complex(rng, 8))
        rx = WindowSpec.separable(rand_complex(rng, 4), rand_complex(rng, 8))
        gap = np.max(np.abs(effective_matrix_general(h, tx, rx, cfg)
                            - effective_matrix_separable(blocks, tx, rx, cfg)))
        worst["separable"] = max(worst["separable"], float(gap))

        gap = np.max(np.abs(
            effective_matrix_general(h, WindowSpec.rectangular(),
                                     WindowSpec.rectangular(), cfg)
            - effective_matrix_rectangular(blocks, cfg)))
        worst["rectangular"] = max(worst["rectangular"], float(gap))

        txg = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        rxg = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        gap = np.max(np.abs(
            effective_matrix_general(h, txg, rxg, cfg)
            - effective_matrix_frequency_domain(to_frequency_domain(blocks), txg, rxg, cfg)))
        worst["frequency-domain"] = max(worst["frequency-domain"], float(gap))
    ok = all(v <= 1e-10 for v in worst.values())
    report("03 specialization-equivalence", ok,
           "worst gaps over 50 instances: " +
           ", ".join(f"{k}={v:.3e}" for k, v in worst.items()) + " (tol 1e-10)")


def test_criterion_04_block_diagonality():
    cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=4)
    worst = 0.0
    for trial in range(25):
        rng = np.random.default_rng(4000 + trial)
        channel = random_ltv(rng, cfg, length=5)  # L-1 = 4 = M_cp
        h = assemble_h_matrix(channel)
        blen, m, cp = cfg.symbol_len, cfg.num_subcarriers, cfg.cp_len
        add = np.zeros((blen, m)); add[:cp, m - cp:] = np.eye(cp); add[cp:, :] = np.eye(m)
        remove = np.eye(blen)[cp:, :]
        reduced = kron(np.eye(4), remove) @ h @ kron(np.eye(4), add)
        for i in range(4):
            reduced[i * m:(i + 1) * m, i * m:(i + 1) * m] = 0.0
        worst = max(worst, float(np.max(np.abs(reduced))))
    tripped = False
    short = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
    try:
        reduce_to_block_channel(
            assemble_h_matrix(random_ltv(np.random.default_rng(4999), short, 5)), short)
    except StructureError:
        tripped = True
    report("04 block-diagonality", worst <= 1e-12 and tripped,
           f"max off-block magnitude with adequate CP = {worst:.3e} (tol 1e-12); "
           f"short CP raised the structural error: {tripped}")


def test_criterion_05_mi_additivity():
    start = time.perf_counter()
    frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
    mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    worst = 0.0
    for trial in range(100):
        channels = [[synthesize(model, frame, rng=trial_rng(5, trial, r, t))
                     for t in range(2)] for r in range(2)]
        result = otfs_block_mi(channels, WindowSpec.rectangular(), 0.5, mcfg)
        worst = max(worst, abs(result.total_bits - sum(result.per_symbol_bits)))
    elapsed = time.perf_counter() - start
    report("05 mi-additivity", worst <= 1e-8 and elapsed < 60.0,
           f"worst |block MI - per-symbol sum| over 100 realizations = {worst:.3e} "
           f"(tol 1e-8), {elapsed:.1f}s (< 60s)")


def test_criterion_06_capacity_route_equality():
    frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
    mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    worst = 0.0
    for noise_var in (0.1, 1.0):
        res = ergodic_capacity(model, WindowSpec.rectangular(), noise_var, mcfg,
                               trials=30, seed=6)
        otfs_rates = res.per_trial_otfs_bits / frame.frame_len
        ofdm_rates = res.per_trial_ofdm_bits / frame.frame_len
        worst = max(worst, float(np.max(np.abs(otfs_rates - ofdm_rates))))
        assert abs(res.capacity_otfs - res.capacity_ofdm) <= 1e-8
    report("06 capacity-equality", worst <= 1e-8,
           f"worst per-trial OTFS/OFDM route gap = {worst:.3e} (tol 1e-8)")


def test_criterion_07_closed_form_capacity():
    gains = np.array([1.0, 0.5]) / np.sqrt(1.25)
    frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=2)
    mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
    model = ChannelModel.static_multipath(gains, [0, 1])
    res = ergodic_capacity(model, WindowSpec.rectangular(), 0.1, mcfg, trials=3, seed=7)
    lam = gains[0] + gains[1] * np.exp(-2j * np.pi * np.arange(8) / 8)
    expected = float(np.sum(np.log2(1.0 + np.abs(lam) ** 2 / 0.1))) / frame.symbol_len
    gap = abs(res.capacity_otfs - expected)

    ident_frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
    ident = ergodic_capacity(ChannelModel.identity(), WindowSpec.rectangular(), 1.0,
                             MimoConfig(frame=ident_frame), trials=1, seed=0)
    ident_gap = abs(ident.capacity_otfs - 1.0)
    report("07 closed-form-capacity", gap <= 1e-9 and ident_gap <= 1e-9,
           f"circulant oracle gap = {gap:.3e} (tol 1e-9); "
           f"identity channel capacity gap from 1.0 = {ident_gap:.3e}")


def test_criterion_08_slow_fading_2d_convolution():
    cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=8, cp_len=3)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.02,
                                       block_invariant=True)
    worst = 0.0
    circulant_all = True
    for trial in range(10):
        channel = synthesize(model, cfg, rng=trial_rng(8, trial))
        blocks = reduce_to_block_channel(assemble_h_matrix(channel), cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        circulant_all &= result.is_circulant
        rng = np.random.default_rng(8000 + trial)
        data = rand_complex(rng, 8, 8)
        conv = convolve_2d_circular(data, result.kernel)
        worst = max(worst, float(np.max(np.abs(unvec(eff @ vec(data), 8, 8) - conv))))
    report("08 slow-fading-2d-convolution", circulant_all and worst <= 1e-9,
           f"all effective matrices 2-D circulant: {circulant_all}; worst "
           f"matrix-action vs convolution gap = {worst:.3e} (tol 1e-9)")


def test_criterion_09_siso_mimo_reduction():
    frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
    mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(9000 + trial)
        channel = synthesize(model, frame, rng=trial_rng(9, trial))
        tx = WindowSpec.general(rand_complex(rng, frame.grid_size))
        rx = WindowSpec.general(rand_complex(rng, frame.grid_size))
        data = rand_complex(rng, 8, 4)
        siso = siso_chain(data, channel, tx, rx, frame)
        mimo = mimo_chain(stack_grids([data], mcfg), [[channel]], tx, rx, mcfg)
        worst = max(worst, float(np.max(np.abs(vec(siso) - mimo.estimate))))
        eff_gap = np.max(np.abs(
            mimo_effective_matrix([[channel]], tx, rx, mcfg)
            - effective_matrix_general(assemble_h_matrix(channel), tx, rx, frame)))
        worst = max(worst, float(eff_gap))
    report("09 siso-mimo-reduction", worst <= 1e-12,
           f"worst single-antenna MIMO vs SISO gap = {worst:.3e} (tol 1e-12)")


def test_criterion_10_kronecker_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(10)
    worst = 0.0
    for case in range(1000):
        a = rand_complex(rng, 3, 2)
        b = rand_complex(rng, 2, 3)
        c = rand_complex(rng, 2, 2)
        d = rand_complex(rng, 3, 2)
        worst = max(worst, float(np.max(np.abs(
            kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)))))
        worst = max(worst, float(np.max(np.abs(
            kron(a, b).conj().T - kron(a.conj().T, b.conj().T)))))
        x = rand_complex(rng, 2, 3)
        e = rand_complex(rng, 3, 2)
        worst = max(worst, float(np.max(np.abs(
            kron(e.T, a) @ vec(x) - vec(a @ x @ e)))))
        if case % 100 == 0:
            size = 2 + (case // 100) % 7
            f = dft_matrix(size)
            worst = max(worst, float(np.max(np.abs(f @ f.conj().T - np.eye(size)))))
    elapsed = time.perf_counter() - start
    report("10 kronecker-algebra", worst <= 1e-10 and elapsed < 5.0,
           f"worst deviation over 1000 cases = {worst:.3e} (tol 1e-10), "
           f"{elapsed:.2f}s (< 5s)")


def test_criterion_11_performance_and_thread_invariance(tmp_path):
    doc = {
        "frame": {"M": 16, "N": 8, "M_cp": 4},
        "mimo": {"n_t": 2, "n_r": 2},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
        "noise": {"snr_db": [0.0, 5.0, 10.0, 15.0, 20.0]},
        "run": {"trials": 100, "seed": 11},
    }
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(doc))
    out1, out2 = tmp_path / "t1", tmp_path / "t4"
    start = time.perf_counter()
    code1 = main(["capacity", "--config", str(path), "--out", str(out1),
                  "--threads", "1"])
    elapsed = time.perf_counter() - start
    code4 = main(["capacity", "--config", str(path), "--out", str(out2),
                  "--threads", "4"])
    identical = (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
    ok = code1 == 0 and code4 == 0 and identical and elapsed < 60.0
    report("11 performance-and-thread-invariance", ok,
           f"100-trial 5-point sweep in {elapsed:.1f}s (< 60s); outputs "
           f"byte-identical across thread counts: {identical}")
