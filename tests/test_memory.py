"""Peak memory of the dense reference paths and of one capacity trial.

``verify``, ``simulate`` and ``effective-channel`` build dense C x C
matrices, and a capacity trial an R x C K and its R x R Gram. Each test
traces one function's allocations with ``tracemalloc`` (numpy reports its
array buffers to it) and bounds the peak in units of one C x C (or R x C)
complex128 array, so a change that keeps a dense array alive past its last
reader fails. The measured peaks sit 0.1-0.3 units under each bound;
keeping the frame-length H for the whole of ``check_specializations``, a
whole general matrix beside a specialization, the general build's whole
identity or stage arrays instead of one column slab's, the reduced channel
beside its column products, the delay-Doppler matrix through the
frequency-domain export, a copy of a stage's input at a CP or DFT stage,
a dense stage of the separable build that puts its product in a third
array instead of over its input, the whole C x C transmit transform of a
MIMO sweep or effective matrix, a whole C x C rebuild in the 2-D circulant
check, verify's capacity-route draws side by side, or a one-antenna
transform B_1 kept beside a trial's Gram (as a plan-held B_1 was) crosses
it.

``tracemalloc`` counts what is allocated, not what is resident, so two
tests read the resident size of a fresh interpreter. One bounds a large
capacity run's growth by its traced peak: an allocator that keeps the
pages of freed arrays resident crosses it. The other bounds how much of a
mostly-zero reference (the frame-length H, a materialized block-diagonal
factor, a window matrix) becomes resident, against its traced size: such
an array built under numpy's huge-page advice, whose sparse writes make
every 2 MiB of it resident, crosses it.
"""

import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from otfsim.capacity import TrialPlan, capacity_sweep
from otfsim.channel import ChannelModel, assemble_h_matrix, synthesize, trial_rng
from otfsim.checks import (VerifyContext, check_block_diagonality, check_capacity_routes,
                           check_chain_vs_matrix, check_specializations)
from otfsim.cli import parse_config, run_effective_channel
from otfsim.mimo import (MimoConfig, capacity_trial_arrays, channel_table, mimo_block_channel,
                         mimo_effective_matrix)
from otfsim.transceiver import (OtfsFrameConfig, WindowSpec, dd_channel_as_2d_convolution,
                                effective_matrix_general, effective_matrix_separable)

# SISO, general transmit window, separable receive window: the dense
# reference paths of verify and effective-channel. C = M*N = 512, so one
# unit is 4 MiB, and the frame-length H is (576/512)^2 = 1.27 units.
M, N = 32, 16


def _taper(rng, size):
    return (1.0 + 0.3 * rng.standard_normal((size, 2))).tolist()


@pytest.fixture(scope="module")
def cfg():
    rng = np.random.default_rng(6)
    doc = {
        "frame": {"M": M, "N": N, "M_cp": 4},
        "window": {
            "tx": {"kind": "general", "taps": _taper(rng, M * N)},
            "rx": {"kind": "separable", "time": _taper(rng, N), "freq": _taper(rng, M)},
        },
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.05},
        "noise": {"snr_db": [10]},
        "run": {"seed": 3, "emit_frequency_domain": True},
    }
    return parse_config(doc, mode="effective-channel")


@pytest.fixture(scope="module")
def ctx(cfg):
    return VerifyContext(mcfg=cfg.mcfg, channel_model=cfg.channel_model,
                         tx_window=cfg.tx_window, rx_window=cfg.rx_window,
                         noise_var=1.0, seed=cfg.seed)


def peak_arrays(function, rows: int = M * N, cols: int = M * N) -> float:
    """The most memory ``function()`` held at once above what was live
    before the call, in ``rows`` x ``cols`` complex128 arrays (C x C by
    default)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        function()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / (16 * rows * cols)


def test_general_build_holds_one_slab_beside_its_result(ctx):
    # Beside H, which its caller holds, the general build holds its result and
    # one slab's arrays, about 1.3 units at 64 of C = 512 columns: the input
    # and output of its H stage. The chain owns the slab's identity columns,
    # so they are freed after its first stage, and the slab before it is
    # freed before the next one is made; holding both took 1.57, and
    # applying the chain to the whole identity 2.25.
    h = assemble_h_matrix(synthesize(ctx.channel_model, ctx.frame, rng=trial_rng(ctx.seed, 0)))
    assert peak_arrays(lambda: effective_matrix_general(
        h, ctx.tx_window, ctx.rx_window, ctx.frame)) < 1.5


def test_specializations_hold_no_whole_general_matrix(ctx):
    # Each specialization is built whole first, the separable one in about 2.0
    # units. The general operator is then compared with it one column slab at
    # a time beside H, about 2.8, the check's peak. Holding a whole general
    # matrix beside the separable build took 4.1; the separable build holding
    # three arrays at its dense stages, as tensordot does, 3.1.
    assert peak_arrays(lambda: check_specializations(ctx)) < 3.0


def test_separable_build_writes_its_dense_stages_over_their_input(cfg):
    # The whole identity goes through the chain, about 2.0 units: a square
    # dense factor beside the identity factor copies its input once, as
    # np.tensordot does, and writes the product over the input, which the
    # chain made; the stage's output is then reordered into a new array.
    # Taking tensordot's product into a third array took 3.0.
    rng = np.random.default_rng(8)
    windows = [WindowSpec.separable(rng.standard_normal(N) + 1j * rng.standard_normal(N),
                                    rng.standard_normal(M) + 1j * rng.standard_normal(M))
               for _ in range(2)]
    blocks = mimo_block_channel(channel_table(cfg.channel_model, cfg.mcfg, cfg.seed, 0),
                                cfg.mcfg)
    assert peak_arrays(lambda: effective_matrix_separable(blocks, *windows, cfg.frame)) < 2.2


def test_chain_vs_matrix_holds_one_general_build(ctx):
    # H, the general matrix and one slab's arrays, about 2.6 units; with the
    # slab's identity columns and the slab before it still held, 2.8, and
    # with the whole identity through the chain, 3.5.
    assert peak_arrays(lambda: check_chain_vs_matrix(ctx)) < 2.75


def test_block_diagonality_holds_no_reduced_matrix(ctx):
    # H and the (N, F, M) stack of its symbols' column products, about 2.5
    # units. Concatenating the products and then the reduced C x C matrix
    # took 3.5.
    assert peak_arrays(lambda: check_block_diagonality(ctx)) < 2.8


def test_route_check_holds_one_draw_at_a_time(cfg):
    # A fresh context, so that the plan's modulator is built inside the trace.
    # About 2.2 units: the modulator beside one draw's K and Gram, or K beside
    # the B_1 that its build frees on return. A plan-held B_1 beside K and the
    # Gram took 3.2; mapping the three draws under the sweep's default worker
    # rule, two at once on two CPUs, took 5.3.
    fresh = VerifyContext(mcfg=cfg.mcfg, channel_model=cfg.channel_model,
                          tx_window=cfg.tx_window, rx_window=cfg.rx_window,
                          noise_var=1.0, seed=cfg.seed)
    assert peak_arrays(lambda: check_capacity_routes(fresh)) < 2.55


def test_effective_matrix_holds_no_copy_of_a_stage_input(cfg):
    # simulate's and effective-channel's build, about 2.2 units: K beside B_1
    # and K's row slab, then a receive stage's input and its output. A
    # two-factor DFT stage writes its second transform into its first one's
    # output.
    channels = channel_table(cfg.channel_model, cfg.mcfg, cfg.seed, 0)
    assert peak_arrays(lambda: mimo_effective_matrix(
        channels, cfg.tx_window, cfg.rx_window, cfg.mcfg)) < 2.4


def test_mimo_effective_matrix_frees_k_after_the_first_receive_stage():
    # The receive stages applied to the 3x2 whole-block K, about 2.0 units of
    # R x C at M=32, N=8: K and the first stage's output; B_1 and K's row
    # slab live only while K is built. Materializing one chain of every stage
    # from the C x C identity, with the whole C x C transmit transform, took
    # 3.15.
    frame = OtfsFrameConfig(num_subcarriers=32, num_symbols=8, cp_len=4)
    mcfg = MimoConfig(frame, num_tx=3, num_rx=2)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    channels = channel_table(model, mcfg, 3, 0)
    rng = np.random.default_rng(7)
    window = WindowSpec.general(rng.standard_normal(256) + 1j * rng.standard_normal(256))
    peak = peak_arrays(lambda: mimo_effective_matrix(channels, window, window, mcfg),
                       mcfg.rx_vector_len, mcfg.tx_vector_len)
    assert peak < 2.4


def test_two_d_circulant_check_holds_no_whole_rebuild(cfg):
    # One Doppler shift's M columns at a time, about 0.2 units: index, rebuilt
    # and difference arrays of C x M entries. The whole C x C rebuild held
    # two int64 index arrays, the rebuilt matrix and the difference, 3.5.
    channels = channel_table(cfg.channel_model, cfg.mcfg, cfg.seed, 0)
    rect = WindowSpec.rectangular()
    effective = mimo_effective_matrix(channels, rect, rect, cfg.mcfg)
    assert peak_arrays(lambda: dd_channel_as_2d_convolution(effective, cfg.frame)) < 0.5


def test_frequency_domain_export_frees_the_delay_doppler_matrix(cfg, tmp_path):
    # The delay-Doppler matrix is freed before the frequency-domain one is
    # built, and each np.diag product frees its operand before the next.
    assert peak_arrays(lambda: run_effective_channel(cfg, tmp_path)) < 3.6


@pytest.mark.parametrize("n_t, n_r, bound", [(1, 1, 2.7), (2, 2, 2.6), (3, 2, 2.1)],
                         ids=["siso", "2x2", "3x2"])
def test_capacity_trial_holds_no_whole_transmit_transform(n_t, n_r, bound):
    # One trial at M=32, N=8 peaks at about 2.41 units of R x C for SISO,
    # 2.40 at 2x2 and 2.00 at 3x2: K beside the one-antenna transform B_1 of
    # (M*N)^2 entries, which K's build frees on return, then the Gram and its
    # shifted copy, beside the plan's per-symbol modulator. A plan-held B_1
    # beside the Gram took them to 3.41, 2.65 and 2.16; holding the whole
    # C x C transform of the stacked layout, n_t^2 times B_1, to 3.40 at 2x2
    # and 3.50 at 3x2.
    frame = OtfsFrameConfig(num_subcarriers=32, num_symbols=8, cp_len=4)
    mcfg = MimoConfig(frame, num_tx=n_t, num_rx=n_r)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    peak = peak_arrays(lambda: capacity_sweep([1.0, 0.1], model, WindowSpec.rectangular(), mcfg,
                                              trials=1, threads=1),
                       mcfg.rx_vector_len, mcfg.tx_vector_len)
    assert peak < bound


@pytest.mark.parametrize("n_t, n_r", [(1, 1), (2, 2), (3, 2), (2, 3)],
                         ids=["siso", "2x2", "3x2", "2x3"])
def test_capacity_trial_holds_at_most_the_models_trial_arrays(n_t, n_r):
    # The memory model's arrays of one trial, which the sweep's worker rule
    # sums, bound what a trial at M=32, N=8 holds beside the plan's modulator:
    # the trial peaked at 0.63-0.74 of their sum. A first draw runs before
    # the trace, so that numpy's one-time set-up of its random streams
    # (about 1 MiB) is not counted.
    frame = OtfsFrameConfig(num_subcarriers=32, num_symbols=8, cp_len=4)
    mcfg = MimoConfig(frame, num_tx=n_t, num_rx=n_r)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
    plan = TrialPlan(WindowSpec.rectangular(), mcfg, model.channel_length)

    def trial(key):
        return plan.block_mis(lambda key: channel_table(model, mcfg, 3, key), [key], [1.0, 0.1],
                              threads=1)

    trial(0)
    entries = sum(rows * cols for _, rows, cols in capacity_trial_arrays(mcfg, 4))
    assert peak_arrays(lambda: trial(1), 1, 1) <= entries


# The benchmark's large-frame capacity run (M=64, N=16, 2x2, R = C = 2048:
# K and the Gram are 64 MiB each; two trials, one at a time) in a fresh
# interpreter with BLAS on one thread: how far its peak resident size rose
# above the resident size before it, and its traced peak. A paper-size trial
# runs first, so that the code pages and the heap the large run also touches
# are resident when the baseline is read. The peak is the process's own
# VmHWM: ``ru_maxrss`` also counts the parent's peak before exec.
GROWTH_RUN = """
import tracemalloc
import otfsim.cli  # everything a run imports
from otfsim.capacity import TrialPlan, capacity_sweep
from otfsim.channel import ChannelModel
from otfsim.mimo import MimoConfig
from otfsim.transceiver import OtfsFrameConfig, WindowSpec

def status_bytes(field):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024

def sweep(m, n, trials):
    mcfg = MimoConfig(OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=4),
                      num_tx=2, num_rx=2)
    model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.02)
    capacity_sweep([0.1], model, WindowSpec.rectangular(), mcfg, trials=trials, seed=3)

sweep(16, 8, 1)
resident = status_bytes("VmRSS")
tracemalloc.start()
sweep(64, 16, 2)
peak = tracemalloc.get_traced_memory()[1]
print(status_bytes("VmHWM") - resident, peak)
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="reads /proc and relies on glibc's malloc thresholds")
def test_peak_rss_follows_the_traced_arrays():
    # With malloc's thresholds pinned, every array of 4 MiB or more is its
    # own mapping, unmapped when it is freed, and each trial shifts its Gram
    # in place at its last noise level: the traced peak is 136 MiB, K and the
    # Gram, and the peak resident size rose 3.3-6.8 MiB above it (the BLAS
    # packing buffers, for one) under the SkylakeX, Haswell and Sandybridge
    # kernels. Each trial's K build frees its B_1 (16 MiB) before the Gram; a
    # plan-held B_1 beside K and the Gram traced 152 MiB. Under glibc's
    # dynamic threshold the second trial's arrays came from the heap, whose
    # freed pages stay resident: 18-22 MiB above it. A shifted copy beside
    # the Gram traced 157 MiB with a plan-held B_1.
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    environ.update(OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-c", GROWTH_RUN], env=environ, capture_output=True,
                         text=True, timeout=120, check=True)
    grown, traced = map(int, run.stdout.split())
    assert traced < 140 << 20
    assert grown - traced < 12 << 20


# One mostly-zero reference of at least 16 MiB in a fresh interpreter: how
# far the resident size rose while it was built and held, and its traced
# size. The frame-length H at M=64, N=16, M_cp=8 (F = 1152, 20 MiB) is
# written on its band only; effective-channel's frequency stage materializes
# the block-diagonal channel and builds each window matrix, 16 MiB each at
# M=64, N=16, written on their blocks and diagonal only.
SPARSE_BUILD = """
import sys, tracemalloc
import numpy as np
from otfsim import cli
from otfsim.channel import ChannelModel, assemble_h_matrix, synthesize, trial_rng
from otfsim.kronops import BlockDiagonalFactor
from otfsim.transceiver import OtfsFrameConfig

def status_bytes(field):
    with open("/proc/self/status") as fh:
        line = next(line for line in fh if line.startswith(field + ":"))
    return int(line.split()[1]) * 1024

frame = OtfsFrameConfig(num_subcarriers=64, num_symbols=16, cp_len=8)
rng = np.random.default_rng(4)
channel = synthesize(ChannelModel.doppler_paths(num_taps=6, num_paths=4, max_doppler=0.05),
                     frame, rng=trial_rng(4, 0))
blocks = rng.standard_normal((16, 64, 64)) + 1j * rng.standard_normal((16, 64, 64))
diagonal = rng.standard_normal(64 * 16) + 1j * rng.standard_normal(64 * 16)
build = {
    "h": lambda: assemble_h_matrix(channel),
    "block-diagonal": lambda: BlockDiagonalFactor(blocks).materialize(),
    "window": lambda: cli._diagonal_matrix(diagonal),
}[sys.argv[1]]
resident = status_bytes("VmRSS")
tracemalloc.start()
built = build()
print(status_bytes("VmRSS") - resident, tracemalloc.get_traced_memory()[1])
"""


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="reads /proc and relies on glibc's malloc thresholds")
@pytest.mark.parametrize("build", ["h", "block-diagonal", "window"])
def test_mostly_zero_references_are_resident_only_where_written(build):
    # Each is its own mapping and advised against huge pages, so only the
    # 4 KiB pages that its writes touch become resident: about a quarter of
    # each. Under numpy's huge-page advice the first write into each 2 MiB
    # made all of it resident, the whole traced size, as it did for np.diag's
    # window matrices. tracemalloc counts the whole array either way.
    environ = {key: value for key, value in os.environ.items()
               if not key.startswith("MALLOC_") and key != "GLIBC_TUNABLES"}
    environ["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    run = subprocess.run([sys.executable, "-c", SPARSE_BUILD, build], env=environ,
                         capture_output=True, text=True, timeout=120, check=True)
    grown, traced = map(int, run.stdout.split())
    assert traced >= 16 << 20
    assert grown < traced / 2

