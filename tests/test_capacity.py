"""Mutual information and ergodic capacity against independent oracles.

The log-det path is checked against a naive determinant-ratio evaluation
on small matrices, and circulant-channel capacity against the closed form
in terms of the channel's frequency-response values.
"""

import contextlib
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otfsim._lapack
import otfsim.capacity
import otfsim.kronops
import otfsim.mimo
from otfsim.capacity import (
    capacity_sweep,
    ergodic_capacity,
    mutual_information,
    otfs_block_mi,
)
from otfsim.channel import ChannelModel, synthesize
from otfsim.cli import main
from otfsim.errors import ConfigError, NonFiniteError, SizeCapError, StructureError
from otfsim.kronops import BlockDiagonalFactor, KronOperator, OperatorChain, dft_matrix, kron
from otfsim.mimo import (MimoConfig, channel_table, mimo_block_channel, mimo_modulation_stages,
                         mimo_window_diagonal)
from otfsim.transceiver import OtfsFrameConfig, WindowSpec


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def naive_mi(k_matrix, noise_var):
    """Determinant-ratio evaluation, safe only at small sizes."""
    rows = k_matrix.shape[0]
    num = np.linalg.det(k_matrix @ k_matrix.conj().T + noise_var * np.eye(rows))
    den = np.linalg.det(noise_var * np.eye(rows))
    return float(np.log2(np.real(num / den)))


def frequency_response(gains, delays, m):
    """M-point frequency response of a static multipath channel."""
    response = np.zeros(m, dtype=complex)
    for g, d in zip(gains, delays):
        response += g * np.exp(-2j * np.pi * d * np.arange(m) / m)
    return response


class TestMutualInformation:
    def test_unitary_k_closed_form(self):
        # K K^H = I_4 at sigma2 = 1: one bit per dimension.
        k = dft_matrix(4).conj().T
        assert abs(mutual_information(k, 1.0) - 4.0) <= 1e-12

    def test_zero_k(self):
        assert mutual_information(np.zeros((3, 3)), 0.7) == 0.0

    @pytest.mark.parametrize("trial", range(10))
    def test_matches_naive_determinant_ratio(self, trial):
        rng = np.random.default_rng(1000 + trial)
        k = rand_complex(rng, 4, 4)
        got = mutual_information(k, 0.5)
        assert abs(got - naive_mi(k, 0.5)) <= 1e-9

    def test_rectangular_k(self):
        rng = np.random.default_rng(2)
        k = rand_complex(rng, 4, 6)
        assert abs(mutual_information(k, 0.3) - naive_mi(k, 0.3)) <= 1e-9

    def test_rejects_bad_inputs(self):
        with pytest.raises(ConfigError):
            mutual_information(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            mutual_information(np.array([[np.inf, 0], [0, 1]]), 1.0)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_k_shows_on_the_gram_diagonal(self):
        rng = np.random.default_rng(4)
        for bad in (np.nan, np.inf, -np.inf, complex(np.inf, np.nan)):
            for _ in range(50):
                stack = rand_complex(rng, *rng.integers(1, 5, size=3))
                stack[tuple(rng.integers(0, n) for n in stack.shape)] = bad
                with pytest.raises(NonFiniteError, match="K K\\^H"):
                    otfsim.capacity._gram(stack)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_gram_and_shift_raise(self):
        with pytest.raises(NonFiniteError, match="K K\\^H"):
            mutual_information(np.full((2, 2), 1e200), 1.0)
        with pytest.raises(NonFiniteError, match="sigma2=1e-310"):
            mutual_information(np.eye(2), 1e-310)

    def test_result_non_negative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k = 1e-3 * rand_complex(rng, 3, 3)
            assert mutual_information(k, 10.0) >= 0.0


class TestBlockMi:
    def test_identity_channel_unitary_k(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        channels = [[synthesize(ChannelModel.identity(), frame)]]
        result = otfs_block_mi(channels, WindowSpec.rectangular(), 1.0, mcfg)
        assert abs(result.total_bits - frame.grid_size) <= 1e-10
        for bits in result.per_symbol_bits:
            assert abs(bits - frame.num_subcarriers) <= 1e-10

    def test_same_channel_every_symbol_gives_equal_terms(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.static_multipath([1.0, 0.4], [0, 1])
        channels = [[synthesize(model, frame)]]
        result = otfs_block_mi(channels, WindowSpec.rectangular(), 0.5, mcfg)
        assert abs(result.per_symbol_bits[0] - result.per_symbol_bits[1]) <= 1e-10
        assert abs(result.total_bits - 2 * result.per_symbol_bits[0]) <= 1e-8

    @pytest.mark.parametrize("trial", range(10))
    def test_total_matches_naive_full_k_evaluation(self, trial):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        channels = channel_table(model, mcfg, 1100 + trial, 0)
        result = otfs_block_mi(channels, WindowSpec.rectangular(), 0.8, mcfg)
        blocks = mimo_block_channel(channels, mcfg)
        k_full = otfsim.capacity._SweepPlan(WindowSpec.rectangular(), mcfg).full_k(blocks)
        assert abs(result.total_bits - naive_mi(k_full, 0.8)) <= 1e-8

    def test_full_k_matches_dense_kronecker_composition(self):
        frame = OtfsFrameConfig(num_subcarriers=2, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=2, num_paths=1, max_doppler=0.1)
        channels = channel_table(model, mcfg, 7, 0)
        blocks = mimo_block_channel(channels, mcfg)
        rng = np.random.default_rng(8)
        window = WindowSpec.general(rand_complex(rng, 4))
        k_full = otfsim.capacity._SweepPlan(window, mcfg).full_k(blocks)
        # Dense oracle assembled from np.kron pieces only.
        big = np.zeros((8, 8), dtype=complex)
        for n, blk in enumerate(blocks):
            big[n * 4:(n + 1) * 4, n * 4:(n + 1) * 4] = blk
        per_symbol = window.diagonal(frame).reshape(2, 2)
        stacked_diag = np.concatenate([np.tile(per_symbol[n], 2) for n in range(2)])
        dense = (big
                 @ kron(np.eye(4), dft_matrix(2).conj().T)
                 @ np.diag(stacked_diag)
                 @ kron(kron(dft_matrix(2).conj().T, np.eye(2)), dft_matrix(2)))
        assert np.max(np.abs(k_full - dense)) <= 1e-12

    def test_kkh_off_diagonal_vanishes(self):
        frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.1)
        channels = channel_table(model, mcfg, 9, 0)
        blocks = mimo_block_channel(channels, mcfg)
        rng = np.random.default_rng(10)
        window = WindowSpec.general(rand_complex(rng, 32))
        k_full = otfsim.capacity._SweepPlan(window, mcfg).full_k(blocks)
        gram = k_full @ k_full.conj().T
        rows = 8 * 2
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert np.max(np.abs(gram[i * rows:(i + 1) * rows,
                                              j * rows:(j + 1) * rows])) <= 1e-12

    @pytest.mark.parametrize("antennas,window", [
        (2, WindowSpec.rectangular()),
        (1, WindowSpec.general(rand_complex(np.random.default_rng(13), 128))),
    ])
    def test_shared_gram_matches_separate_computation_exactly(self, antennas, window):
        frame = OtfsFrameConfig(num_subcarriers=16, num_symbols=8, cp_len=4)
        mcfg = MimoConfig(frame=frame, num_tx=antennas, num_rx=antennas)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.02)
        channels = channel_table(model, mcfg, 5, 0)
        result = otfs_block_mi(channels, window, 0.1, mcfg)
        blocks = mimo_block_channel(channels, mcfg)
        k_full = otfsim.capacity._SweepPlan(window, mcfg).full_k(blocks)
        assert result.total_bits == mutual_information(k_full, 0.1)
        # The deviations as measured on a separate K K^H with its diagonal
        # blocks zeroed in a copy.
        off = k_full @ k_full.conj().T
        rows = 16 * antennas
        for i in range(8):
            off[i * rows:(i + 1) * rows, i * rows:(i + 1) * rows] = 0.0
        assert result.off_block_deviation == float(np.max(np.abs(off)))
        assert result.additivity_gap == abs(result.total_bits - sum(result.per_symbol_bits))

    def test_short_cp_raises(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.static_multipath([1.0, 0.3, 0.2], [0, 1, 2])
        channels = [[synthesize(model, frame)]]
        with pytest.raises(StructureError):
            otfs_block_mi(channels, WindowSpec.rectangular(), 1.0, mcfg)

    def test_unit_modulus_window_leaves_mi_unchanged(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        channels = channel_table(model, mcfg, 11, 0)
        rng = np.random.default_rng(12)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, frame.grid_size))
        base = otfs_block_mi(channels, WindowSpec.rectangular(), 0.5, mcfg)
        rotated = otfs_block_mi(channels, WindowSpec.general(phases), 0.5, mcfg)
        assert abs(base.total_bits - rotated.total_bits) <= 1e-10


class TestErgodicCapacity:
    def test_identity_channel_exact_closed_form(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        res = ergodic_capacity(ChannelModel.identity(), WindowSpec.rectangular(),
                               1.0, mcfg, trials=1, seed=0)
        assert abs(res.capacity_otfs - 1.0) <= 1e-12
        assert abs(res.capacity_ofdm - 1.0) <= 1e-12

    def test_vanishing_snr(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        res = ergodic_capacity(model, WindowSpec.rectangular(), 1e6, mcfg,
                               trials=4, seed=1)
        assert res.capacity_otfs < 1e-4

    def test_static_two_tap_matches_frequency_response_oracle(self):
        gains = np.array([1.0, 0.5]) / np.sqrt(1.25)
        delays = [0, 1]
        frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=3, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.static_multipath(gains, delays)
        res = ergodic_capacity(model, WindowSpec.rectangular(), 0.1, mcfg,
                               trials=2, seed=0)
        lam = frequency_response(gains, delays, 8)
        expected = np.sum(np.log2(1.0 + np.abs(lam) ** 2 / 0.1)) / frame.symbol_len
        assert abs(res.capacity_otfs - expected) <= 1e-9
        assert abs(res.capacity_ofdm - expected) <= 1e-9

    def test_routes_identical_per_trial(self):
        frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
        res = ergodic_capacity(model, WindowSpec.rectangular(), 0.5, mcfg,
                               trials=16, seed=3)
        otfs_rates = res.per_trial_otfs_bits / frame.frame_len
        ofdm_rates = res.per_trial_ofdm_bits / frame.frame_len
        assert np.max(np.abs(otfs_rates - ofdm_rates)) <= 1e-8

    def test_thread_count_does_not_change_results(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        sigmas = [0.1, 0.5, 2.0]
        serial = capacity_sweep(sigmas, model, WindowSpec.rectangular(), mcfg,
                                trials=8, seed=4, threads=1)
        parallel = capacity_sweep(sigmas, model, WindowSpec.rectangular(), mcfg,
                                  trials=8, seed=4, threads=4)
        for one, many in zip(serial, parallel, strict=True):
            assert np.array_equal(one.per_trial_otfs_bits, many.per_trial_otfs_bits)
            assert np.array_equal(one.per_trial_ofdm_bits, many.per_trial_ofdm_bits)
            assert one.capacity_otfs == many.capacity_otfs
            assert one.ci_halfwidth == many.ci_halfwidth

    def test_trials_validated(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        with pytest.raises(ConfigError):
            ergodic_capacity(ChannelModel.identity(), WindowSpec.rectangular(),
                             1.0, mcfg, trials=0)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_threads_validated(self, threads):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model, window = ChannelModel.identity(), WindowSpec.rectangular()
        message = f"threads must be >= 1, got {threads}"
        with pytest.raises(ConfigError, match=message):
            ergodic_capacity(model, window, 1.0, mcfg, trials=2, threads=threads)
        with pytest.raises(ConfigError, match=message):
            capacity_sweep([1.0], model, window, mcfg, trials=2, threads=threads)


class TestCapacitySweep:
    def test_single_point_equals_ergodic_capacity(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        sweep = capacity_sweep([0.5], model, WindowSpec.rectangular(), mcfg,
                               trials=5, seed=5)
        single = ergodic_capacity(model, WindowSpec.rectangular(), 0.5, mcfg,
                                  trials=5, seed=5)
        assert sweep[0].capacity_otfs == single.capacity_otfs

    def test_monotone_under_common_randomness(self):
        frame = OtfsFrameConfig(num_subcarriers=8, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        sweep = capacity_sweep([0.1, 1.0], model, WindowSpec.rectangular(), mcfg,
                               trials=6, seed=6)
        assert sweep[0].capacity_otfs >= sweep[1].capacity_otfs

    def test_identity_channel_matches_closed_form_at_every_point(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        sigmas = [0.1, 0.5, 1.0, 2.0, 10.0]
        sweep = capacity_sweep(sigmas, ChannelModel.identity(),
                               WindowSpec.rectangular(), mcfg, trials=1, seed=0)
        for sigma2, res in zip(sigmas, sweep):
            expected = 4 * np.log2(1.0 + 1.0 / sigma2) / frame.symbol_len
            assert abs(res.capacity_otfs - expected) <= 1e-9

    def test_empty_grid_rejected(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        with pytest.raises(ConfigError):
            capacity_sweep([], ChannelModel.identity(), WindowSpec.rectangular(),
                           mcfg, trials=1)

    def test_cp_too_short_rejected(self, monkeypatch):
        # The CP rule runs before the plan is built or any channel is drawn.
        def unreachable(*args, **kwargs):
            raise AssertionError("built or drew before the CP rule")

        monkeypatch.setattr(otfsim.mimo, "synthesize", unreachable)
        monkeypatch.setattr(otfsim.capacity, "_SweepPlan", unreachable)
        mcfg = MimoConfig(OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1), 2, 2)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
        message = (r"^channel length L=4 needs M_cp >= 3 but M_cp=1; "
                   r"lengthen the CP or shorten the channel$")
        with pytest.raises(ConfigError, match=message):
            capacity_sweep([1.0, 0.1], model, WindowSpec.rectangular(), mcfg, trials=2)
        with pytest.raises(ConfigError, match=message):
            ergodic_capacity(model, WindowSpec.rectangular(), 1.0, mcfg, trials=2)


def assert_sweep_matches_block_mi(noise_vars, model, window, mcfg, trials, seed):
    """Every sweep point equals the one-point ``otfs_block_mi`` of the same
    draw exactly, and the two routes agree to 1e-8 bits per sample."""
    sweep = capacity_sweep(noise_vars, model, window, mcfg, trials=trials, seed=seed)
    frame = mcfg.frame
    for sigma2, res in zip(noise_vars, sweep, strict=True):
        for trial in range(trials):
            channels = channel_table(model, mcfg, seed, trial)
            single = otfs_block_mi(channels, window, sigma2, mcfg)
            assert res.per_trial_otfs_bits[trial] == single.total_bits
            assert res.per_trial_ofdm_bits[trial] == float(sum(single.per_symbol_bits))
        gap = abs(res.per_trial_otfs_bits - res.per_trial_ofdm_bits) / frame.frame_len
        assert np.max(gap) <= 1e-8
        assert abs(res.capacity_otfs - res.capacity_ofdm) <= 1e-8


class TestOnePassSweep:
    def test_trial_work_runs_once_per_trial_whatever_the_grid(self, monkeypatch):
        counts = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("channel_table", "mimo_block_channel", "_gram"):
            count(otfsim.capacity, name)
        for name in ("__init__", "full_k", "per_symbol_k"):
            count(otfsim.capacity._SweepPlan, name)
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        trials = 3
        sweep = capacity_sweep([0.1, 0.5, 2.0], model, WindowSpec.rectangular(), mcfg,
                               trials=trials, seed=8)
        assert len(sweep) == 3
        # One plan per sweep; in each trial one K, one stack of every K_n, and
        # one Gram of each.
        assert counts == {"__init__": 1, "channel_table": trials, "mimo_block_channel": trials,
                          "full_k": trials, "per_symbol_k": trials, "_gram": trials * 2}

    def test_every_point_equals_one_point_block_mi(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        window = WindowSpec.general(rand_complex(np.random.default_rng(15), 8))
        assert_sweep_matches_block_mi([0.1, 0.5, 2.0], model, window, mcfg, trials=3, seed=9)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), n_t=st.sampled_from([1, 2]),
           n_r=st.sampled_from([1, 2]), general_window=st.booleans(),
           noise_vars=st.lists(st.floats(0.01, 10.0), min_size=2, max_size=3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_geometries(self, data, n, n_t, n_r, general_window, noise_vars, seed):
        # The frame needs cp < M and the model distinct delays, so P <= L.
        m = data.draw(st.integers(2, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(taps - 1, m - 1), label="cp")
        paths = data.draw(st.integers(1, taps), label="P")
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        mcfg = MimoConfig(frame=frame, num_tx=n_t, num_rx=n_r)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=paths, max_doppler=0.05)
        if general_window:
            window = WindowSpec.general(rand_complex(np.random.default_rng(seed), m * n))
        else:
            window = WindowSpec.rectangular()
        assert_sweep_matches_block_mi(noise_vars, model, window, mcfg, trials=2, seed=seed)
        # The stacked per-symbol route equals one mutual_information per K_n, bit for bit.
        channels = channel_table(model, mcfg, seed, 0)
        blocks = mimo_block_channel(channels, mcfg)
        k_ns = otfsim.capacity._SweepPlan(window, mcfg).per_symbol_k(blocks)
        for sigma2 in noise_vars:
            assert otfs_block_mi(channels, window, sigma2, mcfg).per_symbol_bits == [
                mutual_information(k_n, sigma2) for k_n in k_ns]


class TestReceiveWindowIrrelevance:
    def test_k_definition_contains_only_transmit_window(self):
        # MI is measured at the received samples, before receive windowing,
        # so K (and hence MI) involves the transmit window only.
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=1)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        channels = channel_table(model, mcfg, 13, 0)
        blocks = mimo_block_channel(channels, mcfg)
        rng = np.random.default_rng(14)
        tx = WindowSpec.general(rand_complex(rng, 8))
        k_list = otfsim.capacity._SweepPlan(tx, mcfg).per_symbol_k(blocks)
        # Rebuild each K_n by hand: block @ F_M^H scaled by the tx diagonal.
        per_symbol = tx.diagonal(frame).reshape(2, 4)
        for n, k_n in enumerate(k_list):
            expected = blocks[n] @ dft_matrix(4).conj().T @ np.diag(per_symbol[n])
            assert np.max(np.abs(k_n - expected)) <= 1e-12


class TestSizeCap:
    def test_gram_checked_before_blocks_are_built(self, monkeypatch):
        # n_r=2, n_t=1, M=4, N=2: K has 16 x 8 = 128 entries, K K^H 16 x 16 = 256.
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=1, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        channels = channel_table(model, mcfg, 12, 0)
        window = WindowSpec.rectangular()
        monkeypatch.setattr(otfsim.kronops, "DENSE_ENTRY_CAP", 256)
        otfs_block_mi(channels, window, 0.5, mcfg)

        def no_blocks(*args, **kwargs):
            raise AssertionError("blocks built before the size check")

        monkeypatch.setattr(otfsim.capacity, "mimo_block_channel", no_blocks)
        monkeypatch.setattr(otfsim.kronops, "DENSE_ENTRY_CAP", 255)
        with pytest.raises(SizeCapError, match="16x16"):
            otfs_block_mi(channels, window, 0.5, mcfg)

    def test_modulator_over_the_cap_stops_capacity_before_any_draw(self, tmp_path, monkeypatch,
                                                                   capsys):
        # B_1 has (M*N)^2 <= R*max(R, C) entries, so it never binds before the
        # plan's check; the per-symbol modulator can. n_t=4, n_r=1, M=4, N=1:
        # K has 4 x 16 = 64 entries and K K^H 16, so the plan's cap check
        # passes, but the modulator has 16 x 16 = 256 > 200.
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "frame": {"M": 4, "N": 1, "M_cp": 2}, "mimo": {"n_t": 4, "n_r": 1},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"sigma2": [0.5]}, "run": {"trials": 2, "seed": 7}}))

        def no_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn before the modulator's cap check")

        monkeypatch.setattr(otfsim.capacity, "channel_table", no_draw)
        monkeypatch.setattr(otfsim.kronops, "DENSE_ENTRY_CAP", 200)
        assert main(["capacity", "--config", str(path), "--out", str(tmp_path)]) == 4
        assert "per-symbol modulator would have 16x16 entries" in capsys.readouterr().err


@contextlib.contextmanager
def numpy_only():
    """Hide numpy's bundled OpenBLAS from the package, so that every log-det
    falls back to ``np.linalg.cholesky``. The hidden library pins nothing, so
    BLAS runs on one thread inside, as the pin would set it."""
    with otfsim._lapack.one_blas_thread(), pytest.MonkeyPatch.context() as patch:
        patch.setattr(otfsim._lapack, "_bundled", lambda: None)
        yield


@pytest.fixture(params=["zpotrf", "fallback"])
def log_det_path(request):
    """Run a test on numpy's bundled zpotrf called in place, and again with
    the library hidden."""
    if request.param == "zpotrf":
        if otfsim._lapack._bundled() is None:
            pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
        yield request.param
        return
    with numpy_only():
        yield request.param


def shifted_gram(gram, noise_var):
    """I + gram / sigma2, C-ordered."""
    shifted = gram / noise_var
    diagonal = np.arange(gram.shape[-1])
    shifted[..., diagonal, diagonal] += 1.0
    return shifted


class TestInPlaceLogDet:
    def test_bits_equal_numpy_cholesky(self, log_det_path):
        # The log-det factors on one BLAS thread, so the reference does too.
        rng = np.random.default_rng(21)
        for rows in [*range(1, 71), 255, 256]:
            for cols in (rows + 3, max(rows // 2, 1)):
                gram = otfsim.capacity._gram(rand_complex(rng, rows, cols))
                for noise_var in (0.1, 10.0):
                    shifted = shifted_gram(gram, noise_var)
                    with otfsim._lapack.one_blas_thread():
                        expected = np.real(np.diagonal(np.linalg.cholesky(shifted)))
                    if log_det_path == "zpotrf":
                        factor = np.asfortranarray(shifted)
                        assert otfsim._lapack.cholesky(factor) is factor  # factored in place
                        assert np.array_equal(np.real(np.diagonal(factor)), expected), rows
                    reference = 2.0 * np.sum(np.log2(expected))
                    for layout in (gram, np.asfortranarray(gram)):
                        assert otfsim.capacity._log_det_bits(layout, noise_var) == reference, rows

    def test_not_positive_definite_raises_the_same_error(self, log_det_path):
        # I - 2I and I + [[1, 3], [3, 1]] are not positive definite.
        message = ("Cholesky of I + K K^H / sigma2 at sigma2=1: Matrix is not positive "
                   "definite; sigma2 is too small for the scale of K K^H")
        for gram in (-2.0 * np.eye(3, dtype=complex), np.array([[1, 3], [3, 1]], dtype=complex),
                     np.stack([np.eye(2), -2.0 * np.eye(2)]).astype(complex)):
            with pytest.raises(NonFiniteError) as err:
                otfsim.capacity._log_det_bits(gram, 1.0)
            assert str(err.value) == message

    @pytest.mark.parametrize("m, n, antennas, window_kind", [
        (5, 3, (1, 1), "rectangular"), (7, 5, (2, 1), "general"), (9, 6, (1, 2), "separable"),
        (4, 2, (2, 2), "general")])
    def test_sweep_bits_equal_on_both_paths(self, m, n, antennas, window_kind):
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=3)
        mcfg = MimoConfig(frame=frame, num_tx=antennas[0], num_rx=antennas[1])
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.05)
        window = random_window(np.random.default_rng(m), window_kind, frame)
        noise_vars = [10.0, 1.0, 0.01]
        fast = capacity_sweep(noise_vars, model, window, mcfg, trials=3, seed=n)
        with numpy_only():
            fallback = capacity_sweep(noise_vars, model, window, mcfg, trials=3, seed=n)
        for a, b in zip(fast, fallback, strict=True):
            assert np.array_equal(a.per_trial_otfs_bits, b.per_trial_otfs_bits)
            assert np.array_equal(a.per_trial_ofdm_bits, b.per_trial_ofdm_bits)


def random_window(rng, kind, frame):
    m, n = frame.num_subcarriers, frame.num_symbols
    if kind == "separable":
        return WindowSpec.separable(rand_complex(rng, n), rand_complex(rng, m))
    if kind == "general":
        return WindowSpec.general(rand_complex(rng, m * n))
    return WindowSpec.rectangular()


class TestSweepPlan:
    # K is built from B_1 one symbol's row slab at a time; it must be the
    # whole-B chain's K bit for bit at every antenna count.
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), n_t=st.integers(1, 3), n_r=st.integers(1, 3),
           window_kind=st.sampled_from(["rectangular", "separable", "general"]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_plan_k_is_the_operator_chain_k(self, data, n, n_t, n_r, window_kind, seed):
        m = data.draw(st.integers(1, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(taps - 1, m - 1), label="cp")
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        mcfg = MimoConfig(frame=frame, num_tx=n_t, num_rx=n_r)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=1, max_doppler=0.05)
        window = random_window(np.random.default_rng(seed), window_kind, frame)
        plan = otfsim.capacity._SweepPlan(window, mcfg)
        window_stack = mimo_window_diagonal(window, mcfg, mcfg.num_tx).reshape(n, 1, -1)
        modulator = np.kron(np.eye(mcfg.num_tx), dft_matrix(m).conj().T) * window_stack
        for trial in range(2):
            blocks = mimo_block_channel(channel_table(model, mcfg, seed, trial), mcfg)
            expected = OperatorChain([KronOperator([BlockDiagonalFactor(blocks)])]
                                     + mimo_modulation_stages(window, mcfg)).materialize()
            assert np.array_equal(plan.full_k(blocks), expected)
            assert np.array_equal(plan.per_symbol_k(blocks), blocks @ modulator)


class TestOnePlanPerRun:
    """B_1 (the one-antenna product of ``mimo_modulation_stages``) and the
    per-symbol modulator (built from ``idft_matrix``) are each built only by
    the route that reads them, and at most once per run."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def count(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[key] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(otfsim.capacity._SweepPlan, "__init__", "plan")
        count(otfsim.capacity, "mimo_modulation_stages", "transform")
        count(otfsim.capacity, "idft_matrix", "modulator")
        return counts

    def test_verify_builds_one_plan_and_one_transform(self, counts, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "frame": {"M": 4, "N": 2, "M_cp": 2}, "mimo": {"n_t": 2, "n_r": 2},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"sigma2": [0.5]}, "run": {"seed": 7}}))
        assert main(["verify", "--config", str(path), "--out", str(tmp_path)]) == 0
        assert counts == {"plan": 1, "transform": 1, "modulator": 1}

    def test_each_one_route_builder_builds_only_its_part(self, counts):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=1)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        blocks = mimo_block_channel(channel_table(model, mcfg, 3, 0), mcfg)
        window = WindowSpec.rectangular()
        plan = otfsim.capacity._SweepPlan(window, mcfg)
        assert counts == {"plan": 1}
        plan.per_symbol_k(blocks)
        assert counts == {"plan": 1, "modulator": 1}
        otfsim.capacity._SweepPlan(window, mcfg).full_k(blocks)
        assert counts == {"plan": 2, "modulator": 1, "transform": 1}
