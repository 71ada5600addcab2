"""Mutual information and ergodic capacity against independent oracles.

The log-det path is checked against a naive determinant-ratio evaluation
on small matrices, and circulant-channel capacity against the closed form
in terms of the channel's frequency-response values.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import otfsim.capacity
import otfsim.kronops
from otfsim.capacity import (
    capacity_sweep,
    ergodic_capacity,
    full_k_matrix,
    mutual_information,
    otfs_block_mi,
    per_symbol_k_matrices,
)
from otfsim.channel import ChannelModel, synthesize
from otfsim.errors import ConfigError, NonFiniteError, SizeCapError, StructureError
from otfsim.kronops import dft_matrix, kron
from otfsim.mimo import MimoConfig, channel_table, mimo_block_channel
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
        k_full = full_k_matrix(blocks, WindowSpec.rectangular(), mcfg)
        assert abs(result.total_bits - naive_mi(k_full, 0.8)) <= 1e-8

    def test_full_k_matches_dense_kronecker_composition(self):
        frame = OtfsFrameConfig(num_subcarriers=2, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=2, num_paths=1, max_doppler=0.1)
        channels = channel_table(model, mcfg, 7, 0)
        blocks = mimo_block_channel(channels, mcfg)
        rng = np.random.default_rng(8)
        window = WindowSpec.general(rand_complex(rng, 4))
        k_full = full_k_matrix(blocks, window, mcfg)
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
        k_full = full_k_matrix(blocks, window, mcfg)
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
        k_full = full_k_matrix(mimo_block_channel(channels, mcfg), window, mcfg)
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
        channels = [[synthesize(model, frame, enforce_cp=False)]]
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

        def counting(name):
            original = getattr(otfsim.capacity, name)

            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)
            return counted

        names = ("channel_table", "mimo_block_channel", "full_k_matrix",
                 "per_symbol_k_matrices", "_gram")
        for name in names:
            monkeypatch.setattr(otfsim.capacity, name, counting(name))
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        trials = 3
        sweep = capacity_sweep([0.1, 0.5, 2.0], model, WindowSpec.rectangular(), mcfg,
                               trials=trials, seed=8)
        assert len(sweep) == 3
        # One full-K Gram and one stacked Gram of every K_n in each trial.
        assert counts == {**{name: trials for name in names[:-1]}, "_gram": trials * 2}

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
        k_ns = per_symbol_k_matrices(mimo_block_channel(channels, mcfg), window, mcfg)
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
        k_list = per_symbol_k_matrices(blocks, tx, mcfg)
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
