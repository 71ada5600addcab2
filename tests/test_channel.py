"""Channel synthesis, matrix assembly, per-symbol reduction, and noise."""

import numpy as np
import pytest

from otfsim import kronops
from otfsim.channel import (
    ChannelModel,
    LtvChannel,
    NoiseSpec,
    assemble_h_matrix,
    awgn,
    channel_from_json,
    channel_to_json,
    reduce_to_block_channel,
    synthesize,
    trial_rng,
)
from otfsim.errors import ConfigError, SizeCapError, StructureError
from otfsim.transceiver import OtfsFrameConfig


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def convolution_sum(taps, signal):
    """Literal evaluation of out[i] = sum_l taps[i, l] * signal[i - l]."""
    span, length = taps.shape
    out = np.zeros(span, dtype=np.complex128)
    for i in range(span):
        for l in range(length):
            if i - l >= 0:
                out[i] += taps[i, l] * signal[i - l]
    return out


def cyclic_shift(m):
    shift = np.zeros((m, m))
    shift[np.arange(m), np.arange(-1, m - 1)] = 1.0
    return shift


CFG = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)


class TestSynthesize:
    def test_identity(self):
        ch = synthesize(ChannelModel.identity(), CFG)
        assert ch.length == 1
        assert np.array_equal(ch.taps[:, 0], np.ones(CFG.frame_len))

    def test_static_multipath(self):
        ch = synthesize(ChannelModel.static_multipath([1.0, 0.5], [0, 1]), CFG)
        assert ch.length == 2
        assert np.all(ch.taps[:, 0] == 1.0)
        assert np.all(ch.taps[:, 1] == 0.5)

    def test_single_path_quarter_cycle_doppler(self):
        # nu = 0.25 rotates the tap by a quarter turn per sample: 1, j, -1, -j.
        taps = np.zeros((4, 1), dtype=complex)
        taps[:, 0] = np.exp(2j * np.pi * 0.25 * np.arange(4))
        expected = np.array([1, 1j, -1, -1j])
        assert np.max(np.abs(taps[:, 0] - expected)) <= 1e-12

    def test_doppler_paths_formula(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=0)
        model = ChannelModel.doppler_paths(num_taps=1, num_paths=1, max_doppler=0.3)
        rng = trial_rng(123, 0)
        ch = synthesize(model, cfg, rng=rng)
        # Rebuild from the same stream: gain, delay=0, doppler.
        rng2 = trial_rng(123, 0)
        gain = (rng2.standard_normal(1) + 1j * rng2.standard_normal(1)) * np.sqrt(0.5)
        doppler = rng2.uniform(-0.3, 0.3, size=1)
        expected = gain[0] * np.exp(2j * np.pi * doppler[0] * np.arange(cfg.frame_len))
        assert np.max(np.abs(ch.taps[:, 0] - expected)) <= 1e-12

    def test_block_invariant_freezes_within_symbol(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.1,
                                           block_invariant=True)
        ch = synthesize(model, cfg, rng=trial_rng(5, 0))
        blen = cfg.symbol_len
        for sym in range(3):
            block = ch.taps[sym * blen:(sym + 1) * blen]
            assert np.max(np.abs(block - block[0])) == 0.0

    def test_deterministic_given_stream(self):
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.1)
        a = synthesize(model, CFG, rng=trial_rng(9, 4))
        b = synthesize(model, CFG, rng=trial_rng(9, 4))
        assert np.array_equal(a.taps, b.taps)

    def test_tap_table_checked_against_the_cap(self, monkeypatch):
        model = ChannelModel.static_multipath([1.0, 0.5, 0.25], [0, 1, 2])
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", CFG.frame_len * 3 - 1)
        with pytest.raises(SizeCapError, match="channel tap table"):
            synthesize(model, CFG)
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", CFG.frame_len * 3)
        assert synthesize(model, CFG).taps.shape == (CFG.frame_len, 3)

    def test_random_kind_requires_rng(self):
        model = ChannelModel.doppler_paths(num_taps=2, num_paths=1, max_doppler=0.1)
        with pytest.raises(ConfigError):
            synthesize(model, CFG)

    def test_unit_average_power(self):
        # Gains are CN(0, 1/P): total path power averages to one.
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=3, max_doppler=0.0)
        powers = []
        for trial in range(4000):
            ch = synthesize(model, CFG, rng=trial_rng(77, trial))
            powers.append(np.sum(np.abs(ch.taps[0]) ** 2))
        assert abs(np.mean(powers) - 1.0) < 0.05

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            ChannelModel.static_multipath([1.0, 0.5], [1, 1])  # duplicate delays
        with pytest.raises(ConfigError):
            ChannelModel.doppler_paths(num_taps=2, num_paths=3, max_doppler=0.1)
        with pytest.raises(ConfigError):
            ChannelModel.doppler_paths(num_taps=2, num_paths=1, max_doppler=0.7)
        with pytest.raises(ConfigError):
            ChannelModel(kind="nonsense")


class TestAssembleAndApply:
    def test_identity_matrix(self):
        ch = synthesize(ChannelModel.identity(), CFG)
        assert np.array_equal(assemble_h_matrix(ch), np.eye(CFG.frame_len))

    def test_static_two_tap_rows(self):
        taps = np.zeros((4, 2), dtype=complex)
        taps[:, 0] = 1.0
        taps[:, 1] = 0.5
        h = assemble_h_matrix(LtvChannel(taps=taps))
        expected = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 1.0, 0.0, 0.0],
            [0.0, 0.5, 1.0, 0.0],
            [0.0, 0.0, 0.5, 1.0],
        ])
        assert np.array_equal(h, expected)

    def test_matrix_action_matches_convolution_sum(self):
        for trial in range(100):
            rng = np.random.default_rng(700 + trial)
            taps = rand_complex(rng, 12, 3)
            ch = LtvChannel(taps=taps)
            signal = rand_complex(rng, 12)
            via_matrix = assemble_h_matrix(ch) @ signal
            direct = convolution_sum(taps, signal)
            fast = ch.apply(signal)
            assert np.max(np.abs(via_matrix - direct)) <= 1e-12
            assert np.max(np.abs(fast - direct)) <= 1e-12

    def test_size_cap_checked_before_allocating(self, monkeypatch):
        ch = synthesize(ChannelModel.identity(), CFG)
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", CFG.frame_len ** 2 - 1)
        with pytest.raises(SizeCapError):
            assemble_h_matrix(ch)
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", CFG.frame_len ** 2)
        assert assemble_h_matrix(ch).shape == (CFG.frame_len, CFG.frame_len)

    def test_rejects_nonfinite(self):
        taps = np.ones((4, 1), dtype=complex)
        taps[2, 0] = np.nan
        with pytest.raises(ValueError):
            LtvChannel(taps=taps)


class TestReduceToBlockChannel:
    def test_identity_blocks(self):
        ch = synthesize(ChannelModel.identity(), CFG)
        blocks = reduce_to_block_channel(assemble_h_matrix(ch), CFG)
        assert len(blocks) == CFG.num_symbols
        for b in blocks:
            assert np.max(np.abs(b - np.eye(4))) == 0.0

    def test_static_two_tap_is_shared_circulant(self):
        ch = synthesize(ChannelModel.static_multipath([1.0, 0.5], [0, 1]), CFG)
        blocks = reduce_to_block_channel(assemble_h_matrix(ch), CFG)
        first_col = np.array([1.0, 0.5, 0.0, 0.0])
        expected = np.zeros((4, 4), dtype=complex)
        for j in range(4):
            expected[:, j] = np.roll(first_col, j)
        for b in blocks:
            assert np.max(np.abs(b - expected)) <= 1e-14

    def test_block_invariant_doppler_circulant_but_varying(self):
        cfg = OtfsFrameConfig(num_subcarriers=6, num_symbols=3, cp_len=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05,
                                           block_invariant=True)
        ch = synthesize(model, cfg, rng=trial_rng(3, 1))
        blocks = reduce_to_block_channel(assemble_h_matrix(ch), cfg)
        shift = cyclic_shift(6)
        for b in blocks:
            assert np.max(np.abs(b @ shift - shift @ b)) <= 1e-12
        assert np.max(np.abs(blocks[0] - blocks[1])) > 1e-6

    def test_off_diagonal_blocks_exactly_zero(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.1)
        ch = synthesize(model, cfg, rng=trial_rng(4, 2))
        h = assemble_h_matrix(ch)
        from otfsim.transceiver import cp_matrices
        from otfsim.kronops import kron
        cp = cp_matrices(cfg)
        reduced = kron(np.eye(4), cp.remove) @ h @ kron(np.eye(4), cp.add)
        for i in range(4):
            for j in range(4):
                if i != j:
                    block = reduced[i * 8:(i + 1) * 8, j * 8:(j + 1) * 8]
                    assert np.max(np.abs(block)) == 0.0

    def test_short_cp_raises_structure_error(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        model = ChannelModel.static_multipath([1.0, 0.3, 0.2], [0, 1, 2])
        ch = synthesize(model, cfg)
        with pytest.raises(StructureError) as err:
            reduce_to_block_channel(assemble_h_matrix(ch), cfg)
        assert err.value.deviation > 0.1


class TestAwgn:
    def test_zero_variance(self):
        assert np.array_equal(awgn(16, NoiseSpec(0.0, seed=1)), np.zeros(16))

    def test_empirical_variance(self):
        noise = awgn(1_000_000, NoiseSpec(2.0, seed=99))
        assert abs(np.mean(np.abs(noise) ** 2) - 2.0) / 2.0 < 0.01
        # Circular symmetry: equal power in real and imaginary parts.
        assert abs(np.var(noise.real) - np.var(noise.imag)) < 0.02

    def test_deterministic_per_seed(self):
        spec = NoiseSpec(1.5, seed=7)
        assert np.array_equal(awgn(64, spec), awgn(64, spec))

    def test_negative_variance_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSpec(-1.0)


class TestChannelJson:
    def test_round_trip(self):
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.1)
        ch = synthesize(model, CFG, rng=trial_rng(12, 0))
        doc = channel_to_json(ch)
        back = channel_from_json(doc)
        assert np.max(np.abs(back.taps - ch.taps)) <= 1e-15

    def test_wire_format(self):
        taps = np.array([[1 + 2j], [3 - 1j]])
        doc = channel_to_json(LtvChannel(taps=taps))
        assert doc["L"] == 1
        assert doc["T"] == 2
        assert doc["taps"] == [[1.0, 2.0], [3.0, -1.0]]

    def test_row_major_order(self):
        taps = np.arange(6, dtype=complex).reshape(3, 2)
        doc = channel_to_json(LtvChannel(taps=taps))
        # Sample index outer, delay inner.
        assert [p[0] for p in doc["taps"]] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
