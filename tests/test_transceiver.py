"""Transceiver stages against brute-force oracles.

The 2-D transform pair is checked against its literal double-sum
definition, OFDM modulation/demodulation against dense matrix
compositions, the effective-matrix builders against the stage-by-stage
chain, and the discrete basis functions against their orthogonality
relation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otfsim.channel import ChannelModel, assemble_h_matrix, reduce_to_block_channel, synthesize, trial_rng
from otfsim.errors import DimensionError
from otfsim.kronops import (
    DenseFactor,
    DftFactor,
    DiagonalFactor,
    IdentityFactor,
    InverseDftFactor,
    KronOperator,
    SelectionFactor,
    dft_matrix,
    kron,
    unvec,
    vec,
)
from otfsim.transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    apply_window,
    convolve_2d_circular,
    cp_matrices,
    dd_channel_as_2d_convolution,
    effective_matrix_frequency_domain,
    effective_matrix_general,
    effective_matrix_rectangular,
    effective_matrix_separable,
    effective_operator_general,
    isfft,
    ofdm_demodulate,
    ofdm_modulate,
    receive_basis,
    sfft,
    siso_chain,
    to_frequency_domain,
    transmit_basis,
)


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_window(rng, kind, cfg):
    """Window of the given kind with random complex taps."""
    if kind == "rectangular":
        return WindowSpec.rectangular()
    if kind == "separable":
        return WindowSpec.separable(rand_complex(rng, cfg.num_symbols),
                                    rand_complex(rng, cfg.num_subcarriers))
    return WindowSpec.general(rand_complex(rng, cfg.grid_size))


WINDOW_KINDS = st.sampled_from(["rectangular", "separable", "general"])


def isfft_double_sum(data):
    """Literal double-sum evaluation of the inverse 2-D transform."""
    m, n = data.shape
    out = np.zeros((m, n), dtype=np.complex128)
    for k in range(m):
        for l in range(n):
            acc = 0.0
            for mm in range(m):
                for nn in range(n):
                    acc += data[mm, nn] * np.exp(-2j * np.pi * (mm * k / m - nn * l / n))
            out[k, l] = acc / np.sqrt(m * n)
    return out


def sfft_double_sum(grid):
    m, n = grid.shape
    out = np.zeros((m, n), dtype=np.complex128)
    for mm in range(m):
        for nn in range(n):
            acc = 0.0
            for k in range(m):
                for l in range(n):
                    acc += grid[k, l] * np.exp(2j * np.pi * (mm * k / m - nn * l / n))
            out[mm, nn] = acc / np.sqrt(m * n)
    return out


def random_ltv_channel(rng, cfg, length):
    """Random per-sample tap table with memory bounded by the CP."""
    taps = rand_complex(rng, cfg.frame_len, length) / np.sqrt(2 * length)
    from otfsim.channel import LtvChannel
    return LtvChannel(taps=taps)


class TestFrameConfig:
    def test_lengths(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=2)
        assert cfg.grid_size == 32
        assert cfg.symbol_len == 10
        assert cfg.frame_len == 40

    @pytest.mark.parametrize("m,n,cp", [(0, 2, 0), (4, 0, 0), (4, 2, 4), (4, 2, -1)])
    def test_rejects_bad_dimensions(self, m, n, cp):
        with pytest.raises(DimensionError):
            OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)

    def test_degenerate_sizes_supported(self):
        for cfg in (OtfsFrameConfig(1, 3), OtfsFrameConfig(3, 1), OtfsFrameConfig(1, 1)):
            rng = np.random.default_rng(0)
            grid = rand_complex(rng, cfg.num_subcarriers, cfg.num_symbols)
            assert np.max(np.abs(sfft(isfft(grid)) - grid)) <= 1e-12


class TestIsfft:
    def test_impulse_spreads_flat(self):
        data = np.zeros((2, 2), dtype=complex)
        data[0, 0] = 1.0
        out = isfft(data)
        assert np.max(np.abs(out - 0.5)) <= 1e-12

    def test_all_ones_concentrates(self):
        out = isfft(np.ones((2, 2), dtype=complex))
        expected = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_matches_double_sum(self):
        rng = np.random.default_rng(21)
        data = rand_complex(rng, 4, 3)
        assert np.max(np.abs(isfft(data) - isfft_double_sum(data))) <= 1e-12

    def test_matches_compact_matrix_form(self):
        rng = np.random.default_rng(22)
        data = rand_complex(rng, 5, 4)
        expected = dft_matrix(5) @ data @ dft_matrix(4).conj().T
        assert np.max(np.abs(isfft(data) - expected)) <= 1e-12

    def test_preserves_norm(self):
        rng = np.random.default_rng(23)
        data = rand_complex(rng, 8, 4)
        assert abs(np.linalg.norm(isfft(data)) - np.linalg.norm(data)) <= 1e-12


class TestSfft:
    def test_round_trip_impulse(self):
        data = np.zeros((2, 2), dtype=complex)
        data[0, 0] = 1.0
        assert np.max(np.abs(sfft(isfft(data)) - data)) <= 1e-12

    def test_zeros(self):
        assert np.max(np.abs(sfft(np.zeros((3, 2))))) == 0.0

    def test_matches_double_sum(self):
        rng = np.random.default_rng(24)
        grid = rand_complex(rng, 4, 3)
        assert np.max(np.abs(sfft(grid) - sfft_double_sum(grid))) <= 1e-12

    def test_exact_inverse_pair(self):
        rng = np.random.default_rng(25)
        data = rand_complex(rng, 8, 6)
        assert np.max(np.abs(sfft(isfft(data)) - data)) <= 1e-12


class TestWindows:
    def setup_method(self):
        self.cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3)

    def test_rectangular_is_identity(self):
        rng = np.random.default_rng(26)
        x = rand_complex(rng, 12)
        out = apply_window(x, WindowSpec.rectangular(), self.cfg)
        assert np.array_equal(out, x)

    def test_general_halves(self):
        rng = np.random.default_rng(27)
        x = rand_complex(rng, 12)
        w = WindowSpec.general(np.full(12, 0.5))
        assert np.max(np.abs(apply_window(x, w, self.cfg) - 0.5 * x)) == 0.0

    def test_separable_equals_general(self):
        rng = np.random.default_rng(28)
        time = rand_complex(rng, 3)
        freq = rand_complex(rng, 4)
        sep = WindowSpec.separable(time, freq)
        taps = np.empty(12, dtype=complex)
        for l in range(3):
            for k in range(4):
                taps[l * 4 + k] = time[l] * freq[k]
        gen = WindowSpec.general(taps)
        assert np.max(np.abs(sep.diagonal(self.cfg) - gen.diagonal(self.cfg))) <= 1e-15

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            apply_window(np.ones(5), WindowSpec.rectangular(), self.cfg)
        with pytest.raises(DimensionError):
            WindowSpec.general(np.ones(5)).diagonal(self.cfg)


class TestCpMatrices:
    def test_remove_undoes_add(self):
        cfg = OtfsFrameConfig(num_subcarriers=6, num_symbols=2, cp_len=3)
        cp = cp_matrices(cfg)
        assert np.array_equal(cp.remove @ cp.add, np.eye(6))

    def test_add_prepends_tail(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=1, cp_len=2)
        cp = cp_matrices(cfg)
        s = np.arange(1.0, 5.0)
        assert np.array_equal(cp.add @ s, [3, 4, 1, 2, 3, 4])

    def test_remove_drops_prefix(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=1, cp_len=2)
        cp = cp_matrices(cfg)
        assert np.array_equal(cp.remove @ np.arange(6.0), [2, 3, 4, 5])


class TestOfdm:
    def test_modulate_impulse_with_cp(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=1, cp_len=2)
        tf = dft_matrix(4) @ np.array([1.0, 0, 0, 0])
        out = ofdm_modulate(tf, cfg)
        assert np.max(np.abs(out - np.array([0, 0, 1, 0, 0, 0]))) <= 1e-12

    def test_modulate_zeros(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        assert np.max(np.abs(ofdm_modulate(np.zeros(8), cfg))) == 0.0

    def test_modulate_matches_dense(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        rng = np.random.default_rng(30)
        tf = rand_complex(rng, 8)
        cp = cp_matrices(cfg)
        dense = kron(np.eye(2), cp.add) @ kron(np.eye(2), dft_matrix(4).conj().T)
        assert np.max(np.abs(ofdm_modulate(tf, cfg) - dense @ tf)) <= 1e-12

    def test_demodulate_inverts_modulate(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=3, cp_len=2)
        rng = np.random.default_rng(31)
        tf = rand_complex(rng, 24)
        assert np.max(np.abs(ofdm_demodulate(ofdm_modulate(tf, cfg), cfg) - tf)) <= 1e-12

    def test_demodulate_zeros(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        assert np.max(np.abs(ofdm_demodulate(np.zeros(10), cfg))) == 0.0

    def test_demodulate_matches_dense(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        rng = np.random.default_rng(32)
        received = rand_complex(rng, 12)
        cp = cp_matrices(cfg)
        dense = kron(np.eye(2), dft_matrix(4)) @ kron(np.eye(2), cp.remove)
        assert np.max(np.abs(ofdm_demodulate(received, cfg) - dense @ received)) <= 1e-12

    def test_length_mismatch(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        with pytest.raises(DimensionError):
            ofdm_modulate(np.zeros(7), cfg)
        with pytest.raises(DimensionError):
            ofdm_demodulate(np.zeros(9), cfg)


class TestEffectiveMatrixGeneral:
    def test_identity_channel_rectangular_windows(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        ident = assemble_h_matrix(synthesize(ChannelModel.identity(), cfg))
        eff = effective_matrix_general(
            ident, WindowSpec.rectangular(), WindowSpec.rectangular(), cfg)
        assert np.max(np.abs(eff - np.eye(12))) <= 1e-12

    def test_tx_window_only_dense_composition(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2)
        rng = np.random.default_rng(33)
        taps = rand_complex(rng, 8)
        ident = assemble_h_matrix(synthesize(ChannelModel.identity(), cfg))
        eff = effective_matrix_general(
            ident, WindowSpec.general(taps), WindowSpec.rectangular(), cfg)
        fn, fm = dft_matrix(2), dft_matrix(4)
        expected = kron(fn, fm.conj().T) @ np.diag(taps) @ kron(fn.conj().T, fm)
        assert np.max(np.abs(eff - expected)) <= 1e-10

    @pytest.mark.parametrize("trial", range(20))
    def test_matrix_action_equals_chain(self, trial):
        rng = np.random.default_rng(300 + trial)
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
        channel = random_ltv_channel(rng, cfg, length=4)
        tx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        rx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        data = rand_complex(rng, 8, 4)
        chain = siso_chain(data, channel, tx, rx, cfg)
        eff = effective_matrix_general(assemble_h_matrix(channel), tx, rx, cfg)
        assert np.max(np.abs(vec(chain) - eff @ vec(data))) <= 1e-10

    def test_operator_apply_matches_matrix(self):
        rng = np.random.default_rng(34)
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=3)
        channel = random_ltv_channel(rng, cfg, length=3)
        tx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        rx = WindowSpec.general(rand_complex(rng, cfg.grid_size))
        op = effective_operator_general(assemble_h_matrix(channel), tx, rx, cfg)
        dense = effective_matrix_general(assemble_h_matrix(channel), tx, rx, cfg)
        v = rand_complex(rng, cfg.grid_size)
        assert np.max(np.abs(op.apply(v) - dense @ v)) <= 1e-10

    def test_wrong_channel_shape(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        with pytest.raises(DimensionError):
            effective_matrix_general(
                np.eye(9), WindowSpec.rectangular(), WindowSpec.rectangular(), cfg)


def apply_factorwise(stage, x):
    """``stage.apply`` for a C-column input with every factor writing a new
    array: no transform in place."""
    tensor = x.reshape([f.cols for f in stage.factors] + [x.shape[1]])
    for axis, factor in enumerate(stage.factors):
        tensor = factor.apply(tensor, axis)
    return tensor.reshape(stage.shape[0], x.shape[1])


def dense_cp_matrix(channel_matrix, tx, rx, cfg):
    """The general build with CP removal and insertion as the dense
    ``cp_matrices`` factors and every DFT out of place: the reference for
    the gathers and the in-place transforms of ``effective_matrix_general``."""
    m, n = cfg.num_subcarriers, cfg.num_symbols
    cp = cp_matrices(cfg)
    stages = [
        KronOperator([DftFactor(n), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(rx.diagonal(cfg))]),
        KronOperator([IdentityFactor(n), DftFactor(m)]),
        KronOperator([IdentityFactor(n), DenseFactor(cp.remove)]),
        KronOperator([DenseFactor(channel_matrix)]),
        KronOperator([IdentityFactor(n), DenseFactor(cp.add)]),
        KronOperator([IdentityFactor(n), InverseDftFactor(m)]),
        KronOperator([DiagonalFactor(tx.diagonal(cfg))]),
        KronOperator([InverseDftFactor(n), DftFactor(m)]),
    ]
    matrix = np.eye(cfg.grid_size, dtype=np.complex128)
    for stage in reversed(stages):
        matrix = apply_factorwise(stage, matrix)
    return matrix


@st.composite
def small_geometries(draw):
    m = draw(st.integers(1, 12))
    return OtfsFrameConfig(num_subcarriers=m, num_symbols=draw(st.integers(1, 6)),
                           cp_len=draw(st.integers(0, m - 1)))


class TestCopyFreeStages:
    """The gathers and the in-place transforms change no bit of the general
    build and never write into the caller's input."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=small_geometries(), tx_kind=WINDOW_KINDS, rx_kind=WINDOW_KINDS,
           seed=st.integers(0, 2**32 - 1))
    def test_general_build_equals_the_dense_cp_chain_bit_for_bit(self, cfg, tx_kind, rx_kind,
                                                                 seed):
        rng = np.random.default_rng(seed)
        h = rand_complex(rng, cfg.frame_len, cfg.frame_len)
        tx, rx = random_window(rng, tx_kind, cfg), random_window(rng, rx_kind, cfg)
        built = effective_matrix_general(h, tx, rx, cfg)
        assert built.tobytes() == dense_cp_matrix(h, tx, rx, cfg).tobytes()

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(cfg=small_geometries(), tx_kind=WINDOW_KINDS, rx_kind=WINDOW_KINDS,
           seed=st.integers(0, 2**32 - 1), batch=st.integers(0, 3))
    def test_apply_leaves_the_input_unchanged(self, cfg, tx_kind, rx_kind, seed, batch):
        # batch 0 is a 1-D input.
        rng = np.random.default_rng(seed)
        m, n = cfg.num_subcarriers, cfg.num_symbols
        h = rand_complex(rng, cfg.frame_len, cfg.frame_len)
        chain = effective_operator_general(
            h, random_window(rng, tx_kind, cfg), random_window(rng, rx_kind, cfg), cfg)
        identity_first = [
            KronOperator([IdentityFactor(n), InverseDftFactor(m)]),
            KronOperator([IdentityFactor(n), IdentityFactor(1), DftFactor(m)]),
            KronOperator([SelectionFactor(np.arange(n)[::-1], n), DftFactor(m)]),
        ]
        for operator in [chain] + chain.stages + identity_first:
            shape = (operator.shape[1],) + ((batch,) if batch else ())
            x = rand_complex(rng, *shape)
            kept = x.copy()
            out = operator.apply(x)
            assert x.tobytes() == kept.tobytes()
            if isinstance(operator, KronOperator):
                expected = apply_factorwise(operator, x.reshape(operator.shape[1], -1))
                assert out.tobytes() == expected.reshape(out.shape).tobytes()


def _reduced_blocks(rng, cfg, length):
    channel = random_ltv_channel(rng, cfg, length)
    h = assemble_h_matrix(channel)
    return h, reduce_to_block_channel(h, cfg)


class TestSpecializations:
    def setup_method(self):
        self.cfg = OtfsFrameConfig(num_subcarriers=6, num_symbols=4, cp_len=3)

    def test_separable_identity_tapers_reduce_to_rectangular(self):
        rng = np.random.default_rng(40)
        _, blocks = _reduced_blocks(rng, self.cfg, 3)
        ones_t, ones_f = np.ones(4), np.ones(6)
        sep = effective_matrix_separable(
            blocks, WindowSpec.separable(ones_t, ones_f),
            WindowSpec.separable(ones_t, ones_f), self.cfg)
        rect = effective_matrix_rectangular(blocks, self.cfg)
        assert np.max(np.abs(sep - rect)) <= 1e-10

    @pytest.mark.parametrize("trial", range(10))
    def test_separable_matches_general(self, trial):
        rng = np.random.default_rng(400 + trial)
        h, blocks = _reduced_blocks(rng, self.cfg, 4)
        tx = WindowSpec.separable(rand_complex(rng, 4), rand_complex(rng, 6))
        rx = WindowSpec.separable(rand_complex(rng, 4), rand_complex(rng, 6))
        general = effective_matrix_general(h, tx, rx, self.cfg)
        special = effective_matrix_separable(blocks, tx, rx, self.cfg)
        assert np.max(np.abs(general - special)) <= 1e-10

    def test_time_only_windows(self):
        rng = np.random.default_rng(41)
        h, blocks = _reduced_blocks(rng, self.cfg, 3)
        tx = WindowSpec.separable(rand_complex(rng, 4), np.ones(6))
        rx = WindowSpec.separable(rand_complex(rng, 4), np.ones(6))
        general = effective_matrix_general(h, tx, rx, self.cfg)
        special = effective_matrix_separable(blocks, tx, rx, self.cfg)
        assert np.max(np.abs(general - special)) <= 1e-10

    def test_rectangular_time_invariant_is_block_identity_kron(self):
        # A time-invariant channel makes every per-symbol block the same
        # circulant, and the Doppler-axis DFTs cancel around it.
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        model = ChannelModel.static_multipath([1.0, 0.5], [0, 1])
        h = assemble_h_matrix(synthesize(model, cfg))
        blocks = reduce_to_block_channel(h, cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        expected = kron(np.eye(3), blocks[0])
        assert np.max(np.abs(eff - expected)) <= 1e-12

    def test_rectangular_identity(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=1)
        eff = effective_matrix_rectangular([np.eye(4)] * 3, cfg)
        assert np.max(np.abs(eff - np.eye(12))) <= 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_rectangular_matches_general(self, trial):
        rng = np.random.default_rng(500 + trial)
        h, blocks = _reduced_blocks(rng, self.cfg, 4)
        general = effective_matrix_general(
            h, WindowSpec.rectangular(), WindowSpec.rectangular(), self.cfg)
        special = effective_matrix_rectangular(blocks, self.cfg)
        assert np.max(np.abs(general - special)) <= 1e-10

    def test_frequency_domain_circulant_blocks_are_diagonal(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=2, cp_len=2)
        model = ChannelModel.static_multipath([1.0, 0.3, 0.1], [0, 1, 2])
        blocks = reduce_to_block_channel(assemble_h_matrix(synthesize(model, cfg)), cfg)
        for freq_block in to_frequency_domain(blocks):
            off = freq_block - np.diag(np.diag(freq_block))
            assert np.max(np.abs(off)) <= 1e-12

    def test_frequency_domain_identity(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        eff = effective_matrix_frequency_domain(
            [np.eye(4)] * 2, WindowSpec.rectangular(), WindowSpec.rectangular(), cfg)
        assert np.max(np.abs(eff - np.eye(8))) <= 1e-12

    @pytest.mark.parametrize("trial", range(10))
    def test_frequency_domain_matches_general(self, trial):
        rng = np.random.default_rng(600 + trial)
        h, blocks = _reduced_blocks(rng, self.cfg, 4)
        tx = WindowSpec.general(rand_complex(rng, self.cfg.grid_size))
        rx = WindowSpec.general(rand_complex(rng, self.cfg.grid_size))
        general = effective_matrix_general(h, tx, rx, self.cfg)
        special = effective_matrix_frequency_domain(
            to_frequency_domain(blocks), tx, rx, self.cfg)
        assert np.max(np.abs(general - special)) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), tx_kind=WINDOW_KINDS, rx_kind=WINDOW_KINDS,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_geometries_match_general(self, data, n, tx_kind, rx_kind, seed):
        # The frame needs cp < M and the model distinct delays, so P <= L.
        m = data.draw(st.integers(2, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(taps - 1, m - 1), label="cp")
        paths = data.draw(st.integers(1, taps), label="P")
        cfg = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=paths, max_doppler=0.05)
        h = assemble_h_matrix(synthesize(model, cfg, rng=trial_rng(seed, 0)))
        blocks = reduce_to_block_channel(h, cfg)
        rng = np.random.default_rng(seed)

        tx = random_window(rng, "separable", cfg)
        rx = random_window(rng, "separable", cfg)
        special = effective_matrix_separable(blocks, tx, rx, cfg)
        assert np.max(np.abs(effective_matrix_general(h, tx, rx, cfg) - special)) <= 1e-10

        tx, rx = WindowSpec.rectangular(), WindowSpec.rectangular()
        special = effective_matrix_rectangular(blocks, cfg)
        assert np.max(np.abs(effective_matrix_general(h, tx, rx, cfg) - special)) <= 1e-10

        tx = random_window(rng, tx_kind, cfg)
        rx = random_window(rng, rx_kind, cfg)
        special = effective_matrix_frequency_domain(to_frequency_domain(blocks), tx, rx, cfg)
        assert np.max(np.abs(effective_matrix_general(h, tx, rx, cfg) - special)) <= 1e-10


class TestTwoDConvolution:
    def brute_force_conv(self, data, kernel):
        m, n = data.shape
        out = np.zeros((m, n), dtype=np.complex128)
        for mm in range(m):
            for nn in range(n):
                acc = 0.0
                for mp in range(m):
                    for np_ in range(n):
                        acc += kernel[(mm - mp) % m, (nn - np_) % n] * data[mp, np_]
                out[mm, nn] = acc
        return out

    def test_identity_channel_gives_delta_kernel(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=4, cp_len=1)
        eff = effective_matrix_rectangular([np.eye(4)] * 4, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        assert result.is_circulant
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.max(np.abs(result.kernel - expected)) <= 1e-12

    def test_time_invariant_kernel_sits_on_doppler_zero(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=4, cp_len=1)
        model = ChannelModel.static_multipath([1.0, 0.5], [0, 1])
        blocks = reduce_to_block_channel(assemble_h_matrix(synthesize(model, cfg)), cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        assert result.is_circulant
        assert np.max(np.abs(result.kernel[:, 1:])) <= 1e-12
        assert np.max(np.abs(result.kernel[:, 0] - np.array([1.0, 0.5, 0, 0]))) <= 1e-12
        rng = np.random.default_rng(50)
        data = rand_complex(rng, 4, 4)
        action = unvec(eff @ vec(data), 4, 4)
        assert np.max(np.abs(action - self.brute_force_conv(data, result.kernel))) <= 1e-9

    def test_block_invariant_doppler_matches_matrix_action(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.03,
                                           block_invariant=True)
        channel = synthesize(model, cfg, rng=trial_rng(7, 0))
        blocks = reduce_to_block_channel(assemble_h_matrix(channel), cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        assert result.is_circulant
        rng = np.random.default_rng(51)
        data = rand_complex(rng, 8, 4)
        conv = convolve_2d_circular(data, result.kernel)
        assert np.max(np.abs(unvec(eff @ vec(data), 8, 4) - conv)) <= 1e-9

    def test_single_path_integer_doppler_shifts_support(self):
        # One path, delay 1, Doppler exactly one cycle per OFDM-symbol grid
        # step: the kernel concentrates at Doppler bin 1, delay bin 1.
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=4, cp_len=2)
        doppler = 1.0 / (cfg.symbol_len * cfg.num_symbols)
        time = (np.arange(cfg.frame_len) // cfg.symbol_len) * cfg.symbol_len
        taps = np.zeros((cfg.frame_len, 2), dtype=complex)
        taps[:, 1] = np.exp(2j * np.pi * doppler * time)
        from otfsim.channel import LtvChannel
        blocks = reduce_to_block_channel(assemble_h_matrix(LtvChannel(taps=taps)), cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        assert result.is_circulant
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        assert np.max(np.abs(result.kernel[~mask])) <= 1e-12
        assert abs(result.kernel[1, 1]) > 0.9

    def test_fast_fading_reports_failure_not_exception(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=4, cp_len=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.2)
        channel = synthesize(model, cfg, rng=trial_rng(8, 0))
        blocks = reduce_to_block_channel(assemble_h_matrix(channel), cfg)
        eff = effective_matrix_rectangular(blocks, cfg)
        result = dd_channel_as_2d_convolution(eff, cfg)
        assert not result.is_circulant
        assert result.max_deviation > 1e-9


class TestPerfectReconstruction:
    def test_identity_channel_rectangular(self):
        cfg = OtfsFrameConfig(num_subcarriers=16, num_symbols=8, cp_len=4)
        rng = np.random.default_rng(60)
        data = rand_complex(rng, 16, 8)
        channel = synthesize(ChannelModel.identity(), cfg)
        out = siso_chain(data, channel, WindowSpec.rectangular(),
                         WindowSpec.rectangular(), cfg)
        assert np.max(np.abs(out - data)) <= 1e-10

    def test_unitary_window_pair(self):
        cfg = OtfsFrameConfig(num_subcarriers=8, num_symbols=4, cp_len=2)
        rng = np.random.default_rng(61)
        taps = np.exp(1j * rng.uniform(0, 2 * np.pi, cfg.grid_size))
        tx = WindowSpec.general(taps)
        rx = WindowSpec.general(1.0 / taps)
        data = rand_complex(rng, 8, 4)
        channel = synthesize(ChannelModel.identity(), cfg)
        out = siso_chain(data, channel, tx, rx, cfg)
        assert np.max(np.abs(out - data)) <= 1e-10

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 1), (1, 1)])
    def test_degenerate_grid_sizes(self, m, n):
        cfg = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=0)
        rng = np.random.default_rng(62)
        data = rand_complex(rng, m, n)
        channel = synthesize(ChannelModel.identity(), cfg)
        out = siso_chain(data, channel, WindowSpec.rectangular(),
                         WindowSpec.rectangular(), cfg)
        assert np.max(np.abs(out - data)) <= 1e-12


class TestBasisFunctions:
    @pytest.mark.parametrize("m,n,cp", [(4, 2, 2), (8, 4, 3), (2, 4, 1)])
    def test_biorthogonality(self, m, n, cp):
        cfg = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        tx = transmit_basis(cfg)
        rx = receive_basis(cfg)
        for k in range(m):
            for l in range(n):
                for kp in range(m):
                    for lp in range(n):
                        inner = np.sum(rx[k, l] * tx[kp, lp])
                        expected = 1.0 if (k == kp and l == lp) else 0.0
                        assert abs(inner - expected) <= 1e-12

    def test_modulator_synthesizes_basis_expansion(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        rng = np.random.default_rng(62)
        tf = rand_complex(rng, cfg.grid_size)
        tx = transmit_basis(cfg)
        expected = np.zeros(cfg.frame_len, dtype=complex)
        for k in range(4):
            for l in range(3):
                expected += tf[l * 4 + k] * tx[k, l]
        assert np.max(np.abs(ofdm_modulate(tf, cfg) - expected)) <= 1e-12

    def test_demodulator_projects_onto_receive_basis(self):
        cfg = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        rng = np.random.default_rng(63)
        frame = rand_complex(rng, cfg.frame_len)
        rx = receive_basis(cfg)
        out = ofdm_demodulate(frame, cfg)
        for k in range(4):
            for l in range(3):
                assert abs(out[l * 4 + k] - np.sum(rx[k, l] * frame)) <= 1e-12
