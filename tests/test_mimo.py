"""MIMO stacking against dense Kronecker oracles and per-antenna SISO runs."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from otfsim.channel import ChannelModel, LtvChannel, synthesize, trial_rng
from otfsim.errors import DimensionError, StructureError
from otfsim.kronops import (BlockDiagonalFactor, DftFactor, DiagonalFactor, IdentityFactor,
                            InverseDftFactor, KronOperator, OperatorChain, dft_matrix, kron, vec)
from otfsim.mimo import (
    MimoConfig,
    channel_table,
    mimo_block_channel,
    mimo_chain,
    mimo_effective_matrix,
    mimo_isfft,
    mimo_modulation_stages,
    mimo_window,
    mimo_window_diagonal,
    stack_grids,
)
from otfsim.transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    apply_window,
    effective_matrix_general,
    isfft,
    siso_chain,
)
from otfsim.channel import assemble_h_matrix, reduce_to_block_channel


FRAME = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)


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


def zero_channel(cfg, length=1):
    return LtvChannel(taps=np.zeros((cfg.frame_len, length), dtype=complex))


def random_channels(seed, mcfg, length=3):
    model = ChannelModel.doppler_paths(num_taps=length, num_paths=2, max_doppler=0.05)
    return channel_table(model, mcfg, seed)


class TestChannelTable:
    @pytest.mark.parametrize("key", [(), (7,), (40, 2)])
    def test_pair_draws_from_its_own_stream(self, key):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=3)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.05)
        table = channel_table(model, mcfg, 11, *key)
        assert [len(row) for row in table] == [2, 2, 2]
        for r, row in enumerate(table):
            for t, ch in enumerate(row):
                want = synthesize(model, FRAME, rng=trial_rng(11, *key, r, t))
                assert np.array_equal(ch.taps, want.taps)

    def test_returns_channels_longer_than_the_cp(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=4, num_paths=2, max_doppler=0.05)
        table = channel_table(model, mcfg, 1, 0)
        assert [[ch.length for ch in row] for row in table] == [[4, 4], [4, 4]]


class TestStacking:
    def test_vector_layout_matches_definition(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=1)
        rng = np.random.default_rng(1)
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        v = vec(stack_grids(grids, mcfg))
        m = 4
        for n in range(3):
            for t in range(2):
                for mm in range(m):
                    assert v[(n * 2 + t) * m + mm] == grids[t][mm, n]

    def test_wrong_grid_count(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=1)
        with pytest.raises(DimensionError):
            stack_grids([np.zeros((4, 3))], mcfg)


class TestMimoIsfft:
    def test_single_antenna_reduces_to_siso(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=1, num_rx=1)
        rng = np.random.default_rng(3)
        grid = rand_complex(rng, 4, 3)
        out = mimo_isfft(grid, mcfg)
        assert np.max(np.abs(out - vec(isfft(grid)))) <= 1e-12

    def test_zero_antenna_slices_stay_zero(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=1)
        rng = np.random.default_rng(4)
        grids = [rand_complex(rng, 4, 3), np.zeros((4, 3), dtype=complex)]
        out = mimo_isfft(stack_grids(grids, mcfg), mcfg)
        expected = vec(stack_grids([isfft(grids[0]), grids[1]], mcfg))
        assert np.all(out[expected == 0] == 0.0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_matches_dense_kronecker(self):
        frame = OtfsFrameConfig(num_subcarriers=2, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=1)
        rng = np.random.default_rng(5)
        grids = [rand_complex(rng, 2, 2) for _ in range(2)]
        stacked = stack_grids(grids, mcfg)
        dense = kron(kron(dft_matrix(2).conj().T, np.eye(2)), dft_matrix(2))
        assert np.max(np.abs(mimo_isfft(stacked, mcfg) - dense @ vec(stacked))) <= 1e-12


class TestMimoWindow:
    def test_rectangular_identity(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        rng = np.random.default_rng(6)
        x = rand_complex(rng, 24)
        assert np.array_equal(mimo_window(x, WindowSpec.rectangular(), mcfg, 2), x)

    def test_single_antenna_reduces_to_siso(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=1, num_rx=1)
        rng = np.random.default_rng(7)
        x = rand_complex(rng, 12)
        w = WindowSpec.general(rand_complex(rng, 12))
        assert np.max(np.abs(
            mimo_window(x, w, mcfg, 1) - apply_window(x, w, FRAME))) == 0.0

    def test_matches_dense_block_diagonal(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=1)
        rng = np.random.default_rng(8)
        w = WindowSpec.general(rand_complex(rng, 12))
        # Dense oracle: per symbol n the stacked window is I_2 (x) U_n.
        per_symbol = w.diagonal(FRAME).reshape(3, 4)
        dense = np.zeros((24, 24), dtype=complex)
        for n in range(3):
            blk = kron(np.eye(2), np.diag(per_symbol[n]))
            dense[n * 8:(n + 1) * 8, n * 8:(n + 1) * 8] = blk
        x = rand_complex(rng, 24)
        assert np.max(np.abs(mimo_window(x, w, mcfg, 2) - dense @ x)) <= 1e-12


class TestMimoChain:
    def test_single_antenna_matches_siso_exactly(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=1, num_rx=1)
        rng = np.random.default_rng(9)
        grid = rand_complex(rng, 4, 3)
        channels = random_channels(10, mcfg)
        tx = WindowSpec.general(rand_complex(rng, 12))
        rx = WindowSpec.general(rand_complex(rng, 12))
        mimo_out = mimo_chain(grid, channels, tx, rx, mcfg)
        siso_out = siso_chain(grid, channels[0][0], tx, rx, FRAME)
        assert np.max(np.abs(mimo_out.estimate - vec(siso_out))) <= 1e-12

    def test_parallel_identity_channels_reconstruct(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        ident = synthesize(ChannelModel.identity(), FRAME)
        zero = zero_channel(FRAME)
        channels = [[ident, zero], [zero, ident]]
        rng = np.random.default_rng(11)
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        stacked = stack_grids(grids, mcfg)
        out = mimo_chain(stacked, channels, WindowSpec.rectangular(),
                         WindowSpec.rectangular(), mcfg)
        assert np.max(np.abs(out.estimate - vec(stacked))) <= 1e-10

    @pytest.mark.parametrize("trial", range(10))
    def test_chain_matches_effective_matrix(self, trial):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        rng = np.random.default_rng(800 + trial)
        channels = random_channels(900 + trial, mcfg)
        tx = WindowSpec.general(rand_complex(rng, 12))
        rx = WindowSpec.general(rand_complex(rng, 12))
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        stacked = stack_grids(grids, mcfg)
        out = mimo_chain(stacked, channels, tx, rx, mcfg)
        eff = mimo_effective_matrix(channels, tx, rx, mcfg)
        assert np.max(np.abs(out.estimate - eff @ vec(stacked))) <= 1e-10

    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), n_t=st.sampled_from([1, 2]),
           n_r=st.sampled_from([1, 2]), tx_kind=WINDOW_KINDS, rx_kind=WINDOW_KINDS,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_chain_matches_effective_matrix_over_random_geometries(
            self, data, n, n_t, n_r, tx_kind, rx_kind, seed):
        # The frame needs cp < M and the model distinct delays, so P <= L.
        m = data.draw(st.integers(2, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(taps - 1, m - 1), label="cp")
        paths = data.draw(st.integers(1, taps), label="P")
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        mcfg = MimoConfig(frame=frame, num_tx=n_t, num_rx=n_r)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=paths, max_doppler=0.05)
        channels = channel_table(model, mcfg, seed)
        rng = np.random.default_rng(seed)
        tx = random_window(rng, tx_kind, frame)
        rx = random_window(rng, rx_kind, frame)
        stacked = stack_grids([rand_complex(rng, m, n) for _ in range(n_t)], mcfg)
        out = mimo_chain(stacked, channels, tx, rx, mcfg)
        eff = mimo_effective_matrix(channels, tx, rx, mcfg)
        assert np.max(np.abs(out.estimate - eff @ vec(stacked))) <= 1e-10

    def test_noise_enters_receiver_linearly(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        rng = np.random.default_rng(12)
        channels = random_channels(13, mcfg)
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        stacked = stack_grids(grids, mcfg)
        noise = [rand_complex(rng, FRAME.frame_len) for _ in range(2)]
        tx = WindowSpec.rectangular()
        rx = WindowSpec.rectangular()
        noisy = mimo_chain(stacked, channels, tx, rx, mcfg, noise=noise)
        clean = mimo_chain(stacked, channels, tx, rx, mcfg)
        noise_only = mimo_chain(np.zeros_like(stacked), channels, tx, rx, mcfg, noise=noise)
        assert np.max(np.abs(noisy.estimate - clean.estimate - noise_only.estimate)) <= 1e-10

    def test_mismatched_antenna_table(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        ident = synthesize(ChannelModel.identity(), FRAME)
        with pytest.raises(DimensionError):
            mimo_chain(np.zeros((8, 3)), [[ident, ident]], WindowSpec.rectangular(),
                       WindowSpec.rectangular(), mcfg)

    def test_mismatched_channel_lengths(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=1)
        ident = synthesize(ChannelModel.identity(), FRAME)
        two_tap = synthesize(ChannelModel.static_multipath([1.0, 0.1], [0, 1]), FRAME)
        with pytest.raises(DimensionError):
            mimo_chain(np.zeros((8, 3)), [[ident, two_tap]], WindowSpec.rectangular(),
                       WindowSpec.rectangular(), mcfg)


class TestMimoEffectiveMatrix:
    def test_parallel_identity_is_identity(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        ident = synthesize(ChannelModel.identity(), FRAME)
        zero = zero_channel(FRAME)
        channels = [[ident, zero], [zero, ident]]
        eff = mimo_effective_matrix(channels, WindowSpec.rectangular(),
                                    WindowSpec.rectangular(), mcfg)
        assert np.max(np.abs(eff - np.eye(24))) <= 1e-12

    def test_single_antenna_equals_siso_builder(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=1, num_rx=1)
        rng = np.random.default_rng(14)
        channels = random_channels(15, mcfg)
        tx = WindowSpec.general(rand_complex(rng, 12))
        rx = WindowSpec.general(rand_complex(rng, 12))
        mimo_eff = mimo_effective_matrix(channels, tx, rx, mcfg)
        siso_eff = effective_matrix_general(
            assemble_h_matrix(channels[0][0]), tx, rx, FRAME)
        assert np.max(np.abs(mimo_eff - siso_eff)) <= 1e-12

    def test_dimension_law(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=3, num_rx=2)
        channels = random_channels(16, mcfg)
        eff = mimo_effective_matrix(channels, WindowSpec.rectangular(),
                                    WindowSpec.rectangular(), mcfg)
        assert eff.shape == (FRAME.grid_size * 2, FRAME.grid_size * 3)

    def test_oracle_equality_over_random_inputs(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        rng = np.random.default_rng(17)
        channels = random_channels(18, mcfg)
        tx = WindowSpec.separable(rand_complex(rng, 3), rand_complex(rng, 4))
        rx = WindowSpec.separable(rand_complex(rng, 3), rand_complex(rng, 4))
        eff = mimo_effective_matrix(channels, tx, rx, mcfg)
        for _ in range(20):
            grids = [rand_complex(rng, 4, 3) for _ in range(2)]
            stacked = stack_grids(grids, mcfg)
            out = mimo_chain(stacked, channels, tx, rx, mcfg)
            assert np.max(np.abs(out.estimate - eff @ vec(stacked))) <= 1e-10


    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), n=st.integers(1, 4), n_t=st.integers(1, 3), n_r=st.integers(1, 3),
           tx_kind=WINDOW_KINDS, rx_kind=WINDOW_KINDS, seed=st.integers(0, 2 ** 32 - 1))
    def test_receive_stages_on_k_equal_the_whole_chain_bit_for_bit(
            self, data, n, n_t, n_r, tx_kind, rx_kind, seed):
        # The reference materializes one chain of every stage, the
        # block-diagonal channel among them, from the C x C identity.
        m = data.draw(st.integers(1, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(taps - 1, m - 1), label="cp")
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        mcfg = MimoConfig(frame=frame, num_tx=n_t, num_rx=n_r)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=1, max_doppler=0.05)
        channels = channel_table(model, mcfg, seed)
        rng = np.random.default_rng(seed)
        tx = random_window(rng, tx_kind, frame)
        rx = random_window(rng, rx_kind, frame)
        expected = OperatorChain([
            KronOperator([DftFactor(n), IdentityFactor(n_r), InverseDftFactor(m)]),
            KronOperator([DiagonalFactor(mimo_window_diagonal(rx, mcfg, n_r))]),
            KronOperator([IdentityFactor(n * n_r), DftFactor(m)]),
            KronOperator([BlockDiagonalFactor(mimo_block_channel(channels, mcfg))]),
        ] + mimo_modulation_stages(tx, mcfg)).materialize()
        assert mimo_effective_matrix(channels, tx, rx, mcfg).tobytes() == expected.tobytes()


class TestAntennaStructure:
    def test_decoupled_channels_match_independent_siso_runs(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        model = ChannelModel.doppler_paths(num_taps=3, num_paths=2, max_doppler=0.04)
        diag0 = synthesize(model, FRAME, rng=trial_rng(19, 0))
        diag1 = synthesize(model, FRAME, rng=trial_rng(19, 1))
        zero = zero_channel(FRAME, length=3)
        channels = [[diag0, zero], [zero, diag1]]
        rng = np.random.default_rng(20)
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        tx = WindowSpec.general(rand_complex(rng, 12))
        rx = WindowSpec.general(rand_complex(rng, 12))
        out = mimo_chain(stack_grids(grids, mcfg), channels, tx, rx, mcfg)
        solo = [siso_chain(grid, diag, tx, rx, FRAME) for grid, diag in zip(grids, (diag0, diag1))]
        assert np.max(np.abs(out.estimate - vec(stack_grids(solo, mcfg)))) <= 1e-10

    def test_permuting_antennas_permutes_outputs(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        channels = random_channels(21, mcfg)
        rng = np.random.default_rng(22)
        grids = [rand_complex(rng, 4, 3) for _ in range(2)]
        tx = WindowSpec.rectangular()
        rx = WindowSpec.rectangular()
        base = mimo_chain(stack_grids(grids, mcfg), channels, tx, rx, mcfg)
        swapped_channels = [[channels[1][1], channels[1][0]],
                            [channels[0][1], channels[0][0]]]
        swapped = mimo_chain(stack_grids(grids[::-1], mcfg), swapped_channels, tx, rx, mcfg)
        # The stacked vector is laid out (symbol, antenna, subcarrier), as
        # test_vector_layout_matches_definition pins, so swapping antennas
        # flips its middle axis.
        expected = np.flip(base.estimate.reshape(3, 2, 4), axis=1).reshape(-1)
        assert np.max(np.abs(swapped.estimate - expected)) <= 1e-12

    def test_block_channel_blocks_match_pairwise_reduction(self):
        mcfg = MimoConfig(frame=FRAME, num_tx=2, num_rx=2)
        channels = random_channels(23, mcfg)
        stacked = mimo_block_channel(channels, mcfg)
        for r in range(2):
            for t in range(2):
                pair = reduce_to_block_channel(
                    assemble_h_matrix(channels[r][t]), FRAME)
                for n, block in enumerate(stacked):
                    got = block[r * 4:(r + 1) * 4, t * 4:(t + 1) * 4]
                    assert np.max(np.abs(got - pair[n])) == 0.0


def dense_block_channel(channels, mcfg):
    """The per-pair dense reference: reduce each pair's frame matrix in
    rx-major order and stack the blocks as the builder does."""
    m, n = mcfg.frame.num_subcarriers, mcfg.frame.num_symbols
    per_pair = np.array([[reduce_to_block_channel(assemble_h_matrix(ch), mcfg.frame)
                          for ch in row] for row in channels])
    return per_pair.transpose(2, 0, 3, 1, 4).reshape(n, m * mcfg.num_rx, m * mcfg.num_tx)


def raised_structure_error(build, *args):
    try:
        build(*args)
    except StructureError as err:
        return err
    return None


class TestTapTableBuilder:
    @settings(max_examples=20, deadline=None)
    @given(data=st.data(), n=st.integers(1, 4), n_t=st.sampled_from([1, 2]),
           n_r=st.sampled_from([1, 2]), seed=st.integers(0, 2 ** 32 - 1))
    def test_random_geometries_match_dense_reduction(self, data, n, n_t, n_r, seed):
        # cp covers the memory (cp >= L-1) or not; both builders must agree.
        m = data.draw(st.integers(2, 8), label="M")
        taps = data.draw(st.integers(1, m), label="L")
        cp = data.draw(st.integers(0, m - 1), label="cp")
        paths = data.draw(st.integers(1, taps), label="P")
        frame = OtfsFrameConfig(num_subcarriers=m, num_symbols=n, cp_len=cp)
        mcfg = MimoConfig(frame=frame, num_tx=n_t, num_rx=n_r)
        model = ChannelModel.doppler_paths(num_taps=taps, num_paths=paths, max_doppler=0.05)
        channels = channel_table(model, mcfg, seed)
        dense_err = raised_structure_error(dense_block_channel, channels, mcfg)
        if cp >= taps - 1 or n == 1:
            assert dense_err is None
        if dense_err is None:
            # Equal values; only the sign of an exact zero may differ, where
            # the dense BLAS product multiplies a tap by a 0 CP-matrix entry.
            assert np.array_equal(mimo_block_channel(channels, mcfg),
                                  dense_block_channel(channels, mcfg))
        else:
            err = raised_structure_error(mimo_block_channel, channels, mcfg)
            assert err is not None
            assert str(err) == str(dense_err)
            assert err.deviation == dense_err.deviation

    def test_first_failing_pair_rx_major_sets_the_deviation(self):
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=1)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=2)

        def channel(leak):
            model = ChannelModel.static_multipath([1.0, leak], [0, 3])
            return synthesize(model, frame)

        channels = [[channel(0.0), channel(0.3)], [channel(0.7), channel(0.0)]]
        with pytest.raises(StructureError, match="CP is shorter") as info:
            mimo_block_channel(channels, mcfg)
        assert info.value.deviation == 0.3

    def test_memory_longer_than_the_block(self):
        # L > M: taps M apart land on one entry, summed in a block and
        # beyond the CP with more than one symbol.
        model = ChannelModel.doppler_paths(num_taps=6, num_paths=6, max_doppler=0.05)
        frame = OtfsFrameConfig(num_subcarriers=4, num_symbols=3, cp_len=2)
        mcfg = MimoConfig(frame=frame, num_tx=2, num_rx=1)
        channels = channel_table(model, mcfg, 31)
        with pytest.raises(StructureError, match="CP is shorter"):
            mimo_block_channel(channels, mcfg)
        with pytest.raises(StructureError, match="CP is shorter"):
            dense_block_channel(channels, mcfg)
        single = MimoConfig(frame=OtfsFrameConfig(num_subcarriers=4, num_symbols=1, cp_len=3))
        channels = channel_table(model, single, 32)
        assert np.array_equal(mimo_block_channel(channels, single),
                              dense_block_channel(channels, single))
