"""Kronecker algebra, DFT matrices, vectorization, and operator application.

Expected values come from independent brute-force construction: the
Kronecker product is rebuilt block by block from its definition, and
operator application is compared against dense materialized products.
"""

import json

import numpy as np
import pytest

from otfsim import kronops
from otfsim.capacity import otfs_block_mi
from otfsim.channel import ChannelModel, LtvChannel, assemble_h_matrix, synthesize
from otfsim.cli import main
from otfsim.errors import DimensionError, NonFiniteError, SizeCapError, StructureError
from otfsim.kronops import (
    BlockDiagonalFactor,
    DenseFactor,
    DftFactor,
    DiagonalFactor,
    IdentityFactor,
    InverseDftFactor,
    KronOperator,
    OperatorChain,
    SelectionFactor,
    dft_matrix,
    idft_matrix,
    kron,
    off_block_max,
    require_finite,
    require_within,
    unvec,
    vec,
)
from otfsim.mimo import MimoConfig, mimo_block_channel
from otfsim.transceiver import OtfsFrameConfig, WindowSpec, receive_basis, transmit_basis


def kron_blockwise(a, b):
    """Brute-force Kronecker product straight from the block definition:
    block (i, j) of the result is a[i, j] * b."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    m, n = a.shape
    p, q = b.shape
    out = np.zeros((m * p, n * q), dtype=np.complex128)
    for i in range(m):
        for j in range(n):
            out[i * p:(i + 1) * p, j * q:(j + 1) * q] = a[i, j] * b
    return out


def rand_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestKron:
    def test_identity_times_scalar(self):
        out = kron(np.eye(2), np.array([[5.0]]))
        assert np.array_equal(out, np.diag([5.0, 5.0]))

    def test_column_times_scalar(self):
        out = kron(np.array([[1.0], [2.0]]), np.array([[3.0]]))
        assert np.array_equal(out, np.array([[3.0], [6.0]]))

    def test_dft_times_identity_matches_block_definition(self):
        f2 = dft_matrix(2)
        expected = kron_blockwise(f2, np.eye(2))
        assert np.max(np.abs(kron(f2, np.eye(2)) - expected)) <= 1e-12

    @pytest.mark.parametrize("shapes", [((2, 3), (4, 2)), ((1, 5), (3, 3)), ((4, 1), (2, 2))])
    def test_matches_block_definition_random(self, shapes):
        rng = np.random.default_rng(11)
        a = rand_complex(rng, *shapes[0])
        b = rand_complex(rng, *shapes[1])
        assert np.max(np.abs(kron(a, b) - kron_blockwise(a, b))) <= 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            kron(np.ones((100, 100)), np.ones((200, 200)))

    def test_associative(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            a = rand_complex(rng, 2, 3)
            b = rand_complex(rng, 4, 2)
            c = rand_complex(rng, 2, 2)
            lhs = kron(kron(a, b), c)
            rhs = kron(a, kron(b, c))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_hermitian_order_preserved(self):
        rng = np.random.default_rng(3)
        a = rand_complex(rng, 3, 2)
        b = rand_complex(rng, 2, 4)
        lhs = kron(a, b).conj().T
        rhs = kron(a.conj().T, b.conj().T)
        assert np.max(np.abs(lhs - rhs)) == 0.0


class TestVec:
    def test_definition(self):
        assert np.array_equal(vec(np.array([[1, 3], [2, 4]])), [1, 2, 3, 4])

    def test_row_vector(self):
        a, b = 1.5 + 2j, -0.5j
        assert np.array_equal(vec(np.array([[a, b]])), [a, b])

    def test_unvec_round_trip(self):
        rng = np.random.default_rng(4)
        x = rand_complex(rng, 3, 5)
        assert np.array_equal(unvec(vec(x), 3, 5), x)

    def test_element_layout(self):
        rng = np.random.default_rng(5)
        x = rand_complex(rng, 4, 3)
        v = vec(x)
        for col in range(3):
            for row in range(4):
                assert v[row + 4 * col] == x[row, col]

    def test_unvec_length_mismatch(self):
        with pytest.raises(DimensionError):
            unvec(np.arange(5), 2, 3)


class TestDftMatrix:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 64, 257])
    def test_entry_formula(self, n):
        f = dft_matrix(n)
        m, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        expected = np.exp(-2j * np.pi * m * k / n) / np.sqrt(n)
        assert np.max(np.abs(f - expected)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 128, 1024, 4096])
    def test_unitary(self, n):
        f = dft_matrix(n)
        # F @ F^H column by column through the FFT (F is symmetric, so
        # F^H = conj(F)); avoids an O(n^3) product at n=4096.
        product = np.fft.fft(f.conj(), axis=0, norm="ortho")
        assert np.max(np.abs(product - np.eye(n))) <= 1e-12

    def test_idft_is_conjugate_transpose(self):
        f = dft_matrix(6)
        assert np.array_equal(idft_matrix(6), f.conj().T)


class TestIdentityChecks:
    def test_mixed_product_negative_control(self):
        rng = np.random.default_rng(7)
        a, b, c, d = (rand_complex(rng, 2, 2) for _ in range(4))
        # Perturbing one operand by an unrelated product must break equality.
        lhs = kron(a, b) @ kron(c, d)
        rhs = kron(a @ c, b @ d) + 0.1
        assert np.max(np.abs(lhs - rhs)) > 1e-3

    def test_vec_identity_needs_transpose_not_hermitian(self):
        rng = np.random.default_rng(10)
        a = rand_complex(rng, 2, 3)
        x = rand_complex(rng, 3, 2)
        b = rand_complex(rng, 2, 4)
        lhs = kron(b.conj().T, a) @ vec(x)  # b^H in place of b^T
        rhs = vec(a @ x @ b)
        assert np.max(np.abs(lhs - rhs)) > 1e-6


class TestKronOperator:
    def test_identity_operator(self):
        rng = np.random.default_rng(12)
        op = KronOperator([IdentityFactor(8)])
        v = rand_complex(rng, 8)
        assert np.array_equal(op.apply(v), v)

    def test_dft_kron_identity_vs_dense(self):
        rng = np.random.default_rng(13)
        op = KronOperator([DftFactor(4), IdentityFactor(2)])
        v = rand_complex(rng, 8)
        dense = kron(dft_matrix(4), np.eye(2))
        assert np.max(np.abs(op.apply(v) - dense @ v)) <= 1e-12

    def test_inverse_pair_is_identity_action(self):
        rng = np.random.default_rng(14)
        fwd = KronOperator([InverseDftFactor(2), DftFactor(2)])
        bwd = KronOperator([DftFactor(2), InverseDftFactor(2)])
        v = rand_complex(rng, 4)
        assert np.max(np.abs(bwd.apply(fwd.apply(v)) - v)) <= 1e-12

    @pytest.mark.parametrize("trial", range(5))
    def test_all_factor_kinds_match_materialization(self, trial):
        rng = np.random.default_rng(100 + trial)
        factors = [
            DenseFactor(rand_complex(rng, 3, 2)),
            DftFactor(4),
            DiagonalFactor(rand_complex(rng, 2)),
            InverseDftFactor(3),
            IdentityFactor(2),
        ]
        op = KronOperator(factors)
        v = rand_complex(rng, op.shape[1])
        dense = op.materialize()
        rel = np.max(np.abs(op.apply(v) - dense @ v)) / max(1.0, np.max(np.abs(dense @ v)))
        assert rel <= 1e-10

    def test_matrix_input_applies_columnwise(self):
        rng = np.random.default_rng(15)
        op = KronOperator([DftFactor(3), DenseFactor(rand_complex(rng, 2, 4))])
        x = rand_complex(rng, op.shape[1], 5)
        dense = op.materialize()
        assert np.max(np.abs(op.apply(x) - dense @ x)) <= 1e-10

    def test_length_mismatch(self):
        op = KronOperator([DftFactor(4), IdentityFactor(2)])
        with pytest.raises(DimensionError):
            op.apply(np.ones(7))

    def test_materialize_cap(self):
        op = KronOperator([IdentityFactor(100), IdentityFactor(200)])
        with pytest.raises(SizeCapError):
            op.materialize()


class TestSelectionFactor:
    def test_materialize_has_one_one_per_row(self):
        dense = SelectionFactor([2, 0, 2], 4).materialize()
        expected = np.zeros((3, 4), dtype=complex)
        expected[[0, 1, 2], [2, 0, 2]] = 1.0
        assert np.array_equal(dense, expected)

    @pytest.mark.parametrize("position", range(3))
    def test_apply_is_the_dense_product_exactly(self, position):
        # A gather picks each entry; the 0/1 product only adds exact zeros.
        rng = np.random.default_rng(40 + position)
        factors = [DftFactor(3), DenseFactor(rand_complex(rng, 2, 3))]
        factors.insert(position, SelectionFactor([4, 0, 1, 2, 3, 4], 5))
        op = KronOperator(factors)
        x = rand_complex(rng, op.shape[1], 2)
        dense = KronOperator(factors[:position] + [DenseFactor(factors[position].materialize())]
                             + factors[position + 1:])
        assert op.apply(x).tobytes() == dense.apply(x).tobytes()

    @pytest.mark.parametrize("index, cols", [([], 3), ([0], 0), ([3], 3), ([-1], 3)])
    def test_rejects_empty_or_out_of_range(self, index, cols):
        with pytest.raises(DimensionError):
            SelectionFactor(index, cols)


class TestOperatorChain:
    def test_matches_dense_product(self):
        rng = np.random.default_rng(16)
        stages = [
            KronOperator([DftFactor(2), IdentityFactor(3)]),
            KronOperator([DiagonalFactor(rand_complex(rng, 6))]),
            KronOperator([IdentityFactor(2), DenseFactor(rand_complex(rng, 3, 3))]),
        ]
        chain = OperatorChain(stages)
        dense = stages[0].materialize() @ stages[1].materialize() @ stages[2].materialize()
        v = rand_complex(rng, 6)
        assert np.max(np.abs(chain.apply(v) - dense @ v)) <= 1e-10
        assert np.max(np.abs(chain.materialize() - dense)) <= 1e-10

    def test_nonconformable_stages(self):
        with pytest.raises(DimensionError):
            OperatorChain([
                KronOperator([IdentityFactor(4)]),
                KronOperator([IdentityFactor(5)]),
            ])


def _divisor(rng, size):
    return int(rng.choice([d for d in range(1, size + 1) if size % d == 0]))


def _random_factor(rng, cols, kind):
    """A factor of ``cols`` columns: ``kind`` names its class, and a dense,
    block-diagonal or selection factor gets a random row count."""
    if kind == "dense":
        rows = cols if rng.random() < 0.6 else int(rng.integers(1, cols + 3))
        return DenseFactor(rand_complex(rng, rows, cols))
    if kind == "identity":
        return IdentityFactor(cols)
    if kind == "dft":
        return DftFactor(cols)
    if kind == "idft":
        return InverseDftFactor(cols)
    if kind == "diagonal":
        return DiagonalFactor(rand_complex(rng, cols))
    if kind == "block-diagonal":
        count = _divisor(rng, cols)
        return BlockDiagonalFactor(rand_complex(rng, count, int(rng.integers(1, cols // count + 2)),
                                                cols // count))
    return SelectionFactor(rng.integers(0, cols, int(rng.integers(1, cols + 3))), cols)


FACTOR_KINDS = ("dense", "identity", "dft", "idft", "diagonal", "block-diagonal", "selection")


def _random_stage(rng, cols, first=None, last=None):
    """A stage of one to three random factors over ``cols`` columns; ``first``
    and ``last`` fix the kinds of its first and last factors."""
    sizes = [cols]
    for _ in range(int(rng.integers(0, 3))):
        split = _divisor(rng, sizes[-1])
        sizes[-1:] = [split, sizes[-1] // split]
    kinds = [str(rng.choice(FACTOR_KINDS)) for _ in sizes]
    if first:
        kinds[0] = first
    if last:
        kinds[-1] = last
    return KronOperator([_random_factor(rng, size, kind) for size, kind in zip(sizes, kinds)])


def _random_chain(rng, shape):
    """Two to five random stages, listed in matrix order, so the last one acts
    first, and the chain's column count C. ``shape`` puts a dense factor
    first or last in one stage of two or more factors, or makes the first
    stage to act an identity. C is under 40, so materialize fills one slab,
    and no stage has 128 rows or more."""
    while True:
        cols = int(rng.integers(4, 40))
        special = int(rng.integers(0, 3))
        stages, size = [], cols
        for index in range(int(rng.integers(2, 6))):
            if index == 0 and shape == "identity-first":
                stage = KronOperator([IdentityFactor(size)])
            elif index == special and shape in ("dense-first", "dense-last") and size > 3:
                while True:
                    stage = _random_stage(rng, size, **{shape.split("-")[1]: "dense"})
                    if len(stage.factors) > 1:
                        break
            else:
                stage = _random_stage(rng, size)
            stages.insert(0, stage)
            size = stage.shape[0]
        if max(stage.shape[0] for stage in stages) < 128:
            return OperatorChain(stages), cols


def _fresh_reference(chain, x):
    """The chain applied stage by stage with a fresh array from every factor:
    dense factors through ``np.tensordot``, the others through their own
    ``apply``, which makes a new array; nothing is written in place."""
    x = np.array(x, dtype=np.complex128)
    single = x.ndim == 1
    x = x.reshape(len(x), -1)
    for stage in reversed(chain.stages):
        tensor = x.reshape([f.cols for f in stage.factors] + [x.shape[1]])
        for axis, factor in enumerate(stage.factors):
            if isinstance(factor, DenseFactor):
                tensor = np.moveaxis(np.tensordot(factor.matrix, tensor, axes=([1], [axis])),
                                     0, axis)
            else:
                tensor = factor.apply(tensor, axis)
        x = tensor.reshape(stage.shape[0], -1)
    return x[:, 0] if single else x


class TestOwnership:
    """The public ``apply`` copies the caller's input once and every stage
    writes into the array it is given: the caller's array is never written,
    and writing in place moves no bit."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("shape", ["dense-first", "dense-last", "identity-first"])
    def test_random_chain_keeps_its_input_and_the_fresh_bits(self, shape, seed):
        rng = np.random.default_rng([61, seed, len(shape)])
        chain, cols = _random_chain(rng, shape)
        batch = int(rng.integers(0, 4))
        x = rand_complex(rng, cols, batch) if batch else rand_complex(rng, cols)
        if batch and seed % 3 == 0:
            x = np.asfortranarray(x)
        kept = x.copy()
        x.flags.writeable = False  # a write into it raises
        out = chain.apply(x)
        assert x.tobytes() == kept.tobytes()
        assert out.tobytes() == _fresh_reference(chain, kept).tobytes()
        for stage in chain.stages:
            given = rand_complex(rng, stage.shape[1], 3)
            before = given.copy()
            stage.apply(given)
            assert given.tobytes() == before.tobytes()
        assert chain.materialize().tobytes() == chain.apply(np.eye(cols, dtype=complex)).tobytes()

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_dense_factor_over_an_owned_array_has_the_tensordot_bits(self, axis):
        # Square and C-contiguous, with a batch axis last: the product goes
        # into the input's memory unless the factor acts on the first axis,
        # where tensordot's operand is a view of the input, not a copy.
        rng = np.random.default_rng(62 + axis)
        tensor = rand_complex(rng, 5, 6, 7, 3)
        factor = DenseFactor(rand_complex(rng, tensor.shape[axis], tensor.shape[axis]))
        expected = factor.apply(tensor, axis)
        out = factor._apply_over(tensor, axis)
        assert out.tobytes() == expected.tobytes()
        assert np.may_share_memory(out, tensor) == (axis > 0)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(5, 6, 7), (1, 2, 1), (1, 1, 1)])
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_diagonal_factor_over_an_owned_array_has_the_apply_bits(self, axis, shape, order):
        # numpy's vector loop for complex products and its scalar loop, which
        # it takes for a lone entry multiplied in place, round differently:
        # a one-entry tensor gets a new array.
        rng = np.random.default_rng([63, axis, *shape])
        for _ in range(20):
            tensor = np.asarray(rand_complex(rng, *shape), order=order)
            factor = DiagonalFactor(rand_complex(rng, shape[axis]))
            expected = factor.apply(tensor, axis)
            out = factor._apply_over(tensor, axis)
            assert out.tobytes() == expected.tobytes()
            assert (out is tensor) == (tensor.size > 1)

    @pytest.mark.parametrize("batch", [1, 5])
    def test_an_input_handed_over_is_transformed_in_its_own_memory(self, batch):
        # mimo_effective_matrix's receive chain: FFT stages and a diagonal
        # stage, applied to an array the caller hands over as the chain's own,
        # work in that array's memory and give apply's bits.
        rng = np.random.default_rng([64, batch])
        chain = OperatorChain([
            KronOperator([DftFactor(3), IdentityFactor(2), InverseDftFactor(4)]),
            KronOperator([DiagonalFactor(rand_complex(rng, 24))]),
            KronOperator([IdentityFactor(6), DftFactor(4)]),
        ])
        x = rand_complex(rng, 24, batch)
        expected = chain.apply(x)
        out = chain._apply_owned(x)
        assert out.tobytes() == expected.tobytes()
        assert np.shares_memory(out, x)


class TestBlockDiag:
    def test_materialize_places_blocks_on_the_diagonal(self):
        rng = np.random.default_rng(17)
        blocks = rand_complex(rng, 3, 2, 4)
        dense = BlockDiagonalFactor(blocks).materialize()
        expected = np.zeros((6, 12), dtype=complex)
        for n in range(3):
            expected[n * 2:(n + 1) * 2, n * 4:(n + 1) * 4] = blocks[n]
        assert np.array_equal(dense, expected)

    @pytest.mark.parametrize("position", range(3))
    def test_apply_between_other_factors_matches_materialization(self, position):
        rng = np.random.default_rng(30 + position)
        factors = [DftFactor(3), DenseFactor(rand_complex(rng, 2, 3))]
        factors.insert(position, BlockDiagonalFactor(rand_complex(rng, 4, 3, 2)))
        op = KronOperator(factors)
        x = rand_complex(rng, op.shape[1], 2)
        dense = op.materialize()
        assert np.max(np.abs(op.apply(x) - dense @ x)) <= 1e-10

    def test_needs_finite_three_dimensional_stack(self):
        with pytest.raises(DimensionError):
            BlockDiagonalFactor(np.ones((3, 3)))
        with pytest.raises(ValueError):
            BlockDiagonalFactor(np.full((2, 2, 2), np.nan))

    def test_size_cap_checked_before_allocating(self, monkeypatch):
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", 35)
        with pytest.raises(SizeCapError):
            BlockDiagonalFactor(np.ones((2, 3, 3))).materialize()  # 6x6 = 36 entries
        assert BlockDiagonalFactor(np.ones((2, 3, 2))).materialize().shape == (6, 4)


class TestOffBlockMax:
    def test_planted_entry_is_returned_exactly(self):
        rng = np.random.default_rng(18)
        blocks = [10.0 * rand_complex(rng, 3, 3) for _ in range(4)]
        matrix = BlockDiagonalFactor(blocks).materialize()
        matrix[7, 1] = 0.25 - 0.5j
        matrix[2, 10] = 0.1j
        assert off_block_max(matrix, 3) == np.abs(np.complex128(0.25 - 0.5j))

    def test_block_diagonal_input_gives_zero(self):
        rng = np.random.default_rng(19)
        matrix = BlockDiagonalFactor([rand_complex(rng, 4, 4) for _ in range(3)]).materialize()
        assert off_block_max(matrix, 4) == 0.0

    def test_single_block_gives_zero(self):
        rng = np.random.default_rng(20)
        assert off_block_max(rand_complex(rng, 5, 5), 5) == 0.0


TINY = OtfsFrameConfig(num_subcarriers=2, num_symbols=1)

# Every dense builder, each asked for a 2x2 result.
DENSE_SITES = {
    "kron": lambda: kron(np.eye(2), np.eye(1)),
    "dft_matrix": lambda: dft_matrix(2),
    "BlockDiagonalFactor.materialize": lambda: BlockDiagonalFactor(np.ones((2, 1, 1))).materialize(),
    "SelectionFactor.materialize": lambda: SelectionFactor([0, 1], 2).materialize(),
    "KronOperator.materialize": lambda: KronOperator([IdentityFactor(2)]).materialize(),
    "OperatorChain.materialize":
        lambda: OperatorChain([KronOperator([IdentityFactor(2)])]).materialize(),
    "assemble_h_matrix": lambda: assemble_h_matrix(LtvChannel(taps=np.ones((2, 1)))),
    "mimo_block_channel": lambda: mimo_block_channel(
        [[synthesize(ChannelModel.identity(), TINY)]], MimoConfig(TINY)),
    "transmit_basis": lambda: transmit_basis(TINY),
    "receive_basis": lambda: receive_basis(TINY),
    "otfs_block_mi": lambda: otfs_block_mi(
        [[synthesize(ChannelModel.identity(), TINY)]], WindowSpec.rectangular(), 1.0,
        MimoConfig(TINY)),
}


class TestOneCap:
    """Patching ``kronops.DENSE_ENTRY_CAP`` alone moves the cap of every site."""

    @pytest.mark.parametrize("site", DENSE_SITES)
    def test_library_site_reads_the_one_cap(self, site, monkeypatch):
        DENSE_SITES[site]()
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", 3)
        with pytest.raises(SizeCapError, match=r"2x2 entries \(cap 3\)"):
            DENSE_SITES[site]()

    def test_operator_chain_counts_its_widest_stage(self, monkeypatch):
        # A 1 x 1 product whose first stage applied to the 1 x 1 identity
        # gives a 4 x 1 array.
        chain = OperatorChain([KronOperator([DenseFactor(np.ones((1, 4)))]),
                               KronOperator([DenseFactor(np.ones((4, 1)))])])
        assert chain.materialize() == 4.0
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", 3)
        with pytest.raises(SizeCapError, match=r"4x1 entries \(cap 3\)"):
            chain.materialize()

    def test_cli_effective_channel_reads_the_one_cap(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"frame": {"M": 2, "N": 1}}))
        monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", 3)
        assert main(["effective-channel", "--config", str(path), "--out", str(tmp_path)]) == 4
        assert "2x2 entries (cap 3)" in capsys.readouterr().err


# Every input that must be finite, each given one NaN.
FINITE_SITES = {
    "DenseFactor": lambda bad: DenseFactor(np.array([[1.0, bad]])),
    "BlockDiagonalFactor": lambda bad: BlockDiagonalFactor(np.array([[[1.0, bad]]])),
    "DiagonalFactor": lambda bad: DiagonalFactor(np.array([bad, 1.0])),
    "LtvChannel": lambda bad: LtvChannel(taps=np.array([[1.0], [bad]])),
}


class TestNumericalGuards:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.inf)])
    def test_require_finite(self, bad):
        require_finite(np.array([0.0, 1e308, -1e-320]), "x")
        with pytest.raises(NonFiniteError, match="^row 3 contains non-finite entries$"):
            require_finite(np.array([1.0, bad]), "row 3")

    @pytest.mark.parametrize("site", FINITE_SITES)
    def test_every_input_site_uses_the_guard(self, site):
        FINITE_SITES[site](2.0)
        with pytest.raises(NonFiniteError):
            FINITE_SITES[site](np.nan)

    def test_require_within_passes_at_the_tolerance(self):
        require_within(1e-12, 1e-12, "unused {deviation} {tolerance}")
        require_within(0.0, 0.0, "unused")

    @pytest.mark.parametrize("deviation", [2e-12, np.inf, np.nan])
    def test_require_within_fails_above_and_on_nan(self, deviation):
        with pytest.raises(StructureError) as err:
            require_within(deviation, 1e-12, "gap {deviation:.1e} > {tolerance:.0e}")
        assert str(err.value) == f"gap {deviation:.1e} > 1e-12"
        assert err.value.deviation is deviation
