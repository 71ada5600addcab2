"""Discrete-time MIMO OFDM-based OTFS simulation toolkit.

Builds the vectorized end-to-end input-output relationship of an
OFDM-based OTFS transceiver over linear time-varying channels, and
estimates per-realization mutual information and Monte Carlo ergodic
capacity for both the OTFS block route and the per-OFDM-symbol route.
"""

from .capacity import (
    BlockMiResult,
    CapacityResult,
    capacity_sweep,
    ergodic_capacity,
    mutual_information,
    otfs_block_mi,
)
from .channel import (
    ChannelModel,
    LtvChannel,
    assemble_h_matrix,
    awgn,
    channel_from_json,
    channel_to_json,
    reduce_to_block_channel,
    synthesize,
    trial_rng,
)
from .errors import (
    ConfigError,
    DimensionError,
    NonFiniteError,
    OtfsimError,
    SizeCapError,
    StructureError,
)
from .kronops import (
    DENSE_ENTRY_CAP,
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
    unvec,
    vec,
)
from .mimo import (
    MimoChainResult,
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
from .transceiver import (
    CpMatrices,
    OtfsFrameConfig,
    TwoDConvResult,
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

__version__ = "0.1.0"
