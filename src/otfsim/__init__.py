"""Discrete-time MIMO OFDM-based OTFS simulation toolkit.

Builds the vectorized end-to-end input-output relationship of an
OFDM-based OTFS transceiver over linear time-varying channels, and
estimates per-realization mutual information and Monte Carlo ergodic
capacity for both the OTFS block route and the per-OFDM-symbol route.

Each exported name is imported from its module when it is first read, so
importing the package loads no numpy and leaves the process's settings
alone; only :mod:`otfsim.cli` changes them (see :mod:`otfsim._process`).
"""

import importlib

# Each module and the names the package exports from it.
_MODULES = {
    "capacity": ("BlockMiResult", "CapacityResult", "capacity_sweep", "ergodic_capacity",
                 "mutual_information", "otfs_block_mi"),
    "channel": ("ChannelModel", "LtvChannel", "assemble_h_matrix", "awgn", "channel_from_json",
                "channel_to_json", "reduce_to_block_channel", "synthesize", "trial_rng"),
    "errors": ("ConfigError", "DimensionError", "NonFiniteError", "OtfsimError", "SizeCapError",
               "StructureError"),
    "kronops": ("DENSE_ENTRY_CAP", "BlockDiagonalFactor", "DenseFactor", "DftFactor",
                "DiagonalFactor", "IdentityFactor", "InverseDftFactor", "KronOperator",
                "OperatorChain", "SelectionFactor", "dft_matrix", "idft_matrix", "kron", "unvec",
                "vec"),
    "mimo": ("MimoChainResult", "MimoConfig", "channel_table", "mimo_block_channel", "mimo_chain",
             "mimo_effective_matrix", "mimo_isfft", "mimo_modulation_stages", "mimo_window",
             "mimo_window_diagonal", "stack_grids"),
    "transceiver": ("CpMatrices", "OtfsFrameConfig", "TwoDConvResult", "WindowSpec",
                    "apply_window", "convolve_2d_circular", "cp_matrices",
                    "dd_channel_as_2d_convolution", "effective_matrix_frequency_domain",
                    "effective_matrix_general", "effective_matrix_rectangular",
                    "effective_matrix_separable", "effective_operator_general", "isfft",
                    "ofdm_demodulate", "ofdm_modulate", "receive_basis", "sfft", "siso_chain",
                    "to_frequency_domain", "transmit_basis"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}

__version__ = "0.1.0"
__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    """An exported name, from its module, or one of those modules itself."""
    if name in _EXPORTS:
        return getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
