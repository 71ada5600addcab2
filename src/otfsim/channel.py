"""Discrete-time linear time-varying channel synthesis and assembly.

A channel over one OTFS frame is the tap table ``taps[i, l]``: the gain
multiplying the input sample ``i - l`` in output sample ``i``. The frame
starts from a zero channel state, so taps reaching before sample 0
contribute nothing (no interference from a previous frame).

Random channels follow a fixed multipath model: path p has complex gain
g_p, integer delay l_p and normalized Doppler nu_p (cycles/sample), giving
``taps[i, l] = sum_p g_p * exp(2j*pi*nu_p*i) * [l == l_p]``. Gains are
CN(0, 1/P) so the average total path power is one, delays are drawn
without replacement and always include 0, and Doppler is uniform on
[-nu_max, nu_max]. The block-invariant variant freezes the Doppler phase
at the first sample of each OFDM symbol, which makes every per-symbol
channel matrix circulant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._lapack import lazy_zeros
from .errors import ConfigError, DimensionError
from .kronops import require_dense, require_finite, require_within
from .transceiver import OtfsFrameConfig, cp_matrices

# Largest off-block magnitude of a reduced channel; a long enough CP leaves 0.
CP_TOL = 1e-14


@dataclass(frozen=True)
class LtvChannel:
    """Tap table of one channel realization, shape (frame_len, length)."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.complex128)
        if taps.ndim != 2 or taps.shape[1] < 1:
            raise DimensionError("taps must be a (span, length) array with length >= 1")
        require_finite(taps, "channel tap table")
        object.__setattr__(self, "taps", taps)

    @property
    def span(self) -> int:
        return self.taps.shape[0]

    @property
    def length(self) -> int:
        return self.taps.shape[1]

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Noiseless channel output: out[i] = sum_l taps[i, l] * signal[i-l]."""
        signal = np.asarray(signal, dtype=np.complex128)
        if signal.shape != (self.span,):
            raise DimensionError(f"signal must have length {self.span}, got {signal.shape}")
        out = self.taps[:, 0] * signal
        for l in range(1, self.length):
            out[l:] += self.taps[l:, l] * signal[:-l]
        return out


@dataclass(frozen=True)
class ChannelModel:
    """Declarative channel description, realized by :func:`synthesize`.

    Kinds: ``identity`` (single unit tap), ``static-multipath`` (fixed
    gains/delays, time invariant), ``doppler-paths`` (random multipath
    with per-sample Doppler rotation), ``block-invariant-doppler`` (same,
    taps frozen over each OFDM symbol).
    """

    kind: str
    gains: Optional[np.ndarray] = None
    delays: Optional[np.ndarray] = None
    num_taps: int = 1
    num_paths: int = 1
    max_doppler: float = 0.0

    def __post_init__(self):
        if self.kind not in ("identity", "static-multipath", "doppler-paths",
                             "block-invariant-doppler"):
            raise ConfigError(f"unknown channel kind: {self.kind!r}")
        if self.kind == "static-multipath":
            if self.gains is None or self.delays is None:
                raise ConfigError("static-multipath needs gains and delays")
            gains = np.asarray(self.gains, dtype=np.complex128).reshape(-1)
            delays = np.asarray(self.delays, dtype=np.int64).reshape(-1)
            if gains.size != delays.size or gains.size == 0:
                raise ConfigError("gains and delays must be non-empty and equally long")
            if np.any(delays < 0):
                raise ConfigError("delays must be non-negative")
            if len(set(delays.tolist())) != delays.size:
                raise ConfigError("delays must be distinct")
            object.__setattr__(self, "gains", gains)
            object.__setattr__(self, "delays", delays)
            object.__setattr__(self, "num_taps", int(delays.max()) + 1)
        if self.kind in ("doppler-paths", "block-invariant-doppler"):
            if self.num_taps < 1:
                raise ConfigError("num_taps must be >= 1")
            if not 1 <= self.num_paths <= self.num_taps:
                raise ConfigError(
                    f"num_paths must be in [1, num_taps], got {self.num_paths} "
                    f"with num_taps={self.num_taps} (delays are distinct)"
                )
            if not 0.0 <= self.max_doppler < 0.5:
                raise ConfigError("max_doppler must satisfy 0 <= nu_max < 0.5")

    @classmethod
    def identity(cls) -> "ChannelModel":
        return cls(kind="identity")

    @classmethod
    def static_multipath(cls, gains, delays) -> "ChannelModel":
        return cls(kind="static-multipath", gains=gains, delays=delays)

    @classmethod
    def doppler_paths(cls, num_taps: int, num_paths: int, max_doppler: float,
                      block_invariant: bool = False) -> "ChannelModel":
        kind = "block-invariant-doppler" if block_invariant else "doppler-paths"
        return cls(kind=kind, num_taps=num_taps, num_paths=num_paths,
                   max_doppler=max_doppler)

    @property
    def channel_length(self) -> int:
        if self.kind == "identity":
            return 1
        return self.num_taps


def trial_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator: independent stream per (seed, key) pair,
    insensitive to draw order across workers."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


def require_cp_covers(model: ChannelModel, frame: OtfsFrameConfig) -> None:
    """Raise :class:`ConfigError` unless the CP absorbs the channel memory,
    M_cp >= L - 1: the per-symbol decoupling every downstream result relies on."""
    length = model.channel_length
    if length - 1 > frame.cp_len:
        raise ConfigError(
            f"channel length L={length} needs M_cp >= {length - 1} but M_cp={frame.cp_len}; "
            "lengthen the CP or shorten the channel")


def synthesize(
    model: ChannelModel,
    cfg: OtfsFrameConfig,
    rng: Optional[np.random.Generator] = None,
) -> LtvChannel:
    """Realize a channel over one frame, whatever its length;
    :func:`require_cp_covers` is the rule that the CP absorbs it."""
    length = model.channel_length
    span = cfg.frame_len
    require_dense(span, length, "channel tap table")
    taps = np.zeros((span, length), dtype=np.complex128)
    if model.kind == "identity":
        taps[:, 0] = 1.0
        return LtvChannel(taps=taps)
    if model.kind == "static-multipath":
        for gain, delay in zip(model.gains, model.delays):
            taps[:, delay] = gain
        return LtvChannel(taps=taps)

    if rng is None:
        raise ConfigError(f"channel kind {model.kind!r} needs a random generator")
    paths = model.num_paths
    gains = (rng.standard_normal(paths) + 1j * rng.standard_normal(paths)) * np.sqrt(0.5 / paths)
    if paths > 1:
        extra = rng.choice(np.arange(1, model.num_taps), size=paths - 1, replace=False)
        delays = np.concatenate([[0], extra])
    else:
        delays = np.array([0])
    dopplers = rng.uniform(-model.max_doppler, model.max_doppler, size=paths)
    time = np.arange(span, dtype=np.float64)
    if model.kind == "block-invariant-doppler":
        time = (time // cfg.symbol_len) * cfg.symbol_len
    for gain, delay, doppler in zip(gains, delays, dopplers):
        taps[:, delay] += gain * np.exp(2j * np.pi * doppler * time)
    return LtvChannel(taps=taps)


def assemble_h_matrix(channel: LtvChannel) -> np.ndarray:
    """Dense frame-length channel matrix: entry (i, i-l) is taps[i, l]. Only
    its band is written, so only the band's pages become resident."""
    span, length = channel.span, channel.length
    require_dense(span, span, "dense channel matrix")
    h = lazy_zeros((span, span))
    for l in range(length):
        idx = np.arange(l, span)
        h[idx, idx - l] = channel.taps[idx, l]
    return h


def require_block_diagonal(worst: float) -> None:
    """Raise :class:`StructureError` unless the largest off-block magnitude
    ``worst`` of a reduced channel is within ``CP_TOL``."""
    require_within(worst, CP_TOL, "reduced channel is not block diagonal (max off-block "
                   "magnitude {deviation:.3e} > {tolerance:.1e}); CP is shorter than the "
                   "channel memory")


def reduce_to_block_channel(
    h_matrix: np.ndarray,
    cfg: OtfsFrameConfig,
) -> np.ndarray:
    """(N, M, M) stack of the per-symbol blocks after CP removal and CP insertion.

    The dense reference: H's symbol-i columns times the CP insertion
    matrix, F x M for each symbol, are written into one (N, F, M) stack by
    dense products. The rows of symbol j's body in symbol i's product are
    block (j, i) of the reduced channel, which is never assembled: the stack
    is scanned for off-diagonal blocks, and residual energy in one means the
    CP was shorter than the channel memory and raises
    :class:`StructureError`. The diagonal blocks are returned.
    """
    h_matrix = np.asarray(h_matrix, dtype=np.complex128)
    span = cfg.frame_len
    if h_matrix.shape != (span, span):
        raise DimensionError(f"channel matrix must be {span}x{span}, got {h_matrix.shape}")
    m, n, blen = cfg.num_subcarriers, cfg.num_symbols, cfg.symbol_len
    add = cp_matrices(cfg).add
    stack = np.empty((n, span, m), dtype=np.complex128)
    for i in range(n):
        np.matmul(h_matrix[:, i * blen:(i + 1) * blen], add, out=stack[i])
    # blocks[i, j]: the rows of symbol j's body in symbol i's columns.
    blocks = stack.reshape(n, n, blen, m)[:, :, cfg.cp_len:]
    worst = [np.max(np.abs(part)) for i in range(n)
             for part in (blocks[i, :i], blocks[i, i + 1:]) if part.size]
    require_block_diagonal(float(np.max(worst)) if worst else 0.0)
    return blocks[np.arange(n), np.arange(n)]


def awgn(length: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    """Circularly symmetric complex Gaussian noise, i.i.d. with per-sample
    variance ``variance``, drawn from ``rng``; zero variance draws nothing."""
    if variance < 0:
        raise ConfigError(f"noise variance must be >= 0, got {variance}")
    if variance == 0.0:
        return np.zeros(length, dtype=np.complex128)
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal(length) + 1j * rng.standard_normal(length))


def channel_to_json(channel: LtvChannel) -> dict:
    """Wire format: {"L": taps, "T": span, "taps": [[re, im], ...]} with the
    tap list row-major (sample index outer, delay inner)."""
    flat = channel.taps.reshape(-1)
    return {
        "L": channel.length,
        "T": channel.span,
        "taps": [[float(c.real), float(c.imag)] for c in flat],
    }


def channel_from_json(doc: dict) -> LtvChannel:
    length = int(doc["L"])
    span = int(doc["T"])
    pairs = np.asarray(doc["taps"], dtype=np.float64)
    if pairs.shape != (span * length, 2):
        raise DimensionError(
            f"taps list has shape {pairs.shape}, need ({span * length}, 2) for L={length}, T={span}"
        )
    taps = (pairs[:, 0] + 1j * pairs[:, 1]).reshape(span, length)
    return LtvChannel(taps=taps)
