"""Benchmark workloads: the config each one hands to ``otfsim`` and the
commands it runs on that config.

Every config is built from the benchmark seed alone. The seed becomes
``run.seed`` (channel draws, data and noise) and, for reference-export,
also draws the window taps. The program sees only the config file, and
every command runs with the CLI's default ``--threads 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

# The library's seed must be a non-negative integer.
_SEED_RANGE = 2 ** 63


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Tuple[str, ...]
    make_config: Callable[[int], dict]
    # (trial, SNR point) pairs per command sequence whose MI the program
    # computes by both routes and checks against each other.
    mi_pairs: Callable[[dict], int]


def capacity_config(seed: int, m: int, n: int, cp: int, snr_db, trials: int,
                    n_t: int = 2, n_r: int = 2) -> dict:
    """2x2 doppler-paths capacity sweep with rectangular windows."""
    return {
        "frame": {"M": m, "N": n, "M_cp": cp},
        "mimo": {"n_t": n_t, "n_r": n_r},
        "window": {"tx": {"kind": "rectangular"}, "rx": {"kind": "rectangular"}},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
        "noise": {"snr_db": list(snr_db)},
        "run": {"trials": trials, "seed": seed % _SEED_RANGE},
    }


def _taper(rng: np.random.Generator, size: int) -> list:
    values = 1.0 + 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
    return [[float(v.real), float(v.imag)] for v in values]


def reference_export_config(seed: int, m: int, n: int, cp: int,
                            taps: int = 6, paths: int = 4) -> dict:
    """SISO frame with a general transmit window and a separable receive
    window, so verify, simulate and effective-channel take their dense
    reference paths; the window values are drawn from the seed."""
    rng = np.random.default_rng(seed % _SEED_RANGE)
    return {
        "frame": {"M": m, "N": n, "M_cp": cp},
        "window": {
            "tx": {"kind": "general", "taps": _taper(rng, m * n)},
            "rx": {"kind": "separable", "time": _taper(rng, n), "freq": _taper(rng, m)},
        },
        "channel": {"kind": "doppler-paths", "L": taps, "P": paths, "nu_max": 0.05},
        "noise": {"snr_db": [10.0]},
        "run": {"seed": seed % _SEED_RANGE, "emit_frequency_domain": True},
    }


def _sweep_pairs(doc: dict) -> int:
    return doc["run"]["trials"] * len(doc["noise"]["snr_db"])


def _verify_pairs(doc: dict) -> int:
    # verify's mi-additivity check draws one realization and its
    # capacity-route-equality check three trials, each at one SNR point.
    return 1 + 3


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-sweep",
            commands=("capacity",),
            make_config=lambda seed: capacity_config(
                seed, m=16, n=8, cp=4, snr_db=(0, 5, 10, 15, 20), trials=100),
            mi_pairs=_sweep_pairs,
        ),
        Workload(
            name="large-frame",
            commands=("capacity",),
            make_config=lambda seed: capacity_config(
                seed, m=64, n=16, cp=4, snr_db=(10,), trials=2),
            mi_pairs=_sweep_pairs,
        ),
        Workload(
            name="reference-export",
            commands=("verify", "simulate", "effective-channel"),
            make_config=lambda seed: reference_export_config(seed, m=64, n=16, cp=8),
            mi_pairs=_verify_pairs,
        ),
    )
}
