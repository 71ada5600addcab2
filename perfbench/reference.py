"""Correctness gate: checks each command's outputs against references that
the benchmark computes itself at the workload seed.

The capacity and frequency-domain references build the per-symbol channel
blocks straight from the tap table and take log-determinants with
``slogdet``. They share only the channel draws (``synthesize`` with
``trial_rng``) with the program, not its reduction, K or Cholesky code.
Values are compared, not bytes, at the library's own tolerances.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import List

import numpy as np

from otfsim import assemble_h_matrix, effective_matrix_general, synthesize, trial_rng
from otfsim.cli import parse_config

ROUTE_TOL = 1e-8        # bits, and bits/sample: capacity-route equality
SIMULATE_TOL = 1e-9     # chain vs H_eff @ data + noise
ENTRY_THRESHOLD = 1e-12  # effective-channel export threshold
# Two correct computations of one entry may differ by rounding; an entry
# this close to the threshold may land on either side of it.
ENTRY_SLACK = 1e-13


def tap_table_blocks(taps: np.ndarray, m: int, n: int, cp: int) -> np.ndarray:
    """(N, M, M) per-symbol channel blocks after CP insertion and removal:
    block_n[k, (k - l) mod M] = taps[n (M + cp) + cp + k, l], valid when
    the CP covers the channel memory."""
    blocks = np.zeros((n, m, m), dtype=np.complex128)
    k = np.arange(m)
    for sym in range(n):
        rows = sym * (m + cp) + cp + k
        for lag in range(taps.shape[1]):
            blocks[sym, k, (k - lag) % m] += taps[rows, lag]
    return blocks


def _idft(m: int) -> np.ndarray:
    idx = np.arange(m)
    return np.exp(2j * np.pi * np.outer(idx, idx) / m) / np.sqrt(m)


def capacity_reference(doc: dict) -> List[float]:
    """Ergodic capacity in bits/sample at each SNR point of a capacity
    config, from the per-symbol route."""
    cfg = parse_config(doc, mode="capacity")
    frame, mcfg = cfg.frame, cfg.mcfg
    m, n, cp = frame.num_subcarriers, frame.num_symbols, frame.cp_len
    n_t, n_r = mcfg.num_tx, mcfg.num_rx
    window = np.tile(cfg.tx_window.diagonal(frame).reshape(n, 1, m), (1, n_t, 1))
    modulator = np.kron(np.eye(n_t), _idft(m))[None] * window.reshape(n, 1, m * n_t)
    grams = []
    for trial in range(cfg.trials):
        stacked = np.zeros((n, m * n_r, m * n_t), dtype=np.complex128)
        for r in range(n_r):
            for t in range(n_t):
                ch = synthesize(cfg.channel_model, frame, rng=trial_rng(cfg.seed, trial, r, t))
                stacked[:, r * m:(r + 1) * m, t * m:(t + 1) * m] = tap_table_blocks(
                    ch.taps, m, n, cp)
        k = stacked @ modulator
        grams.append(k @ k.conj().transpose(0, 2, 1))
    grams = np.stack(grams)  # (trials, N, R, R)
    eye = np.eye(m * n_r)
    capacities = []
    for sigma2 in cfg.sigma2_list:
        _, logdet = np.linalg.slogdet(eye + grams / sigma2)
        bits = logdet.sum(axis=1) / np.log(2.0)
        capacities.append(float(np.mean(bits)) / frame.frame_len)
    return capacities


def _count_above(values: np.ndarray) -> tuple:
    mags = np.abs(values)
    return (int(np.count_nonzero(mags > ENTRY_THRESHOLD + ENTRY_SLACK)),
            int(np.count_nonzero(mags > ENTRY_THRESHOLD - ENTRY_SLACK)))


def effective_channel_reference(doc: dict) -> dict:
    """Bounds on the entry counts of the exported delay-Doppler and
    frequency-domain matrices of a SISO config."""
    cfg = parse_config(doc, mode="effective-channel")
    frame = cfg.frame
    m, n = frame.num_subcarriers, frame.num_symbols
    channel = synthesize(cfg.channel_model, frame, rng=trial_rng(cfg.seed, 0, 0, 0))
    dd = effective_matrix_general(
        assemble_h_matrix(channel), cfg.tx_window, cfg.rx_window, frame)
    fm = _idft(m).conj()
    freq_blocks = fm @ tap_table_blocks(channel.taps, m, n, frame.cp_len) @ fm.conj()
    rx = cfg.rx_window.diagonal(frame).reshape(n, m, 1)
    tx = cfg.tx_window.diagonal(frame).reshape(n, 1, m)
    return {"dd": _count_above(dd), "freq": _count_above(rx * freq_blocks * tx)}


def reference_for(commands, doc: dict) -> dict:
    """Everything the gate compares against, computed once per run."""
    ref = {}
    if "capacity" in commands:
        ref["capacity"] = capacity_reference(doc)
    if "effective-channel" in commands:
        ref["effective-channel"] = effective_channel_reference(doc)
    return ref


def _csv_rows(path: Path) -> List[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b"")) - 1


def check_outputs(command: str, out_dir: Path, ref: dict) -> List[str]:
    """Problems found in one command's outputs; empty when they are correct."""
    problems = []
    if command == "capacity":
        rows = [r for r in _csv_rows(out_dir / "results.csv") if r["record"] == "aggregate"]
        summary = json.loads((out_dir / "summary.json").read_text())["results"]
        expected = ref["capacity"]
        if len(rows) != len(expected) or len(summary) != len(expected):
            return [f"capacity: {len(rows)} csv rows, {len(summary)} summary rows, "
                    f"expected {len(expected)} SNR points"]
        for row, point, want in zip(rows, summary, expected):
            gap = abs(float(row["mi_otfs_bits"]) - float(row["mi_ofdm_sum_bits"]))
            if gap > ROUTE_TOL:
                problems.append(f"capacity: routes differ by {gap:.3e} bits at "
                                f"snr_db={row['snr_db']}")
            for key in ("capacity_otfs_bits_per_sample", "capacity_ofdm_bits_per_sample"):
                err = abs(point[key] - want)
                if err > ROUTE_TOL:
                    problems.append(f"capacity: {key} off the reference by {err:.3e} "
                                    f"at snr_db={point['snr_db']}")
    elif command == "verify":
        report = json.loads((out_dir / "report.json").read_text())
        if report["all_passed"] is not True:
            failed = [c["name"] for c in report["checks"] if not c["passed"]]
            problems.append(f"verify: checks failed: {failed}")
    elif command == "simulate":
        residual = json.loads((out_dir / "transcript.json").read_text())["residual_max_abs"]
        if not residual <= SIMULATE_TOL:
            problems.append(f"simulate: residual {residual:.3e} > {SIMULATE_TOL:.0e}")
    elif command == "effective-channel":
        meta = json.loads((out_dir / "meta.json").read_text())
        counts = {"dd": _count_lines(out_dir / "effective_dd.csv"),
                  "freq": _count_lines(out_dir / "effective_freq.csv")}
        if meta["entries_above_threshold"] != counts["dd"]:
            problems.append(f"effective-channel: meta counts {meta['entries_above_threshold']} "
                            f"entries, the csv has {counts['dd']}")
        for kind, count in counts.items():
            low, high = ref["effective-channel"][kind]
            if not low <= count <= high:
                problems.append(f"effective-channel: {kind} has {count} entries, "
                                f"reference {low}..{high}")
    else:
        raise ValueError(f"no output check for command {command!r}")
    return problems
