"""Command-line front end: experiment configs, execution, result export.

Config files are JSON validated against ``CONFIG_SCHEMA``. All outputs are
deterministic for a given effective config (file config plus CLI
overrides): floats are printed with 17 significant digits, rows follow a
fixed order, and aggregation order never depends on the thread count, so
identical runs produce byte-identical files.

Exit codes: 0 success, otherwise the ``exit_code`` that the package error
ending the run carries (see :mod:`otfsim.errors`): 2 config error,
3 invariant/structural failure, a non-finite number or a log-det that
double precision cannot resolve, 4 dense-size cap exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

import jsonschema
import numpy as np

from .capacity import CapacityResult, capacity_sweep
from .channel import ChannelModel, NoiseSpec, awgn, channel_to_json, trial_rng
from .checks import VerifyContext, run_invariant_checks
from .errors import ConfigError, DimensionError, OtfsimError
from .kronops import BlockDiagonalFactor, require_dense, require_finite, require_within, vec
from .mimo import (MimoConfig, channel_table, mimo_block_channel, mimo_chain,
                   mimo_effective_matrix, stack_grids)
from .transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    dd_channel_as_2d_convolution,
    to_frequency_domain,
)

_WINDOW_SCHEMA = {
    "type": "object",
    "required": ["kind"],
    "additionalProperties": False,
    "properties": {
        "kind": {"enum": ["rectangular", "separable", "general"]},
        "time": {"type": "array", "minItems": 1},
        "freq": {"type": "array", "minItems": 1},
        "taps": {"type": "array", "minItems": 1},
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "required": ["frame"],
    "additionalProperties": False,
    "properties": {
        "frame": {
            "type": "object",
            "required": ["M", "N"],
            "additionalProperties": False,
            "properties": {
                "M": {"type": "integer", "minimum": 1},
                "N": {"type": "integer", "minimum": 1},
                "M_cp": {"type": "integer", "minimum": 0},
            },
        },
        "mimo": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "n_t": {"type": "integer", "minimum": 1},
                "n_r": {"type": "integer", "minimum": 1},
            },
        },
        "window": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"tx": _WINDOW_SCHEMA, "rx": _WINDOW_SCHEMA},
        },
        "channel": {
            "type": "object",
            "required": ["kind"],
            "additionalProperties": False,
            "properties": {
                "kind": {"enum": ["identity", "static-multipath", "doppler-paths",
                                  "block-invariant-doppler"]},
                "L": {"type": "integer", "minimum": 1},
                "P": {"type": "integer", "minimum": 1},
                "nu_max": {"type": "number", "minimum": 0},
                "gains": {"type": "array", "minItems": 1},
                "delays": {"type": "array", "minItems": 1,
                           "items": {"type": "integer", "minimum": 0}},
            },
        },
        "noise": {
            "type": "object",
            "additionalProperties": False,
            "oneOf": [{"required": ["snr_db"]}, {"required": ["sigma2"]}],
            "properties": {
                "snr_db": {"type": "array", "minItems": 1, "items": {"type": "number"}},
                "sigma2": {"type": "array", "minItems": 1,
                           "items": {"type": "number", "minimum": 0}},
            },
        },
        "run": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "mode": {"enum": ["capacity", "simulate", "verify", "effective-channel"]},
                "trials": {"type": "integer", "minimum": 1},
                "seed": {"type": "integer", "minimum": 0},
                "threads": {"type": "integer", "minimum": 1},
                "emit_trials": {"type": "boolean"},
                "export_channels": {"type": "boolean"},
                "emit_frequency_domain": {"type": "boolean"},
                "symbols": {"enum": ["gaussian", "qpsk"]},
            },
        },
    },
}


def _fmt(x: float) -> str:
    """Round-trip-exact float formatting for CSV cells."""
    return f"{float(x):.17g}"


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _complex_list(values, what: str) -> np.ndarray:
    """Accept a JSON array of finite numbers or of [re, im] pairs of numbers;
    booleans are not numbers here, and an integer beyond the float range is
    not finite."""
    out = []
    for v in values:
        if _is_number(v):
            parts = (v, 0.0)
        elif isinstance(v, list) and len(v) == 2 and all(map(_is_number, v)):
            parts = v
        else:
            raise ConfigError(f"{what}: entries must be numbers or [re, im] pairs, got {v!r}")
        try:
            out.append(complex(float(parts[0]), float(parts[1])))
        except OverflowError:
            raise ConfigError(f"{what}: entries must be finite") from None
    out = np.asarray(out, dtype=np.complex128)
    if not np.all(np.isfinite(out)):
        raise ConfigError(f"{what}: entries must be finite")
    return out


def _window_from_doc(doc: Optional[dict], key: str, frame: OtfsFrameConfig) -> WindowSpec:
    """The window under config key ``key`` (``tx`` or ``rx``)."""
    role = "transmit" if key == "tx" else "receive"
    if doc is None:
        return WindowSpec.rectangular(role)
    kind = doc["kind"]
    if kind == "rectangular":
        return WindowSpec.rectangular(role)
    if kind == "separable":
        if "time" not in doc or "freq" not in doc:
            raise ConfigError(f"window.{key}: separable window needs 'time' and 'freq' arrays")
        time = _complex_list(doc["time"], f"window.{key}.time")
        freq = _complex_list(doc["freq"], f"window.{key}.freq")
        if time.size != frame.num_symbols:
            raise ConfigError(
                f"window.{key}.time has {time.size} entries, need N={frame.num_symbols}")
        if freq.size != frame.num_subcarriers:
            raise ConfigError(
                f"window.{key}.freq has {freq.size} entries, need M={frame.num_subcarriers}")
        return WindowSpec.separable(time, freq, role)
    if "taps" not in doc:
        raise ConfigError(f"window.{key}: general window needs a 'taps' array")
    taps = _complex_list(doc["taps"], f"window.{key}.taps")
    if taps.size != frame.grid_size:
        raise ConfigError(
            f"window.{key}.taps has {taps.size} entries, need M*N={frame.grid_size}")
    return WindowSpec.general(taps, role)


def _channel_from_doc(doc: Optional[dict]) -> ChannelModel:
    if doc is None:
        return ChannelModel.identity()
    kind = doc["kind"]
    if kind == "identity":
        return ChannelModel.identity()
    if kind == "static-multipath":
        if "gains" not in doc or "delays" not in doc:
            raise ConfigError("channel: static-multipath needs 'gains' and 'delays'")
        return ChannelModel.static_multipath(
            _complex_list(doc["gains"], "channel.gains"), doc["delays"])
    if "L" not in doc or "P" not in doc:
        raise ConfigError(f"channel: {kind} needs 'L' (taps) and 'P' (paths)")
    return ChannelModel.doppler_paths(
        num_taps=doc["L"],
        num_paths=doc["P"],
        max_doppler=doc.get("nu_max", 0.0),
        block_invariant=(kind == "block-invariant-doppler"),
    )


def config_hash(doc: dict) -> str:
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


@dataclass
class ExperimentConfig:
    raw: dict
    frame: OtfsFrameConfig
    mcfg: MimoConfig
    tx_window: WindowSpec
    rx_window: WindowSpec
    channel_model: ChannelModel
    sigma2_list: List[float]
    snr_db_list: List[float]
    trials: int
    seed: int
    threads: int
    emit_trials: bool
    export_channels: bool
    emit_frequency_domain: bool
    symbols: str
    hash: str


def _read_json(path: str, what: str):
    """Parse the JSON file ``path``; an unreadable or malformed file raises
    :class:`ConfigError` naming ``what`` it should have held."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err}") from err
    except ValueError as err:  # malformed JSON, bad encoding, an over-long integer
        raise ConfigError(f"{what} {path} is not valid JSON: {err}") from err


def load_config_document(path: str) -> dict:
    """Read a config JSON; a summary JSON with an embedded config is
    accepted transparently so results can be reproduced from outputs."""
    doc = _read_json(path, "config")
    if isinstance(doc, dict) and "config" in doc and "results" in doc:
        doc = doc["config"]
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return doc


def parse_config(
    doc: dict,
    mode: str,
    trials: Optional[int] = None,
    seed: Optional[int] = None,
    threads: Optional[int] = None,
) -> ExperimentConfig:
    """Apply CLI overrides to a copy of a config document, validate the
    copy, and build the runtime objects. Raises :class:`ConfigError` with
    an actionable message on any schema or cross-field violation."""
    effective = json.loads(json.dumps(doc))  # deep copy via round trip
    run = effective.setdefault("run", {})
    if isinstance(run, dict):  # any other run fails the schema below
        for key, value in (("trials", trials), ("seed", seed), ("threads", threads)):
            if value is not None:
                run[key] = value
    try:
        jsonschema.validate(effective, CONFIG_SCHEMA)
    except jsonschema.ValidationError as err:
        path = ".".join(str(p) for p in err.absolute_path) or "<root>"
        raise ConfigError(f"config schema violation at {path}: {err.message}") from err

    config_mode = run.get("mode")
    if config_mode is not None and config_mode != mode:
        raise ConfigError(
            f"config run.mode is {config_mode!r} but the {mode!r} subcommand was invoked; "
            f"remove run.mode or use the matching subcommand")
    run["mode"] = mode
    # Threads affect wall time only, never results, so they are not part
    # of the experiment identity (hash or embedded config).
    effective_threads = run.pop("threads", 1)

    frame_doc = effective["frame"]
    try:
        frame = OtfsFrameConfig(frame_doc["M"], frame_doc["N"], frame_doc.get("M_cp", 0))
    except DimensionError as err:
        raise ConfigError(f"frame: {err}") from err
    mimo_doc = effective.get("mimo", {})
    mcfg = MimoConfig(frame=frame, num_tx=mimo_doc.get("n_t", 1), num_rx=mimo_doc.get("n_r", 1))

    window_doc = effective.get("window", {})
    tx_window = _window_from_doc(window_doc.get("tx"), "tx", frame)
    rx_window = _window_from_doc(window_doc.get("rx"), "rx", frame)
    # Bound the delays before the model converts them to machine integers.
    channel_doc = effective.get("channel", {})
    if channel_doc.get("kind") == "static-multipath":
        largest = max(channel_doc.get("delays", [0]))
        if largest >= frame.num_subcarriers:
            raise ConfigError(f"largest delay {largest} must be below M={frame.num_subcarriers}")
    model = _channel_from_doc(effective.get("channel"))

    if mode != "verify" and model.channel_length - 1 > frame.cp_len:
        raise ConfigError(
            f"channel length L={model.channel_length} needs M_cp >= {model.channel_length - 1} "
            f"but M_cp={frame.cp_len}; lengthen the CP or shorten the channel")

    noise_doc = effective.get("noise", {"sigma2": [1.0]})
    if "snr_db" in noise_doc:
        snr_db_list = _complex_list(noise_doc["snr_db"], "noise.snr_db").real.tolist()
        try:
            sigma2_list = [10.0 ** (-s / 10.0) for s in snr_db_list]
        except OverflowError as err:
            raise ConfigError(f"noise.snr_db: {min(snr_db_list)} dB overflows sigma2") from err
    else:
        sigma2_list = _complex_list(noise_doc["sigma2"], "noise.sigma2").real.tolist()
        snr_db_list = [(-10.0 * np.log10(s)) if s > 0 else float("inf") for s in sigma2_list]
    if mode == "capacity" and any(s <= 0 for s in sigma2_list):
        raise ConfigError("capacity mode needs strictly positive noise variances")

    return ExperimentConfig(
        raw=effective,
        frame=frame,
        mcfg=mcfg,
        tx_window=tx_window,
        rx_window=rx_window,
        channel_model=model,
        sigma2_list=sigma2_list,
        snr_db_list=snr_db_list,
        trials=run.get("trials", 1),
        seed=run.get("seed", 0),
        threads=effective_threads,
        emit_trials=run.get("emit_trials", False),
        export_channels=run.get("export_channels", False),
        emit_frequency_domain=run.get("emit_frequency_domain", False),
        symbols=run.get("symbols", "gaussian"),
        hash=config_hash(effective),
    )


_CSV_HEADER = [
    "snr_db", "sigma2", "record", "trial", "mi_otfs_bits", "mi_ofdm_sum_bits",
    "capacity_bits_per_sample", "ci_halfwidth", "seed", "config_hash",
]


def _capacity_rows(cfg: ExperimentConfig, results: Sequence[CapacityResult]) -> List[List[str]]:
    rows = []
    frame = cfg.frame
    for snr_db, sigma2, res in zip(cfg.snr_db_list, cfg.sigma2_list, results):
        rows.append([
            _fmt(snr_db), _fmt(sigma2), "aggregate", "",
            _fmt(np.mean(res.per_trial_otfs_bits)),
            _fmt(np.mean(res.per_trial_ofdm_bits)),
            _fmt(res.capacity_otfs), _fmt(res.ci_halfwidth),
            str(cfg.seed), cfg.hash,
        ])
        if cfg.emit_trials:
            for trial in range(res.trials):
                rows.append([
                    _fmt(snr_db), _fmt(sigma2), "trial", str(trial),
                    _fmt(res.per_trial_otfs_bits[trial]),
                    _fmt(res.per_trial_ofdm_bits[trial]),
                    _fmt(res.per_trial_otfs_bits[trial] / frame.frame_len),
                    "",
                    str(cfg.seed), cfg.hash,
                ])
    return rows


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[str]]) -> None:
    with path.open("w") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_sparse_csv(path: Path, matrix: np.ndarray, threshold: float) -> int:
    """Write the entries of ``matrix`` above ``threshold`` in magnitude as
    (row, col, re, im) lines in row-major order, floats formatted as by
    :func:`_fmt`, one matrix row at a time; returns the entry count. A
    non-finite row raises :class:`NonFiniteError` before it is written."""
    count = 0
    with path.open("w") as fh:
        fh.write("row,col,re,im\n")
        for i, row in enumerate(matrix):
            require_finite(row, f"{path.name} row {i}")
            cols = np.flatnonzero(np.abs(row) > threshold)
            values = row[cols]
            fh.writelines(f"{i},{j},{re:.17g},{im:.17g}\n" for j, re, im in zip(
                cols.tolist(), values.real.tolist(), values.imag.tolist()))
            count += len(cols)
    return count


def _complex_pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).reshape(-1)]


def run_capacity(cfg: ExperimentConfig, out_dir: Path) -> int:
    results = capacity_sweep(
        cfg.sigma2_list, cfg.channel_model, cfg.tx_window, cfg.mcfg,
        trials=cfg.trials, seed=cfg.seed, threads=cfg.threads)
    rows = _capacity_rows(cfg, results)
    _write_csv(out_dir / "results.csv", _CSV_HEADER, rows)
    summary = {
        "config": cfg.raw,
        "config_hash": cfg.hash,
        "results": [
            {
                "snr_db": snr, "sigma2": sigma2,
                "capacity_otfs_bits_per_sample": res.capacity_otfs,
                "capacity_ofdm_bits_per_sample": res.capacity_ofdm,
                "ci_halfwidth": res.ci_halfwidth,
                "trials": res.trials,
            }
            for snr, sigma2, res in zip(cfg.snr_db_list, cfg.sigma2_list, results)
        ],
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    if cfg.export_channels:
        chan_dir = out_dir / "channels"
        chan_dir.mkdir(exist_ok=True)
        for trial in range(cfg.trials):
            table = channel_table(cfg.channel_model, cfg.mcfg, cfg.seed, trial)
            for r, row in enumerate(table):
                for t, ch in enumerate(row):
                    name = f"trial{trial:04d}_rx{r}_tx{t}.json"
                    (chan_dir / name).write_text(
                        json.dumps(channel_to_json(ch), sort_keys=True))
    for snr, res in zip(cfg.snr_db_list, results):
        print(f"snr_db={_fmt(snr)} capacity={_fmt(res.capacity_otfs)} "
              f"bits/sample (ci +/- {_fmt(res.ci_halfwidth)}, {res.trials} trials)")
    print(f"wrote {out_dir / 'results.csv'}")
    return 0


def _draw_symbols(cfg: ExperimentConfig, rng: np.random.Generator) -> np.ndarray:
    size = cfg.frame.grid_size * cfg.mcfg.num_tx
    if cfg.symbols == "qpsk":
        bits = rng.integers(0, 2, size=(size, 2))
        return ((2 * bits[:, 0] - 1) + 1j * (2 * bits[:, 1] - 1)) / np.sqrt(2)
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def _noise_seed(seed: int, *key: int) -> int:
    return int(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)).generate_state(1)[0])


def run_simulate(cfg: ExperimentConfig, out_dir: Path, data_path: Optional[str]) -> int:
    mcfg = cfg.mcfg
    frame = cfg.frame
    sigma2 = cfg.sigma2_list[0]
    channels = channel_table(cfg.channel_model, mcfg, cfg.seed, 0)
    if data_path is not None:
        entries = _read_json(data_path, "symbol file")
        if not isinstance(entries, list):
            raise ConfigError(f"symbol file {data_path} must be a JSON array")
        data = _complex_list(entries, "symbol file")
        if data.size != frame.grid_size * mcfg.num_tx:
            raise ConfigError(
                f"symbol file has {data.size} entries, need M*N*n_t = "
                f"{frame.grid_size * mcfg.num_tx}")
    else:
        data = _draw_symbols(cfg, trial_rng(cfg.seed, 90))
    grids = [
        data[t * frame.grid_size:(t + 1) * frame.grid_size].reshape(
            (frame.num_subcarriers, frame.num_symbols), order="F")
        for t in range(mcfg.num_tx)
    ]
    stacked = stack_grids(grids, mcfg)
    noise = [awgn(frame.frame_len, NoiseSpec(sigma2, seed=_noise_seed(cfg.seed, 91, r)))
             for r in range(mcfg.num_rx)]

    chain = mimo_chain(stacked, channels, cfg.tx_window, cfg.rx_window, mcfg, noise=noise)
    effective = mimo_effective_matrix(channels, cfg.tx_window, cfg.rx_window, mcfg)
    zero = np.zeros_like(stacked)
    noise_only = mimo_chain(zero, channels, cfg.tx_window, cfg.rx_window, mcfg, noise=noise)
    predicted = effective @ vec(stacked) + noise_only.estimate
    residual = float(np.max(np.abs(chain.estimate - predicted)))

    transcript = {
        "config": cfg.raw,
        "config_hash": cfg.hash,
        "sigma2": sigma2,
        "residual_max_abs": residual,
        "stages": {
            "data": _complex_pairs(vec(stacked)),
            "tf_signal": _complex_pairs(chain.tf_signal),
            "tx_windowed": _complex_pairs(chain.tx_windowed),
            "modulated": [_complex_pairs(s) for s in chain.modulated],
            "received": [_complex_pairs(r) for r in chain.received],
            "demodulated": _complex_pairs(chain.demodulated),
            "rx_windowed": _complex_pairs(chain.rx_windowed),
            "estimate": _complex_pairs(chain.estimate),
            "noise_through_receiver": _complex_pairs(noise_only.estimate),
        },
    }
    (out_dir / "transcript.json").write_text(json.dumps(transcript, sort_keys=True) + "\n")
    if mcfg.num_tx == mcfg.num_rx:  # otherwise estimate and data differ in length
        error = float(np.max(np.abs(chain.estimate - vec(stacked))))
        print(f"max |estimate - data| = {_fmt(error)}")
    print(f"max |estimate - (H_eff @ data + noise_hat)| = {_fmt(residual)}")
    print(f"wrote {out_dir / 'transcript.json'}")
    require_within(residual, 1e-9, "chain/effective-matrix residual {deviation:.3e} exceeds "
                   "{tolerance:.0e}")
    return 0


def run_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    ctx = VerifyContext(
        mcfg=cfg.mcfg,
        channel_model=cfg.channel_model,
        tx_window=cfg.tx_window,
        rx_window=cfg.rx_window,
        noise_var=cfg.sigma2_list[0] if cfg.sigma2_list[0] > 0 else 1.0,
        seed=cfg.seed,
    )
    results = run_invariant_checks(ctx)
    report = {
        "config": cfg.raw,
        "config_hash": cfg.hash,
        "checks": [r.as_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"[{status}] {r.name}: deviation {r.deviation:.3e} (tol {r.tolerance:.1e})"
        if r.detail:
            line += f" -- {r.detail}"
        print(line, file=sys.stdout if r.passed else sys.stderr)
    print(f"wrote {out_dir / 'report.json'}")
    return 0 if report["all_passed"] else 3


def run_effective_channel(cfg: ExperimentConfig, out_dir: Path) -> int:
    threshold = 1e-12  # entries at or below this magnitude stay out of the CSVs
    mcfg = cfg.mcfg
    frame = cfg.frame
    rows_out = frame.grid_size * mcfg.num_rx
    cols_out = frame.grid_size * mcfg.num_tx
    require_dense(rows_out, cols_out, "effective matrix")
    channels = channel_table(cfg.channel_model, mcfg, cfg.seed, 0)
    effective = mimo_effective_matrix(channels, cfg.tx_window, cfg.rx_window, mcfg)
    count = _write_sparse_csv(out_dir / "effective_dd.csv", effective, threshold)
    meta = {"config_hash": cfg.hash, "shape": [int(rows_out), int(cols_out)],
            "entries_above_threshold": count, "threshold": threshold}

    if mcfg.num_tx == 1 and mcfg.num_rx == 1:
        if cfg.tx_window.kind == "rectangular" and cfg.rx_window.kind == "rectangular":
            conv = dd_channel_as_2d_convolution(effective, frame)
            meta["two_d_circulant"] = bool(conv.is_circulant)
            meta["two_d_circulant_deviation"] = conv.max_deviation
        if cfg.emit_frequency_domain:
            blocks = mimo_block_channel(channels, mcfg)
            freq = BlockDiagonalFactor(to_frequency_domain(blocks)).materialize()
            freq = (np.diag(cfg.rx_window.diagonal(frame)) @ freq
                    @ np.diag(cfg.tx_window.diagonal(frame)))
            _write_sparse_csv(out_dir / "effective_freq.csv", freq, threshold)
            meta["frequency_domain_file"] = "effective_freq.csv"
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out_dir / 'effective_dd.csv'} ({count} entries above {threshold:g})")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otfsim",
        description="OFDM-based OTFS simulation: capacity, chain simulation, "
                    "invariant verification, effective-channel export",
    )
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode in ("capacity", "simulate", "verify", "effective-channel"):
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--trials", type=int, default=None, help="override run.trials")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (speed only, never changes results)")
        if mode == "simulate":
            p.add_argument("--data", default=None,
                           help="JSON file of data symbols (numbers or [re, im] pairs)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_config_document(args.config)
        cfg = parse_config(doc, mode=args.mode, trials=args.trials,
                           seed=args.seed, threads=args.threads)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.mode == "capacity":
            return run_capacity(cfg, out_dir)
        if args.mode == "simulate":
            return run_simulate(cfg, out_dir, args.data)
        if args.mode == "verify":
            return run_verify(cfg, out_dir)
        return run_effective_channel(cfg, out_dir)
    except OtfsimError as err:
        if err.exit_code is None:  # a bug, not a failure the CLI reports
            raise
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
