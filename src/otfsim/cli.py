"""Command-line front end: experiment configs, execution, result export.

Config files are JSON, checked in one pass by :func:`parse_config`. All
outputs are deterministic for a given effective config (file config plus CLI
overrides): floats are printed with 17 significant digits, rows follow a
fixed order, aggregation order never depends on the thread count and every
log-det factors with BLAS on one thread, so identical runs produce
byte-identical files.

Exit codes: 0 success, otherwise the ``exit_code`` that the package error
ending the run carries (see :mod:`otfsim.errors`): 2 config error,
3 invariant/structural failure, a non-finite number or a log-det that
double precision cannot resolve, 4 dense-size cap exceeded; a run that
runs out of memory also exits 4.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ._lapack import lazy_zeros
from .capacity import CapacityResult, TrialPlan
from .channel import ChannelModel, awgn, channel_to_json, require_cp_covers, trial_rng
from .checks import VerifyContext, run_invariant_checks
from .errors import ConfigError, DimensionError, OtfsimError, SizeCapError
from .kronops import BlockDiagonalFactor, require_finite, require_within, vec
from .mimo import (MimoConfig, channel_table, dense_arrays, mimo_block_channel, mimo_chain,
                   mimo_effective_matrix, stack_grids)
from .transceiver import (
    OtfsFrameConfig,
    WindowSpec,
    dd_channel_as_2d_convolution,
    to_frequency_domain,
)

_MODES = ("capacity", "simulate", "verify", "effective-channel")
# Each window and channel kind with the keys it needs besides "kind".
_WINDOW_KINDS = {"rectangular": (), "separable": ("time", "freq"), "general": ("taps",)}
_CHANNEL_KINDS = {"identity": (), "static-multipath": ("gains", "delays"),
                  "doppler-paths": ("L", "P"), "block-invariant-doppler": ("L", "P")}
_RUN_FLAGS = ("emit_trials", "export_channels", "emit_frequency_domain")


def _fmt(x: float) -> str:
    """Round-trip-exact float formatting for CSV cells."""
    return f"{float(x):.17g}"


def _is_finite_number(x) -> bool:
    """A JSON number in the float range: not a boolean, a NaN, an infinity or an
    integer beyond the float range."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _violation(path: str, message: str) -> ConfigError:
    return ConfigError(f"config schema violation at {path or '<root>'}: {message}")


def _object(value, path: str, keys: Sequence[str], required: Sequence[str] = ()) -> dict:
    """``value`` as a JSON object whose keys are among ``keys`` and include
    every one of ``required``."""
    if not isinstance(value, dict):
        raise _violation(path, f"must be an object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise _violation(path, f"unknown key {key!r} (allowed: {', '.join(keys)})")
    for key in required:
        if key not in value:
            raise _violation(path, f"{key!r} is a required key")
    return value


def _number(value, path: str, minimum=None):
    """``value`` as a finite JSON number at or above ``minimum``."""
    if not _is_finite_number(value):
        raise _violation(path, f"{value!r} is not a finite number")
    if minimum is not None and value < minimum:
        raise _violation(path, f"{value!r} is less than the minimum of {minimum}")
    return value


def _integer(value, path: str, minimum: int) -> int:
    """``value`` as an int at or above ``minimum``, of any size. An integral
    float such as 16.0 counts, as in JSON, and becomes an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise _violation(path, f"{value!r} is not an integer")
    if value < minimum:
        raise _violation(path, f"{value!r} is less than the minimum of {minimum}")
    return value


def _choice(value, path: str, choices: Collection):
    """``value`` if it is one of ``choices`` and of the same type, so 1 is not true."""
    if not any(type(value) is type(choice) and value == choice for choice in choices):
        raise _violation(path, f"{value!r} is not one of {', '.join(map(json.dumps, choices))}")
    return value


def _array(value, path: str) -> list:
    if not isinstance(value, list) or not value:
        raise _violation(path, "must be a non-empty array")
    return value


def _complex_list(values, what: str) -> np.ndarray:
    """A JSON array of finite numbers or of [re, im] pairs of them, as complex numbers."""
    out = []
    for v in values:
        parts = v if isinstance(v, list) and len(v) == 2 else [v, 0.0]
        if not all(map(_is_finite_number, parts)):
            raise ConfigError(
                f"{what}: entries must be finite numbers or [re, im] pairs of them, got {v!r}")
        out.append(complex(float(parts[0]), float(parts[1])))
    return np.asarray(out, dtype=np.complex128)


def _window_from_doc(doc, key: str, frame: OtfsFrameConfig) -> WindowSpec:
    """The window under config key ``key`` (``tx`` or ``rx``). Every array
    present is checked, whichever kind reads it."""
    path = f"window.{key}"
    keys = ("kind", "time", "freq", "taps")
    doc = _object(doc, path, keys, ("kind",))
    kind = _choice(doc["kind"], f"{path}.kind", _WINDOW_KINDS)
    for name in keys[1:]:
        if name in doc:
            _array(doc[name], f"{path}.{name}")
    _object(doc, path, keys, _WINDOW_KINDS[kind])  # the keys this kind needs
    if kind == "rectangular":
        return WindowSpec.rectangular()
    if kind == "separable":
        time = _complex_list(doc["time"], f"{path}.time")
        freq = _complex_list(doc["freq"], f"{path}.freq")
        if time.size != frame.num_symbols:
            raise ConfigError(f"{path}.time has {time.size} entries, need N={frame.num_symbols}")
        if freq.size != frame.num_subcarriers:
            raise ConfigError(
                f"{path}.freq has {freq.size} entries, need M={frame.num_subcarriers}")
        return WindowSpec.separable(time, freq)
    taps = _complex_list(doc["taps"], f"{path}.taps")
    if taps.size != frame.grid_size:
        raise ConfigError(f"{path}.taps has {taps.size} entries, need M*N={frame.grid_size}")
    return WindowSpec.general(taps)


def _channel_from_doc(doc, frame: OtfsFrameConfig) -> ChannelModel:
    """The channel model. Every key present is checked, whichever kind reads
    it, and the delays and the channel length are bounded by the frame
    before the model converts them to machine integers: a tap delayed by the
    frame length or more reaches before the frame start from every output
    sample."""
    keys = ("kind", "L", "P", "nu_max", "gains", "delays")
    doc = _object(doc, "channel", keys, ("kind",))
    kind = _choice(doc["kind"], "channel.kind", _CHANNEL_KINDS)
    sizes = {name: _integer(doc[name], f"channel.{name}", 1) for name in ("L", "P") if name in doc}
    max_doppler = _number(doc.get("nu_max", 0.0), "channel.nu_max", 0)
    gains = _array(doc.get("gains", [0.0]), "channel.gains")
    delays = [_integer(d, f"channel.delays.{i}", 0)
              for i, d in enumerate(_array(doc.get("delays", [0]), "channel.delays"))]
    _object(doc, "channel", keys, _CHANNEL_KINDS[kind])  # the keys this kind needs
    if kind == "identity":
        return ChannelModel.identity()
    if kind == "static-multipath":
        if max(delays) >= frame.num_subcarriers:
            raise ConfigError(
                f"largest delay {max(delays)} must be below M={frame.num_subcarriers}")
        return ChannelModel.static_multipath(_complex_list(gains, "channel.gains"), delays)
    if sizes["L"] > frame.frame_len:
        raise ConfigError(f"channel length L={sizes['L']} exceeds the frame length "
                          f"N*(M+M_cp)={frame.frame_len}")
    return ChannelModel.doppler_paths(
        num_taps=sizes["L"],
        num_paths=sizes["P"],
        max_doppler=max_doppler,
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
    threads: Optional[int]
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
    """Apply CLI overrides to a copy of a config document, check the copy
    in one pass, and build the runtime objects. Raises :class:`ConfigError`
    with an actionable message on any violation; a missing or unknown key,
    a wrong type, a choice outside its set, a value below its minimum or an
    empty array is a ``config schema violation at <dotted.path>``. Integer
    fields accept integral floats such as 16.0; the runtime objects get
    ints, while the hash and the embedded config keep what was written."""
    effective = json.loads(json.dumps(doc))  # deep copy via round trip
    _object(effective, "", ("frame", "mimo", "window", "channel", "noise", "run"), ("frame",))
    run = _object(effective.setdefault("run", {}), "run",
                  ("mode", "trials", "seed", "threads", "symbols") + _RUN_FLAGS)
    for key, value in (("trials", trials), ("seed", seed), ("threads", threads)):
        if value is not None:
            run[key] = value
    # Each count's default is its minimum, but for threads: without it the
    # sweep picks its own worker count.
    counts = {key: _integer(run[key], f"run.{key}", minimum) if key in run else default
              for key, minimum, default in (("trials", 1, 1), ("seed", 0, 0),
                                            ("threads", 1, None))}
    flags = {key: _choice(run.get(key, False), f"run.{key}", (False, True)) for key in _RUN_FLAGS}
    symbols = _choice(run.get("symbols", "gaussian"), "run.symbols", ("gaussian", "qpsk"))
    if "mode" in run:
        _choice(run["mode"], "run.mode", _MODES)
    # Threads affect wall time only, never results, so they are not part
    # of the experiment identity (hash or embedded config).
    run.pop("threads", None)

    frame_doc = _object(effective["frame"], "frame", ("M", "N", "M_cp"), ("M", "N"))
    try:
        frame = OtfsFrameConfig(_integer(frame_doc["M"], "frame.M", 1),
                                _integer(frame_doc["N"], "frame.N", 1),
                                _integer(frame_doc.get("M_cp", 0), "frame.M_cp", 0))
    except DimensionError as err:
        raise ConfigError(f"frame: {err}") from err
    mimo_doc = _object(effective.get("mimo", {}), "mimo", ("n_t", "n_r"))
    mcfg = MimoConfig(frame=frame, num_tx=_integer(mimo_doc.get("n_t", 1), "mimo.n_t", 1),
                      num_rx=_integer(mimo_doc.get("n_r", 1), "mimo.n_r", 1))

    window_doc = _object(effective.get("window", {}), "window", ("tx", "rx"))
    tx_window = _window_from_doc(window_doc.get("tx", {"kind": "rectangular"}), "tx", frame)
    rx_window = _window_from_doc(window_doc.get("rx", {"kind": "rectangular"}), "rx", frame)
    model = _channel_from_doc(effective.get("channel", {"kind": "identity"}), frame)

    noise_doc = _object(effective.get("noise", {"sigma2": [1.0]}), "noise", ("snr_db", "sigma2"))
    if len(noise_doc) != 1:
        raise _violation("noise", "needs exactly one of 'snr_db' and 'sigma2'")
    (key, values), = noise_doc.items()
    values = [float(_number(value, f"noise.{key}.{i}", 0 if key == "sigma2" else None))
              for i, value in enumerate(_array(values, f"noise.{key}"))]
    if key == "snr_db":
        snr_db_list = values
        try:
            sigma2_list = [10.0 ** (-s / 10.0) for s in snr_db_list]
        except OverflowError as err:
            raise ConfigError(f"noise.snr_db: {min(snr_db_list)} dB overflows sigma2") from err
    else:
        sigma2_list = values
        snr_db_list = [(-10.0 * np.log10(s)) if s > 0 else float("inf") for s in sigma2_list]
    # The checks across blocks come last, so a document with a violation in
    # some block reports that violation.
    if run.setdefault("mode", mode) != mode:
        raise ConfigError(
            f"config run.mode is {run['mode']!r} but the {mode!r} subcommand was invoked; "
            f"remove run.mode or use the matching subcommand")
    if mode != "verify":
        require_cp_covers(model, frame)
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
        trials=counts["trials"],
        seed=counts["seed"],
        threads=counts["threads"],
        symbols=symbols,
        hash=config_hash(effective),
        **flags,
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


# Matrix entries per chunk of the sparse-CSV writer: a chunk's lines and the
# formatter's arrays take a few MiB.
_CSV_CHUNK_ENTRIES = 1 << 14


def _csv_lines(first: int, rows: np.ndarray, threshold: float) -> Tuple[bytes, int]:
    """The sparse-CSV lines of ``rows``, numbered from ``first``, and their
    count. Each line is one column of a NUL-padded (width, lines) array,
    read out without its NULs; the floats are formatted as by :func:`_fmt`,
    which also formats each one that the vectorized formatter leaves."""
    from . import _decimal  # here, so that importing the CLI loads no formatter

    r, c = np.nonzero(np.abs(rows) > threshold)
    values = rows[r, c].astype(np.complex128, copy=False)
    floats = _decimal.g17_columns(values.view(np.float64), _fmt)  # re, im, re, im, ...
    fields = [_decimal.int_columns(r + first), _decimal.int_columns(c), floats[:, 0::2],
              floats[:, 1::2]]
    lines = np.empty((sum(len(f) for f in fields) + len(fields), len(r)), np.uint8)
    start = 0
    for field, separator in zip(fields, b",,,\n"):
        lines[start:start + len(field)] = field
        lines[start + len(field)] = separator
        start += len(field) + 1
    return lines.T.tobytes().translate(None, b"\0"), len(r)


def _write_sparse_csv(path: Path, matrix: np.ndarray, threshold: float) -> int:
    """Write the entries of ``matrix`` above ``threshold`` in magnitude as
    (row, col, re, im) lines in row-major order, floats formatted as by
    :func:`_fmt`; returns the entry count. Rows are formatted a chunk at a
    time, in the calling thread. A non-finite matrix raises
    :class:`NonFiniteError`, naming its first non-finite row, before the
    file is created, and a write that fails (out of memory, say) removes
    the file."""
    finite_rows = np.isfinite(matrix).all(axis=1)
    if not finite_rows.all():
        first = int(np.argmin(finite_rows))
        require_finite(matrix[first], f"{path.name} row {first}")
    step = max(1, _CSV_CHUNK_ENTRIES // max(1, matrix.shape[1]))
    count = 0
    try:
        with path.open("wb") as fh:
            fh.write(b"row,col,re,im\n")
            for first in range(0, len(matrix), step):
                text, n = _csv_lines(first, matrix[first:first + step], threshold)
                fh.write(text)
                count += n
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return count


def _complex_pairs(values: np.ndarray) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values).reshape(-1)]


def run_capacity(cfg: ExperimentConfig, out_dir: Path) -> int:
    """The trials of :func:`capacity.capacity_sweep`, through the same plan.
    With ``export_channels`` each draw writes its trial's channels as it is
    made, so no table is drawn twice or kept past its trial."""
    chan_dir = out_dir / "channels"
    if cfg.export_channels:
        chan_dir.mkdir(exist_ok=True)

    def draw(trial: int) -> list:
        table = channel_table(cfg.channel_model, cfg.mcfg, cfg.seed, trial)
        if cfg.export_channels:
            for r, row in enumerate(table):
                for t, ch in enumerate(row):
                    (chan_dir / f"trial{trial:04d}_rx{r}_tx{t}.json").write_text(
                        json.dumps(channel_to_json(ch), sort_keys=True))
        return table

    outcomes = TrialPlan(cfg.tx_window, cfg.mcfg, cfg.channel_model.channel_length).block_mis(
        draw, range(cfg.trials), cfg.sigma2_list, cfg.threads)
    results = [CapacityResult.of_trials(point, cfg.frame) for point in zip(*outcomes)]
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
    dense_arrays("simulate", mcfg, cfg.channel_model.channel_length)
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
    noise = [awgn(frame.frame_len, sigma2, np.random.default_rng(_noise_seed(cfg.seed, 91, r)))
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
    # Checked before the file is created, so a failed run writes no invalid JSON.
    # A non-finite estimate makes the residual NaN: a numerical failure.
    require_finite(chain.estimate, "chain estimate")
    for name, pairs in transcript["stages"].items():
        require_finite(np.asarray(pairs), f"{name} stage")
    require_finite(residual, "chain/effective-matrix residual")
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


def _diagonal_matrix(diagonal: np.ndarray) -> np.ndarray:
    """``np.diag(diagonal)``, the same array, from :func:`lazy_zeros`, so
    that only the pages of its diagonal become resident."""
    matrix = lazy_zeros((diagonal.size, diagonal.size), diagonal.dtype)
    np.fill_diagonal(matrix, diagonal)
    return matrix


def run_effective_channel(cfg: ExperimentConfig, out_dir: Path) -> int:
    threshold = 1e-12  # entries at or below this magnitude stay out of the CSVs
    mcfg = cfg.mcfg
    frame = cfg.frame
    dense_arrays("effective-channel", mcfg, cfg.channel_model.channel_length)
    channels = channel_table(cfg.channel_model, mcfg, cfg.seed, 0)
    effective = mimo_effective_matrix(channels, cfg.tx_window, cfg.rx_window, mcfg)
    count = _write_sparse_csv(out_dir / "effective_dd.csv", effective, threshold)
    meta = {"config_hash": cfg.hash, "shape": [mcfg.rx_vector_len, mcfg.tx_vector_len],
            "entries_above_threshold": count, "threshold": threshold}

    siso = mcfg.num_tx == 1 and mcfg.num_rx == 1
    if siso and cfg.tx_window.kind == "rectangular" and cfg.rx_window.kind == "rectangular":
        conv = dd_channel_as_2d_convolution(effective, frame)
        meta["two_d_circulant"] = bool(conv.is_circulant)
        meta["two_d_circulant_deviation"] = conv.max_deviation
    del effective  # read by nothing below, so freed before freq is built
    if siso and cfg.emit_frequency_domain:
        blocks = mimo_block_channel(channels, mcfg)
        freq = BlockDiagonalFactor(to_frequency_domain(blocks)).materialize()
        # Two statements, so each product's operand is freed before the next
        # product; the products and their order fix the CSV's last bits.
        freq = _diagonal_matrix(cfg.rx_window.diagonal(frame)) @ freq
        freq = freq @ _diagonal_matrix(cfg.tx_window.diagonal(frame))
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
    for mode in _MODES:
        p = sub.add_parser(mode)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory (created if missing)")
        p.add_argument("--seed", type=int, default=None, help="override run.seed")
        if mode == "capacity":  # the only mode that reads run.trials and run.threads
            p.add_argument("--trials", type=int, default=None, help="override run.trials")
            p.add_argument("--threads", type=int, default=None,
                           help="trials run at once (speed only, never changes results; "
                                "default: from the usable CPUs and the trial size)")
        if mode == "simulate":
            p.add_argument("--data", default=None,
                           help="JSON file of data symbols (numbers or [re, im] pairs)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = load_config_document(args.config)
        cfg = parse_config(doc, mode=args.mode, trials=getattr(args, "trials", None),
                           seed=args.seed, threads=getattr(args, "threads", None))
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # Every subcommand checks its results for non-finite values and
        # reports the first as one error line, which numpy's warnings would
        # only bury.
        with np.errstate(over="ignore", invalid="ignore"):
            if args.mode == "capacity":
                return run_capacity(cfg, out_dir)
            if args.mode == "verify":
                return run_verify(cfg, out_dir)
            if args.mode == "simulate":
                return run_simulate(cfg, out_dir, args.data)
            return run_effective_channel(cfg, out_dir)
    except OtfsimError as err:
        if err.exit_code is None:  # a bug, not a failure the CLI reports
            raise
        print(f"{err.label}: {err}", file=sys.stderr)
        return err.exit_code
    except MemoryError as err:  # a config under the dense cap can still outgrow the process
        print(f"out of memory: {err}", file=sys.stderr)
        return SizeCapError.exit_code


if __name__ == "__main__":
    sys.exit(main())
