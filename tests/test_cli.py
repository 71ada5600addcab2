"""CLI behavior: config validation, the four modes, determinism, exit codes."""

import contextlib
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otfsim
from otfsim import kronops
from otfsim.channel import CP_TOL, LtvChannel, channel_from_json, synthesize
from otfsim.cli import (
    _CSV_CHUNK_ENTRIES,
    _diagonal_matrix,
    _fmt,
    _write_sparse_csv,
    config_hash,
    load_config_document,
    main,
    parse_config,
)
from otfsim.errors import ConfigError, NonFiniteError
from otfsim.kronops import dft_matrix, kron
from otfsim.mimo import MimoConfig, dense_arrays
from otfsim.transceiver import OtfsFrameConfig


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


BASE = {
    "frame": {"M": 4, "N": 2, "M_cp": 2},
    "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
    "noise": {"sigma2": [0.5]},
    "run": {"trials": 3, "seed": 7},
}


class TestConfigParsing:
    def test_minimal_config_defaults(self):
        cfg = parse_config({"frame": {"M": 4, "N": 2}}, mode="capacity")
        assert cfg.frame.cp_len == 0
        assert cfg.mcfg.num_tx == 1 and cfg.mcfg.num_rx == 1
        assert cfg.channel_model.kind == "identity"
        assert cfg.sigma2_list == [1.0]
        assert cfg.tx_window.kind == "rectangular"

    def test_snr_to_sigma2(self):
        doc = dict(BASE, noise={"snr_db": [0.0, 10.0]})
        cfg = parse_config(doc, mode="capacity")
        assert cfg.sigma2_list == pytest.approx([1.0, 0.1])

    def test_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="schema"):
            parse_config({"frame": {"M": 4, "N": 2}, "bogus": 1}, mode="capacity")

    def test_rejects_both_noise_forms(self):
        doc = dict(BASE, noise={"snr_db": [1.0], "sigma2": [0.5]})
        with pytest.raises(ConfigError):
            parse_config(doc, mode="capacity")

    def test_rejects_short_cp_outside_verify(self):
        doc = dict(BASE, frame={"M": 4, "N": 2, "M_cp": 1})
        with pytest.raises(ConfigError, match="M_cp"):
            parse_config(doc, mode="capacity")
        parse_config(doc, mode="verify")  # allowed so the check can report it

    def test_rejects_window_length_mismatch(self):
        doc = dict(BASE, window={"tx": {"kind": "general", "taps": [1.0, 2.0]}})
        with pytest.raises(ConfigError, match="taps") as err:
            parse_config(doc, mode="capacity")
        assert "window.tx.taps has 2 entries" in str(err.value)

    def test_rejects_mode_mismatch(self):
        doc = dict(BASE, run={"mode": "simulate"})
        with pytest.raises(ConfigError, match="run.mode"):
            parse_config(doc, mode="capacity")

    def test_threads_not_part_of_identity(self):
        a = parse_config(dict(BASE), mode="capacity", threads=1)
        b = parse_config(dict(BASE), mode="capacity", threads=8)
        assert a.hash == b.hash
        assert b.threads == 8

    def test_threads_default_to_the_sweeps_choice(self):
        assert parse_config(dict(BASE), mode="capacity").threads is None
        assert parse_config(dict(BASE, run={"threads": 2}), mode="capacity").threads == 2

    def test_overrides_change_hash(self):
        a = parse_config(dict(BASE), mode="capacity")
        b = parse_config(dict(BASE), mode="capacity", seed=99)
        assert a.hash != b.hash

    def test_hash_is_stable(self):
        doc = {"frame": {"M": 4, "N": 2}}
        assert config_hash(doc) == config_hash(json.loads(json.dumps(doc)))


class TestCapacityMode:
    def test_identity_channel_capacity_column(self, tmp_path):
        doc = {
            "frame": {"M": 4, "N": 2, "M_cp": 0},
            "channel": {"kind": "identity"},
            "noise": {"sigma2": [1.0]},
            "run": {"trials": 1, "seed": 0},
        }
        path = write_config(tmp_path, doc)
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "results.csv")
        assert len(rows) == 1
        assert abs(float(rows[0]["capacity_bits_per_sample"]) - 1.0) <= 1e-9
        assert rows[0]["config_hash"]

    def test_sweep_monotone_and_row_invariant(self, tmp_path):
        doc = dict(BASE, noise={"snr_db": [0.0, 6.0, 12.0]},
                   run={"trials": 4, "seed": 3, "emit_trials": True})
        path = write_config(tmp_path, doc)
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "results.csv")
        aggregates = [r for r in rows if r["record"] == "aggregate"]
        caps = [float(r["capacity_bits_per_sample"]) for r in aggregates]
        assert caps == sorted(caps)
        for r in rows:
            gap = abs(float(r["mi_otfs_bits"]) - float(r["mi_ofdm_sum_bits"]))
            assert gap <= 1e-8
            assert r["config_hash"] == rows[0]["config_hash"]

    def test_byte_identical_reruns_and_threads(self, tmp_path):
        path = write_config(tmp_path, dict(BASE))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["capacity", "--config", path, "--out", str(out1)]) == 0
        assert main(["capacity", "--config", path, "--out", str(out2),
                     "--threads", "4"]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        assert (out1 / "summary.json").read_bytes() == (out2 / "summary.json").read_bytes()

    def test_reproduce_from_summary(self, tmp_path):
        path = write_config(tmp_path, dict(BASE))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["capacity", "--config", path, "--out", str(out1)]) == 0
        assert main(["capacity", "--config", str(out1 / "summary.json"),
                     "--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    def test_exported_channels_reproduce_capacity(self, tmp_path):
        # End-to-end oracle: rebuild the per-trial MI from the exported
        # channel JSONs with plain dense numpy only, then compare with the
        # per-trial CSV rows.
        doc = {
            "frame": {"M": 4, "N": 2, "M_cp": 2},
            "mimo": {"n_t": 2, "n_r": 2},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"sigma2": [0.5]},
            "run": {"trials": 10, "seed": 11, "emit_trials": True,
                    "export_channels": True},
        }
        path = write_config(tmp_path, doc)
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 0
        rows = [r for r in read_csv(tmp_path / "results.csv") if r["record"] == "trial"]
        m, n, cp, blen = 4, 2, 2, 6
        f_m = dft_matrix(m)
        add = np.zeros((blen, m)); add[:cp, m - cp:] = np.eye(cp); add[cp:, :] = np.eye(m)
        remove = np.eye(blen)[cp:, :]
        for trial, row in enumerate(rows):
            blocks = []
            for sym in range(n):
                big = np.zeros((m * 2, m * 2), dtype=complex)
                for r in range(2):
                    for t in range(2):
                        doc_ch = json.loads(
                            (tmp_path / "channels" / f"trial{trial:04d}_rx{r}_tx{t}.json")
                            .read_text())
                        taps = channel_from_json(doc_ch).taps
                        h = np.zeros((12, 12), dtype=complex)
                        for l in range(taps.shape[1]):
                            for i in range(l, 12):
                                h[i, i - l] = taps[i, l]
                        sub = h[sym * blen:(sym + 1) * blen, sym * blen:(sym + 1) * blen]
                        big[r * m:(r + 1) * m, t * m:(t + 1) * m] = remove @ sub @ add
                blocks.append(big)
            total = 0.0
            for blk in blocks:
                k_n = blk @ kron(np.eye(2), f_m.conj().T)
                gram = k_n @ k_n.conj().T + 0.5 * np.eye(m * 2)
                total += float(np.log2(np.real(np.linalg.det(gram) / 0.5 ** (m * 2))))
            assert abs(total - float(row["mi_ofdm_sum_bits"])) <= 1e-8

    def test_exported_channels_are_the_sweeps_own_draws(self, tmp_path, monkeypatch):
        # Five trials of a 2x2 frame are 20 antenna-pair draws; exporting them
        # draws none again. Every channel table is drawn through otfsim.mimo.
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return synthesize(*args, **kwargs)

        monkeypatch.setattr("otfsim.mimo.synthesize", counted)
        doc = dict(BASE, mimo={"n_t": 2, "n_r": 2},
                   run={"trials": 5, "seed": 7, "export_channels": True})
        path = write_config(tmp_path, doc)
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 0
        assert len(calls) == 20
        assert len(list((tmp_path / "channels").glob("trial*_rx*_tx*.json"))) == 20

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path, {"frame": {"M": 4}})
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 2
        # CLI overrides go through the same schema as the file.
        path = write_config(tmp_path, BASE)
        cases = [(mode, ["--seed", "-1"])
                 for mode in ("capacity", "verify", "simulate", "effective-channel")]
        cases += [("capacity", ["--threads", "0"]), ("capacity", ["--threads", "-2"]),
                  ("capacity", ["--trials", "0"])]
        capsys.readouterr()
        for mode, extra in cases:
            assert main([mode, "--config", path, "--out", str(tmp_path), *extra]) == 2, extra
            assert "schema violation" in capsys.readouterr().err, (mode, extra)

    # 4000 dB underflows to sigma2 = 0.0.
    @pytest.mark.parametrize("noise", [{"sigma2": [0.0, 1.0]}, {"snr_db": [4000]}])
    def test_zero_noise_variance_exits_two_before_any_draw(self, tmp_path, monkeypatch, capsys,
                                                           noise):
        def no_draw(*args, **kwargs):
            raise AssertionError("a channel was drawn")

        monkeypatch.setattr("otfsim.mimo.synthesize", no_draw)
        path = write_config(tmp_path, dict(BASE, noise=noise))
        out = tmp_path / "out"
        assert main(["capacity", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("config error: capacity mode needs strictly "
                                           "positive noise variances\n")
        assert not (out / "results.csv").exists()

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["capacity", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2


# 1e400 overflows to inf when the JSON is read; 10**400 is written out as
# an integer beyond the float range.
BROKEN_CONFIGS = {
    "cp-equals-M": dict(BASE, frame={"M": 4, "N": 2, "M_cp": 4}),
    "window-overflow": dict(BASE, window={"tx": {"kind": "general",
                                                 "taps": ["1e400"] + [1.0] * 7}}),
    "gain-overflow": dict(BASE, channel={"kind": "static-multipath", "gains": ["1e400"],
                                         "delays": [0]}),
    "snr-db-overflow": dict(BASE, noise={"snr_db": ["1e400"]}),
    "sigma2-overflow": dict(BASE, noise={"sigma2": ["1e400"]}),
    "snr-db-overflows-sigma2": dict(BASE, noise={"snr_db": [-4000.0]}),
    "boolean-gain": dict(BASE, channel={"kind": "static-multipath", "gains": [True],
                                        "delays": [0]}),
    "boolean-in-window-pair": dict(BASE, window={"tx": {"kind": "general",
                                                        "taps": [[1, False]] + [1.0] * 7}}),
    "huge-integer-gain": dict(BASE, channel={"kind": "static-multipath", "gains": [10**400],
                                             "delays": [0]}),
    "huge-integer-window": dict(BASE, window={"tx": {"kind": "general",
                                                     "taps": [10**400] + [1.0] * 7}}),
    "huge-integer-in-pair": dict(BASE, window={"tx": {"kind": "general",
                                                      "taps": [[1.0, 10**400]] + [1.0] * 7}}),
    "huge-integer-snr-db": dict(BASE, noise={"snr_db": [10**400]}),
    "huge-integer-sigma2": dict(BASE, noise={"sigma2": [10**400]}),
    "huge-integer-delay": dict(BASE, channel={"kind": "static-multipath", "gains": [1.0],
                                              "delays": [10**400]}),
    # verify runs short CPs on purpose, so only the frame length bounds L there.
    "huge-integer-channel-length": dict(BASE, channel={"kind": "doppler-paths", "L": 10**400,
                                                       "P": 2}),
    "channel-longer-than-frame": dict(BASE, channel={"kind": "doppler-paths", "L": 13, "P": 2}),
}


@pytest.mark.parametrize("broken", BROKEN_CONFIGS)
@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_broken_config_exits_two(tmp_path, capsys, mode, broken):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BROKEN_CONFIGS[broken]).replace('"1e400"', "1e400"))
    assert main([mode, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("mode", ["capacity", "simulate", "effective-channel"])
def test_short_cp_exits_two_outside_verify(tmp_path, capsys, mode):
    # M_cp=1 under a channel memory of L=4; verify runs it to report the
    # failed block-diagonality check instead.
    path = write_config(tmp_path, {"frame": {"M": 8, "N": 4, "M_cp": 1},
                                   "channel": {"kind": "doppler-paths", "L": 4, "P": 3,
                                               "nu_max": 0.05}})
    assert main([mode, "--config", path, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("config error: ") and "M_cp" in err[0]


class TestSimulateMode:
    def test_identity_no_noise_reconstructs(self, tmp_path, capsys):
        doc = {
            "frame": {"M": 8, "N": 4, "M_cp": 2},
            "channel": {"kind": "identity"},
            "noise": {"sigma2": [0.0]},
            "run": {"seed": 1},
        }
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        error_line = [ln for ln in out.splitlines() if "estimate - data" in ln][0]
        assert float(error_line.split("=")[-1]) <= 1e-10

    def test_zero_input_gives_zero_output(self, tmp_path):
        doc = {
            "frame": {"M": 4, "N": 2, "M_cp": 2},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"sigma2": [0.0]},
            "run": {"seed": 2},
        }
        data_path = tmp_path / "zeros.json"
        data_path.write_text(json.dumps([[0.0, 0.0]] * 8))
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--data", str(data_path)]) == 0
        transcript = json.loads((tmp_path / "transcript.json").read_text())
        est = np.array(transcript["stages"]["estimate"])
        assert np.max(np.abs(est)) == 0.0

    def test_random_mimo_residual_bounded(self, tmp_path):
        doc = {
            "frame": {"M": 8, "N": 4, "M_cp": 3},
            "mimo": {"n_t": 2, "n_r": 2},
            "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.05},
            "noise": {"sigma2": [0.1]},
            "run": {"seed": 3, "symbols": "qpsk"},
        }
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        transcript = json.loads((tmp_path / "transcript.json").read_text())
        assert transcript["residual_max_abs"] <= 1e-9

    def test_symbol_file_length_mismatch(self, tmp_path):
        doc = {
            "frame": {"M": 4, "N": 2, "M_cp": 0},
            "channel": {"kind": "identity"},
            "noise": {"sigma2": [0.0]},
            "run": {"seed": 0},
        }
        data_path = tmp_path / "short.json"
        data_path.write_text(json.dumps([1.0, 2.0]))
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--data", str(data_path)]) == 2

    @pytest.mark.parametrize("contents", [None, "[1, 2", '{"re": 1}', pytest.param(
        "[1" + "0" * 5000 + "]", id="integer-beyond-the-parser-digit-limit")])
    def test_bad_symbol_file_is_a_config_error(self, tmp_path, capsys, contents):
        data_path = tmp_path / "symbols.json"
        if contents is not None:
            data_path.write_text(contents)
        path = write_config(tmp_path, dict(BASE))
        assert main(["simulate", "--config", path, "--out", str(tmp_path),
                     "--data", str(data_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("n_t, n_r", [(2, 1), (1, 2)])
    def test_unequal_antenna_counts(self, tmp_path, capsys, n_t, n_r):
        doc = dict(BASE, mimo={"n_t": n_t, "n_r": n_r})
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path, "--out", str(tmp_path)]) == 0
        transcript = json.loads((tmp_path / "transcript.json").read_text())
        assert len(transcript["stages"]["estimate"]) == 8 * n_r
        assert transcript["residual_max_abs"] <= 1e-9
        assert "estimate - data" not in capsys.readouterr().out


class TestVerifyMode:
    def test_default_config_passes(self, tmp_path):
        path = write_config(tmp_path, dict(BASE))
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_passed"]
        names = {c["name"] for c in report["checks"]}
        assert {"kron-mixed-product", "dft-unitarity", "block-diagonality",
                "specialization-separable", "mi-additivity"} <= names

    def test_short_cp_negative_control(self, tmp_path):
        doc = dict(BASE, frame={"M": 4, "N": 2, "M_cp": 1})
        path = write_config(tmp_path, doc)
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 3
        report = json.loads((tmp_path / "report.json").read_text())
        by_name = {c["name"]: c for c in report["checks"]}
        assert not by_name["block-diagonality"]["passed"]
        assert by_name["block-diagonality"]["deviation"] > 1e-14
        assert by_name["capacity-route-equality"]["tolerance"] == CP_TOL

    def test_large_config_passes_in_budget(self, tmp_path):
        import time
        doc = {
            "frame": {"M": 64, "N": 16, "M_cp": 8},
            "channel": {"kind": "doppler-paths", "L": 6, "P": 4, "nu_max": 0.01},
            "noise": {"sigma2": [0.5]},
            "run": {"seed": 8},
        }
        path = write_config(tmp_path, doc)
        start = time.perf_counter()
        assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 0
        assert time.perf_counter() - start < 60.0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(2, 3), n_t=st.integers(1, 2), n_r=st.integers(1, 2))
def test_cp_one_sample_short(data, n, n_t, n_r):
    # M_cp = L-2 with a tap at delay L-1: the tap reaches one sample into the
    # previous symbol. verify reports the broken block structure; every other
    # mode refuses the config before it builds anything.
    m = data.draw(st.integers(2, 6), label="M")
    taps = data.draw(st.integers(2, m), label="L")
    doc = {"frame": {"M": m, "N": n, "M_cp": taps - 2}, "mimo": {"n_t": n_t, "n_r": n_r},
           "channel": {"kind": "static-multipath", "gains": [1.0, 0.5], "delays": [0, taps - 1]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        out = str(Path(tmp) / "out")
        for mode in ("capacity", "simulate", "effective-channel"):
            assert main([mode, "--config", path, "--out", out]) == 2
        assert main(["verify", "--config", path, "--out", out]) == 3
        report = json.loads((Path(tmp) / "out" / "report.json").read_text())
    failed = {check["name"] for check in report["checks"] if not check["passed"]}
    assert "block-diagonality" in failed


class TestEffectiveChannelMode:
    @pytest.mark.parametrize("size, dtype", [(5, np.float64), (5, np.complex128),
                                             (600, np.complex128)])
    def test_window_matrix_is_np_diag_bit_for_bit(self, size, dtype):
        # 600 entries make a 5.5 MiB matrix, advised against huge pages.
        rng = np.random.default_rng(size)
        diagonal = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        diagonal = diagonal if dtype is np.complex128 else diagonal.real
        matrix = _diagonal_matrix(diagonal)
        assert matrix.dtype == dtype and matrix.tobytes() == np.diag(diagonal).tobytes()

    def test_identity_rectangular_dumps_unit_diagonal(self, tmp_path):
        doc = {
            "frame": {"M": 4, "N": 2, "M_cp": 0},
            "channel": {"kind": "identity"},
            "noise": {"sigma2": [1.0]},
            "run": {"seed": 0},
        }
        path = write_config(tmp_path, doc)
        assert main(["effective-channel", "--config", path, "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "effective_dd.csv")
        assert len(rows) == 8
        for r in rows:
            assert r["row"] == r["col"]
            assert abs(float(r["re"]) - 1.0) <= 1e-12
            assert abs(float(r["im"])) <= 1e-12

    def test_time_invariant_block_structure(self, tmp_path):
        doc = {
            "frame": {"M": 4, "N": 3, "M_cp": 1},
            "channel": {"kind": "static-multipath", "gains": [1.0, 0.5], "delays": [0, 1]},
            "noise": {"sigma2": [1.0]},
            "run": {"seed": 0},
        }
        path = write_config(tmp_path, doc)
        assert main(["effective-channel", "--config", path, "--out", str(tmp_path)]) == 0
        for r in read_csv(tmp_path / "effective_dd.csv"):
            # Time-invariant channel: entries only inside diagonal M-blocks.
            assert int(r["row"]) // 4 == int(r["col"]) // 4

    def test_slow_fading_marks_two_d_circulant(self, tmp_path):
        doc = {
            "frame": {"M": 8, "N": 8, "M_cp": 2},
            "channel": {"kind": "block-invariant-doppler", "L": 3, "P": 2,
                        "nu_max": 0.01},
            "noise": {"sigma2": [1.0]},
            "run": {"seed": 4, "emit_frequency_domain": True},
        }
        path = write_config(tmp_path, doc)
        assert main(["effective-channel", "--config", path, "--out", str(tmp_path)]) == 0
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert meta["two_d_circulant"] is True
        assert meta["two_d_circulant_deviation"] <= 1e-9
        assert (tmp_path / "effective_freq.csv").exists()

    def test_frequency_domain_file_maps_to_dd_file(self, tmp_path):
        m, n = 4, 3
        rng = np.random.default_rng(12)

        def taper(size):
            return [[float(v), float(w)] for v, w in 1.0 + 0.3 * rng.standard_normal((size, 2))]

        doc = {
            "frame": {"M": m, "N": n, "M_cp": 2},
            "window": {"tx": {"kind": "general", "taps": taper(m * n)},
                       "rx": {"kind": "separable", "time": taper(n), "freq": taper(m)}},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"sigma2": [1.0]},
            "run": {"seed": 6, "emit_frequency_domain": True},
        }
        path = write_config(tmp_path, doc)
        assert main(["effective-channel", "--config", path, "--out", str(tmp_path)]) == 0

        def read_matrix(name):
            rows = read_csv(tmp_path / name)
            index = [(int(r["row"]), int(r["col"])) for r in rows]
            assert index == sorted(index)  # row-major order
            matrix = np.zeros((m * n, m * n), dtype=complex)
            for (i, j), r in zip(index, rows):
                matrix[i, j] = complex(float(r["re"]), float(r["im"]))
            return matrix

        dd = read_matrix("effective_dd.csv")
        freq = read_matrix("effective_freq.csv")
        fm, fn = dft_matrix(m), dft_matrix(n)
        expected = kron(fn, fm.conj().T) @ freq @ kron(fn.conj().T, fm)
        assert np.max(np.abs(dd - expected)) <= 1e-10

    def test_size_cap_exit_code(self, tmp_path):
        doc = {
            "frame": {"M": 4096, "N": 4096, "M_cp": 0},
            "channel": {"kind": "identity"},
            "noise": {"sigma2": [1.0]},
            "run": {"seed": 0},
        }
        path = write_config(tmp_path, doc)
        assert main(["effective-channel", "--config", path, "--out", str(tmp_path)]) == 4


THRESHOLD = 1e-12  # the effective-channel export's threshold
TINY = 5e-324
HUGE = 1.7976931348623157e308
SPECIAL_PARTS = [0.0, -0.0, TINY, -TINY, HUGE, -HUGE, 1.0, -2.5e17, 1e17,
                 THRESHOLD, -THRESHOLD, np.nextafter(THRESHOLD, 1.0), THRESHOLD / 2]
BELOW_THRESHOLD = [0.0, -0.0, TINY, complex(-0.0, THRESHOLD), THRESHOLD / 2 - 1e-13j]


def _per_line_csv(matrix, threshold):
    """The sparse CSV written one f-string per entry: the writer's reference."""
    lines = ["row,col,re,im\n"]
    for i, row in enumerate(matrix):
        cols = np.flatnonzero(np.abs(row) > threshold)
        values = row[cols]
        lines.extend(f"{i},{j},{re:.17g},{im:.17g}\n" for j, re, im in zip(
            cols.tolist(), values.real.tolist(), values.imag.tolist()))
    return "".join(lines).encode(), len(lines) - 1


@st.composite
def sparse_matrices(draw):
    """A complex matrix filled from a drawn palette of parts: the extremes,
    -0.0, integral values and the threshold's neighbourhood among them. The
    shapes cover 1x1, 1xn, nx1 and a matrix of several writer chunks; some
    rows hold only entries at or below the threshold."""
    size = st.integers(2, 12)
    rows, cols = draw(st.one_of(
        st.just((1, 1)), st.tuples(st.just(1), size), st.tuples(size, st.just(1)),
        st.tuples(size, size),
        st.tuples(st.integers(33, 40), st.just(_CSV_CHUNK_ENTRIES // 16))))
    part = st.one_of(st.sampled_from(SPECIAL_PARTS),
                     st.floats(allow_nan=False, allow_infinity=False))
    palette = np.array([complex(draw(part), draw(part))
                        for _ in range(draw(st.integers(1, 8)))])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = palette[rng.integers(len(palette), size=(rows, cols))]
    quiet = draw(st.lists(st.integers(0, rows - 1), max_size=3))
    matrix[quiet] = np.array(BELOW_THRESHOLD)[rng.integers(len(BELOW_THRESHOLD),
                                                           size=(len(quiet), cols))]
    return np.asfortranarray(matrix) if draw(st.booleans()) else matrix


class TestSparseCsv:
    def test_bytes_match_csv_writer_with_fmt(self, tmp_path):
        matrix = np.array([[complex(1 / 3, -0.0), 0.0, complex(-2.5e17, 1e-300)],
                           [complex(0.1, 0.0), 5e-13, -1.0]])
        count = _write_sparse_csv(tmp_path / "m.csv", matrix, 1e-12)
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(["row", "col", "re", "im"])
        kept = [(0, 0), (0, 2), (1, 0), (1, 2)]
        writer.writerows([str(i), str(j), _fmt(matrix[i, j].real), _fmt(matrix[i, j].imag)]
                         for i, j in kept)
        assert count == len(kept)
        assert (tmp_path / "m.csv").read_bytes() == expected.getvalue().encode()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
    @given(matrix=sparse_matrices())
    def test_bytes_match_the_per_line_writer(self, tmp_path, matrix):
        path = tmp_path / "m.csv"
        count = _write_sparse_csv(path, matrix, THRESHOLD)
        expected, expected_count = _per_line_csv(matrix, THRESHOLD)
        assert count == expected_count
        assert path.read_bytes() == expected

    def test_non_finite_row_writes_no_file(self, tmp_path):
        path = tmp_path / "m.csv"
        matrix = np.ones((70, _CSV_CHUNK_ENTRIES // 16), dtype=complex)  # five chunks
        matrix[37, 3] = complex(1.0, np.nan)
        matrix[52, 0] = np.inf
        with pytest.raises(NonFiniteError, match="m.csv row 37 "):
            _write_sparse_csv(path, matrix, THRESHOLD)
        assert not path.exists()
        matrix[37, 3] = matrix[52, 0] = 1.0
        assert _write_sparse_csv(path, matrix, THRESHOLD) == matrix.size

    @pytest.mark.parametrize("entries", [1, 17, 100, 1 << 20])
    def test_bytes_do_not_depend_on_the_chunk_size(self, tmp_path, monkeypatch, entries):
        # One row per chunk (below and at the column count), five rows, and
        # the whole matrix; parts at every scale besides the special ones.
        rng = np.random.default_rng(7)
        parts = np.concatenate([SPECIAL_PARTS, rng.standard_normal(40) * 10.0 ** rng.integers(
            -30, 30, 40)])
        matrix = rng.choice(parts, (23, 17)) + 1j * rng.choice(parts, (23, 17))
        monkeypatch.setattr("otfsim.cli._CSV_CHUNK_ENTRIES", entries)
        path = tmp_path / "m.csv"
        expected, expected_count = _per_line_csv(matrix, THRESHOLD)
        assert _write_sparse_csv(path, matrix, THRESHOLD) == expected_count
        assert path.read_bytes() == expected


class TestCapacitySizeCap:
    def test_oversized_frame_exits_before_allocating(self, tmp_path, monkeypatch):
        # SISO M=256, N=64, M_cp=8: the dense 16896 x 16896 frame channel
        # matrix would take 4.6 GB. Any zeros array above a million entries
        # fails the test instead of being allocated, so a regressed cap check
        # cannot exhaust memory.
        real_zeros = np.zeros

        def guarded_zeros(shape, *args, **kwargs):
            assert int(np.prod(shape)) <= 1_000_000, f"allocated {shape} before the cap check"
            return real_zeros(shape, *args, **kwargs)

        monkeypatch.setattr(np, "zeros", guarded_zeros)
        doc = {
            "frame": {"M": 256, "N": 64, "M_cp": 8},
            "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
            "noise": {"snr_db": [10.0]},
            "run": {"trials": 1, "seed": 0},
        }
        path = write_config(tmp_path, doc)
        assert main(["capacity", "--config", path, "--out", str(tmp_path)]) == 4


HUGE_DIMENSIONS = {"antennas": dict(BASE, mimo={"n_t": 10**400}),
                   "subcarriers": dict(BASE, frame={"M": 10**400, "N": 2, "M_cp": 2})}


@pytest.mark.parametrize("huge", HUGE_DIMENSIONS)
@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_huge_dimension_exits_four_before_any_draw(tmp_path, monkeypatch, capsys, mode, huge):
    def no_draw(self):
        raise AssertionError("a channel was drawn before the size check")

    monkeypatch.setattr(LtvChannel, "__post_init__", no_draw)
    path = write_config(tmp_path, HUGE_DIMENSIONS[huge])
    assert main([mode, "--config", path, "--out", str(tmp_path)]) == 4
    assert capsys.readouterr().err.startswith("size cap exceeded: ")


# A SISO frame whose 56 x 56 channel matrix H is the only one of verify's
# dense arrays over the cap: the run stops before its first channel.
VERIFY_PRECHECKS = {
    "siso-channel-matrix": (dict(BASE, frame={"M": 4, "N": 8, "M_cp": 3}), 2000,
                            "dense channel matrix would have 56x56 entries (cap 2000)"),
}


@pytest.mark.parametrize("case", VERIFY_PRECHECKS)
def test_verify_checks_every_dense_size_before_any_draw(tmp_path, monkeypatch, capsys, case):
    doc, cap, message = VERIFY_PRECHECKS[case]
    draws = []

    def no_draw(self):
        draws.append(self)
        raise AssertionError("a channel was drawn before the size check")

    monkeypatch.setattr(LtvChannel, "__post_init__", no_draw)
    monkeypatch.setattr(kronops, "DENSE_ENTRY_CAP", cap)
    path = write_config(tmp_path, doc)
    assert main(["verify", "--config", path, "--out", str(tmp_path)]) == 4
    assert draws == []
    assert message in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def assert_cap_is_exact(doc, mode):
    """The memory model's largest array for ``mode`` on ``doc`` binds: one entry
    under its size, the run exits 4 before any channel is drawn, naming it; at
    its size, the run exits 0, so no builder holds a larger array. Returns it."""
    cfg = parse_config(doc, mode)
    arrays = dense_arrays(mode, cfg.mcfg, cfg.channel_model.channel_length)
    sizes = [rows * cols for _, rows, cols in arrays]
    name, rows, cols = arrays[sizes.index(max(sizes))]
    with tempfile.TemporaryDirectory() as tmp:
        path = write_config(Path(tmp), doc)
        argv = [mode, "--config", path, "--out", str(Path(tmp) / "out")]
        draws = []

        def no_draw(self):
            draws.append(self)
            raise AssertionError("a channel was drawn before the size check")

        stderr = io.StringIO()
        with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stderr(stderr):
            patch.setattr(LtvChannel, "__post_init__", no_draw)
            patch.setattr(kronops, "DENSE_ENTRY_CAP", rows * cols - 1)
            assert main(argv) == 4
        assert draws == []
        assert stderr.getvalue() == (f"size cap exceeded: {name} would have {rows}x{cols} "
                                     f"entries (cap {rows * cols - 1})\n")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kronops, "DENSE_ENTRY_CAP", rows * cols)
            assert main(argv) == 0
    return name, rows, cols


# Four transmit antennas and one receive antenna on an M=4, N=2 frame: the
# effective matrix and K are 8 x 32, but K's row slab of B is 16 x 32. With
# two transmit antennas on an M=4, N=4 frame, verify's largest array is the
# 16 x 32 K of its chain check. One SISO symbol of M=4 with a 3-sample CP
# and a 4-tap channel: the 7 x 4 tap table outgrows the 4 x 4 K.
WIDE_TRANSMIT = dict(BASE, frame={"M": 4, "N": 2, "M_cp": 1}, mimo={"n_t": 4, "n_r": 1},
                     channel={"kind": "doppler-paths", "L": 2, "P": 2})
CAP_CASES = {
    "wide-transmit-simulate": ("simulate", WIDE_TRANSMIT, ("row slab of B", 16, 32)),
    "wide-transmit-effective-channel": ("effective-channel", WIDE_TRANSMIT,
                                        ("row slab of B", 16, 32)),
    "wide-transmit-verify": ("verify", dict(WIDE_TRANSMIT, frame={"M": 4, "N": 4, "M_cp": 1},
                                            mimo={"n_t": 2, "n_r": 1}),
                             ("whole-block K", 16, 32)),
    "one-symbol-tap-table": ("simulate", dict(BASE, frame={"M": 4, "N": 1, "M_cp": 3},
                                              channel={"kind": "doppler-paths", "L": 4, "P": 2}),
                             ("stacked tap tables", 7, 4)),
}


@pytest.mark.parametrize("case", CAP_CASES)
def test_cap_is_exact_at_fixed_geometries(case):
    mode, doc, binding = CAP_CASES[case]
    assert assert_cap_is_exact(doc, mode) == binding


@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), mode=st.sampled_from(["capacity", "simulate", "verify",
                                             "effective-channel"]),
       n=st.integers(1, 3), n_t=st.integers(1, 3), n_r=st.integers(1, 3),
       flags=st.fixed_dictionaries({"export_channels": st.booleans(),
                                    "emit_frequency_domain": st.booleans()}))
def test_cap_is_exact_on_random_geometries(data, mode, n, n_t, n_r, flags):
    m = data.draw(st.integers(1, 6), label="M")
    cp = data.draw(st.integers(0, m - 1), label="M_cp")
    taps = data.draw(st.integers(1, cp + 1), label="L")
    assert_cap_is_exact({"frame": {"M": m, "N": n, "M_cp": cp}, "mimo": {"n_t": n_t, "n_r": n_r},
                         "channel": {"kind": "doppler-paths", "L": taps, "P": 1, "nu_max": 0.05},
                         "noise": {"sigma2": [0.5]}, "run": flags}, mode)


def test_model_admits_every_array_under_the_cap():
    # simulate at M=128, N=32, 4x1: K and the effective matrix, 4096 x 16384
    # (6.7e7 entries), are the largest arrays, under the 1e8 cap.
    mcfg = MimoConfig(OtfsFrameConfig(num_subcarriers=128, num_symbols=32, cp_len=4), 4, 1)
    arrays = dense_arrays("simulate", mcfg, 4)
    assert max(rows * cols for _, rows, cols in arrays) == 4096 * 16384


# One bad value for each rule of the config's shape; each exits 2 as a
# schema violation in every subcommand.
SCHEMA_VIOLATIONS = {
    "unknown-key": dict(BASE, bogus=1),
    "unknown-frame-key": dict(BASE, frame={"M": 4, "N": 2, "K": 1}),
    "unknown-window-key": dict(BASE, window={"tx": {"kind": "rectangular", "gain": [1]}}),
    "unknown-run-key": dict(BASE, run={"trails": 3}),
    "missing-frame": {"channel": {"kind": "identity"}},
    "missing-N": dict(BASE, frame={"M": 4}),
    "missing-window-kind": dict(BASE, window={"tx": {}}),
    "missing-channel-kind": dict(BASE, channel={"L": 3, "P": 2}),
    "window-kind": dict(BASE, window={"rx": {"kind": "hann"}}),
    "channel-kind": dict(BASE, channel={"kind": "rayleigh"}),
    "run-mode": dict(BASE, run={"mode": "train"}),
    "symbols": dict(BASE, run={"symbols": "bpsk"}),
    "boolean-M": dict(BASE, frame={"M": True, "N": 2}),
    "fractional-M": dict(BASE, frame={"M": 4.5, "N": 2}),
    "string-seed": dict(BASE, run={"seed": "1"}),
    "boolean-n_t": dict(BASE, mimo={"n_t": True}),
    "fractional-delay": dict(BASE, channel={"kind": "static-multipath", "gains": [1.0],
                                            "delays": [0.5]}),
    "infinite-L": dict(BASE, channel={"kind": "doppler-paths", "L": "1e400", "P": 2}),
    "M-below-minimum": dict(BASE, frame={"M": 0, "N": 2}),
    "M_cp-below-minimum": dict(BASE, frame={"M": 4, "N": 2, "M_cp": -1}),
    "n_r-below-minimum": dict(BASE, mimo={"n_r": 0}),
    "P-below-minimum": dict(BASE, channel={"kind": "doppler-paths", "L": 3, "P": 0}),
    "trials-below-minimum": dict(BASE, run={"trials": 0}),
    "threads-below-minimum": dict(BASE, run={"threads": 0.0}),
    "negative-delay": dict(BASE, channel={"kind": "static-multipath", "gains": [1.0],
                                          "delays": [-1]}),
    "negative-nu_max": dict(BASE, channel={"kind": "doppler-paths", "L": 3, "P": 2,
                                           "nu_max": -0.1}),
    "negative-sigma2": dict(BASE, noise={"sigma2": [-0.5]}),
    "string-snr_db": dict(BASE, noise={"snr_db": ["10"]}),
    "empty-taps": dict(BASE, window={"tx": {"kind": "general", "taps": []}}),
    "empty-unread-array": dict(BASE, window={"tx": {"kind": "rectangular", "time": []}}),
    "empty-gains": dict(BASE, channel={"kind": "static-multipath", "gains": [], "delays": [0]}),
    "empty-snr_db": dict(BASE, noise={"snr_db": []}),
    "non-array-time": dict(BASE, window={"tx": {"kind": "separable", "time": 1.0,
                                                "freq": [1.0] * 4}}),
    "non-boolean-flag": dict(BASE, run={"emit_trials": 1}),
    "both-noise-forms": dict(BASE, noise={"snr_db": [1.0], "sigma2": [0.5]}),
    "neither-noise-form": dict(BASE, noise={}),
    "null-mimo": dict(BASE, mimo=None),
    "null-window": dict(BASE, window={"tx": None}),
    "null-channel": dict(BASE, channel=None),
    "null-run": dict(BASE, run=None),
}


@pytest.mark.parametrize("rule", SCHEMA_VIOLATIONS)
@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_schema_violation_exits_two(tmp_path, capsys, mode, rule):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SCHEMA_VIOLATIONS[rule]).replace('"1e400"', "1e400"))
    assert main([mode, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: config schema violation at ")


# The keys that only some kinds need, each left out once.
KIND_KEYS = {
    "freq": dict(BASE, window={"tx": {"kind": "separable", "time": [1.0, 1.0]}}),
    "taps": dict(BASE, window={"rx": {"kind": "general"}}),
    "delays": dict(BASE, channel={"kind": "static-multipath", "gains": [1.0]}),
    "P": dict(BASE, channel={"kind": "block-invariant-doppler", "L": 3}),
}


@pytest.mark.parametrize("key", KIND_KEYS)
@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_key_the_kind_needs_exits_two(tmp_path, capsys, mode, key):
    path = write_config(tmp_path, KIND_KEYS[key])
    assert main([mode, "--config", path, "--out", str(tmp_path)]) == 2
    assert f"{key!r} is a required key" in capsys.readouterr().err


def _integral_floats(doc):
    return json.loads(json.dumps(doc), parse_int=float)


INTEGER_FIELDS = {"frame": {"M": 4, "N": 2, "M_cp": 2}, "mimo": {"n_t": 2, "n_r": 1},
                  "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
                  "noise": {"snr_db": [10]}, "run": {"trials": 2, "seed": 1, "threads": 2}}


def _outputs(out_dir):
    """Every output file, with the config and its hash left out."""
    files = {}
    for path in sorted(out_dir.rglob("*")):
        if path.suffix == ".json":
            doc = json.loads(path.read_text())
            files[path.name] = {k: v for k, v in doc.items() if k not in ("config", "config_hash")}
        elif path.suffix == ".csv":
            files[path.name] = [{k: v for k, v in row.items() if k != "config_hash"}
                                for row in read_csv(path)]
    return files


@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_integral_floats_run_like_integers(tmp_path, mode):
    floats = _integral_floats(INTEGER_FIELDS)
    assert floats["frame"]["M"] == 4.0 and isinstance(floats["frame"]["M"], float)
    for name, doc in (("int", INTEGER_FIELDS), ("float", floats)):
        path = write_config(tmp_path, doc, f"{name}.json")
        assert main([mode, "--config", path, "--out", str(tmp_path / name)]) == 0
    assert _outputs(tmp_path / "int") == _outputs(tmp_path / "float")
    cfg = parse_config(floats, mode=mode)
    assert type(cfg.frame.num_subcarriers) is int and type(cfg.trials) is int
    assert cfg.raw["frame"]["M"] == 4.0 and isinstance(cfg.raw["frame"]["M"], float)


@pytest.mark.parametrize("mode", ["simulate", "verify", "effective-channel"])
@pytest.mark.parametrize("flag", ["--trials", "--threads"])
def test_capacity_only_flags(tmp_path, mode, flag):
    path = write_config(tmp_path, dict(BASE))
    with pytest.raises(SystemExit) as err:
        main([mode, "--config", path, "--out", str(tmp_path), flag, "2"])
    assert err.value.code == 2


def exits_zero(code):
    """Whether ``code`` run by a new Python with the package on its path exits 0."""
    env = dict(os.environ, PYTHONPATH=str(Path(otfsim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("module", ["jsonschema", "multiprocessing", "otfsim._decimal"])
def test_cli_import_leaves_module_out(module):
    assert exits_zero(f"import sys, otfsim.cli; sys.exit({module!r} in sys.modules)")


@pytest.mark.parametrize("module", ["numpy", "otfsim._lapack"])
def test_package_import_leaves_module_out(module):
    assert exits_zero(f"import sys, otfsim; sys.exit({module!r} in sys.modules)")


# The names the package has exported since before its exports were lazy, by
# defining module.
EXPORTS = {
    "capacity": ["BlockMiResult", "CapacityResult", "capacity_sweep", "ergodic_capacity",
                 "mutual_information", "otfs_block_mi"],
    "channel": ["ChannelModel", "LtvChannel", "assemble_h_matrix", "awgn", "channel_from_json",
                "channel_to_json", "reduce_to_block_channel", "synthesize", "trial_rng"],
    "errors": ["ConfigError", "DimensionError", "NonFiniteError", "OtfsimError", "SizeCapError",
               "StructureError"],
    "kronops": ["DENSE_ENTRY_CAP", "BlockDiagonalFactor", "DenseFactor", "DftFactor",
                "DiagonalFactor", "IdentityFactor", "InverseDftFactor", "KronOperator",
                "OperatorChain", "SelectionFactor", "dft_matrix", "idft_matrix", "kron", "unvec",
                "vec"],
    "mimo": ["MimoChainResult", "MimoConfig", "channel_table", "mimo_block_channel", "mimo_chain",
             "mimo_effective_matrix", "mimo_isfft", "mimo_modulation_stages", "mimo_window",
             "mimo_window_diagonal", "stack_grids"],
    "transceiver": ["CpMatrices", "OtfsFrameConfig", "TwoDConvResult", "WindowSpec",
                    "apply_window", "convolve_2d_circular", "cp_matrices",
                    "dd_channel_as_2d_convolution", "effective_matrix_frequency_domain",
                    "effective_matrix_general", "effective_matrix_rectangular",
                    "effective_matrix_separable", "effective_operator_general", "isfft",
                    "ofdm_demodulate", "ofdm_modulate", "receive_basis", "sfft", "siso_chain",
                    "to_frequency_domain", "transmit_basis"],
}


def test_package_exports_each_name_from_its_module():
    names = [name for names in EXPORTS.values() for name in names]
    assert sorted(otfsim.__all__) == sorted([*names, "__version__"])
    for module, names in EXPORTS.items():
        for name in names:
            assert getattr(otfsim, name) is getattr(importlib.import_module(f"otfsim.{module}"),
                                                    name)
    assert set(otfsim.__all__) <= set(dir(otfsim))
    assert otfsim.__version__ == "0.1.0"


def test_package_import_reads_modules_as_attributes():
    assert exits_zero("import otfsim; otfsim.capacity.capacity_sweep; otfsim.kronops.kron")


class TestLoadConfigDocument:
    def test_plain_config(self, tmp_path):
        path = write_config(tmp_path, dict(BASE))
        assert load_config_document(path)["frame"]["M"] == 4

    def test_rejects_non_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            load_config_document(str(path))

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config_document(str(path))
