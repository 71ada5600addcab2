"""CLI behavior: config validation, the four modes, determinism, exit codes."""

import csv
import io
import json

import numpy as np
import pytest

from otfsim.channel import CP_TOL, channel_from_json
from otfsim.cli import (
    CONFIG_SCHEMA,
    _fmt,
    _write_sparse_csv,
    config_hash,
    load_config_document,
    main,
    parse_config,
)
from otfsim.errors import ConfigError
from otfsim.kronops import dft_matrix, kron


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

    def test_overrides_change_hash(self):
        a = parse_config(dict(BASE), mode="capacity")
        b = parse_config(dict(BASE), mode="capacity", seed=99)
        assert a.hash != b.hash

    def test_hash_is_stable(self):
        doc = {"frame": {"M": 4, "N": 2}}
        assert config_hash(doc) == config_hash(json.loads(json.dumps(doc)))

    def test_schema_is_valid_jsonschema(self):
        import jsonschema
        jsonschema.Draft202012Validator.check_schema(CONFIG_SCHEMA)


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
}


@pytest.mark.parametrize("broken", BROKEN_CONFIGS)
@pytest.mark.parametrize("mode", ["capacity", "simulate", "verify", "effective-channel"])
def test_broken_config_exits_two(tmp_path, capsys, mode, broken):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BROKEN_CONFIGS[broken]).replace('"1e400"', "1e400"))
    assert main([mode, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


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


class TestEffectiveChannelMode:
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
