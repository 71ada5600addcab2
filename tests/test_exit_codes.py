"""Exit codes of ``otfsim.cli.main`` on numerically hostile configs.

A run exits 0 only when everything it wrote is finite; a NaN or an
overflow anywhere on the way, or a log-det that double precision cannot
resolve, exits 3, never 0 and never a traceback. A run that runs out of
memory exits 4 with one error line. ``verify`` still writes
its full report, as strict JSON, before it exits 3.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import otfsim._decimal
import otfsim.capacity
import otfsim.cli
from otfsim.cli import main

FRAME = {"M": 4, "N": 2, "M_cp": 2}
GENERAL_TAPS = [1e300] + [1.0] * 7

# Each config with the subcommands that reach its failure and a phrase of
# the message that names it.
EXIT_THREE_CONFIGS = {
    # The gains are finite, their sums are not.
    "huge-gains": ({"frame": FRAME,
                    "channel": {"kind": "static-multipath", "gains": [1e308, 1e308],
                                "delays": [0, 1]},
                    "run": {"emit_frequency_domain": True}},
                   {"capacity": "K K^H contains non-finite entries",
                    "verify": "non-finite",
                    "simulate": "chain estimate contains non-finite entries",
                    "effective-channel": "effective_dd.csv row 0"}),
    # K K^H / sigma2 overflows.
    "tiny-sigma2": ({"frame": FRAME,
                     "channel": {"kind": "doppler-paths", "L": 3, "P": 2},
                     "noise": {"sigma2": [1e-310]}},
                    {"capacity": "sigma2=1e-310", "verify": "sigma2=1e-310"}),
    # Every entry of the effective matrix is NaN.
    "nan-effective-matrix": ({"frame": FRAME,
                              "window": {"tx": {"kind": "general", "taps": GENERAL_TAPS},
                                         "rx": {"kind": "general", "taps": GENERAL_TAPS}},
                              "channel": {"kind": "static-multipath", "gains": [1e200, 1],
                                          "delays": [0, 1]}},
                             {"capacity": "K K^H", "verify": "K K^H",
                              "simulate": "chain estimate contains non-finite entries",
                              "effective-channel": "effective_dd.csv row 0"}),
    # 1x2 at 300 dB: I + K K^H / sigma2 is rank deficient up to rounding.
    "high-snr-rank-deficient": ({"frame": FRAME, "mimo": {"n_t": 1, "n_r": 2},
                                 "channel": {"kind": "doppler-paths", "L": 3, "P": 2},
                                 "noise": {"snr_db": [300.0]}},
                                {"capacity": "numerical failure", "verify": "numerical failure"}),
}

CASES = [(name, mode) for name, (_, modes) in EXIT_THREE_CONFIGS.items() for mode in modes]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name, mode", CASES)
def test_numerical_failure_exits_three(tmp_path, capsys, name, mode):
    doc, phrases = EXIT_THREE_CONFIGS[name]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([mode, "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert phrases[mode] in capsys.readouterr().err


@pytest.mark.parametrize("name", [name for name, (_, modes) in EXIT_THREE_CONFIGS.items()
                                  if "simulate" in modes])
def test_failing_simulate_writes_no_transcript(tmp_path, name):
    # The finiteness checks run before the transcript is created, as
    # effective-channel's run before its CSV is, so a failed run leaves no
    # file with the NaN tokens that strict JSON rejects.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EXIT_THREE_CONFIGS[name][0]))
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert not (tmp_path / "out" / "transcript.json").exists()


def _strict_json(path: Path):
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def _verify_report(tmp_path: Path, doc: dict):
    tmp_path.mkdir()
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")])
    return code, _strict_json(tmp_path / "out" / "report.json")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", [name for name, (_, modes) in EXIT_THREE_CONFIGS.items()
                                  if "verify" in modes])
def test_failing_verify_writes_its_full_report(tmp_path, name):
    code, passing = _verify_report(tmp_path / "pass", {"frame": FRAME})
    assert code == 0 and passing["all_passed"]
    code, report = _verify_report(tmp_path / "fail", EXIT_THREE_CONFIGS[name][0])
    assert code == 3
    assert report["all_passed"] is False
    assert [c["name"] for c in report["checks"]] == [c["name"] for c in passing["checks"]]
    assert len(report["checks"]) == 15


def test_failing_verify_prints_no_numpy_warnings(tmp_path):
    # The checks report a non-finite result as a failed entry, so numpy's
    # overflow and invalid-value warnings would only bury the report.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"frame": FRAME,
                                "channel": {"kind": "static-multipath",
                                            "gains": [1e308, 1e308], "delays": [0, 1]}}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


NAN_K = "numerical failure: K K^H contains non-finite entries"
TINY_SIGMA2 = ("numerical failure: I + K K^H / sigma2 at sigma2=1e-310 contains "
               "non-finite entries")
THREADED = ["--trials", "2", "--threads", "2"]


# The threaded capacity runs put their trials on worker threads, which must
# run in the caller's numpy error state.
@pytest.mark.parametrize("name, args, line", [
    ("huge-gains", ["simulate"], "numerical failure: chain estimate contains non-finite entries"),
    ("huge-gains", ["effective-channel"],
     "numerical failure: effective_dd.csv row 0 contains non-finite entries"),
    ("nan-effective-matrix", ["capacity"], NAN_K),
    ("nan-effective-matrix", ["capacity", *THREADED], NAN_K),
    ("tiny-sigma2", ["capacity"], TINY_SIGMA2),
    ("tiny-sigma2", ["capacity", *THREADED], TINY_SIGMA2),
], ids=["simulate", "effective-channel", "capacity-nan-k", "capacity-nan-k-threads",
        "capacity-tiny-sigma2", "capacity-tiny-sigma2-threads"])
def test_overflowing_run_prints_one_error_line(tmp_path, name, args, line):
    # A process, so that numpy's warnings would reach stderr as a user sees
    # them, past pytest's warning capture.
    path = tmp_path / "config.json"
    path.write_text(json.dumps(EXIT_THREE_CONFIGS[name][0]))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "otfsim.cli", *args, "--config", str(path),
                          "--out", str(tmp_path / "out")], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 3
    assert run.stderr.splitlines() == [line]


@pytest.mark.parametrize("args", [[], THREADED], ids=["serial", "threads"])
def test_out_of_memory_exits_four_with_one_line(tmp_path, capsys, monkeypatch, args):
    # A config under the dense cap can still need more memory than the
    # process may have. K's builder stands in for the allocation that fails,
    # in the caller's thread and on a worker thread.
    def out_of_memory(*args):
        raise MemoryError("Unable to allocate 4.00 GiB for an array")

    monkeypatch.setattr(otfsim.capacity, "whole_block_k", out_of_memory)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"frame": FRAME, "mimo": {"n_t": 2, "n_r": 2}}))
    assert main(["capacity", *args, "--config", str(path), "--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "out of memory: Unable to allocate 4.00 GiB for an array"]


def test_out_of_memory_while_writing_a_csv_exits_four_with_one_line(
        tmp_path, capsys, monkeypatch):
    # effective-channel writes its CSV a chunk of rows at a time, here one
    # row per chunk: the second chunk's formatting runs out of memory after
    # the first chunk is written, and the partial CSV is removed.
    chunks = []
    g17_columns = otfsim._decimal.g17_columns

    def out_of_memory(values, scalar):
        chunks.append(len(values))
        if len(chunks) == 2:
            raise MemoryError("Unable to allocate 1.00 GiB for an array")
        return g17_columns(values, scalar)

    monkeypatch.setattr(otfsim._decimal, "g17_columns", out_of_memory)
    monkeypatch.setattr(otfsim.cli, "_CSV_CHUNK_ENTRIES", 1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"frame": FRAME}))
    out = tmp_path / "out"
    assert main(["effective-channel", "--config", str(path), "--out", str(out)]) == 4
    assert len(chunks) == 2
    assert capsys.readouterr().err.splitlines() == [
        "out of memory: Unable to allocate 1.00 GiB for an array"]
    assert list(out.iterdir()) == []


MAGNITUDES = st.sampled_from([0.0, 1.0, 1e150, 1e300])


def _values(draw, size):
    """``size`` config numbers, each a real or an [re, im] pair."""
    mag = draw(MAGNITUDES)
    pair = draw(st.booleans())
    return [[mag, -mag] if pair else mag for _ in range(size)]


@st.composite
def config_documents(draw):
    """A tiny config whose sizes either all fit (``fits``) or may each be off
    by one: window lengths, the CP, the channel length and the delays. Each
    integer field is sometimes written as an integral float such as 2.0."""
    fits = draw(st.booleans())

    def size(right, low=1):
        return right if fits else draw(st.integers(max(right - 1, low), right + 1))

    def integer(value):
        return float(value) if draw(st.booleans()) else value

    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cp = draw(st.integers(0, size(m - 1, low=0)))
    doc = {"frame": {"M": integer(m), "N": integer(n), "M_cp": integer(cp)},
           "mimo": {"n_t": integer(draw(st.sampled_from([1, 2]))),
                    "n_r": integer(draw(st.sampled_from([1, 2])))},
           "window": {}}
    for role in ("tx", "rx"):
        kind = draw(st.sampled_from(["rectangular", "separable", "general"]))
        window = {"kind": kind}
        if kind == "separable":
            window["time"] = _values(draw, size(n))
            window["freq"] = _values(draw, size(m))
        elif kind == "general":
            window["taps"] = _values(draw, size(m * n))
        doc["window"][role] = window
    kind = draw(st.sampled_from(["identity", "static-multipath", "doppler-paths",
                                 "block-invariant-doppler"]))
    channel = {"kind": kind}
    longest = size(min(cp, m - 1) + 1)
    if kind == "static-multipath":
        delays = draw(st.lists(st.integers(0, longest - 1), min_size=1, max_size=3,
                               unique=fits))
        channel["delays"] = [integer(delay) for delay in delays]
        channel["gains"] = _values(draw, size(len(delays)))
    elif kind != "identity":
        taps = draw(st.integers(1, longest))
        channel["L"] = integer(taps)
        channel["P"] = integer(draw(st.integers(1, size(taps))))
        channel["nu_max"] = draw(st.sampled_from([0.0, 0.05]))
    doc["channel"] = channel
    if draw(st.booleans()):
        doc["noise"] = {"sigma2": [draw(st.sampled_from([0.0, 1e-310, 0.5, 1e300]))]}
    else:
        doc["noise"] = {"snr_db": [draw(st.sampled_from([-4000.0, 0.0, 3090.0]))]}
    doc["run"] = {"seed": integer(draw(st.integers(0, 3))),
                  "trials": integer(draw(st.integers(1, 2))),
                  "emit_trials": draw(st.booleans()), "export_channels": draw(st.booleans()),
                  "emit_frequency_domain": draw(st.booleans())}
    return doc


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def _assert_outputs_finite(out_dir: Path):
    for path in out_dir.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_reject_constant)
    for path in out_dir.rglob("*.csv"):
        with path.open() as fh:
            for row in csv.DictReader(fh):
                for column, cell in row.items():
                    if column == "config_hash" or not cell:
                        continue
                    try:
                        value = float(cell)
                    except ValueError:
                        continue
                    assert math.isfinite(value), (path.name, column, cell)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=250, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=config_documents(),
       mode=st.sampled_from(["capacity", "simulate", "verify", "effective-channel"]))
def test_any_tiny_config_exits_cleanly(doc, mode):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(doc))
        out_dir = Path(tmp) / "out"
        code = main([mode, "--config", str(path), "--out", str(out_dir)])
        assert code in (0, 2, 3, 4)
        if code == 0:
            _assert_outputs_finite(out_dir)
        if code == 3 and mode == "verify":
            _strict_json(out_dir / "report.json")
