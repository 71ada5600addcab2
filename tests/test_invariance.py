"""The byte promise: a config writes the same bytes whatever the BLAS
thread count, the usable CPUs, OpenBLAS's idle-thread timeout, malloc's
thresholds, numpy's huge-page advice, a profiler or a missing bundled
OpenBLAS.

Each row of ``ROWS`` runs one subcommand on one config under two of the
``SETTINGS``, each in its own ``python -m otfsim.cli`` process, and
compares every file the two runs wrote by relative path and bytes, so a
new output file is covered without being listed. Which bytes are promised
under which setting is decided here and nowhere else.

A child's environment is this process's, with every variable that some
setting controls removed and then its own setting's added. Everything
else is inherited, ``OPENBLAS_CORETYPE`` among it, so the rows run under
whichever OpenBLAS kernels the suite runs under.
"""

import csv
import functools
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

CLI = ("-m", "otfsim.cli")
# The CLI with numpy's bundled OpenBLAS hidden: every routine falls back to numpy.
LIBRARY_HIDDEN = ("-c", "import sys, otfsim._lapack as lapack; lapack._bundled = lambda: None; "
                        "from otfsim.cli import main; sys.exit(main())")
# A profiler runs the CLI as __main__, not as otfsim.cli.
PROFILED = ("-m", "cProfile", "-o", os.devnull, *CLI)


class Setting(NamedTuple):
    env: dict = {}       # set in the child; every other controlled variable is unset
    entry: tuple = CLI   # what the interpreter runs
    one_cpu: bool = False


SETTINGS = {
    "default": Setting(),
    "one-blas-thread": Setting({"OPENBLAS_NUM_THREADS": "1"}),
    "one-cpu": Setting(one_cpu=True),
    # OpenBLAS's own idle-thread timeout in place of the CLI's shorter one.
    "timeout-28": Setting({"OPENBLAS_THREAD_TIMEOUT": "28"}),
    # glibc's 128 KiB thresholds, fixed by the environment, so the CLI's
    # 4 MiB pin is skipped.
    "malloc-128k": Setting({"MALLOC_MMAP_THRESHOLD_": "131072",
                            "MALLOC_TRIM_THRESHOLD_": "131072"}),
    "hugepage-0": Setting({"NUMPY_MADVISE_HUGEPAGE": "0"}),
    "hugepage-1": Setting({"NUMPY_MADVISE_HUGEPAGE": "1"}),
    # Without the library the bytes follow the BLAS thread count, which the
    # pin would otherwise hold at one for every factorization.
    "library-hidden": Setting({"OPENBLAS_NUM_THREADS": "1"}, LIBRARY_HIDDEN),
    "profiled": Setting(entry=PROFILED),
}
CONTROLLED = {name for setting in SETTINGS.values() for name in setting.env}

_GENERAL_TAPS = (1.0 + 0.3 * np.random.default_rng(4).standard_normal((32, 2))).tolist()
_CHUNKS_TAPS = (1.0 + 0.3 * np.random.default_rng(5).standard_normal((512, 2))).tolist()
_CHUNKS = {
    "frame": {"M": 32, "N": 16, "M_cp": 4},
    "window": {"tx": {"kind": "general", "taps": _CHUNKS_TAPS}, "rx": {"kind": "rectangular"}},
    "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.05},
    "noise": {"snr_db": [10]},
    "run": {"seed": 5, "emit_frequency_domain": True},
}
CONFIGS = {
    # README's example.
    "example": {
        "frame": {"M": 16, "N": 8, "M_cp": 4},
        "mimo": {"n_t": 2, "n_r": 2},
        "window": {"tx": {"kind": "rectangular"}, "rx": {"kind": "rectangular"}},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
        "noise": {"snr_db": [0, 5, 10, 15, 20]},
        "run": {"trials": 100, "seed": 11, "emit_trials": False},
    },
    # Each of K's row slabs holds three one-antenna transforms side by side;
    # simulate's effective matrix is built from the same K.
    "three-by-two": {
        "frame": {"M": 16, "N": 8, "M_cp": 4},
        "mimo": {"n_t": 3, "n_r": 2},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
        "noise": {"snr_db": [0, 10, 20]},
        "run": {"trials": 3, "seed": 12, "emit_trials": True},
    },
    "general": {
        "frame": {"M": 8, "N": 4, "M_cp": 2},
        "mimo": {"n_t": 2, "n_r": 1},
        "window": {"tx": {"kind": "general", "taps": _GENERAL_TAPS}, "rx": {"kind": "rectangular"}},
        "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
        "noise": {"snr_db": [10]},
        "run": {"seed": 4},
    },
    # 512 x 512 matrices that span several CSV writer chunks, each formatted
    # by the vectorized %.17g formatter in the calling thread; mostly fixed
    # notation.
    "chunks": _CHUNKS,
    # Gains of about 1e-6 print most entries in exponent notation.
    "tiny": dict(_CHUNKS, channel={"kind": "static-multipath",
                                   "gains": [[1.3e-6, -0.4e-6], [-2.1e-7, 7e-7]],
                                   "delays": [0, 3]}),
    # Under a profiler, whose __main__ is not otfsim.cli: CSVs of several
    # writer chunks must not depend on the module's name.
    "wide": {
        "frame": {"M": 64, "N": 8, "M_cp": 4},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.05},
        "noise": {"snr_db": [10]},
        "run": {"seed": 3, "emit_frequency_domain": True},
    },
}

TRIALS_3 = ("--trials", "3")
# (config, command, extra arguments, setting A, setting B): A's and B's files must match.
ROWS = [
    ("example", "capacity", TRIALS_3, "one-blas-thread", "default"),
    ("example", "capacity", TRIALS_3, "one-blas-thread", "one-cpu"),
    ("example", "capacity", TRIALS_3, "one-blas-thread", "library-hidden"),
    ("example", "capacity", TRIALS_3, "default", "timeout-28"),
    ("example", "capacity", TRIALS_3, "default", "malloc-128k"),
    ("example", "verify", (), "one-blas-thread", "default"),
    ("example", "verify", (), "one-blas-thread", "one-cpu"),
    ("example", "verify", (), "one-blas-thread", "library-hidden"),
    ("example", "verify", (), "default", "timeout-28"),
    ("example", "verify", (), "default", "malloc-128k"),
    ("example", "verify", (), "hugepage-0", "hugepage-1"),
    ("example", "simulate", (), "one-blas-thread", "default"),
    ("example", "effective-channel", (), "hugepage-0", "hugepage-1"),
    ("three-by-two", "capacity", (), "one-blas-thread", "default"),
    ("three-by-two", "capacity", (), "one-blas-thread", "one-cpu"),
    ("three-by-two", "capacity", (), "default", "timeout-28"),
    ("three-by-two", "verify", (), "one-blas-thread", "default"),
    ("three-by-two", "verify", (), "one-blas-thread", "one-cpu"),
    ("three-by-two", "verify", (), "default", "timeout-28"),
    ("three-by-two", "simulate", (), "one-blas-thread", "default"),
    ("three-by-two", "simulate", (), "one-blas-thread", "one-cpu"),
    ("three-by-two", "simulate", (), "default", "timeout-28"),
    ("general", "verify", (), "default", "library-hidden"),
    ("general", "simulate", (), "default", "library-hidden"),
    ("chunks", "effective-channel", (), "one-cpu", "default"),
    ("chunks", "effective-channel", (), "one-cpu", "one-blas-thread"),
    ("chunks", "effective-channel", (), "one-cpu", "library-hidden"),
    ("tiny", "effective-channel", (), "one-cpu", "default"),
    ("tiny", "effective-channel", (), "one-cpu", "one-blas-thread"),
    ("tiny", "effective-channel", (), "one-cpu", "library-hidden"),
    ("wide", "effective-channel", (), "default", "profiled"),
]


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Runs the CLI once per (config, command, arguments, setting), asserts
    exit 0 and returns every file the run wrote, by relative path."""
    root = tmp_path_factory.mktemp("invariance")
    env = {name: value for name, value in os.environ.items() if name not in CONTROLLED}
    env["PYTHONPATH"] = str(SRC)

    @functools.cache
    def run(config, command, args, name):
        setting = SETTINGS[name]
        if setting.one_cpu and not hasattr(os, "sched_setaffinity"):
            pytest.skip("os.sched_setaffinity is not available")
        cpu = min(os.sched_getaffinity(0)) if setting.one_cpu else None
        path = root / f"{config}.json"
        path.write_text(json.dumps(CONFIGS[config]))
        out = root / config / command / name
        child = subprocess.run(
            [sys.executable, *setting.entry, command, "--config", str(path), "--out", str(out),
             *args],
            env=dict(env, **setting.env), cwd=root, capture_output=True, text=True, timeout=120,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}))
        assert child.returncode == 0, child.stderr
        return {file.relative_to(out).as_posix(): file.read_bytes()
                for file in sorted(out.rglob("*")) if file.is_file()}

    return run


@pytest.mark.parametrize("config, command, args, a, b", ROWS,
                         ids=[f"{row[0]}-{row[1]}-{row[3]}-vs-{row[4]}" for row in ROWS])
def test_same_bytes(run, config, command, args, a, b):
    first, second = run(config, command, args, a), run(config, command, args, b)
    assert first and first.keys() == second.keys()
    assert [name for name in first if first[name] != second[name]] == []


def _reject(name):
    raise ValueError(f"{name} in report.json")


def test_general_window_config_passes_every_check(run):
    report = json.loads(run("general", "verify", (), "default")["report.json"],
                        parse_constant=_reject)
    assert report["all_passed"] is True


def test_tiny_gains_print_mostly_in_exponent_notation(run):
    text = run("tiny", "effective-channel", (), "default")["effective_dd.csv"].decode()
    rows = list(csv.DictReader(io.StringIO(text)))
    assert sum("e" in row["re"] for row in rows) >= len(rows) / 2
