"""Output bytes pinned: tiny and mid-size runs of every subcommand, digested.

Each workload runs the installed CLI as a subprocess under
``OPENBLAS_CORETYPE=Haswell``, so every host with AVX2 and FMA runs the
same BLAS kernels of a ``DYNAMIC_ARCH`` build. The digests (SHA-256 of every
output file, and of stdout with the output directory replaced) are kept in
``golden.json`` under a key naming the numpy version and the OpenBLAS build,
read under the same core type. A host whose key is not recorded skips.

Regenerate the digests for this host's key, on a commit whose outputs are
known good, with::

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).with_name("golden.json")
SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, OPENBLAS_CORETYPE="Haswell", PYTHONPATH=str(SRC))
SEEDS = (3, 8)

MIMO = {
    "frame": {"M": 8, "N": 4, "M_cp": 2},
    "mimo": {"n_t": 2, "n_r": 2},
    "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
    "noise": {"snr_db": [0, 10]},
    "run": {"trials": 4, "emit_trials": True, "export_channels": True},
}
SISO = {
    "frame": {"M": 8, "N": 4, "M_cp": 2},
    "window": {
        "tx": {"kind": "general",
               "taps": [[1 + 0.3 * math.cos(k), 0.3 * math.sin(2 * k)] for k in range(32)]},
        "rx": {"kind": "separable", "time": [1.0, 0.9, 1.1, [1.0, 0.2]],
               "freq": [1.0, 1.2, 0.8, 1.0, [0.9, -0.1], 1.0, 1.1, 0.95]},
    },
    "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
    "noise": {"snr_db": [10]},
    "run": {"emit_frequency_domain": True},
}
# The tiny configs write each CSV in one chunk. At M=32, N=16 the 512 x 512
# matrices span several chunks, so the writer's chunk-by-chunk formatting
# and the full-size matrix products run too.
SISO_MID = {
    "frame": {"M": 32, "N": 16, "M_cp": 4},
    "window": {
        "tx": {"kind": "general",
               "taps": [[1 + 0.3 * math.cos(k), 0.3 * math.sin(2 * k)] for k in range(512)]},
        "rx": {"kind": "separable",
               "time": [[1 + 0.2 * math.cos(3 * k), 0.1 * math.sin(k)] for k in range(16)],
               "freq": [[1 + 0.2 * math.sin(5 * k), 0.1 * math.cos(k)] for k in range(32)]},
    },
    "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
    "noise": {"snr_db": [10]},
    "run": {"emit_frequency_domain": True},
}
# A 3x2 config whose whole-block K is 512 x 768: three transmit antennas,
# so K's row slabs hold three one-antenna transforms side by side. The
# capacity sweep and simulate's effective matrix both build that K.
MIMO_MID = {
    "frame": {"M": 32, "N": 8, "M_cp": 4},
    "mimo": {"n_t": 3, "n_r": 2},
    "window": {
        "tx": {"kind": "general",
               "taps": [[1 + 0.3 * math.sin(2 * k), 0.2 * math.cos(k)] for k in range(256)]},
        "rx": {"kind": "rectangular"},
    },
    "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.05},
    "noise": {"snr_db": [0, 10, 20]},
    "run": {"trials": 3, "emit_trials": True, "export_channels": True},
}
# Workload name: (subcommand, config).
WORKLOADS = {
    "capacity": ("capacity", MIMO),
    "verify": ("verify", SISO),
    "simulate": ("simulate", MIMO),
    "effective-channel": ("effective-channel", SISO),
    "verify-mid": ("verify", SISO_MID),
    "effective-channel-mid": ("effective-channel", SISO_MID),
    "capacity-mid": ("capacity", MIMO_MID),
    "simulate-mid": ("simulate", MIMO_MID),
}

_KEY_CODE = """
import numpy
from otfsim import _lapack
bundled = _lapack._bundled()
if bundled is not None:
    print(f"numpy {numpy.__version__} {bundled.config().decode()}")
"""


def build_key() -> str:
    """numpy's version and its bundled OpenBLAS's build string under the
    pinned core type, or "" when the library is not found."""
    run = subprocess.run([sys.executable, "-c", _KEY_CODE], env=ENV, capture_output=True,
                         text=True, check=True)
    return run.stdout.strip()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(name: str, seed: int, work: Path) -> dict:
    """Run one workload in ``work`` and digest what it writes."""
    mode, document = WORKLOADS[name]
    config, out = work / "config.json", work / "out"
    config.write_text(json.dumps(document))
    run = subprocess.run([sys.executable, "-m", "otfsim.cli", mode, "--config", str(config),
                          "--out", str(out), "--seed", str(seed)],
                         env=ENV, capture_output=True, timeout=120)
    assert run.returncode == 0, run.stderr.decode()
    found = {path.relative_to(out).as_posix(): _sha256(path.read_bytes())
             for path in sorted(out.rglob("*")) if path.is_file()}
    found["<stdout>"] = _sha256(run.stdout.replace(str(out).encode(), b"<out>"))
    return found


@pytest.fixture(scope="module")
def recorded():
    try:
        cpu_flags = set(Path("/proc/cpuinfo").read_text().split())
    except OSError:
        pytest.skip("no /proc/cpuinfo to confirm AVX2 and FMA")
    if not {"avx2", "fma"} <= cpu_flags:
        pytest.skip("the Haswell kernels need AVX2 and FMA")
    key = build_key()
    if "DYNAMIC_ARCH" not in key.split():
        pytest.skip(f"not a DYNAMIC_ARCH build of numpy's OpenBLAS: {key or 'not found'}")
    golden = json.loads(GOLDEN.read_text())
    if key not in golden:
        pytest.skip(f"no digests recorded for {key}")
    return golden[key]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", WORKLOADS)
def test_output_bytes_match_the_recorded_digests(recorded, name, seed, tmp_path):
    assert digests(name, seed, tmp_path) == recorded[f"{name} seed {seed}"]


if __name__ == "__main__":
    import tempfile

    key = build_key()
    if not key:
        sys.exit("numpy's bundled OpenBLAS was not found; nothing to record")
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        golden[key] = {}
        for name in WORKLOADS:
            for seed in SEEDS:
                work = Path(tmp) / f"{name}-{seed}"
                work.mkdir()
                golden[key][f"{name} seed {seed}"] = digests(name, seed, work)
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(golden[key])} workloads under {key}")
