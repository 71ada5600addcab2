"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.prepare_environment()

import otfsim  # noqa: E402
from reference import capacity_reference, tap_table_blocks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Workload, capacity_config, reference_export_config,
)

SPEC = run.load_spec()
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]
SNR_DB = (0, 10)
TINY_CAPACITY = Workload(
    name="tiny-capacity", commands=("capacity",),
    make_config=lambda seed: capacity_config(seed, m=4, n=2, cp=3, snr_db=SNR_DB, trials=3),
    mi_pairs=lambda doc: 3 * len(SNR_DB))
TINY_EXPORT = Workload(
    name="tiny-export", commands=("verify", "simulate", "effective-channel"),
    make_config=lambda seed: reference_export_config(seed, m=8, n=2, cp=5),
    mi_pairs=lambda doc: 4)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_tap_table_blocks_match_dense_reduction():
    frame = otfsim.OtfsFrameConfig(num_subcarriers=8, num_symbols=3, cp_len=3)
    model = otfsim.ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.1)
    channel = otfsim.synthesize(model, frame, rng=otfsim.trial_rng(5, 0))
    dense = otfsim.reduce_to_block_channel(otfsim.assemble_h_matrix(channel), frame)
    blocks = tap_table_blocks(channel.taps, 8, 3, 3)
    assert np.max(np.abs(blocks - np.stack(dense))) < 1e-15


def test_capacity_reference_matches_library():
    doc = TINY_CAPACITY.make_config(7)
    cfg = otfsim.cli.parse_config(doc, mode="capacity")
    results = otfsim.capacity_sweep(cfg.sigma2_list, cfg.channel_model, cfg.tx_window,
                                    cfg.mcfg, trials=cfg.trials, seed=cfg.seed)
    want = [r.capacity_otfs for r in results]
    assert np.allclose(capacity_reference(doc), want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("workload", [TINY_CAPACITY, TINY_EXPORT], ids=lambda w: w.name)
def test_measure_passes_gate(workload, tmp_path):
    result = run.measure(workload, seed=3, seconds=0, work=tmp_path)
    assert result["problems"] == []
    assert (result["attempted"], result["failed"]) == (run.MIN_REPS * len(workload.commands), 0)
    assert set(result["values"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in result["values"].values())


def test_gate_catches_wrong_capacity(tmp_path):
    doc = TINY_CAPACITY.make_config(3)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc))
    assert otfsim.cli.main(["capacity", "--config", str(cfg_path),
                            "--out", str(tmp_path / "capacity")]) == 0
    ref = {"capacity": [c + 1e-6 for c in capacity_reference(doc)]}
    failed, problems = run.gate(("capacity",), [0], tmp_path, ref)
    assert failed == 1 and len(problems) == 2 * len(SNR_DB)


def test_trace_capacity(tmp_path):
    result = run.trace(TINY_CAPACITY, seed=3, seconds=0, work=tmp_path, names=PER_LAYER)
    assert result["problems"] == [] and result["absent"] == []
    values = {name: value for name, (value, _) in result["values"].items()}
    assert set(values) == set(PER_LAYER)
    # Every SNR point redraws the same 3 trials x 4 antenna pairs.
    assert values["channel.synthesize.calls"] == 3 * 4 * len(SNR_DB)
    assert values["channel.synthesize.useful_ratio"] == 1 / len(SNR_DB)
    calls = 3 * len(SNR_DB)
    assert values["capacity.mutual_information.block.calls"] == calls
    assert values["capacity.mutual_information.per_symbol.calls"] == calls * 2
    rows = cols = 4 * 2 * 2
    gram, chol = 8 * rows * rows * cols, 4 * rows ** 3 / 3
    assert values["capacity.block_route.gflop_computed"] == pytest.approx(
        calls * (2 * gram + chol) / 1e9, rel=1e-12)
    assert values["kronops.block_diag.bytes_computed"] == calls * rows * cols * 16
    assert values["cli.bytes_written"] > 0


def test_trace_self_times_add_up_to_wall(tmp_path):
    doc, cfg_path = run.write_config(TINY_EXPORT, 4, tmp_path)
    tracer = Tracer(per_symbol_rows=8)
    with tracer:
        wall, codes = run.run_in_process(otfsim.cli, TINY_EXPORT.commands, cfg_path,
                                         tmp_path / "out")
    assert codes == [0, 0, 0]
    stats = tracer.stats()
    assert {"cli.run_verify", "checks.check_mi_additivity", "transceiver.effective_matrix_general",
            "capacity.mutual_information.block"} <= set(stats)
    total = sum(s["self_s"] for s in stats.values()) + tracer.untraced_s(wall)
    assert total == pytest.approx(wall, rel=1e-9)
    assert tracer.untraced_s(wall) >= 0
    # Uninstalled: the program's bindings are its own functions again.
    assert otfsim.cli.synthesize is otfsim.channel.synthesize
    assert otfsim.capacity.synthesize.__module__ == "otfsim.channel"
    assert not hasattr(otfsim.capacity.synthesize, "__wrapped__")


def test_trace_wraps_every_binding():
    tracer = Tracer(per_symbol_rows=8)
    with tracer:
        assert otfsim.cli.synthesize is otfsim.capacity.synthesize
        assert otfsim.cli.synthesize.__wrapped__ is otfsim.channel.synthesize.__wrapped__
        assert hasattr(otfsim.kronops.OperatorChain.materialize, "__wrapped__")
    assert not hasattr(otfsim.kronops.OperatorChain.materialize, "__wrapped__")


def test_removed_function_is_reported_absent(tmp_path, monkeypatch):
    monkeypatch.delattr(otfsim.transceiver, "effective_matrix_general")
    result = run.trace(TINY_CAPACITY, seed=3, seconds=0, work=tmp_path, names=PER_LAYER)
    assert result["absent"] == ["transceiver.effective_matrix_general.self_s"]
    assert result["values"]["transceiver.effective_matrix_general.self_s"][0] == 0.0
    assert result["failed"] == 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
