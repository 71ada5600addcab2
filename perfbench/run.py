#!/usr/bin/env python3
"""Benchmark of otfsim, run from the root of a checkout.

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

With ``--trace 0`` each repetition runs the workload's command sequence
as child processes, the way a user runs ``otfsim``: at least two
repetitions, then more while they fit in ``--seconds``. The end-to-end
metrics of BENCHMARK.json are medians over repetitions; ``setup_s`` is
the median of several fresh interpreters importing ``otfsim.cli`` and
parsing the config. With ``--trace 1`` the same sequence runs in this
process through ``otfsim.cli.main``, once plain and once under the span
tracer, and the per-layer metrics are reported; ``trace.overhead_s`` is
the difference of the two walls. Outputs of every command pass the
correctness gate in ``reference.py``. The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the environment and the full result go to
``.perfbench-out/<workload>/``.

OpenBLAS runs with one thread per usable CPU, set here so that both sides
of a comparison run under the same BLAS threading whatever the caller's
environment holds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 150.0
# Set-up is measured in two batches, before and after the repetitions, so
# that a burst of load from elsewhere on the machine hits fewer samples.
SETUP_BATCHES = (6, 6)
# A median of two repetitions halves the weight of one slow repetition.
MIN_REPS = 2
SETUP_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import sys\n"
    "from otfsim.cli import load_config_document, parse_config\n"
    "parse_config(load_config_document(sys.argv[1]), mode=sys.argv[2])\n"
    "print(repr(time.perf_counter() - t0))\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- environment ---------------------------------------------------------

def blas_threads_in_effect():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_effect(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "otfsim_threads": 1,
    }


def prepare_environment() -> None:
    """Pin BLAS threading and point this process and its children at the
    checkout's sources. Must run before numpy is imported."""
    if not (SRC / "otfsim" / "cli.py").is_file():
        raise BenchError(f"no otfsim sources under {SRC}")
    os.environ["OPENBLAS_NUM_THREADS"] = str(len(os.sched_getaffinity(0)))
    inherited = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + inherited if inherited else "")
    sys.path.insert(0, str(SRC))
    import otfsim

    if SRC.resolve() not in Path(otfsim.__file__).resolve().parents:
        raise BenchError(f"otfsim was imported from {otfsim.__file__}, not from {SRC}")


# -- running commands ----------------------------------------------------

def run_child(argv, log_path: Path):
    """Run one child process to completion; returns (exit code, rusage)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def another_fits(start: float, durations: list, seconds: float, minimum: int) -> bool:
    """Run ``minimum`` repetitions, then start another only while, at the
    mean repetition time so far, it ends within ``seconds`` of ``start``."""
    if len(durations) < minimum:
        return True
    return time.perf_counter() - start + statistics.mean(durations) <= seconds


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def gate(commands, codes, out_root: Path, ref: dict):
    """Number of commands that failed in one pass over the sequence, and
    what was wrong with them."""
    from reference import check_outputs

    failed, problems = 0, []
    for command, code in zip(commands, codes):
        if code != 0:
            found = [f"{command}: exit code {code}"]
        else:
            try:
                found = check_outputs(command, out_root / command, ref)
            except (OSError, KeyError, ValueError) as err:
                found = [f"{command}: unreadable output: {err!r}"]
        failed += bool(found)
        problems += found
    return failed, problems


def write_config(workload, seed: int, work: Path):
    doc = workload.make_config(seed)
    path = work / "config.json"
    path.write_text(json.dumps(doc, indent=1))
    return doc, path


def measure_setup(cfg_path: Path, mode: str, work: Path, repeats: int) -> list:
    times = []
    for i in range(repeats):
        log = work / f"setup{i}.log"
        code, _ = run_child([sys.executable, "-c", SETUP_SNIPPET, str(cfg_path), mode], log)
        if code != 0:
            raise BenchError(f"config set-up failed (exit {code}), see {log}")
        times.append(float(log.read_text().split()[-1]))
    return times


def measure(workload, seed: int, seconds: float, work: Path) -> dict:
    """End-to-end metrics of the command sequence run as child processes."""
    from reference import reference_for

    doc, cfg_path = write_config(workload, seed, work)
    setup = measure_setup(cfg_path, workload.commands[0], work, SETUP_BATCHES[0])
    ref = reference_for(workload.commands, doc)
    walls, cpus, rss, problems, durations = [], [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while another_fits(start, durations, seconds, MIN_REPS):
        begin = time.perf_counter()
        out_root = fresh_dir(work / "rep")
        codes, cpu, peak = [], 0.0, 0
        t0 = time.perf_counter()
        for command in workload.commands:
            argv = [sys.executable, "-m", "otfsim.cli", command,
                    "--config", str(cfg_path), "--out", str(out_root / command)]
            code, usage = run_child(argv, out_root / f"{command}.log")
            codes.append(code)
            cpu += usage.ru_utime + usage.ru_stime
            peak = max(peak, usage.ru_maxrss)
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu)
        rss.append(peak / 1024.0)
        rep_failed, rep_problems = gate(workload.commands, codes, out_root, ref)
        attempted += len(workload.commands)
        failed += rep_failed
        problems += rep_problems
        durations.append(time.perf_counter() - begin)
    setup += measure_setup(cfg_path, workload.commands[0], work, SETUP_BATCHES[1])
    wall = statistics.median(walls)
    values = {
        "setup_s": (statistics.median(setup), len(setup)),
        "wall_s": (wall, len(walls)),
        "cpu_s": (statistics.median(cpus), len(cpus)),
        "peak_rss_mib": (statistics.median(rss), len(rss)),
        "mi_evals_per_s": (workload.mi_pairs(doc) / wall, len(walls)),
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": values, "samples": {"setup_s": setup, "wall_s": walls,
                                          "cpu_s": cpus, "peak_rss_mib": rss}}


def run_in_process(cli, commands, cfg_path: Path, out_root: Path):
    """One pass over the command sequence through ``cli.main``; returns
    (wall seconds, exit codes). An exception counts as exit code None."""
    fresh_dir(out_root)
    codes = []
    with open(out_root / "log.txt", "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        t0 = time.perf_counter()
        for command in commands:
            try:
                codes.append(cli.main([command, "--config", str(cfg_path),
                                       "--out", str(out_root / command)]))
            except Exception:
                traceback.print_exc()
                codes.append(None)
        wall = time.perf_counter() - t0
    return wall, codes


def bytes_written(out_root: Path, commands) -> int:
    return sum(p.stat().st_size for c in commands
               for p in (out_root / c).rglob("*") if p.is_file())


def trace(workload, seed: int, seconds: float, work: Path, names) -> dict:
    """Per-layer metrics from plain and traced in-process passes."""
    import otfsim.cli as cli
    from reference import reference_for
    from tracer import Tracer

    doc, cfg_path = write_config(workload, seed, work)
    ref = reference_for(workload.commands, doc)
    mcfg = cli.parse_config(doc, mode=workload.commands[0]).mcfg
    per_symbol_rows = mcfg.frame.num_subcarriers * mcfg.num_rx
    # A first pass warms what stays warm in one process (first large
    # allocations, FFT plans), so the plain and traced passes both run warm.
    _, codes = run_in_process(cli, workload.commands, cfg_path, work / "plain")
    failed, problems = gate(workload.commands, codes, work / "plain", ref)
    attempted = len(workload.commands)
    passes, durations = [], []
    start = time.perf_counter()
    while another_fits(start, durations, seconds, 1):
        begin = time.perf_counter()
        plain_wall, codes = run_in_process(cli, workload.commands, cfg_path, work / "plain")
        plain_failed, plain_problems = gate(workload.commands, codes, work / "plain", ref)
        tracer = Tracer(per_symbol_rows)
        with tracer:
            traced_wall, codes = run_in_process(cli, workload.commands, cfg_path, work / "traced")
        traced_failed, traced_problems = gate(workload.commands, codes, work / "traced", ref)
        attempted += 2 * len(workload.commands)
        failed += plain_failed + traced_failed
        problems += plain_problems + traced_problems

        stats = tracer.stats()
        untraced = tracer.untraced_s(traced_wall)
        accounted = sum(s["self_s"] for s in stats.values()) + untraced
        if abs(accounted - traced_wall) > 1e-6 * traced_wall:
            problems.append(f"trace: self times plus untraced give {accounted!r} s, "
                            f"traced wall is {traced_wall!r} s")
            failed += 1
        measured = {"trace.overhead_s": traced_wall - plain_wall,
                    "trace.untraced_s": untraced,
                    "cli.bytes_written": float(bytes_written(work / "traced", workload.commands))}
        passes.append({name: measured[name] if name in measured else tracer.metric(name, stats)
                       for name in names})
        durations.append(time.perf_counter() - begin)
    absent = sorted(name for name in names if passes[-1][name] is None)
    (work / "trace.json").write_text(json.dumps({
        "wall_s": traced_wall, "untraced_s": untraced, "absent": absent,
        "layers": {k: {f: v[f] for f in ("calls", "s", "self_s")} for k, v in stats.items()},
        "spans": [[n, s, e, p] for n, s, e, p, _ in tracer.spans],
    }))
    values = {name: (0.0 if name in absent else statistics.median(p[name] for p in passes),
                     len(passes))
              for name in names}
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "values": values, "absent": absent}


# -- reporting -----------------------------------------------------------

def run_workload(workload, seed: int, seconds: float, traced: bool, spec: dict) -> dict:
    work = fresh_dir(WORK / workload.name)
    section = "per_layer" if traced else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    if traced:
        result = trace(workload, seed, seconds, work, list(units))
    else:
        result = measure(workload, seed, seconds, work)
    result["metrics"] = {name: {"value": result["values"][name][0], "unit": unit}
                         for name, unit in units.items()}
    result["environment"] = environment()
    result["workload"], result["seed"] = workload.name, seed
    (work / "result.json").write_text(json.dumps(
        {k: v for k, v in result.items() if k != "values"}, indent=1, default=str))
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} (seed {result['seed']})")
    print("  environment " + json.dumps(result["environment"], sort_keys=True))
    for name, (value, samples) in result["values"].items():
        unit = result["metrics"][name]["unit"]
        print(f"  {name:44s} {value:14.6g} {unit:8s} median of {samples}")
    print(f"  {'failed_ratio':44s} {result['failed'] / result['attempted']:14.6g} "
          f"{'ratio':8s} {result['failed']} of {result['attempted']} commands")
    if result.get("absent"):
        print("  absent (function no longer in the program): " + ", ".join(result["absent"]))
    for problem in result["problems"]:
        print("  FAILED " + problem)


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; the generated config carries it to otfsim")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="repeat the command sequence while it fits in this many seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_environment()
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    chosen = names if args.workload == "all" else [args.workload]
    results = []
    try:
        for name in chosen:
            results.append(run_workload(WORKLOADS[name], args.seed, args.seconds,
                                        bool(args.trace), spec))
            print_report(results[-1])
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
