"""numpy's bundled OpenBLAS called directly: the zgemm Gram, the one-thread
pin around every log-det, the worker pool, the sweep's workers, the
idle-thread timeout, the pin of malloc's thresholds, and the fallback to
numpy where the library is missing.

The Gram's bits must equal numpy's ``K @ K.conj().T`` on both paths, and
every MI the package computes must have the same bits whatever the BLAS
thread count and the worker count.
"""

import contextlib
import functools
import json
import os
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import otfsim._lapack
import otfsim.capacity
from otfsim import _process
from otfsim.capacity import _gram, capacity_sweep
from otfsim.channel import ChannelModel
from otfsim.cli import main
from otfsim.errors import StructureError
from otfsim.mimo import MimoConfig, capacity_trial_arrays, channel_table
from otfsim.transceiver import OtfsFrameConfig, WindowSpec

PAPER = MimoConfig(frame=OtfsFrameConfig(num_subcarriers=16, num_symbols=8, cp_len=4),
                   num_tx=2, num_rx=2)
PAPER_MODEL = ChannelModel.doppler_paths(num_taps=4, num_paths=3, max_doppler=0.02)
PAPER_NOISE = [10.0 ** (-snr / 10.0) for snr in (0, 5, 10, 15, 20)]


# The real handle, also for tests that hide it from the package.
CONTROL = otfsim._lapack._bundled()


def blas_count():
    return CONTROL.get_threads()


@pytest.fixture
def set_blas_threads():
    """Set the bundled OpenBLAS's thread count at run time; the count from
    before the test is restored afterwards."""
    if CONTROL is None:
        pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
    before = blas_count()

    def set_threads(count):
        CONTROL.set_threads(count)
        if blas_count() != count:
            pytest.skip(f"OpenBLAS does not run {count} threads here")

    yield set_threads
    CONTROL.set_threads(before)


def same_bits(a, b):
    """Equal bit patterns, so the sign of every zero counts too."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


@pytest.fixture(params=["zgemm", "numpy"])
def gram_path(request):
    """Run a test on numpy's bundled zgemm, and again with the library
    hidden, so that every Gram is numpy's product. The hidden library pins
    nothing, so BLAS then runs on one thread, as the pin would set it."""
    if request.param == "zgemm":
        if CONTROL is None:
            pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
        yield request.param
        return
    with otfsim._lapack.one_blas_thread(), without_library():
        yield request.param


GRID = ([(rows, cols) for rows in range(1, 41) for cols in range(1, 41)]
        + [(rows, cols) for rows in (64, 96, 127, 128, 129, 255, 256, 300, 512)
           for cols in (2, 3, 64, 127, 128, 256, 300, 512)])


class TestZgemmGram:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_bits_equal_numpy_product(self, gram_path, set_blas_threads, threads):
        set_blas_threads(threads)
        rng = np.random.default_rng(31)
        for rows, cols in GRID:
            k = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            assert same_bits(_gram(k), k @ k.conj().T), (rows, cols)

    def test_exact_zeros_change_only_the_sign_of_zero_entries(self, gram_path):
        # With exact zeros in K, zgemm's ConjTrans kernel and numpy's product
        # of the conjugate copy can give zero entries of opposite signs. The
        # values are equal, and so is every log-det, since the factor's
        # diagonal never reads the sign of a zero.
        rng = np.random.default_rng(32)
        for rows, cols in GRID[::7]:
            k = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
            k[rng.random((rows, cols)) < 0.3] = -0.0
            k[rng.integers(rows)] = 0.0
            gram, reference = _gram(k), k @ k.conj().T
            assert np.array_equal(gram, reference), (rows, cols)
            for noise_var in (0.1, 10.0):
                assert (otfsim.capacity._log_det_bits(gram, noise_var)
                        == otfsim.capacity._log_det_bits(reference, noise_var)), (rows, cols)

    @pytest.mark.parametrize("size", [1024, 2048])
    def test_bits_equal_numpy_product_at_large_sizes(self, gram_path, size):
        rng = np.random.default_rng(size)
        k = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        assert same_bits(_gram(k), k @ k.conj().T)

    def test_stacks_and_other_layouts_stay_on_numpy(self, monkeypatch):
        with_routines(monkeypatch, zgemm=forbidden)
        rng = np.random.default_rng(3)
        k = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
        for other in (k[None], k[:, :1], k[:1], np.asfortranarray(k), k[::2]):
            assert same_bits(_gram(other), other @ other.conj().swapaxes(-1, -2))


def forbidden(*args):
    raise AssertionError("a bundled routine was called")


def with_routines(monkeypatch, **routines):
    """Swap the named routines of the package's handle to numpy's bundled
    OpenBLAS for the given functions."""
    if CONTROL is None:
        pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
    handle = otfsim._lapack._bundled()._replace(**routines)
    monkeypatch.setattr(otfsim._lapack, "_bundled", lambda: handle)


def test_inputs_the_library_does_not_cover_never_reach_it(monkeypatch):
    """Arrays that the bundled zgemm or zpotrf does not take go to numpy
    without either routine being called, and get numpy's bits."""
    with_routines(monkeypatch, zgemm=forbidden, zpotrf=forbidden)
    rng = np.random.default_rng(4)
    k = rng.standard_normal((6, 5)) + 1j * rng.standard_normal((6, 5))
    for other in (np.stack([k, 2 * k]), k[:, :1], k[:1], np.asfortranarray(k), k[::2]):
        assert same_bits(otfsim._lapack.gram(other), other @ other.conj().swapaxes(-1, -2))
    positive = np.eye(6) + k @ k.conj().T
    read_only = np.asfortranarray(positive)
    read_only.flags.writeable = False
    for other in (positive, read_only, np.asfortranarray(np.stack([positive, 2 * positive]))):
        with otfsim._lapack.one_blas_thread():
            expected = np.linalg.cholesky(other)
        assert same_bits(otfsim._lapack.cholesky(other), expected)
    assert otfsim._lapack.cholesky(-positive) is None


class TestOneBlasThread:
    def test_pin_nests_and_restores(self, set_blas_threads):
        set_blas_threads(2)
        with otfsim._lapack.one_blas_thread():
            assert blas_count() == 1
            with otfsim._lapack.one_blas_thread():
                assert blas_count() == 1
            assert blas_count() == 1
        assert blas_count() == 2
        with pytest.raises(RuntimeError), otfsim._lapack.one_blas_thread():
            raise RuntimeError
        assert blas_count() == 2

    def test_pin_holds_while_any_thread_uses_it(self, set_blas_threads):
        set_blas_threads(2)
        entered, release = threading.Event(), threading.Event()

        def hold():
            with otfsim._lapack.one_blas_thread():
                entered.set()
                release.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        assert entered.wait(10)
        with otfsim._lapack.one_blas_thread():
            pass
        assert blas_count() == 1  # the other thread still holds the pin
        release.set()
        holder.join()
        assert blas_count() == 2

    def test_without_thread_control_the_pin_does_nothing(self, set_blas_threads):
        set_blas_threads(2)
        with without_library(), otfsim._lapack.one_blas_thread():
            assert blas_count() == 2


def counts_inside(monkeypatch, owner, name, seen):
    """Record the BLAS thread count each call of ``owner.name`` runs under."""
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        seen.append(blas_count())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def counts_inside_handle(monkeypatch, name, seen):
    """Record the BLAS thread count each call of the bundled routine that
    the package's handle holds as ``name`` runs under."""
    routine = getattr(otfsim._lapack._bundled(), name)

    def recorded(*args):
        seen.append(blas_count())
        return routine(*args)

    with_routines(monkeypatch, **{name: recorded})


def recorded_pools(monkeypatch):
    """The worker count of each pool that ``_lapack`` starts from now on."""
    pools = []
    pool = otfsim._lapack._pool

    def recorded(workers):
        pools.append(workers)
        return pool(workers)

    monkeypatch.setattr(otfsim._lapack, "_pool", recorded)
    return pools


class TestSweepBitsAndWorkers:
    def test_paper_sweep_bits_do_not_depend_on_blas_or_worker_threads(self, set_blas_threads):
        runs = []
        for blas in (1, 2):
            set_blas_threads(blas)
            for workers in (1, 2, None):
                runs.append(capacity_sweep(PAPER_NOISE, PAPER_MODEL, WindowSpec.rectangular(),
                                           PAPER, trials=4, seed=11, threads=workers))
                assert blas_count() == blas
        for run in runs[1:]:
            for first, other in zip(runs[0], run, strict=True):
                assert np.array_equal(first.per_trial_otfs_bits, other.per_trial_otfs_bits)
                assert np.array_equal(first.per_trial_ofdm_bits, other.per_trial_ofdm_bits)

    def test_default_workers_follow_cpus_trials_and_trial_size(self, monkeypatch):
        monkeypatch.setattr(otfsim._lapack, "usable_cpus", lambda: 4)
        # The memory model's one trial: K and two R x R arrays, the Gram and
        # its copy, and the smaller modulator, tap tables, block channel and
        # K_n stacks.
        trial = 16 * sum(rows * cols for _, rows, cols in capacity_trial_arrays(PAPER, 1))
        assert 16 * 256 * (256 + 2 * 256) < trial < 16 * 256 * (256 + 3 * 256)
        table = channel_table(ChannelModel.identity(), PAPER, 0, 0)
        pools = recorded_pools(monkeypatch)

        def workers(draws, threads=None):
            """The draws the runner maps at once; one when it starts no pool.
            The runner reads the threshold when it is called."""
            pools.clear()
            otfsim.capacity.block_mis(WindowSpec.rectangular(), PAPER, 1, lambda key: table,
                                      range(draws), [1.0], threads)
            return pools[0] if pools else 1

        if CONTROL is not None:
            assert [workers(draws) for draws in (1, 3, 10)] == [1, 3, 4]
            assert workers(10, threads=2) == 2
        monkeypatch.setattr(otfsim.capacity, "_PARALLEL_TRIAL_BYTES", trial - 1)
        assert workers(10) == 1
        monkeypatch.setattr(otfsim.capacity, "_PARALLEL_TRIAL_BYTES", trial)
        with without_library():
            assert workers(10) == 1

    def test_benchmark_sweeps_keep_their_default_workers(self):
        # The paper sweep's trials run side by side, the large frame's (M=64,
        # N=16, 2x2: K and two Grams of 64 MiB each) one at a time.
        def trial(mcfg):
            return 16 * sum(rows * cols
                            for _, rows, cols in capacity_trial_arrays(mcfg, PAPER_MODEL.channel_length))

        large = MimoConfig(frame=OtfsFrameConfig(num_subcarriers=64, num_symbols=16, cp_len=4),
                           num_tx=2, num_rx=2)
        assert trial(PAPER) <= otfsim.capacity._PARALLEL_TRIAL_BYTES < trial(large)

    def test_workers_pin_the_whole_trial_and_one_worker_only_the_log_dets(
            self, set_blas_threads, monkeypatch):
        set_blas_threads(2)
        grams, factors = [], []
        counts_inside_handle(monkeypatch, "zgemm", grams)
        counts_inside_handle(monkeypatch, "zpotrf", factors)
        capacity_sweep([1.0], PAPER_MODEL, WindowSpec.rectangular(), PAPER, trials=2, seed=1,
                       threads=1)
        assert (grams, factors) == ([2, 2], [1, 1])
        grams.clear()
        factors.clear()
        capacity_sweep([1.0], PAPER_MODEL, WindowSpec.rectangular(), PAPER, trials=2, seed=1,
                       threads=2)
        assert (grams, factors) == ([1, 1], [1, 1])
        assert blas_count() == 2

    def test_without_thread_control_one_worker_and_no_pin(self, set_blas_threads, monkeypatch,
                                                          tmp_path):
        set_blas_threads(2)
        monkeypatch.setattr(otfsim._lapack, "_bundled", lambda: None)

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(otfsim._lapack, "_pool", no_pool)
        seen = []
        counts_inside(monkeypatch, np.linalg, "cholesky", seen)
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "frame": {"M": 4, "N": 2, "M_cp": 2}, "mimo": {"n_t": 2, "n_r": 2},
            "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
            "noise": {"snr_db": [0, 10]}, "run": {"trials": 5, "seed": 3}}))
        assert main(["capacity", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        assert seen and set(seen) == {2}
        assert (tmp_path / "out" / "results.csv").is_file()


def patch_channel_table(monkeypatch, failing, held=()):
    """Make ``capacity.channel_table`` record each trial it is called for,
    hold the trials in ``held`` for 1 s, raise StructureError at the trials
    in ``failing`` and take 50 ms for every other trial."""
    calls = []
    original = otfsim.capacity.channel_table

    def channel_table(model, mcfg, seed, trial):
        calls.append(trial)
        if trial in held:
            time.sleep(1.0)
        if trial in failing:
            raise StructureError(f"trial {trial} failed", 1.0, 0.0)
        time.sleep(0.05)
        return original(model, mcfg, seed, trial)

    monkeypatch.setattr(otfsim.capacity, "channel_table", channel_table)
    return calls


SMALL = MimoConfig(frame=OtfsFrameConfig(num_subcarriers=4, num_symbols=2, cp_len=2))


class TestFailingTrial:
    """A failing trial stops the sweep after at most two trials per worker
    and raises what a serial run raises. That the pool then leaves no worker
    and restores the BLAS thread count is :class:`TestMapInOrder`'s."""

    # Failing trial 1 while trial 0 still runs: the other worker used to run
    # every queued trial before trial 0 ended and the error was seen.
    @pytest.mark.parametrize("failing, held", [({0}, ()), ({1}, {0})], ids=["first", "second"])
    def test_queued_trials_are_cancelled(self, monkeypatch, failing, held):
        calls = patch_channel_table(monkeypatch, failing, held)
        with pytest.raises(StructureError, match=f"trial {min(failing)} failed"):
            capacity_sweep([1.0], ChannelModel.identity(), WindowSpec.rectangular(), SMALL,
                           trials=40, seed=0, threads=2)
        assert len(calls) <= 4, calls

    def test_lowest_failing_trial_is_raised(self, monkeypatch):
        # Trial 1 fails first; trial 0 fails later and is the one raised.
        calls = patch_channel_table(monkeypatch, failing={0, 1}, held={0})
        with pytest.raises(StructureError, match="trial 0 failed"):
            capacity_sweep([1.0], ChannelModel.identity(), WindowSpec.rectangular(), SMALL,
                           trials=40, seed=0, threads=2)
        assert calls[:2] == [0, 1] and len(calls) <= 4


def run_item(record_dir, failing, held, item):
    """Record ``item`` as started in ``record_dir``, take 0.5 s if it is in
    ``held`` and 50 ms otherwise, then raise ValueError if it is in
    ``failing`` and else return its square."""
    Path(record_dir, str(item)).touch()
    time.sleep(0.5 if item in held else 0.05)
    if item in failing:
        raise ValueError(f"item {item} failed")
    return item * item


def caller(item):
    return os.getpid(), threading.get_ident()


class TestMapInOrder:
    """``_lapack.map_in_order``: results in item order, at most two items
    per worker in flight, no item submitted after a failure, the lowest
    failing item's error, BLAS on one thread while the pool lives, no worker
    left after the ``with`` block, and the caller's numpy error state."""

    @pytest.fixture(params=["threads"])
    def pool(self):
        """The test's pool is one of threads, and none of them outlives the
        test."""
        threads = threading.active_count()
        yield
        assert threading.active_count() == threads

    @staticmethod
    def run(tmp_path, items, failing=(), held=(), pause=0.0):
        """Every result of ``run_item`` over ``items`` on two workers, in
        order, read ``pause`` seconds apart; the pool must leave no thread
        or BLAS pin behind, also when it raises."""
        threads, blas = threading.active_count(), CONTROL and blas_count()
        function = functools.partial(run_item, str(tmp_path), frozenset(failing),
                                     frozenset(held))
        try:
            with otfsim._lapack.map_in_order(function, items, 2) as outcomes:
                results = []
                for result in outcomes:
                    results.append(result)
                    time.sleep(pause)
                return results
        finally:
            assert threading.active_count() == threads
            assert (CONTROL and blas_count()) == blas

    @staticmethod
    def started(tmp_path):
        return sorted(int(path.name) for path in tmp_path.iterdir())

    def test_results_in_item_order(self, tmp_path, pool):
        assert self.run(tmp_path, range(12), held={0}) == [i * i for i in range(12)]
        assert self.started(tmp_path) == list(range(12))

    def test_two_items_per_worker_in_flight(self, tmp_path, pool):
        function = functools.partial(run_item, str(tmp_path), frozenset(), frozenset({0}))
        with otfsim._lapack.map_in_order(function, range(12), 2) as outcomes:
            # Items 1 to 3 end while item 0 runs; item 4 waits until item 0 is read.
            assert next(outcomes) == 0
            assert self.started(tmp_path) == [0, 1, 2, 3]
            assert list(outcomes) == [i * i for i in range(1, 12)]

    def test_fewer_than_two_workers_or_items_run_in_the_caller(self, monkeypatch, pool):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(otfsim._lapack, "_pool", no_pool)
        for workers, items in ((1, range(5)), (0, range(3)), (4, range(1)), (4, range(0))):
            with otfsim._lapack.map_in_order(caller, items, workers) as outcomes:
                assert list(outcomes) == [caller(None)] * len(items)

    def test_missing_workers_mean_one_per_usable_cpu(self, monkeypatch, pool):
        # Threads share the process's BLAS, so without the library's pin
        # they are not started.
        if CONTROL is None:
            pytest.skip("numpy's bundled OpenBLAS is not found on this platform")
        monkeypatch.setattr(otfsim._lapack, "usable_cpus", lambda: 3)
        pools = recorded_pools(monkeypatch)
        for library in (True, False):
            pools.clear()
            with contextlib.ExitStack() as stack:
                if not library:
                    stack.enter_context(without_library())
                with otfsim._lapack.map_in_order(caller, range(6)) as outcomes:
                    callers = list(outcomes)
            if library:
                assert pools == [3]
                assert caller(None) not in callers
            else:
                assert pools == []
                assert callers == [caller(None)] * 6

    # Item 2 fails while item 0 still runs. Reading item 1 would submit
    # item 4, and the pause after that read gives a worker time to start it.
    def test_no_item_submitted_after_a_failure(self, tmp_path, pool):
        with pytest.raises(ValueError, match="item 2 failed"):
            self.run(tmp_path, range(40), failing={2}, held={0}, pause=0.2)
        started = self.started(tmp_path)
        assert started[:3] == [0, 1, 2] and len(started) <= 4, started

    def test_lowest_failing_item_is_raised(self, tmp_path, pool):
        # Item 1 fails first; item 0 fails later and is the one raised.
        with pytest.raises(ValueError, match="item 0 failed"):
            self.run(tmp_path, range(40), failing={0, 1}, held={0})
        started = self.started(tmp_path)
        assert started[:2] == [0, 1] and len(started) <= 4, started

    def test_a_raising_consumer_leaves_no_worker_and_starts_no_queued_item(self, tmp_path, pool):
        function = functools.partial(run_item, str(tmp_path), frozenset(), frozenset(range(1, 40)))
        with pytest.raises(KeyError):
            with otfsim._lapack.map_in_order(function, range(40), 2) as outcomes:
                next(outcomes)
                raise KeyError("the consumer failed")
        # When item 0 is read, the two workers hold items 1 and 2 and item 3
        # is queued, and the pool cancels it.
        started = self.started(tmp_path)
        assert started[:3] == [0, 1, 2] and len(started) <= 3, started

    def test_blas_on_one_thread_while_the_pool_lives(self, pool, set_blas_threads):
        set_blas_threads(2)
        with otfsim._lapack.map_in_order(caller, range(4), 2) as outcomes:
            assert blas_count() == 1
            assert caller(None) not in list(outcomes)
        assert blas_count() == 2
        with otfsim._lapack.map_in_order(caller, range(4), 1) as outcomes:
            assert blas_count() == 2
            assert set(outcomes) == {caller(None)}

    def test_threads_run_items_in_the_callers_numpy_error_state(self):
        # numpy's error state is a context variable, and a new thread starts
        # in an empty context, so with numpy's default state.
        def error_state(item):
            return threading.get_ident(), np.geterr()

        with np.errstate(over="ignore", invalid="raise"):
            expected = np.geterr()
            with otfsim._lapack.map_in_order(error_state, range(4), 2) as outcomes:
                results = list(outcomes)
        assert expected != np.geterr()
        assert threading.get_ident() not in {ident for ident, _ in results}
        assert [state for _, state in results] == [expected] * 4


# Every variable the CLI's process settings read.
SETTING_VARIABLES = {"OPENBLAS_THREAD_TIMEOUT", "GLIBC_TUNABLES",
                     *(variable for variable, _ in _process._MALLOC_SETTINGS.values())}


def fresh_interpreter(code, **env):
    """stdout of ``code`` run by a new Python with the package on its path,
    every variable of ``SETTING_VARIABLES`` unset and every other variable
    as in ``env`` or inherited."""
    environ = {key: value for key, value in os.environ.items() if key not in SETTING_VARIABLES}
    environ.update(env, PYTHONPATH=str(Path(otfsim._lapack.__file__).parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=environ, capture_output=True,
                         text=True, timeout=60, check=True)
    return run.stdout


class TestIdleThreadTimeout:
    """Importing the CLI sets OpenBLAS's idle-thread timeout before numpy
    loads the library, so idle BLAS threads sleep within about 2 ms of a
    threaded call instead of spinning for about 0.13 s; it never overrides a
    timeout set before it. Importing the package sets nothing."""

    @pytest.mark.parametrize("code, env, expected", [
        ("import sys, otfsim; assert 'numpy' not in sys.modules", {}, "None"),
        ("import otfsim.cli", {}, "22"),
        ("import otfsim.cli", {"OPENBLAS_THREAD_TIMEOUT": "28"}, "28"),
        ("import numpy, otfsim.cli", {}, "None"),
    ], ids=["package", "cli", "user-set", "numpy-first"])
    def test_default_never_overrides_anyone(self, code, env, expected):
        code += "; import os; print(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))"
        assert fresh_interpreter(code, **env).strip() == expected

    def test_idle_worker_does_not_spin(self):
        if CONTROL is None or otfsim._lapack.usable_cpus() < 2:
            pytest.skip("needs numpy's bundled OpenBLAS and two usable CPUs")
        code = (
            "import otfsim.cli  # before numpy, as in the CLI\n"
            "import time\n"
            "import numpy as np\n"
            "from otfsim import _lapack\n"
            "matrix = np.random.default_rng(0).standard_normal((512, 512)) + 0j\n"
            "_lapack.gram(matrix)\n"
            "start = time.process_time()\n"
            "time.sleep(0.3)\n"
            "print(_lapack._bundled().get_threads(), time.process_time() - start)\n")
        threads, idle_cpu_s = fresh_interpreter(code, OPENBLAS_NUM_THREADS="2").split()
        if threads != "2":
            pytest.skip("OpenBLAS does not run 2 threads here")
        assert float(idle_cpu_s) < 0.03


def fake_libc(calls):
    """A C library whose ``mallopt`` records its calls in ``calls``."""

    def mallopt(parameter, value):
        calls.append((parameter, value))
        return 1

    return types.SimpleNamespace(mallopt=mallopt)


MMAP, TRIM = _process._M_MMAP_THRESHOLD, _process._M_TRIM_THRESHOLD
# How far glibc's mapped bytes (``mallinfo2().hblkhd``) grow, in KiB, while
# a fresh interpreter that ran ``{}`` allocates a 1 MiB numpy array.
MAPPED_KIB = """
import ctypes
{}
import numpy as np

class Mallinfo2(ctypes.Structure):
    _fields_ = [(field, ctypes.c_size_t) for field in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks", "uordblks",
        "fordblks", "keepcost")]

mallinfo2 = ctypes.CDLL(None).mallinfo2
mallinfo2.restype = Mallinfo2
before = mallinfo2().hblkhd
array = np.ones(1 << 17)
print((mallinfo2().hblkhd - before) // 1024)
"""


class TestMallocThresholds:
    """Importing the CLI pins glibc's mmap and trim thresholds at 4 MiB, each
    unless the user set it, and does nothing without ``mallopt``. Importing
    the package pins nothing."""

    @pytest.mark.parametrize("environ, pinned", [
        ({}, [MMAP, TRIM]),
        ({"MALLOC_MMAP_THRESHOLD_": "131072"}, [TRIM]),
        ({"MALLOC_TRIM_THRESHOLD_": "131072"}, [MMAP]),
        ({"MALLOC_MMAP_THRESHOLD_": "131072", "MALLOC_TRIM_THRESHOLD_": "0"}, []),
        ({"GLIBC_TUNABLES": "glibc.malloc.mmap_threshold=131072"}, [TRIM]),
        ({"GLIBC_TUNABLES": "glibc.malloc.check=0:glibc.malloc.trim_threshold=0"}, [MMAP]),
        ({"GLIBC_TUNABLES": "glibc.malloc.arena_max=1"}, [MMAP, TRIM]),
    ], ids=["unset", "mmap-variable", "trim-variable", "both-variables", "mmap-tunable",
            "trim-tunable", "other-tunable"])
    def test_pins_each_threshold_the_user_did_not_set(self, environ, pinned):
        calls = []
        _process._pin_malloc_thresholds(environ, fake_libc(calls))
        assert calls == [(parameter, 4 << 20) for parameter in pinned]

    def test_nothing_happens_without_mallopt(self):
        _process._pin_malloc_thresholds({}, object())

    @pytest.mark.parametrize("module, mapped_kib", [("otfsim", 1024), ("otfsim.cli", 0)],
                             ids=["package", "cli"])
    def test_only_the_cli_serves_a_1_mib_array_from_the_heap(self, module, mapped_kib):
        if not hasattr(_process._LIBC, "mallinfo2"):
            pytest.skip("needs glibc's mallinfo2")
        grown = int(fresh_interpreter(MAPPED_KIB.format(f"import {module}")))
        assert mapped_kib <= grown <= mapped_kib + 8


class TestLazyZeros:
    """``lazy_zeros`` is ``np.zeros``, and on Linux it advises an array of
    4 MiB or more against huge pages on exactly the pages inside it."""

    def advice(self, monkeypatch, shape, madvise=True):
        calls = []
        monkeypatch.setattr(otfsim._lapack, "_madvise",
                            (lambda *call: calls.append(call) or 0) if madvise else None)
        array = otfsim._lapack.lazy_zeros(shape)
        assert array.dtype == np.complex128 and array.shape == shape and not array.any()
        return array, calls

    def test_advises_the_whole_pages_of_a_large_array(self, monkeypatch):
        array, calls = self.advice(monkeypatch, (512, 513))
        page = otfsim._lapack._PAGE
        [(start, length, advice)] = calls
        assert advice == otfsim._lapack._MADV_NOHUGEPAGE
        assert start % page == 0 and length % page == 0
        assert array.ctypes.data <= start < array.ctypes.data + page
        assert array.ctypes.data + array.nbytes - page < start + length
        assert start + length <= array.ctypes.data + array.nbytes

    @pytest.mark.parametrize("shape, madvise", [((511, 512), True), ((512, 513), False)],
                             ids=["under-4-mib", "not-linux"])
    def test_advises_nothing_under_4_mib_or_off_linux(self, monkeypatch, shape, madvise):
        assert self.advice(monkeypatch, shape, madvise)[1] == []


def reference_export_config(seed, m=64, n=16, cp=8):
    """SISO frame with a drawn general transmit window and separable receive
    window, as in the benchmark's reference-export workload."""
    rng = np.random.default_rng(seed)

    def taper(size):
        values = 1.0 + 0.3 * (rng.standard_normal(size) + 1j * rng.standard_normal(size))
        return [[float(v.real), float(v.imag)] for v in values]

    return {
        "frame": {"M": m, "N": n, "M_cp": cp},
        "window": {"tx": {"kind": "general", "taps": taper(m * n)},
                   "rx": {"kind": "separable", "time": taper(n), "freq": taper(m)}},
        "channel": {"kind": "doppler-paths", "L": 6, "P": 4, "nu_max": 0.05},
        "noise": {"snr_db": [10.0]},
        "run": {"seed": seed, "emit_frequency_domain": True},
    }


def test_verify_report_does_not_depend_on_blas_threads(set_blas_threads, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(reference_export_config(1)))
    reports = []
    for blas in (1, 2):
        set_blas_threads(blas)
        out = tmp_path / f"blas{blas}"
        assert main(["verify", "--config", str(path), "--out", str(out)]) == 0
        reports.append((out / "report.json").read_bytes())
        assert blas_count() == blas
    assert reports[0] == reports[1]


@contextlib.contextmanager
def without_library():
    """Hide numpy's bundled OpenBLAS from the package, as on a numpy build
    that does not bundle it: the handle is None, so every ``_lapack`` path
    falls back to numpy and the pin does nothing."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(otfsim._lapack, "_bundled", lambda: None)
        yield


def test_without_the_library_every_path_falls_back_with_the_same_bits(set_blas_threads,
                                                                      tmp_path):
    # Without the pin, a factor's bits follow the BLAS thread count, so the
    # fallback matches the pinned default path with BLAS on one thread.
    set_blas_threads(1)
    paper = {
        "frame": {"M": 16, "N": 8, "M_cp": 4}, "mimo": {"n_t": 2, "n_r": 2},
        "channel": {"kind": "doppler-paths", "L": 4, "P": 3, "nu_max": 0.02},
        "noise": {"snr_db": [0, 10, 20]}, "run": {"seed": 11}}
    rng = np.random.default_rng(4)
    general = {
        "frame": {"M": 8, "N": 4, "M_cp": 2}, "mimo": {"n_t": 2, "n_r": 1},
        "window": {"tx": {"kind": "general",
                          "taps": (1.0 + 0.3 * rng.standard_normal((32, 2))).tolist()},
                   "rx": {"kind": "rectangular"}},
        "channel": {"kind": "doppler-paths", "L": 3, "P": 2, "nu_max": 0.05},
        "noise": {"snr_db": [10]}, "run": {"seed": 4}}
    for name, config in (("paper", paper), ("general", general)):
        (tmp_path / f"{name}.json").write_text(json.dumps(config))

    def outputs(run):
        sweep = capacity_sweep(PAPER_NOISE, PAPER_MODEL, WindowSpec.rectangular(), PAPER,
                               trials=4, seed=11)
        reports = []
        for name in ("paper", "general"):
            out = tmp_path / f"{run}-{name}"
            assert main(["verify", "--config", str(tmp_path / f"{name}.json"),
                         "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        return [(r.per_trial_otfs_bits, r.per_trial_ofdm_bits) for r in sweep], reports

    default = outputs("default")
    with without_library():
        fallback = outputs("fallback")
    assert otfsim._lapack._bundled() is CONTROL
    assert fallback[1] == default[1]
    assert all(json.loads(report)["all_passed"] is True for report in default[1])
    for (otfs, ofdm), (fallback_otfs, fallback_ofdm) in zip(default[0], fallback[0], strict=True):
        assert same_bits(fallback_otfs, otfs) and same_bits(fallback_ofdm, ofdm)
