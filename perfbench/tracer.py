"""Outside-in span tracer for ``otfsim``.

While installed, it replaces every public function of the traced modules,
plus ``OperatorChain.materialize``, with a wrapper that records a span:
name, start, end and parent span. A function is replaced at every module
binding that holds it, so ``synthesize`` is traced whether it is called
as ``otfsim.capacity.synthesize`` or as ``otfsim.cli.synthesize``. Spans
stay in memory; self time is a span's duration minus its child spans.

Nothing under ``src/`` is edited; ``uninstall`` puts every binding back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = ("channel", "mimo", "kronops", "capacity", "transceiver", "checks", "cli")
# Methods traced besides the public functions: the one that materializes
# full K and every effective matrix. Other methods are cheap steps whose
# time belongs to their caller.
METHODS = (("kronops", "OperatorChain", "materialize"),)

SPECIALIZATIONS = ("transceiver.effective_matrix_separable",
                   "transceiver.effective_matrix_rectangular",
                   "transceiver.effective_matrix_frequency_domain")
# Per-span statistics a metric name may end in.
FIELDS = ("calls", "self_s", "s", "bytes_computed")


def _nbytes(args, kwargs, result):
    return int(result.nbytes)


def _shape(args, kwargs, result):
    return tuple(result.shape)


def _draw_key(args, kwargs, result):
    """Identity of one channel draw: the generator's seed and spawn key, or
    the model and frame for the deterministic kinds that take no generator."""
    rng = kwargs.get("rng", args[2] if len(args) > 2 else None)
    frame = kwargs.get("cfg", args[1] if len(args) > 1 else None)
    if rng is None:
        return ("fixed", repr(frame), repr(args[0] if args else kwargs.get("model")))
    seq = rng.bit_generator.seed_seq
    return (seq.entropy, tuple(seq.spawn_key), repr(frame))


class Tracer:
    """Records spans of the traced ``otfsim`` functions.

    ``per_symbol_rows`` is M * n_r of the traced workload: a
    ``mutual_information`` call whose K has that many rows or fewer is a
    per-symbol route call, any larger K belongs to the block route.
    """

    def __init__(self, per_symbol_rows: int):
        self.per_symbol_rows = per_symbol_rows
        self.spans: List[list] = []   # [name, start, end, parent, info]
        self.installed: set = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable,
              info: Optional[Callable] = None,
              namer: Optional[Callable] = None) -> Callable:
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            record = [name if namer is None else namer(args, kwargs), clock(), 0.0,
                      stack[-1] if stack else -1, None]
            with tracer._lock:
                index = len(tracer.spans)
                tracer.spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if info is not None:
                record[4] = info(args, kwargs, result)
            return result

        return traced

    def _mi_route(self, args, kwargs) -> str:
        k = args[0] if args else kwargs["k_matrix"]
        rows = len(k)
        route = "per_symbol" if rows <= self.per_symbol_rows else "block"
        return f"capacity.mutual_information.{route}"

    def _hooks(self, name: str) -> dict:
        if name in ("channel.assemble_h_matrix", "kronops.block_diag"):
            return {"info": _nbytes}
        if name == "capacity.full_k_matrix":
            return {"info": _shape}
        if name == "capacity.mutual_information":
            return {"info": lambda a, k, r: tuple((a[0] if a else k["k_matrix"]).shape),
                    "namer": self._mi_route}
        if name == "channel.synthesize":
            return {"info": _draw_key}
        return {}

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        wrappers: Dict[Callable, Callable] = {}
        for short in LAYERS:
            module = importlib.import_module(f"otfsim.{short}")
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{short}.{attr}"
                wrappers[obj] = self._wrap(name, obj, **self._hooks(name))
                self.installed.add(name)
        for short, cls_name, attr in METHODS:
            cls = getattr(sys.modules[f"otfsim.{short}"], cls_name, None)
            method = vars(cls).get(attr) if inspect.isclass(cls) else None
            if inspect.isfunction(method):
                name = f"{short}.{cls_name}.{attr}"
                self._patch(cls, attr, self._wrap(name, method))
                self.installed.add(name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "otfsim" and not mod_name.startswith("otfsim."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(module, attr, wrappers[obj])

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis --------------------------------------------------------
    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(self.spans)]

    def stats(self) -> Dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, infos."""
        out: Dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "infos": []})
        for (name, start, end, _, info), self_s in zip(self.spans, self.self_times()):
            entry = out[name]
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += self_s
            if info is not None:
                entry["infos"].append(info)
        return out

    def untraced_s(self, wall_s: float) -> float:
        """Part of ``wall_s`` outside every span: the traced run's own code
        between calls into ``otfsim``."""
        return wall_s - sum(end - start for _, start, end, parent, _ in self.spans
                            if parent < 0)

    def block_route_gflop(self) -> float:
        """Computed GFLOP of the block route, from the K shapes: 8 R^2 C per
        Gram K K^H formed from an R x C K, and 4 R^3 / 3 per Cholesky.
        Every block-route ``mutual_information`` call forms one Gram and
        factors it; every full K that ``otfs_block_mi`` builds has its Gram
        formed once more for the off-block-diagonal scan."""
        flop = 0.0
        for name, _, _, parent, info in self.spans:
            if name == "capacity.mutual_information.block":
                rows, cols = info
                flop += 8.0 * rows * rows * cols + 4.0 * rows ** 3 / 3.0
            elif (name == "capacity.full_k_matrix" and parent >= 0
                    and self.spans[parent][0] == "capacity.otfs_block_mi"):
                rows, cols = info
                flop += 8.0 * rows * rows * cols
        return flop / 1e9

    def span_name_present(self, name: str) -> bool:
        if name.startswith("capacity.mutual_information."):
            return "capacity.mutual_information" in self.installed
        return name in self.installed

    def metric(self, name: str, stats: Dict[str, dict]) -> Optional[float]:
        """Value of one per-layer metric, or None when the function it
        measures no longer exists in the program."""
        if name == "channel.synthesize.useful_ratio":
            if not self.span_name_present("channel.synthesize"):
                return None
            entry = stats.get("channel.synthesize")
            return len(set(entry["infos"])) / entry["calls"] if entry else 0.0
        if name == "capacity.block_route.gflop_computed":
            return self.block_route_gflop()
        if name == "capacity.block_route.gflops":
            seconds = sum(stats[s]["self_s"] for s in (
                "capacity.mutual_information.block", "capacity.otfs_block_mi") if s in stats)
            return self.block_route_gflop() / seconds if seconds > 0 else 0.0
        if name == "transceiver.specializations.self_s":
            present = [s for s in SPECIALIZATIONS if self.span_name_present(s)]
            if not present:
                return None
            return sum((stats[s]["self_s"] for s in present if s in stats), 0.0)
        span, _, field = name.rpartition(".")
        if field not in FIELDS:
            raise KeyError(f"no rule for per-layer metric {name!r}")
        if not self.span_name_present(span):
            return None
        if field == "bytes_computed":
            return float(sum(stats[span]["infos"])) if span in stats else 0.0
        return float(stats[span][field]) if span in stats else 0.0
