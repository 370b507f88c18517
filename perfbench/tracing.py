"""Outside-in tracing: spans around calls into each layer's public functions.

:class:`Tracer` replaces a public function by a timing wrapper in every
``repro`` module that holds it (so ``from .launch import launch`` callers are
covered too).  Spans stay in memory as ``(name, start, end, parent, span_id,
attrs)`` tuples with ``time.monotonic`` stamps, which are comparable across
processes on one host, and are written out once when the benchmark ends.  Nothing in
the program changes; tracing inside the program is a separate piece of work.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

#: (span name, defining module, attribute) for the direct-launch layers.
LAYER_FUNCTIONS = (
    ("minicuda.parse", "repro.minicuda.parser", "parse_kernel"),
    ("npc.enumerate", "repro.npc.pipeline", "enumerate_configs"),
    ("npc.compile_np", "repro.npc.pipeline", "compile_np"),
    ("npc.autotune", "repro.npc.autotune", "autotune"),
    ("gpusim.launch", "repro.gpusim.launch", "launch"),
    ("gpusim.lower", "repro.gpusim.compile", "compile_kernel"),
    ("gpusim.lower", "repro.gpusim.megablock", "compile_megablock"),
    ("gpusim.model", "repro.gpusim.timing", "estimate_kernel_time"),
    ("gpusim.model", "repro.gpusim.occupancy", "compute_occupancy"),
)

#: (span name, defining module, class, method) for the serve layer.
SERVE_METHODS = (
    ("serve.handler", "repro.serve.app", "ServeHandler", "_handle_launch"),
    ("serve.kernel_cache", "repro.serve.kernels", "KernelCache", "get"),
    ("serve.submit", "repro.serve.batcher", "CoalescingBatcher", "submit"),
)
SERVE_FUNCTIONS = (
    ("serve.parse_request", "repro.serve.protocol", "parse_request"),
    ("serve.coalesce_key", "repro.serve.protocol", "coalesce_key"),
    ("serve.encode_result", "repro.serve.protocol", "encode_result"),
)


def engine_of(result) -> str:
    """The engine that executed a launch (a refused megablock batch runs
    per block on the compiled closures)."""
    if result.backend == "megablock" and result.megablock_fallback is not None:
        return "compiled"
    return result.backend


def launch_attrs(result) -> dict:
    """What a launch span records about its result."""
    stats = result.stats
    return {
        "kernel": result.kernel_name,
        "engine": engine_of(result),
        "fallback": bool(result.megablock_fallback or result.parallel_fallback),
        "insts": float(stats.total_insts),
        "txns": int(stats.global_transactions),
        "replays": int(stats.shared_bank_replays),
        "modeled_ms": (
            result.timing.milliseconds if result.timing is not None else 0.0
        ),
    }


class Tracer:
    """In-memory span recorder with per-thread parent links."""

    def __init__(self) -> None:
        self.spans: list = []
        # Unique across the benchmark and server processes' spans.
        self._ids = itertools.count((os.getpid() << 32) + 1)
        self._local = threading.local()
        self._installed: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; returns its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            stack.pop()
        attrs = None
        if name == "gpusim.launch":
            attrs = launch_attrs(result)
            # Lets the submit span find the launch it waited on.
            result._perfbench_launch_s = end - start
        elif name == "serve.submit":
            launched, coalesced = result
            attrs = {"launch_s": getattr(launched, "_perfbench_launch_s", None),
                     "coalesced": bool(coalesced)}
        self.spans.append((name, start, end, parent, span_id, attrs))
        return result

    def _wrapper(self, name: str, original):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            return self.span(name, original, *args, **kwargs)

        return traced

    def install_function(self, name: str, module: str, attr: str) -> None:
        """Wrap ``module.attr`` and every ``repro`` module alias of it."""
        original = getattr(sys.modules[module], attr)
        traced = self._wrapper(name, original)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            if getattr(mod, attr, None) is original:
                setattr(mod, attr, traced)
                self._installed.append((mod, attr, original))

    def install_method(self, name: str, module: str, cls: str, attr: str) -> None:
        owner = getattr(sys.modules[module], cls)
        original = getattr(owner, attr)
        setattr(owner, attr, self._wrapper(name, original))
        self._installed.append((owner, attr, original))

    def install_layers(self, serve: bool = False) -> None:
        import importlib

        # Import every consumer before patching so by-name aliases exist.
        for module in {m for _n, m, _a in LAYER_FUNCTIONS} | {
                "repro.kernels", "repro.gpusim.stream", "repro.serve"}:
            importlib.import_module(module)
        for name, module, attr in LAYER_FUNCTIONS:
            self.install_function(name, module, attr)
        if serve:
            for name, module, attr in SERVE_FUNCTIONS:
                self.install_function(name, module, attr)
            for name, module, cls, attr in SERVE_METHODS:
                self.install_method(name, module, cls, attr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def dump(self, path, **extra) -> None:
        with open(path, "w") as fh:
            json.dump(dict(extra, spans=self.spans), fh)


def load_dump(path) -> dict:
    with open(path) as fh:
        dump = json.load(fh)
    dump["spans"] = [tuple(s) for s in dump["spans"]]
    return dump


def window(spans, start: float, end: float) -> list:
    """Spans that began inside ``[start, end]``."""
    return [s for s in spans if start <= s[1] <= end]


def self_times(spans) -> dict:
    """Call counts and self seconds per span name.

    A span's self time is its duration minus the durations of its direct
    children (spans on the same thread whose parent is this span).
    """
    child_s = defaultdict(float)
    for _name, start, end, parent, _id, _attrs in spans:
        if parent is not None:
            child_s[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for name, start, end, _parent, span_id, _attrs in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - child_s.get(span_id, 0.0)
    return dict(out)


def children_of(spans, parent_name: str, child_name: str) -> list:
    """Spans named ``child_name`` whose direct parent is a ``parent_name`` span."""
    parents = {s[4] for s in spans if s[0] == parent_name}
    return [s for s in spans if s[0] == child_name and s[3] in parents]
