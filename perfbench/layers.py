"""Per-layer metrics from the spans of a traced run.

Times are means per call of the named layer, except the ``gpusim.*`` times,
which are per launch so that ``launch_ms = lower_ms + model_ms + exec_ms``.
Metrics of a layer a workload does not reach read 0.
"""

from __future__ import annotations

import time

from .common import KERNELS
from .metrics import per_layer_names
from .tracing import Tracer, children_of, self_times


def _mean_ms(spans) -> float:
    return 1e3 * sum(s[2] - s[1] for s in spans) / len(spans) if spans else 0.0


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(all_spans, win_spans, kernel_of: dict, sim: dict,
                  counters: dict) -> dict:
    """Every per-layer metric.

    ``all_spans`` include set-up (parsing happens there); ``win_spans`` are
    those of the measured window.  ``kernel_of`` maps kernel function names
    to paper names, ``sim`` holds the simulated counts of the workload's
    fixed reference launches and ``counters`` the cache and serve counters
    read from the program.
    """
    out = {name: 0.0 for name in per_layer_names()}
    by_name: dict = {}
    for span in win_spans:
        by_name.setdefault(span[0], []).append(span)
    selfs = self_times(win_spans)

    out["minicuda.parse_ms"] = _mean_ms([s for s in all_spans if s[0] == "minicuda.parse"])
    out["npc.enumerate_ms"] = _mean_ms(by_name.get("npc.enumerate", []))
    out["npc.compile_np_ms"] = _mean_ms(by_name.get("npc.compile_np", []))
    out["npc.variants"] = counters.get("npc_variants", 0)
    out["npc.variant_cache_hit_ratio"] = _ratio(
        counters.get("variant_hits", 0), counters.get("variant_misses", 0))
    tunes = selfs.get("npc.autotune")
    if tunes:
        out["npc.autotune_self_ms"] = 1e3 * tunes["self_s"] / tunes["calls"]

    launches = by_name.get("gpusim.launch", [])
    n = len(launches)
    out["gpusim.launches"] = n
    if n:
        out["gpusim.launch_ms"] = _mean_ms(launches)
        lower = children_of(win_spans, "gpusim.launch", "gpusim.lower")
        model = children_of(win_spans, "gpusim.launch", "gpusim.model")
        out["gpusim.lower_ms"] = 1e3 * sum(s[2] - s[1] for s in lower) / n
        out["gpusim.model_ms"] = 1e3 * sum(s[2] - s[1] for s in model) / n
        exec_s = selfs["gpusim.launch"]["self_s"]
        out["gpusim.exec_ms"] = 1e3 * exec_s / n
        insts = sum(s[5]["insts"] for s in launches)
        out["gpusim.ns_per_inst"] = 1e9 * exec_s / insts if insts else 0.0
        for s in launches:
            key = f"gpusim.engine_launches.{s[5]['engine']}"
            if key in out:
                out[key] += 1
            out["gpusim.fallbacks"] += int(s[5]["fallback"])
        for k in KERNELS:
            mine = [s for s in launches if kernel_of.get(s[5]["kernel"]) == k]
            out[f"gpusim.launch_ms.{k}"] = _mean_ms(mine)
    out["gpusim.lower_cache_hit_ratio"] = _ratio(
        counters.get("lower_hits", 0), counters.get("lower_misses", 0))

    out["gpusim.warp_insts"] = sim.get("warp_insts", 0.0)
    out["gpusim.global_txns"] = sim.get("global_txns", 0)
    out["gpusim.bank_replays"] = sim.get("bank_replays", 0)
    for k in KERNELS:
        out[f"gpusim.modeled_ms.{k}"] = sim.get("modeled_ms", {}).get(k, 0.0)

    out["serve.parse_request_ms"] = _mean_ms(by_name.get("serve.parse_request", []))
    out["serve.coalesce_key_ms"] = _mean_ms(by_name.get("serve.coalesce_key", []))
    out["serve.kernel_cache_ms"] = _mean_ms(by_name.get("serve.kernel_cache", []))
    out["serve.kernel_cache_hit_ratio"] = _ratio(
        counters.get("kernel_cache_hits", 0), counters.get("kernel_cache_misses", 0))
    submits = by_name.get("serve.submit", [])
    out["serve.submit_ms"] = _mean_ms(submits)
    if submits:
        # A follower's whole submit is waiting; a leader waits for the part
        # of its submit the launch itself does not cover.
        waits = [max(0.0, (s[2] - s[1]) - (s[5]["launch_s"] or 0.0)) for s in submits]
        out["serve.queue_wait_ms"] = 1e3 * sum(waits) / len(waits)
    out["serve.encode_result_ms"] = _mean_ms(by_name.get("serve.encode_result", []))
    handlers = by_name.get("serve.handler", [])
    latencies = counters.get("client_latencies_s", [])
    if handlers and latencies:
        out["serve.http_ms"] = 1e3 * sum(latencies) / len(latencies) - _mean_ms(handlers)
    out["serve.coalesced_ratio"] = counters.get("coalesced_ratio", 0.0)
    out["serve.shed"] = counters.get("shed", 0)
    out["serve.errors"] = counters.get("errors", 0)

    out["kernels.check_ms"] = _mean_ms(by_name.get("kernels.check", []))
    return out


def span_cost_s(samples: int = 20000) -> float:
    """Host seconds one span adds, measured on a no-op call."""
    tracer = Tracer()

    def noop():
        return None

    best = float("inf")
    for _ in range(3):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(samples):
            tracer.span("noop", noop)
        plain = time.perf_counter()
        for _ in range(samples):
            noop()
        end = time.perf_counter()
        best = min(best, ((plain - start) - (end - plain)) / samples)
    return max(best, 0.0)


def overhead_pct(span_count: int, busy_s: float) -> float:
    """Estimated share of busy time the spans themselves cost."""
    return 100.0 * span_count * span_cost_s() / busy_s if busy_s > 0 else 0.0
