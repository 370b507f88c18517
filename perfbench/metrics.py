"""The benchmark's workloads and metrics; BENCHMARK.json mirrors these tables.

Every run prints every end-to-end metric, so each one is defined for all
three workloads.  An *op* is a request (serve-mix), one tuned variant
(autotune-sweep) or one launch (paper-scale); a *cycle* is one pass over the
ten paper kernels.  Each per-layer metric names the end-to-end metrics and
workloads it should move, written down before any change is measured
against it.
"""

from __future__ import annotations

from .common import KERNELS

RUN_SECONDS = 30

WORKLOADS = {
    "serve-mix": (
        "Only workload through the serve layer: 2 closed-loop tenants cycle the ten "
        "kernels in lockstep on the default engine, SS and NN rounds coalesced; small "
        "grids where per-launch overhead counts."
    ),
    "autotune-sweep": (
        "The CUDA-NP user flow: cold autotune of 90 variants plus 10 baselines on "
        "megablock, every output checked; the only workload where the NP transform "
        "and cold lowering weigh."
    ),
    "paper-scale": (
        "Pure large-grid execution at paper sizes on megablock: baseline plus one "
        "inter-warp S=8 variant per kernel, full grids, checked; few huge batches "
        "against serve-mix's many small ones."
    ),
}

#: name -> (unit, better, bound, meaning).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25,
                "median of 5 cold set-ups: server start to ready (serve-mix), inputs "
                "and parse (autotune-sweep), inputs, parse, NP transform and lowering "
                "(paper-scale)"),
    "peak_rss_mb": ("MiB", "lower", 0.1,
                    "peak resident set of the simulating process (the server "
                    "subprocess on serve-mix)"),
    "ok_ratio": ("ratio", "higher", 0.01,
                 "1 - failed_ratio: ops answered and checked correct over ops attempted"),
    "cycle_s": ("s", "lower", 0.25,
                "sum over the ten kernels of the median host seconds of that kernel's "
                "op: request latency, one kernel's cold autotune, or its baseline plus "
                "variant launches (paper_pass_s)"),
    "ops_per_s": ("1/s", "higher", 0.25,
                  "checked ops per host second: serve_rps, tune_variants_per_s, or "
                  "paper-scale launches per second"),
    "sim_minst_per_s": ("Minst/s", "higher", 0.25,
                        "simulated warp instructions (KernelStats.total_insts) of all "
                        "launches per host second"),
}

#: name -> (unit, better, what it should move).  ``{K}`` expands per kernel.
PER_LAYER = {
    "minicuda.parse_ms": ("ms", "lower", "setup_s on every workload"),
    "npc.enumerate_ms": ("ms", "lower", "ops_per_s and cycle_s on autotune-sweep; no change elsewhere"),
    "npc.compile_np_ms": ("ms", "lower", "ops_per_s and cycle_s on autotune-sweep; no change elsewhere"),
    "npc.variants": ("count", "higher", "explains ops_per_s on autotune-sweep"),
    "npc.variant_cache_hit_ratio": ("ratio", "higher", "ops_per_s on autotune-sweep; no change elsewhere"),
    "npc.autotune_self_ms": ("ms", "lower", "ops_per_s and cycle_s on autotune-sweep; no change elsewhere"),
    "gpusim.launches": ("count", "higher", "explains ops_per_s on every workload"),
    "gpusim.launch_ms": ("ms", "lower", "cycle_s and ops_per_s on every workload"),
    "gpusim.launch_ms.{K}": ("ms", "lower", "the same, per kernel"),
    "gpusim.lower_ms": ("ms", "lower", "ops_per_s and cycle_s on autotune-sweep only"),
    "gpusim.lower_cache_hit_ratio": ("ratio", "higher", "ops_per_s and cycle_s on autotune-sweep only"),
    "gpusim.model_ms": ("ms", "lower", "cycle_s on every workload, by its small share"),
    "gpusim.exec_ms": ("ms", "lower",
                       "cycle_s and sim_minst_per_s on paper-scale; ops_per_s on "
                       "autotune-sweep; cycle_s and ops_per_s on serve-mix"),
    "gpusim.ns_per_inst": ("ns", "lower", "sim_minst_per_s on every workload"),
    "gpusim.engine_launches.interp": ("count", "higher", "explains step changes on serve-mix"),
    "gpusim.engine_launches.compiled": ("count", "higher", "explains step changes on serve-mix"),
    "gpusim.engine_launches.megablock": ("count", "higher", "explains step changes on serve-mix"),
    "gpusim.fallbacks": ("count", "lower", "explains step changes on serve-mix"),
    "gpusim.warp_insts": ("count", "lower", "simulated: identical under speed-only changes"),
    "gpusim.global_txns": ("count", "lower", "simulated: identical under speed-only changes"),
    "gpusim.bank_replays": ("count", "lower", "simulated: identical under speed-only changes"),
    "gpusim.modeled_ms.{K}": ("ms", "lower", "simulated: sets gpusim.modeled_speedup_gm"),
    "gpusim.modeled_speedup_gm": ("x", "higher",
                                  "simulated: the paper's result (2.18x), best variant "
                                  "(autotune-sweep) or fixed variant (paper-scale)"),
    "serve.parse_request_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.coalesce_key_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.kernel_cache_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.kernel_cache_hit_ratio": ("ratio", "higher", "cycle_s and ops_per_s on serve-mix only"),
    "serve.submit_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.queue_wait_ms": ("ms", "lower", "ops_per_s and the p90 latency on serve-mix"),
    "serve.encode_result_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.http_ms": ("ms", "lower", "cycle_s and ops_per_s on serve-mix only"),
    "serve.coalesced_ratio": ("ratio", "higher", "ops_per_s and the p90 latency on serve-mix"),
    "serve.requests": ("count", "higher", "sample count behind the serve latencies"),
    "serve.p50_ms": ("ms", "lower", "request latency median on serve-mix"),
    "serve.tail_ms": ("ms", "lower", "request latency at serve.tail_pct on serve-mix"),
    "serve.tail_pct": ("%", "higher",
                       "highest of p99/p95/p90/p80/p75/p50 with >= 10 samples beyond it"),
    "serve.shed": ("count", "lower", "ops_per_s on serve-mix"),
    "serve.errors": ("count", "lower", "ok_ratio on serve-mix"),
    "kernels.check_ms": ("ms", "lower", "nothing: the benchmark's own correctness cost"),
    "trace.overhead_pct": ("%", "lower", "nothing: estimated cost of the spans themselves"),
}


def per_layer_table() -> list:
    """``(name, unit, better, moves)`` for every per-layer metric, expanded."""
    rows = []
    for pattern, (unit, better, moves) in PER_LAYER.items():
        names = ([pattern.replace("{K}", k) for k in KERNELS]
                 if "{K}" in pattern else [pattern])
        rows.extend((name, unit, better, moves) for name in names)
    return rows


def per_layer_names() -> list:
    return [row[0] for row in per_layer_table()]


def benchmark_json() -> dict:
    """The BENCHMARK.json document these tables define."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound, _meaning) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, unit, better, _moves in per_layer_table()
        ],
    }
