"""paper-scale: every paper kernel at paper size, full grid, on megablock.

Each pass launches, per kernel, the baseline and one fixed NP variant
(inter-warp, 8 slaves) at ``repro.experiments.scales.PAPER_SCALE_KWARGS``
size with no block sampling, and checks both outputs with
``GpuBenchmark.check``.  Set-up draws the inputs, parses, runs the NP
transform and lowers both kernels, so the passes measure execution (and
its stat reductions and timing model) only.
"""

from __future__ import annotations

import importlib
import time

from .common import (
    KERNELS,
    PAPER_SPEEDUP_GM,
    SETUPS,
    BenchError,
    NormClock,
    geomean,
    kernel_names,
    median,
    peak_rss_mb,
    pin,
    seeded_bench,
    work_cpus,
)
from .tracing import Tracer

BACKEND = "megablock"
NP_TYPE = "inter"
SLAVE_SIZE = 8


def _setup(seed: int) -> dict:
    """``{kernel: (bench, variant)}`` with inputs drawn and lowering warm."""
    from repro.experiments.scales import PAPER_SCALE_KWARGS
    from repro.gpusim.compile import clear_compile_cache, compile_kernel
    from repro.gpusim.megablock import compile_megablock
    from repro.npc.pipeline import clear_variant_cache

    clear_compile_cache()
    clear_variant_cache()
    out = {}
    for k in KERNELS:
        bench = seeded_bench(k, seed, **PAPER_SCALE_KWARGS[k])
        configs = [c for c in bench.configs()
                   if c.np_type == NP_TYPE and c.slave_size == SLAVE_SIZE and not c.padded]
        if not configs:
            raise BenchError(f"{k} has no {NP_TYPE}-warp S={SLAVE_SIZE} variant")
        variant = bench.compile_variant(configs[0])
        for kernel in (bench.kernel, variant.kernel):
            compile_kernel(kernel)
            compile_megablock(kernel)
        out[k] = (bench, variant)
    return out


def _launch(bench, variant, args):
    """The baseline (``variant is None``) or the variant on ``args``."""
    # Calls go through module attributes so a traced run's wrappers see them.
    if variant is None:
        launch_mod = importlib.import_module("repro.gpusim.launch")
        return launch_mod.launch(bench.kernel, bench.grid, bench.block_size, args,
                                 const_arrays=bench.const_arrays(), backend=BACKEND)
    autotune_mod = importlib.import_module("repro.npc.autotune")
    return autotune_mod.launch_variant(variant, bench.grid, args,
                                       const_arrays=bench.const_arrays(), backend=BACKEND)


def run(seed: int, seconds: float, trace: bool) -> dict:
    from repro.gpusim.errors import SimError

    tracer = Tracer()
    if trace:
        tracer.install_layers()
    sim_cpu, _ = work_cpus()
    pin(sim_cpu)
    clock = NormClock(sim_cpu)
    setups = []
    for _ in range(SETUPS):
        kernels, _raw, norm = clock.call(_setup, seed)
        setups.append(norm)

    times = {(k, which): [] for k in KERNELS for which in ("base", "np")}
    raw_times = {key: [] for key in times}
    first: dict = {}
    failures: list = []
    attempted = 0
    before = _cache_counts()
    t0 = time.monotonic()
    deadline = t0 + seconds
    i = 0
    # Every kernel runs at least once.
    while i < len(KERNELS) or time.monotonic() < deadline:
        k = KERNELS[i % len(KERNELS)]
        bench, variant = kernels[k]
        for which, v in (("base", None), ("np", variant)):
            attempted += 1
            try:
                result, raw, norm = clock.call(_launch, bench, v, bench.make_args())
                ok = tracer.span("kernels.check", bench.check, result)
            except SimError as exc:
                failures.append(f"{k} {which} pass {i // len(KERNELS)}: {exc}")
                continue
            if not ok:
                failures.append(f"{k} {which} pass {i // len(KERNELS)}: "
                                "output differs from the numpy reference")
                continue
            times[(k, which)].append(norm)
            raw_times[(k, which)].append(raw)
            # Only the first pass's stats are kept: they are the fixed
            # reference the simulated counts come from.
            first.setdefault((k, which), (result.stats, result.milliseconds))
        i += 1
    t1 = time.monotonic()
    busy_s = sum(sum(v) for v in raw_times.values())
    missing = [f"{k} {which}" for (k, which), v in times.items() if not v]
    if missing:
        raise BenchError(f"no correct launch of {', '.join(missing)}: {failures[:4]}")

    med = {key: median(v) for key, v in times.items()}
    cycle_s = sum(med.values())
    insts = sum(float(stats.total_insts) for stats, _ms in first.values())
    speedups = {k: first[(k, "base")][1] / first[(k, "np")][1] for k in KERNELS}
    rows = [f"{'kernel':6} {'passes':>6} {'base ms':>9} {'np ms':>9} "
            f"{'base model ms':>13} {'np model ms':>12} {'speedup':>7}"]
    for k in KERNELS:
        rows.append(f"{k:6} {len(times[(k, 'base')]):6d} {1e3 * med[(k, 'base')]:9.1f} "
                    f"{1e3 * med[(k, 'np')]:9.1f} {first[(k, 'base')][1]:13.4f} "
                    f"{first[(k, 'np')][1]:12.4f} {speedups[k]:7.2f}")
    gm = geomean(speedups.values())
    rows.append(f"geomean: base {geomean(1e3 * med[(k, 'base')] for k in KERNELS):.1f} host ms, "
                f"np {geomean(1e3 * med[(k, 'np')] for k in KERNELS):.1f} host ms; "
                f"paper_pass_s {cycle_s:.3f} "
                f"({sum(median(v) for v in raw_times.values()):.3f} raw); "
                f"modeled_speedup_gm {gm:.4f} "
                f"(paper {PAPER_SPEEDUP_GM}x)")

    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - len(failures) / attempted,
        "cycle_s": cycle_s,
        "ops_per_s": 2 * len(KERNELS) / cycle_s,
        "sim_minst_per_s": insts / cycle_s / 1e6,
    }
    out = {"e2e": e2e, "attempted": attempted, "failed": len(failures),
           "failures": failures, "rows": rows}
    if trace:
        tracer.uninstall()
        after = _cache_counts()
        counters = {key: after[key] - before[key] for key in after}
        out["layers"] = _layers(tracer, kernels, first, gm, counters, t0, t1, busy_s)
    return out


def _cache_counts() -> dict:
    from repro.gpusim.compile import compile_cache_stats
    from repro.npc.pipeline import variant_cache_stats

    lower, variant = compile_cache_stats(), variant_cache_stats()
    return {"lower_hits": lower.hits, "lower_misses": lower.misses,
            "variant_hits": variant.hits, "variant_misses": variant.misses}


def _layers(tracer, kernels, first, gm, counters, t0, t1, busy_s):
    from .layers import layer_metrics, overhead_pct
    from .tracing import window

    stats = [s for s, _ms in first.values()]
    sim = {
        "warp_insts": sum(float(s.total_insts) for s in stats),
        "global_txns": sum(int(s.global_transactions) for s in stats),
        "bank_replays": sum(int(s.shared_bank_replays) for s in stats),
        "modeled_ms": {k: first[(k, "base")][1] + first[(k, "np")][1] for k in KERNELS},
    }
    win = window(tracer.spans, t0, t1)
    benches = {k: bench for k, (bench, _variant) in kernels.items()}
    out = layer_metrics(tracer.spans, win, kernel_names(benches), sim, counters)
    out["gpusim.modeled_speedup_gm"] = gm
    out["trace.overhead_pct"] = overhead_pct(len(win), busy_s)
    return out
