"""autotune-sweep: cold CUDA-NP autotuning of every paper kernel on megablock.

Each timed call is one kernel's ``repro.npc.autotune`` over its full variant space
(90 variants and 10 baselines across the ten kernels), with every output
checked through ``check_output``.  The variant and lowering caches are
cleared before every call, so each call transforms and lowers from cold;
the disk tier stays off.  Kernels are tuned in turn until the time is up.
"""

from __future__ import annotations

import importlib
import time

from .common import (
    KERNELS,
    PAPER_SPEEDUP_GM,
    SETUPS,
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


def _setup(seed: int) -> dict:
    """Inputs and parsed kernels of the ten paper benchmarks."""
    benches = {k: seeded_bench(k, seed) for k in KERNELS}
    for bench in benches.values():
        bench.kernel  # parses
    return benches


def _clear_caches(counters: dict) -> None:
    """Fold the cache counters into ``counters``, then empty the caches."""
    from repro.gpusim.compile import clear_compile_cache, compile_cache_stats
    from repro.npc.pipeline import clear_variant_cache, variant_cache_stats

    lower, variant = compile_cache_stats(), variant_cache_stats()
    counters["lower_hits"] += lower.hits
    counters["lower_misses"] += lower.misses
    counters["variant_hits"] += variant.hits
    counters["variant_misses"] += variant.misses
    clear_compile_cache()
    clear_variant_cache()


def tune(bench, tracer: Tracer, failures: list):
    """One cold autotune; returns ``(report or None, attempted, failed)``."""
    # The package re-exports a function named ``autotune``, so the module
    # is looked up by name; calls go through module attributes so that a
    # traced run's wrappers see them.
    autotune_mod = importlib.import_module("repro.npc.autotune")
    pipeline = importlib.import_module("repro.npc.pipeline")
    from repro.gpusim.errors import SimError

    def check(result):
        return tracer.span("kernels.check", bench.check, result)

    # enumerate_configs takes the flat thread count (MC's block is 2-D).
    configs = pipeline.enumerate_configs(bench.kernel, bench.flat_block_size)
    try:
        report = autotune_mod.autotune(
            bench.kernel, bench.block_size, bench.grid, bench.make_args,
            configs=configs, check_output=check, const_arrays=bench.const_arrays(),
            backend=BACKEND,
        )
    except (RuntimeError, SimError) as exc:  # the baseline faulted or was wrong
        failures.append(f"{bench.name} baseline: {exc}")
        return None, 1 + len(configs), 1 + len(configs)
    bad = [p for p in report.points if p.error is not None or p.output_ok is not True]
    for p in bad:
        failures.append(f"{bench.name} {p.label}: {p.error or 'output differs from reference'}")
    return report, 1 + len(report.points), len(bad)


def run(seed: int, seconds: float, trace: bool) -> dict:
    tracer = Tracer()
    if trace:
        tracer.install_layers()
    sim_cpu, _ = work_cpus()
    pin(sim_cpu)
    clock = NormClock(sim_cpu)
    setups = []
    for _ in range(SETUPS):
        benches, _raw, norm = clock.call(_setup, seed)
        setups.append(norm)

    counters = {"lower_hits": 0, "lower_misses": 0, "variant_hits": 0, "variant_misses": 0}
    times = {k: [] for k in KERNELS}
    raw_times = {k: [] for k in KERNELS}
    first = {}
    failures: list = []
    attempted = failed = variants = 0
    t0 = time.monotonic()
    deadline = t0 + seconds
    i = 0
    # Every kernel is tuned at least once.
    while i < len(KERNELS) or time.monotonic() < deadline:
        k = KERNELS[i % len(KERNELS)]
        _clear_caches(counters)
        (report, n, bad), raw, norm = clock.call(tune, benches[k], tracer, failures)
        times[k].append(norm)
        raw_times[k].append(raw)
        attempted += n
        failed += bad
        if report is not None:
            variants += len(report.points)
            first.setdefault(k, report)
        i += 1
    t1 = time.monotonic()
    _clear_caches(counters)
    busy_s = sum(sum(v) for v in raw_times.values())

    per_kernel = {k: median(v) for k, v in times.items()}
    insts = sum(float(r.stats.total_insts) for rep in first.values() for r in _results(rep))
    n_variants = sum(len(r.points) for r in first.values())
    cycle_s = sum(per_kernel.values())
    raw_cycle_s = sum(median(v) for v in raw_times.values())
    rows = [f"{'kernel':6} {'tunes':>5} {'variants':>8} {'median ms':>10} "
            f"{'base model ms':>13} {'best model ms':>13} {'speedup':>7}  best"]
    speedups = []
    for k in KERNELS:
        r = first.get(k)
        if r is None or not r.valid_points:
            rows.append(f"{k:6} {len(times[k]):5d} no valid variant")
            continue
        best = r.best
        speedups.append(r.best_speedup)
        rows.append(f"{k:6} {len(times[k]):5d} {len(r.points):8d} {1e3 * per_kernel[k]:10.1f} "
                    f"{r.baseline.milliseconds:13.4f} {best.seconds * 1e3:13.4f} "
                    f"{r.best_speedup:7.2f}  {best.label}")
    host_gm = geomean([1e3 * v for v in per_kernel.values()])
    rows.append(f"geomean: {host_gm:.1f} host ms per kernel tune; modeled best speedup "
                f"{geomean(speedups) if speedups else 0:.3f}x (paper {PAPER_SPEEDUP_GM}x); "
                f"tune_variants_per_s {n_variants / cycle_s:.2f} "
                f"({n_variants / raw_cycle_s:.2f} raw)")

    e2e = {
        "setup_s": median(setups),
        "peak_rss_mb": peak_rss_mb(),
        "ok_ratio": 1.0 - failed / attempted,
        "cycle_s": cycle_s,
        "ops_per_s": n_variants / cycle_s,
        "sim_minst_per_s": insts / cycle_s / 1e6,
    }
    out = {"e2e": e2e, "attempted": attempted, "failed": failed,
           "failures": failures, "rows": rows}
    if trace:
        tracer.uninstall()
        out["layers"] = _layers(tracer, benches, first, counters, variants,
                                speedups, t0, t1, busy_s)
    return out


def _results(report) -> list:
    """The baseline's and every measured variant's launch results."""
    return [report.baseline] + [p.result for p in report.points if p.result is not None]


def _layers(tracer, benches, first, counters, variants, speedups, t0, t1, busy_s):
    from .layers import layer_metrics, overhead_pct
    from .tracing import window

    sim = {"warp_insts": 0.0, "global_txns": 0, "bank_replays": 0, "modeled_ms": {}}
    for k, report in first.items():
        results = _results(report)
        sim["warp_insts"] += sum(float(r.stats.total_insts) for r in results)
        sim["global_txns"] += sum(int(r.stats.global_transactions) for r in results)
        sim["bank_replays"] += sum(int(r.stats.shared_bank_replays) for r in results)
        sim["modeled_ms"][k] = sum(r.milliseconds for r in results)
    win = window(tracer.spans, t0, t1)
    out = layer_metrics(tracer.spans, win, kernel_names(benches), sim,
                        dict(counters, npc_variants=variants))
    out["gpusim.modeled_speedup_gm"] = geomean(speedups) if speedups else 0.0
    out["trace.overhead_pct"] = overhead_pct(len(win), busy_s)
    return out
