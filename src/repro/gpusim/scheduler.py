"""Parallel block scheduler: fan independent thread blocks across processes.

CUDA gives no ordering or visibility guarantees between thread blocks of one
launch, so when no diagnostic feature needs the exact sequential interleaving
(tracing, fault injection, sanitizers, atomics that accumulate across
blocks), blocks can execute in worker processes concurrently.  The design
keeps results bit-identical to the sequential path:

* Block IDs are split into **contiguous ascending chunks**; each chunk's
  write-set is computed against the launch-pristine buffer contents and the
  parent applies the write-sets and merges the stats **in ascending chunk
  order**, which reproduces the sequential last-writer-wins order for any
  overlapping writes.  Integer statistics merge exactly; float stat
  accumulation order differs across chunk boundaries, so weighted ALU
  counters can differ from the sequential path by float rounding (ULPs).
* (``data != before`` over-approximates for a value rewritten in place —
  merging an identical value is harmless — and NaN compares unequal to
  itself, so NaN writes are always treated as changed.)

The substrate is the supervised worker pool of :mod:`repro.gpusim.pool`:
long-lived heartbeated workers, per-chunk deadlines, bounded chunk-level
retry, and graceful degradation, all recorded on
:class:`~repro.gpusim.resilience.ResilienceTelemetry`.  Megablock chunks
batch their blocks; interp chunks run block by block.

A worker that hits a simulator fault makes the scheduler return ``None``:
the caller reruns the launch sequentially against the untouched parent
memory, so fault semantics (partial stats, located context) are exactly
those of the sequential path.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional, Sequence

from ..prof.counters import KernelProfile
from . import pool as pool_mod
from .errors import LaunchError
from .memory import GlobalMemory
from .pool import LaunchSpec, ParallelOutcome  # re-exported for callers
from .resilience import ResilienceConfig, ResilienceTelemetry


def available() -> bool:
    """Fork-based scheduling needs a POSIX fork start method."""
    if os.name != "posix":
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:
        return False
    return True


def resolve_workers(parallel) -> int:
    """Normalize the ``parallel=`` knob (falling back to the
    ``GPUSIM_PARALLEL`` environment variable) to a worker count; 0 or 1
    means sequential."""
    if parallel is None:
        parallel = os.environ.get("GPUSIM_PARALLEL")
    if parallel is None or parallel is False or parallel == "":
        return 0
    if parallel is True:
        return os.cpu_count() or 1
    if isinstance(parallel, str):
        if parallel.strip().lower() == "auto":
            return os.cpu_count() or 1
        try:
            return max(int(parallel), 0)
        except ValueError:
            raise LaunchError(f"invalid parallel setting {parallel!r}") from None
    return max(int(parallel), 0)


def chunk_blocks(block_ids: Sequence[int], workers: int) -> list[list[int]]:
    """Split into at most ``4 * workers`` contiguous runs of near-equal size
    (a few chunks per worker smooths load imbalance between blocks)."""
    n = len(block_ids)
    count = min(n, max(1, workers * 4))
    out: list[list[int]] = []
    base, extra = divmod(n, count)
    start = 0
    for i in range(count):
        size = base + (1 if i < extra else 0)
        out.append(list(block_ids[start : start + size]))
        start += size
    return out


def execute_blocks(
    spec: LaunchSpec,
    block_ids: Sequence[int],
    gmem: GlobalMemory,
    workers: int,
    profile: Optional[KernelProfile] = None,
    config: Optional[ResilienceConfig] = None,
    telemetry: Optional[ResilienceTelemetry] = None,
    injector=None,
) -> Optional[ParallelOutcome]:
    """Run ``block_ids`` of the launch ``spec`` across ``workers`` pool
    processes.

    Returns ``None`` when the parallel attempt must be abandoned (simulator
    fault, retries exhausted, no surviving workers) — parent memory is then
    still pristine and the caller reruns sequentially.  On success the write
    sets and stats are already merged (ascending chunk order) into ``gmem``
    and the returned stats object; when ``profile`` is given, each worker
    collects a chunk-local :class:`KernelProfile` and those merge (integer
    sums, so exactly) into ``profile`` in the same ascending order.
    ``telemetry`` (when given) receives the resilience counters and
    lifecycle events.
    """
    config = config if config is not None else ResilienceConfig.from_env()
    if telemetry is None:
        telemetry = ResilienceTelemetry()
    return pool_mod.get_pool().run_launch(
        spec, chunk_blocks(block_ids, workers), gmem, workers, config,
        telemetry, profile=profile, injector=injector,
    )
