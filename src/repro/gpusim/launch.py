"""Kernel launch API: the simulator's host-side runtime.

``launch`` plays the role of ``kernel<<<grid, block>>>(args)``: it allocates
global buffers for array arguments, runs the thread blocks the way
:func:`plan_launch` decides (optionally sampling blocks for very large
grids), and combines the collected statistics with the occupancy calculator
and the Hong–Kim timing model into a :class:`LaunchResult`.

Error model (CUDA-style).  A faulting launch behaves like a sticky per-launch
device error: with ``on_error="raise"`` (the default) the enriched
:class:`~repro.gpusim.errors.SimError` — carrying a located
:class:`~repro.gpusim.diagnostics.FaultContext` — propagates to the caller;
with ``on_error="status"`` the launch *returns* and the result's
:attr:`LaunchResult.error` holds a :class:`~repro.gpusim.diagnostics.FaultReport`
the way ``cudaGetLastError`` + ``compute-sanitizer`` would describe it.
``faults`` accepts a :class:`~repro.gpusim.faults.FaultInjector` consulted at
every interpreter hook point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Optional, Union

import numpy as np

from ..minicuda.nodes import Kernel, PointerType
from ..minicuda.parser import parse_kernel
from ..prof.counters import KernelProfile
from . import scheduler
from .compile import kernel_uses_atomics
from .megablock import (
    MegaProfile,
    MegablockExecutor,
    compile_megablock,
    megablock_flatten,
)
from .pool import LaunchSpec
from .resilience import ResilienceConfig, ResilienceTelemetry, get_breaker
from .device import DeviceSpec, GTX680
from .diagnostics import FaultContext, FaultReport
from .errors import LaunchError, SimError
from .interp import WARP_SIZE, BlockExecutor, WarpScaffold
from .memory import ConstArray, GlobalMemory, dtype_for
from .occupancy import Occupancy, ResourceUsage, compute_occupancy
from .racecheck import Sanitizer, SanitizerReport
from .stats import AccessTrace, KernelStats
from .timing import TimingResult, estimate_kernel_time

Dim = Union[int, tuple[int, ...]]


def _as_dim3(value: Dim) -> tuple[int, int, int]:
    if isinstance(value, int):
        value = (value,)
    given = tuple(int(v) for v in value)
    if len(given) > 3:
        raise LaunchError(
            f"dimensions are at most 3-D, got {len(given)} components: {value!r}"
        )
    dims = given + (1, 1, 1)
    if any(v <= 0 for v in dims[:3]):
        raise LaunchError(f"dimensions must be positive, got {value!r}")
    return dims[:3]


@dataclass
class LaunchResult:
    """Everything a host program learns from one simulated launch.

    A *failed* launch (``on_error="status"``) still returns a result:
    :attr:`error` carries the located :class:`FaultReport`, :attr:`ok` is
    False, and the model outputs (:attr:`occupancy`, :attr:`timing`,
    :attr:`usage`) are ``None`` — like device memory after a sticky CUDA
    error, the partial statistics are retained for post-mortem only.
    """

    kernel_name: str
    grid: tuple[int, int, int]
    block: tuple[int, int, int]
    device: DeviceSpec
    stats: KernelStats
    occupancy: Optional[Occupancy]
    timing: Optional[TimingResult]
    usage: Optional[ResourceUsage]
    gmem: GlobalMemory
    trace: AccessTrace = field(default_factory=AccessTrace)
    sampled_blocks: Optional[int] = None
    #: The exact (ascending, deduplicated) linear block IDs executed when
    #: ``sample_blocks`` sampled the grid; None for a full-grid launch.
    sampled_block_ids: Optional[tuple[int, ...]] = None
    #: Engine the launch resolved to: "megablock" (the default) or "interp"
    #: — see :func:`resolve_backend`.  A megablock launch that ran per block
    #: says so on :attr:`megablock_fallback`.
    backend: str = "megablock"
    #: Worker-process count when the parallel block scheduler ran this
    #: launch; None when blocks executed sequentially.
    parallel_workers: Optional[int] = None
    #: Why a *requested* parallel launch (>= 2 resolved workers) ran
    #: sequentially; None when it ran parallel or was never requested.  A
    #: pool reason of :data:`ELIGIBILITY`, or "worker-fault" (a worker
    #: faulted and the launch reran sequentially).
    parallel_fallback: Optional[str] = None
    #: Why a megablock launch ran per block on the reference interpreter
    #: instead of as one batch; None when it batched (or was never
    #: megablock).  A batch reason of :data:`ELIGIBILITY`, or "sim-fault"
    #: (the batch raised, global memory was restored from the launch
    #: snapshot, and the per-block rerun reproduced the exact semantics).
    megablock_fallback: Optional[str] = None
    #: Whether the batched megablock run folded the warp axis into the batch
    #: (megawarp: one ``(blocks × warps, lanes)`` stack, the only mode that
    #: executes atomics).  True/False when the batched engine ran, None when
    #: it fell back or was never requested.
    megablock_megawarp: Optional[bool] = None
    #: Resilience telemetry of the parallel attempt (attempts, retries,
    #: deadline kills, breaker state, pool lifecycle events), when this
    #: launch requested parallelism and reached the scheduler; None
    #: otherwise.  See :class:`~repro.gpusim.resilience.ResilienceTelemetry`.
    resilience: Optional[ResilienceTelemetry] = None
    #: Per-line/per-block hotspot counters, when the launch ran with
    #: ``profile=True`` (None otherwise).  Bit-identical between the
    #: interp and megablock backends and between sequential and parallel
    #: scheduling.
    profile: Optional[KernelProfile] = None
    error: Optional[FaultReport] = None
    #: Racecheck/initcheck findings, when the launch ran under
    #: ``racecheck=True`` / ``initcheck=True`` (None otherwise).  Present
    #: even on a failed launch: findings before the fault are retained.
    sanitizer: Optional[SanitizerReport] = None

    @property
    def ok(self) -> bool:
        """True when the launch ran to completion without a fault."""
        return self.error is None

    def raise_if_failed(self) -> None:
        """Re-raise the captured fault (no-op on a successful launch)."""
        if self.error is not None:
            raise SimError(self.error.message, ctx=self.error.ctx)

    def buffer(self, name: str) -> np.ndarray:
        """Final contents of the global buffer bound to parameter ``name``."""
        if name not in self.gmem:
            if self.error is not None:
                raise SimError(
                    f"buffer {name!r} unavailable: launch failed with "
                    f"{self.error.summary()}",
                    ctx=self.error.ctx,
                )
            raise KeyError(name)
        return self.gmem[name].data

    @property
    def total_blocks(self) -> int:
        gx, gy, gz = self.grid
        return gx * gy * gz

    @property
    def threads_per_block(self) -> int:
        bx, by, bz = self.block
        return bx * by * bz

    @property
    def total_warps(self) -> int:
        return self.total_blocks * math.ceil(self.threads_per_block / WARP_SIZE)

    @property
    def milliseconds(self) -> float:
        self.raise_if_failed()
        assert self.timing is not None
        return self.timing.milliseconds


BACKENDS = ("interp", "megablock")


def resolve_backend(backend: Optional[str] = None) -> str:
    """The engine a launch runs: explicit ``backend=``, then the
    ``GPUSIM_BACKEND`` environment variable, then ``"megablock"``."""
    name = backend if backend is not None else (
        os.environ.get("GPUSIM_BACKEND") or "megablock"
    )
    if name not in BACKENDS:
        raise ValueError(
            f"backend must be 'interp' or 'megablock', got {name!r}"
        )
    return name


@dataclass(frozen=True)
class LaunchFacts:
    """What :data:`ELIGIBILITY` reads about one launch.  The probes cost
    work (``batch_atomics`` checks the megablock row layout) or change state
    (``breaker_allows`` counts a skip on an open breaker), so they are
    called at most once, and only when the table reaches their row."""

    blocks: int
    trace: bool = False
    faults: object = None  # a FaultInjector, or None
    sanitizer: bool = False
    uses_atomics: bool = False
    batch_atomics: Callable[[], bool] = lambda: True
    scheduler_available: bool = True
    breaker_allows: Callable[[], bool] = lambda: True


#: The eligibility table, in order: ``(reason, refuses, condition)``.  A row
#: refuses the megablock ``"batch"``, the worker ``"pool"``, or both; each
#: takes the reason of the first row that refuses it and holds.  Every row
#: that refuses the batch refuses the pool, so pooled megablock chunks batch.
#: A refused batch runs per block on the reference interpreter.
ELIGIBILITY = (
    # One block batches; it only has nothing to fan out.
    ("single-block", ("pool",), lambda f: f.blocks < 2),
    ("trace", ("batch", "pool"), lambda f: f.trace),
    # Worker-fault-only injectors need no interpreter hooks: the pool
    # resolves their specs itself.
    ("faults", ("batch", "pool"),
     lambda f: f.faults is not None and not f.faults.worker_only()),
    ("sanitizer", ("batch", "pool"), lambda f: f.sanitizer),
    # Atomics batch only in the flattened (megawarp) row order.
    ("atomic-order", ("batch",), lambda f: f.uses_atomics and not f.batch_atomics()),
    # The pool's diff-based memory merge cannot accumulate across blocks.
    ("atomics", ("pool",), lambda f: f.uses_atomics),
    ("unavailable", ("pool",), lambda f: not f.scheduler_available),
    ("breaker-open", ("pool",), lambda f: not f.breaker_allows()),
)


@dataclass(frozen=True)
class LaunchPlan:
    """How :func:`launch` runs one launch, decided before any block runs."""

    engine: str  # LaunchResult.backend
    batched: bool  # megablock runs the block axis as one batch
    workers: int  # resolved ``parallel=`` count; < 2 runs sequentially
    megablock_fallback: Optional[str] = None
    parallel_fallback: Optional[str] = None

    @property
    def parallel(self) -> bool:
        return self.workers >= 2 and self.parallel_fallback is None


def plan_launch(
    facts: LaunchFacts,
    backend: Optional[str] = None,
    parallel: Optional[Union[int, bool, str]] = None,
) -> LaunchPlan:
    """Decide engine, batching and parallelism for one launch; runs no
    kernel.  Batch rows apply only to megablock and pool rows only to >= 2
    resolved workers, so a reason names something that was requested."""
    def refusal(target: str) -> Optional[str]:
        return next((reason for reason, refuses, holds in ELIGIBILITY
                     if target in refuses and holds(facts)), None)

    engine = resolve_backend(backend)
    workers = scheduler.resolve_workers(parallel)
    batch_refusal = refusal("batch") if engine == "megablock" else None
    return LaunchPlan(
        engine=engine,
        batched=engine == "megablock" and batch_refusal is None,
        workers=workers,
        megablock_fallback=batch_refusal,
        parallel_fallback=refusal("pool") if workers >= 2 else None,
    )


def launch(
    kernel: Kernel,
    grid: Dim,
    block: Dim,
    args: Mapping[str, Union[np.ndarray, int, float]],
    device: DeviceSpec = GTX680,
    const_arrays: Optional[Mapping[str, np.ndarray]] = None,
    usage: Optional[ResourceUsage] = None,
    sample_blocks: Optional[int] = None,
    trace: bool = False,
    on_error: str = "raise",
    faults=None,
    synccheck: bool = False,
    racecheck: bool = False,
    initcheck: bool = False,
    backend: Optional[str] = None,
    parallel: Optional[Union[int, bool, str]] = None,
    profile: bool = False,
    resilience: Optional[ResilienceConfig] = None,
    cache_dir: Optional[str] = None,
) -> LaunchResult:
    """Simulate one kernel launch.

    ``args`` maps parameter names to numpy arrays (allocated as global
    buffers; the result exposes their final contents) or scalars.
    ``const_arrays`` binds texture references / constant buffers accessed by
    name inside the kernel.  ``sample_blocks`` runs only that many evenly
    spaced blocks and extrapolates the statistics — functional output is then
    partial, so use it for timing-only studies.

    ``on_error="raise"`` (default) propagates simulator faults as located
    exceptions; ``on_error="status"`` contains them and returns a
    :class:`LaunchResult` whose :attr:`LaunchResult.error` describes the
    fault.  ``faults`` is an optional
    :class:`~repro.gpusim.faults.FaultInjector`.

    ``synccheck=True`` enables strict barrier validation (the analogue of
    ``compute-sanitizer --tool synccheck``): every non-exited lane must be
    active at each ``__syncthreads``, and all warps must wait at the same
    textual barrier.  The default matches pre-Volta hardware, where a
    warp's arrival at any barrier counts — behaviour the paper's generated
    master/slave kernels (barriers under divergent ``if``) depend on.

    ``racecheck=True`` / ``initcheck=True`` run the launch under the
    :mod:`~repro.gpusim.racecheck` sanitizer (the analogues of
    ``compute-sanitizer --tool racecheck`` / ``--tool initcheck``): shared
    write/read hazards between warps not ordered by a barrier, and reads of
    never-written shared or local elements, are collected — without aborting
    the launch — into :attr:`LaunchResult.sanitizer`.

    ``backend`` selects the engine: ``"megablock"`` (the batched engine of
    :mod:`repro.gpusim.megablock`, lowered once per source and cached) or
    ``"interp"`` (the reference interpreter); ``None`` defers to
    ``GPUSIM_BACKEND``, defaulting to ``"megablock"``.  Both produce
    bit-identical results.

    ``parallel`` fans independent blocks out to worker processes: an int
    worker count, ``True`` or ``"auto"`` for one per CPU (``None`` defers to
    ``GPUSIM_PARALLEL``).  :func:`plan_launch` decides batching and
    parallelism from :data:`ELIGIBILITY`; a refused launch runs per block,
    with the reason on :attr:`LaunchResult.megablock_fallback` /
    :attr:`LaunchResult.parallel_fallback`.  A refused batch runs per block
    on the reference interpreter.  A batch that raises restores global
    memory and reruns per block (``"sim-fault"``) and a worker fault reruns
    sequentially (``"worker-fault"``), so fault semantics stay exact.

    ``profile=True`` collects per-source-line hotspot counters and per-block
    cost records into :attr:`LaunchResult.profile` (see :mod:`repro.prof`),
    bit-identical across backends and sequential/parallel scheduling.

    ``resilience`` overrides the parallel path's
    :class:`~repro.gpusim.resilience.ResilienceConfig` (per-chunk deadline,
    retry budget, breaker threshold); ``None`` reads the
    ``GPUSIM_LAUNCH_TIMEOUT`` / ``GPUSIM_MAX_RETRIES`` /
    ``GPUSIM_BREAKER_THRESHOLD`` knobs.  The degradation ladder (parallel →
    fewer workers → sequential) lands on :attr:`LaunchResult.resilience`; a
    tripped circuit breaker makes later launches fall back with
    ``"breaker-open"`` until its half-open probe succeeds.

    ``cache_dir`` activates the process-wide persistent cache tier rooted
    at that directory (equivalent to exporting ``GPUSIM_CACHE_DIR``):
    NP-transformed variants and autotune outcomes become content-addressed
    disk entries shared across processes — see :mod:`repro.gpusim.diskcache`.
    The setting is sticky for the process; pass it once.
    """
    if cache_dir is not None:
        from . import diskcache

        diskcache.configure(cache_dir)
    if on_error not in ("raise", "status"):
        raise ValueError(f"on_error must be 'raise' or 'status', got {on_error!r}")
    backend_name = resolve_backend(backend)

    stats = KernelStats()
    access_trace = AccessTrace(enabled=trace)
    sanitizer = (
        Sanitizer(racecheck=racecheck, initcheck=initcheck)
        if (racecheck or initcheck)
        else None
    )
    gmem = GlobalMemory()
    grid3: tuple[int, int, int] = (1, 1, 1)
    block3: tuple[int, int, int] = (1, 1, 1)
    executed = 0
    total_blocks = 1
    shared_bytes = 0
    sampled_ids: Optional[tuple[int, ...]] = None
    parallel_workers: Optional[int] = None
    parallel_fallback: Optional[str] = None
    megablock_fallback: Optional[str] = None
    megablock_megawarp: Optional[bool] = None
    telemetry: Optional[ResilienceTelemetry] = None
    res_cfg = resilience if resilience is not None else ResilienceConfig.from_env()
    prof_obj = KernelProfile(kernel=kernel.name) if profile else None

    def result(**outcome) -> LaunchResult:
        return LaunchResult(
            kernel_name=kernel.name, grid=grid3, block=block3, device=device,
            stats=stats, gmem=gmem, trace=access_trace,
            sampled_block_ids=sampled_ids, backend=backend_name,
            parallel_workers=parallel_workers,
            parallel_fallback=parallel_fallback,
            megablock_fallback=megablock_fallback,
            megablock_megawarp=megablock_megawarp, resilience=telemetry,
            profile=prof_obj,
            sanitizer=sanitizer.report() if sanitizer is not None else None,
            **outcome,
        )

    try:
        grid3 = _as_dim3(grid)
        block3 = _as_dim3(block)
        threads_per_block = block3[0] * block3[1] * block3[2]
        if threads_per_block > device.max_threads_per_block:
            raise LaunchError(
                f"block {block3} has {threads_per_block} threads; device limit is "
                f"{device.max_threads_per_block}"
            )

        # --- bind arguments ------------------------------------------------
        base_env: dict = {}
        param_names = {p.name for p in kernel.params}
        missing = param_names - set(args)
        if missing:
            raise LaunchError(f"missing kernel arguments: {sorted(missing)}")
        extra = set(args) - param_names
        if extra:
            raise LaunchError(f"unknown kernel arguments: {sorted(extra)}")
        scalar_args: dict = {}
        for param in kernel.params:
            value = args[param.name]
            if isinstance(param.type, PointerType):
                if not isinstance(value, np.ndarray):
                    raise LaunchError(f"parameter {param.name!r} expects an array")
                expected = dtype_for(param.type.elem.name)
                buf = gmem.alloc(param.name, np.asarray(value, dtype=expected))
                base_env[param.name] = buf
            else:
                if isinstance(value, np.ndarray):
                    raise LaunchError(f"parameter {param.name!r} expects a scalar")
                base_env[param.name] = (
                    float(value) if param.type.name == "float" else int(value)
                )
                scalar_args[param.name] = base_env[param.name]
        for cname, cdata in (const_arrays or {}).items():
            base_env[cname] = ConstArray(cname, np.asarray(cdata))

        # --- fault injection: the launch itself may be dropped --------------
        if faults is not None:
            faults.begin_launch(kernel.name, grid3, block3)

        # --- lower / scaffold -----------------------------------------------
        # Both are launch-invariant; the megablock program is cached by source
        # digest, looked up once here and shared by the plan's atomics probe
        # and the executor.
        mega = (
            compile_megablock(kernel, profile=profile)
            if backend_name == "megablock" else None
        )
        scaffold = WarpScaffold(
            kernel, block3, grid3,
            decls=mega.shared_decls if mega is not None else None,
        )

        # --- choose the blocks ----------------------------------------------
        gx, gy, gz = grid3
        total_blocks = gx * gy * gz
        if sample_blocks is not None and sample_blocks < 1:
            # Guard the two divisions downstream (step spacing, stats
            # extrapolation): 0 or negative sampling is a caller bug and
            # must surface as a launch error, not a ZeroDivisionError.
            raise LaunchError(
                f"sample_blocks must be >= 1, got {sample_blocks}"
            )
        if sample_blocks is not None and sample_blocks < total_blocks:
            step = total_blocks / sample_blocks
            # Evenly spaced IDs collide after int() truncation when
            # sample_blocks doesn't divide the grid; dedupe preserving the
            # ascending generation order (dict keeps insertion order) so the
            # executed set is deterministic and documented on the result.
            block_ids = list(
                dict.fromkeys(int(i * step) for i in range(sample_blocks))
            )
            sampled_ids = tuple(block_ids)
        else:
            block_ids = list(range(total_blocks))

        # --- plan ------------------------------------------------------------
        def batch_atomics() -> bool:
            return mega.atomics_exact and megablock_flatten(
                mega, scaffold.num_warps, bool(scaffold.shared_decls),
                synccheck,
            )

        breaker = get_breaker()
        plan = plan_launch(
            LaunchFacts(
                blocks=len(block_ids),
                trace=trace,
                faults=faults,
                sanitizer=sanitizer is not None,
                uses_atomics=(mega.uses_atomics if mega is not None
                              else kernel_uses_atomics(kernel)),
                batch_atomics=batch_atomics,
                scheduler_available=scheduler.available(),
                breaker_allows=lambda: breaker.allow(res_cfg),
            ),
            backend_name,
            parallel,
        )
        megablock_fallback = plan.megablock_fallback
        parallel_fallback = plan.parallel_fallback
        if plan.workers >= 2 and parallel_fallback in (None, "breaker-open"):
            # The attempt reached the scheduler's gate: make it observable.
            telemetry = ResilienceTelemetry()
            if parallel_fallback == "breaker-open":
                telemetry.breaker_state = breaker.state
                telemetry.degraded = "sequential"
                telemetry.record(
                    "breaker-skip", "circuit breaker open; running sequentially"
                )

        # --- execute blocks --------------------------------------------------
        def run_block(
            linear: int,
            stats_obj: KernelStats,
            profile_obj: Optional[KernelProfile],
        ) -> int:
            bz_i, rem = divmod(linear, gx * gy)
            by_i, bx_i = divmod(rem, gx)
            executor = BlockExecutor(
                kernel,
                block_idx=(bx_i, by_i, bz_i),
                block_dim=block3,
                grid_dim=grid3,
                base_env=base_env,
                stats=stats_obj,
                trace=access_trace,
                injector=faults,
                linear_block=linear,
                synccheck=synccheck,
                sanitizer=sanitizer,
                scaffold=scaffold,
                profile=profile_obj,
            )
            executor.run()
            return executor.shared_bytes

        ran_parallel = False
        if plan.parallel:
            trips_before = breaker.trips
            spec = LaunchSpec(
                kernel=kernel,
                grid=grid3,
                block=block3,
                gmem=gmem,
                scalars=scalar_args,
                const_arrays={
                    cname: np.asarray(cdata)
                    for cname, cdata in (const_arrays or {}).items()
                },
                backend=backend_name,
                synccheck=synccheck,
                profile_kernel=kernel.name if profile else None,
            )
            outcome = scheduler.execute_blocks(
                spec,
                block_ids,
                gmem,
                plan.workers,
                profile=prof_obj,
                config=res_cfg,
                telemetry=telemetry,
                # The plan admits only worker-fault injectors to the pool.
                injector=faults,
            )
            breaker.record_result(telemetry.worker_faults, res_cfg)
            telemetry.breaker_trips = breaker.trips - trips_before
            telemetry.breaker_state = breaker.state
            if outcome is not None:
                stats.merge(outcome.stats)
                executed = outcome.executed
                shared_bytes = outcome.shared_bytes
                parallel_workers = outcome.workers
                ran_parallel = True
            else:
                # Set before the rerun: if the sequential rerun faults too,
                # the error-path result still explains the degradation.
                parallel_fallback = "worker-fault"
                telemetry.degraded = "sequential"
        if not ran_parallel:
            ran_megablock = False
            if plan.batched:
                # Batched execution is speculative: snapshot global memory,
                # run the whole block axis at once, and on ANY SimError
                # restore the snapshot and rerun per block on the
                # interpreter — the rerun reproduces the exact located fault
                # and semantics.  After a worker fault parent memory is
                # still pristine, so the sequential rerun batches too.
                snapshot = {name: buf.data.copy() for name, buf in gmem.buffers().items()}
                mb_stats = KernelStats()
                mb_prof = (
                    MegaProfile(kernel.name, block_ids, scaffold.num_warps,
                                scaffold.total_threads)
                    if profile else None
                )
                try:
                    mb_executor = MegablockExecutor(
                        kernel, block_ids, block3, grid3, base_env, mb_stats,
                        mega, synccheck=synccheck, scaffold=scaffold,
                        profile=mb_prof,
                    )
                    mb_executor.run()
                except SimError:
                    for name, buf in gmem.buffers().items():
                        buf.data[...] = snapshot[name]
                    megablock_fallback = "sim-fault"
                else:
                    stats.merge(mb_stats)
                    if mb_prof is not None:
                        mb_prof.finish(prof_obj)
                    shared_bytes = mb_executor.shared_bytes
                    executed += len(block_ids)
                    ran_megablock = True
                    megablock_megawarp = mb_executor.flatten
            if not ran_megablock:
                for linear in block_ids:
                    shared_bytes = run_block(linear, stats, prof_obj)
                    executed += 1
    except SimError as exc:
        if exc.ctx is None:
            exc.attach(
                FaultContext(
                    kernel=kernel.name,
                    grid=grid3,
                    block_dim=block3,
                    provenance=getattr(kernel, "provenance", None),
                )
            )
        if on_error == "raise":
            raise
        return result(
            occupancy=None,
            timing=None,
            usage=None,
            sampled_blocks=executed or None,
            error=FaultReport.from_exception(exc, kernel=kernel.name),
        )

    timing_stats = stats
    if executed < total_blocks:
        timing_stats = stats.scaled(total_blocks / executed)

    # --- resources / occupancy / timing --------------------------------------
    if usage is None:
        from ..analysis.resources import estimate_resources

        report = mega.resources if mega is not None else estimate_resources(kernel)
        usage = ResourceUsage(
            reg_bytes_per_thread=report.reg_bytes_per_thread,
            shared_bytes_per_block=max(report.shared_bytes_per_block, shared_bytes),
            local_bytes_per_thread=report.local_bytes_per_thread,
        )
    occupancy = compute_occupancy(device, threads_per_block, usage)
    total_warps = total_blocks * math.ceil(threads_per_block / WARP_SIZE)
    timing = estimate_kernel_time(
        device, timing_stats, occupancy, usage, total_warps=total_warps
    )
    return result(
        occupancy=occupancy,
        timing=timing,
        usage=usage,
        sampled_blocks=executed if executed < total_blocks else None,
    )


def run_kernel(
    source_or_kernel: Union[str, Kernel],
    grid: Dim,
    block: Dim,
    args: Mapping[str, Union[np.ndarray, int, float]],
    **kwargs,
) -> LaunchResult:
    """Convenience wrapper: accepts kernel source text or a parsed kernel."""
    kernel = (
        parse_kernel(source_or_kernel)
        if isinstance(source_or_kernel, str)
        else source_or_kernel
    )
    return launch(kernel, grid, block, args, **kwargs)
