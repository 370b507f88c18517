"""Supervised persistent worker pool for the parallel block scheduler.

A throwaway ``multiprocessing.Pool`` per launch, collected with
``pool.map`` and no timeout, deadlocks the launch forever on a hung or
SIGKILLed worker, and one failed chunk discards every completed chunk.  This
module is the *supervised, persistent* runtime instead:

- **Long-lived workers.**  Workers are forked once and survive across
  launches; per-launch work arrives over a per-worker duplex pipe as a
  picklable :class:`LaunchSpec` broadcast followed by chunk messages.  Each
  worker keeps its own lowering cache warm across launches, so a hot
  serving loop stops paying the per-launch fork *and* the per-process
  lowering cost.
- **Health checking.**  Every worker runs a daemon heartbeat thread that
  stamps a shared ``monotonic`` cell; :meth:`WorkerPool.health` exposes
  liveness, heartbeat age, and completed-task counts.
- **Deadlines.**  The parent's supervision loop is the watchdog: every
  dispatched chunk carries a deadline
  (:attr:`~repro.gpusim.resilience.ResilienceConfig.effective_chunk_timeout`);
  a worker that blows it is SIGKILLed and replaced.  The launch can no
  longer block indefinitely.
- **Chunk-level retry.**  Only the failed chunk is re-dispatched (bounded
  by ``max_retries``, with seeded jittered backoff).  Completed chunks are
  never re-executed, which preserves the ascending-merge bit-identity
  contract: every chunk's write-set is computed against the launch-pristine
  buffer snapshot (workers restore their buffers after each chunk), so a
  chunk's writes are a pure function of the chunk id and the merge applies
  them in ascending chunk order exactly like the sequential path.
- **Graceful degradation.**  Worker replacement is budgeted
  (``max_respawns``); past the budget the launch finishes on the surviving
  workers (``degraded="reduced"``), and if retries are exhausted or no
  workers survive the launch falls back to the exact-semantics sequential
  path (``degraded="sequential"``).  A :class:`~repro.gpusim.resilience.
  CircuitBreaker` (consulted by ``launch()``) stops requesting parallelism
  at all after repeated faults.

A worker that reports a *simulator* fault (:class:`SimError` inside the
kernel) still aborts the whole parallel attempt — fault semantics (partial
stats, located context) must be exactly those of the sequential rerun, so
sim faults are never retried.
"""

from __future__ import annotations

import atexit
import collections
import os
import pickle
import random
import signal
import threading
import time
from dataclasses import dataclass
from multiprocessing import connection
from typing import Dict, List, Optional, Sequence

import multiprocessing
import numpy as np

from ..prof.counters import KernelProfile
from .errors import SimError
from .memory import ConstArray, GlobalMemory
from .resilience import ResilienceConfig, ResilienceTelemetry, jittered_backoff
from .stats import AccessTrace, KernelStats

#: Exit code used by the injected ``worker_crash`` fault (visible in events).
CRASH_EXIT_CODE = 13


@dataclass
class ParallelOutcome:
    """Successful parallel execution, already merged into the parent state."""

    stats: KernelStats
    executed: int
    shared_bytes: int
    workers: int


@dataclass(frozen=True)
class LaunchSpec:
    """Everything a worker needs to rebuild one launch's execution state.

    Shipped (pickled) over the worker pipe once per launch; deliberately
    contains no closures — a megablock worker lowers the kernel through its
    own process-local LRU (warm across launches) and every worker rebuilds
    the warp scaffold.
    """

    kernel: object                      # minicuda Kernel AST
    grid: tuple
    block: tuple
    gmem: GlobalMemory
    scalars: dict
    const_arrays: dict                  # name -> ndarray
    backend: str
    synccheck: bool
    profile_kernel: Optional[str]       # kernel name when profiling, else None


class _WorkerState:
    """Worker-side execution state rebuilt from a :class:`LaunchSpec`."""

    def __init__(self, spec: LaunchSpec):
        from .interp import BlockExecutor, WarpScaffold
        from .megablock import MegaProfile, MegablockExecutor, compile_megablock

        self._BlockExecutor = BlockExecutor
        self._MegablockExecutor = MegablockExecutor
        self._MegaProfile = MegaProfile
        self.spec = spec
        self.gmem = spec.gmem
        self.base_env: dict = dict(spec.scalars)
        for name, buf in self.gmem.buffers().items():
            self.base_env[name] = buf
        for cname, arr in spec.const_arrays.items():
            self.base_env[cname] = ConstArray(cname, np.asarray(arr))
        # Megablock chunks batch the whole chunk's block axis through one
        # executor — which flattens the chunk's (blocks, warps) pair into a
        # single megawarp row axis when the kernel allows it, same rule as
        # the whole-grid launch.  A SimError (including an order-sensitive
        # atomic reaching the flat path; the launch ladder diverts those to
        # "atomic-order"/"atomics" before any pool is engaged) restores
        # pristine state and aborts the parallel attempt (exact semantics
        # come from the sequential rerun).  Interp chunks run block by block.
        self.mega_program = (
            compile_megablock(spec.kernel, profile=spec.profile_kernel is not None)
            if spec.backend == "megablock"
            else None
        )
        self.scaffold = WarpScaffold(spec.kernel, spec.block, spec.grid)
        self.trace = AccessTrace(enabled=False)
        #: Launch-pristine snapshot every chunk diffs against and restores to.
        self.before = {
            name: buf.data.copy() for name, buf in self.gmem.buffers().items()
        }

    def _restore(self) -> None:
        for name, buf in self.gmem.buffers().items():
            with np.errstate(invalid="ignore"):
                changed = buf.data != self.before[name]
            if changed.any():
                idx = np.nonzero(changed)[0]
                buf.data[idx] = self.before[name][idx]

    def run_chunk(self, blocks: Sequence[int]) -> dict:
        spec = self.spec
        stats = KernelStats()
        prof = (
            KernelProfile(kernel=spec.profile_kernel)
            if spec.profile_kernel is not None
            else None
        )
        gx, gy, _gz = spec.grid
        shared_bytes = 0
        try:
            if self.mega_program is not None:
                mb_prof = (
                    self._MegaProfile(
                        spec.profile_kernel,
                        blocks,
                        self.scaffold.num_warps,
                        self.scaffold.total_threads,
                    )
                    if prof is not None
                    else None
                )
                executor = self._MegablockExecutor(
                    spec.kernel,
                    list(blocks),
                    spec.block,
                    spec.grid,
                    self.base_env,
                    stats,
                    self.mega_program,
                    synccheck=spec.synccheck,
                    scaffold=self.scaffold,
                    profile=mb_prof,
                )
                executor.run()
                shared_bytes = executor.shared_bytes
                if mb_prof is not None:
                    mb_prof.finish(prof)
            else:
                for linear in blocks:
                    bz_i, rem = divmod(linear, gx * gy)
                    by_i, bx_i = divmod(rem, gx)
                    executor = self._BlockExecutor(
                        spec.kernel,
                        block_idx=(bx_i, by_i, bz_i),
                        block_dim=spec.block,
                        grid_dim=spec.grid,
                        base_env=self.base_env,
                        stats=stats,
                        trace=self.trace,
                        injector=None,
                        linear_block=linear,
                        synccheck=spec.synccheck,
                        sanitizer=None,
                        scaffold=self.scaffold,
                        profile=prof,
                    )
                    executor.run()
                    shared_bytes = executor.shared_bytes
        except SimError:
            # Leave the state pristine for whatever runs on this worker next;
            # the parent aborts the parallel attempt and reruns sequentially.
            self._restore()
            raise
        writes = {}
        for name, buf in self.gmem.buffers().items():
            with np.errstate(invalid="ignore"):
                changed = buf.data != self.before[name]
            if changed.any():
                idx = np.nonzero(changed)[0]
                writes[name] = (idx, buf.data[idx].copy())
                # Restore pristine contents so a later chunk (or a retried
                # one) diffs against the same launch-entry state the
                # sequential semantics promise.
                buf.data[idx] = self.before[name][idx]
        return {
            "stats": stats,
            "profile": prof,
            "writes": writes,
            "shared_bytes": shared_bytes,
            "executed": len(blocks),
        }


def _worker_main(wid: int, conn, heartbeat, hb_interval: float,
                 close_fds: List[int]) -> None:
    """Entry point of one pool worker process."""
    for fd in close_fds:  # hygiene: drop inherited ends of other workers' pipes
        try:
            os.close(fd)
        except OSError:
            pass

    def _beat() -> None:
        while True:
            heartbeat.value = time.monotonic()
            time.sleep(hb_interval)

    threading.Thread(target=_beat, daemon=True, name="heartbeat").start()
    heartbeat.value = time.monotonic()
    conn.send(("ready", wid, os.getpid()))
    state: Optional[_WorkerState] = None
    state_seq = -1
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break  # parent went away
        kind = msg[0]
        if kind == "exit":
            break
        if kind == "launch":
            _, seq, spec = msg
            state = _WorkerState(spec)
            state_seq = seq
            continue
        if kind == "task":
            # Generic independent task (no launch broadcast, no shared
            # state): resolve the runner by dotted name — resolved here, not
            # at dispatch, because this worker may have been forked before
            # the runner's module was imported in the parent.
            _, seq, index, runner, payload, directive = msg
            conn.send(("start", wid, seq, index))
            if directive is not None:
                dkind, delay = directive
                if dkind == "worker_crash":
                    os._exit(CRASH_EXIT_CODE)
                elif dkind == "worker_hang":
                    while True:  # until the watchdog SIGKILLs us
                        time.sleep(60.0)
                elif dkind == "worker_slow":
                    time.sleep(delay)
            try:
                import importlib

                mod_name, func_name = runner.split(":")
                func = getattr(importlib.import_module(mod_name), func_name)
                out = func(payload)
            except Exception as exc:
                # Runner exceptions stay inside the payload: a task failure
                # must never look like a worker crash to the supervisor.
                out = {"task_error": f"{type(exc).__name__}: {exc}"}
            conn.send(("done", wid, seq, index, out))
            continue
        if kind != "chunk":  # pragma: no cover - protocol guard
            continue
        _, seq, index, blocks, directive = msg
        conn.send(("start", wid, seq, index))
        if directive is not None:
            dkind, delay = directive
            if dkind == "worker_crash":
                os._exit(CRASH_EXIT_CODE)
            elif dkind == "worker_hang":
                while True:  # until the watchdog SIGKILLs us
                    time.sleep(60.0)
            elif dkind == "worker_slow":
                time.sleep(delay)
        if state is None or state_seq != seq:  # pragma: no cover - stale seq
            conn.send(("sim-fault", wid, seq, index))
            continue
        try:
            payload = state.run_chunk(blocks)
        except SimError:
            conn.send(("sim-fault", wid, seq, index))
            continue
        conn.send(("done", wid, seq, index, payload))
    try:
        conn.close()
    except OSError:  # pragma: no cover
        pass


@dataclass
class _Task:
    index: int
    blocks: List[int]
    attempt: int = 0


@dataclass
class _Worker:
    wid: int
    proc: object
    conn: object
    heartbeat: object
    launch_seq: int = -1
    task: Optional[_Task] = None
    deadline: float = 0.0
    tasks_done: int = 0

    @property
    def pid(self) -> Optional[int]:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.is_alive()


class WorkerPool:
    """Parent-side supervisor of the persistent worker fleet.

    One instance per process (see :func:`get_pool`).  ``run_launch`` is the
    single entry point; a :class:`threading.Lock` serializes launches so
    concurrent streams queue instead of interleaving chunk traffic.
    """

    def __init__(self) -> None:
        self._ctx = multiprocessing.get_context("fork")
        self._workers: Dict[int, _Worker] = {}
        self._next_wid = 0
        self._seq = 0
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    def _spawn(self, config: ResilienceConfig,
               telemetry: Optional[ResilienceTelemetry] = None) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe()
        heartbeat = self._ctx.Value("d", 0.0)
        wid = self._next_wid
        self._next_wid += 1
        close_fds = [w.conn.fileno() for w in self._workers.values()]
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, heartbeat, config.heartbeat_interval, close_fds),
            daemon=True,
            name=f"gpusim-pool-{wid}",
        )
        proc.start()
        child_conn.close()  # parent's copy — EOF now tracks the child's end
        worker = _Worker(wid=wid, proc=proc, conn=parent_conn, heartbeat=heartbeat)
        self._workers[wid] = worker
        if telemetry is not None:
            telemetry.record("worker-spawn", f"worker {wid}", worker=proc.pid)
        return worker

    def _discard(self, worker: _Worker) -> None:
        self._workers.pop(worker.wid, None)
        try:
            worker.conn.close()
        except OSError:  # pragma: no cover
            pass

    def _kill(self, worker: _Worker) -> None:
        if worker.alive:
            try:
                os.kill(worker.proc.pid, signal.SIGKILL)
            except (OSError, TypeError):  # pragma: no cover - already gone
                pass
        worker.proc.join(timeout=5.0)
        self._discard(worker)

    def ensure_workers(self, count: int, config: ResilienceConfig,
                       telemetry: Optional[ResilienceTelemetry] = None) -> None:
        for worker in [w for w in self._workers.values() if not w.alive]:
            self._discard(worker)
        while len(self._workers) < count:
            self._spawn(config, telemetry)

    def alive_workers(self) -> List[_Worker]:
        return [w for w in self._workers.values() if w.alive]

    def health(self) -> List[dict]:
        """Per-worker health snapshot (pid, liveness, heartbeat age)."""
        now = time.monotonic()
        out = []
        for w in sorted(self._workers.values(), key=lambda w: w.wid):
            beat = w.heartbeat.value
            out.append(
                {
                    "wid": w.wid,
                    "pid": w.pid,
                    "alive": w.alive,
                    "heartbeat_age": (now - beat) if beat > 0 else None,
                    "tasks_done": w.tasks_done,
                    "busy": w.task is not None,
                }
            )
        return out

    def shutdown(self) -> None:
        with self._lock:
            for worker in list(self._workers.values()):
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for worker in list(self._workers.values()):
                worker.proc.join(timeout=1.0)
                if worker.alive:
                    self._kill(worker)
                else:
                    self._discard(worker)

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: finish in-flight work, then retire every worker.

        Unlike :meth:`shutdown` (which assumes the pool is quiescent), drain
        first waits for the launch/task run currently holding the pool lock
        to complete — the server's SIGTERM path must not yank workers out
        from under a request that is already executing.  Returns True when
        every worker exited cleanly within ``timeout`` (``None`` = wait
        forever); stragglers are SIGKILLed and make the drain report False,
        so "no orphaned pool workers" is a checkable claim, not a hope.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        acquired = self._lock.acquire(
            timeout=-1 if deadline is None
            else max(deadline - time.monotonic(), 0.0)
        )
        if not acquired:
            return False
        clean = True
        try:
            for worker in list(self._workers.values()):
                try:
                    worker.conn.send(("exit",))
                except (OSError, ValueError, BrokenPipeError):
                    pass
            for worker in list(self._workers.values()):
                join_for = (
                    5.0 if deadline is None
                    else max(deadline - time.monotonic(), 0.0)
                )
                worker.proc.join(timeout=join_for)
                if worker.alive:
                    clean = False
                    self._kill(worker)
                else:
                    self._discard(worker)
        finally:
            self._lock.release()
        return clean

    # -- launch execution ----------------------------------------------------

    def run_launch(
        self,
        spec: LaunchSpec,
        chunks: List[List[int]],
        gmem: GlobalMemory,
        workers: int,
        config: ResilienceConfig,
        telemetry: ResilienceTelemetry,
        profile: Optional[KernelProfile] = None,
        injector=None,
    ) -> Optional[ParallelOutcome]:
        """Run ``chunks`` across the pool; None means "rerun sequentially".

        Parent memory (``gmem``) is only mutated on success, after every
        chunk's write-set arrived, so a None result leaves it pristine.
        """
        with self._lock:
            try:
                return self._run_locked(
                    spec, chunks, gmem, workers, config, telemetry, profile,
                    injector,
                )
            except (OSError, ValueError, TypeError, pickle.PicklingError) as exc:
                # Pipe/pickle trouble is an infrastructure failure, not a
                # simulator fault: degrade to the sequential path.
                telemetry.record("pool-error", f"{type(exc).__name__}: {exc}")
                return None

    def _run_locked(self, spec, chunks, gmem, workers, config, telemetry,
                    profile, injector) -> Optional[ParallelOutcome]:
        self._seq += 1
        seq = self._seq
        want = min(workers, len(chunks))
        telemetry.workers = want
        telemetry.chunks = len(chunks)
        self.ensure_workers(want, config, telemetry)
        in_use = sorted(self.alive_workers(), key=lambda w: w.wid)[:want]
        for worker in in_use:
            worker.conn.send(("launch", seq, spec))
            worker.launch_seq = seq
            worker.task = None

        pending = collections.deque(
            _Task(index=i, blocks=list(chunk)) for i, chunk in enumerate(chunks)
        )
        results: Dict[int, dict] = {}
        respawns_left = (
            config.max_respawns if config.max_respawns is not None else want * 2
        )
        rng = random.Random(config.seed)
        chunk_timeout = config.effective_chunk_timeout
        failed: Optional[str] = None

        def usable() -> List[_Worker]:
            return [
                w for w in self._workers.values()
                if w.alive and w.launch_seq == seq
            ]

        def retry_or_fail(task: _Task) -> None:
            nonlocal failed
            if task.attempt >= config.max_retries:
                failed = (
                    f"chunk {task.index} failed {task.attempt + 1} times "
                    f"(max_retries={config.max_retries})"
                )
                telemetry.record("retries-exhausted", failed, chunk=task.index)
                return
            delay = jittered_backoff(
                task.attempt, rng, config.backoff_base, config.backoff_cap
            )
            telemetry.retries += 1
            telemetry.record(
                "retry",
                f"chunk {task.index} attempt {task.attempt + 1} "
                f"after {delay * 1e3:.0f}ms backoff",
                chunk=task.index,
            )
            time.sleep(delay)
            pending.appendleft(
                _Task(index=task.index, blocks=task.blocks, attempt=task.attempt + 1)
            )

        def replace_worker() -> None:
            nonlocal respawns_left
            if respawns_left > 0:
                respawns_left -= 1
                telemetry.respawns += 1
                replacement = self._spawn(config, telemetry)
                replacement.conn.send(("launch", seq, spec))
                replacement.launch_seq = seq
            elif usable():
                if telemetry.degraded != "reduced":
                    telemetry.degraded = "reduced"
                    telemetry.record(
                        "degrade-reduced",
                        f"respawn budget exhausted; continuing on "
                        f"{len(usable())} worker(s)",
                    )
            # else: no workers left — the main loop fails the launch.

        def handle_death(worker: _Worker, reason: str) -> None:
            telemetry.worker_crashes += 1
            telemetry.record(
                "worker-crash",
                f"worker {worker.wid} {reason} (exitcode "
                f"{worker.proc.exitcode})",
                worker=worker.pid,
                chunk=worker.task.index if worker.task else None,
            )
            task = worker.task
            self._discard(worker)
            replace_worker()
            if task is not None:
                retry_or_fail(task)

        def reap_deaths() -> None:
            # Must scan the full worker map: a dead worker fails the
            # ``alive`` filter of usable(), so scanning usable() would
            # leak its in-flight task and spin forever.
            for worker in [
                w for w in list(self._workers.values())
                if w.launch_seq == seq and not w.alive
            ]:
                handle_death(worker, "died")
                if failed is not None:
                    return

        while failed is None and len(results) < len(chunks):
            reap_deaths()
            if failed is not None:
                break
            workers_now = usable()
            if not workers_now:
                if respawns_left > 0:
                    replace_worker()
                    continue
                failed = "no live workers remain"
                telemetry.record("no-workers", failed)
                break
            # Dispatch pending chunks to idle workers, lowest wid first.
            for worker in sorted(workers_now, key=lambda w: w.wid):
                if not pending:
                    break
                if worker.task is not None:
                    continue
                task = pending.popleft()
                directive = None
                if injector is not None:
                    directive = injector.poll_worker_fault(
                        spec.kernel.name, task.index, task.blocks,
                        worker_pid=worker.pid,
                    )
                    if directive is not None:
                        telemetry.record(
                            "inject-" + directive[0],
                            f"chunk {task.index} on worker {worker.wid}",
                            worker=worker.pid,
                            chunk=task.index,
                        )
                deadline = time.monotonic() + chunk_timeout
                if directive is not None and directive[0] == "worker_slow":
                    deadline += directive[1]
                worker.task = task
                worker.deadline = deadline
                telemetry.attempts += 1
                worker.conn.send(("chunk", seq, task.index, task.blocks, directive))

            busy = [w for w in usable() if w.task is not None]
            if not busy:
                continue  # dispatch again (e.g. after a respawn)
            now = time.monotonic()
            timeout = max(min(w.deadline for w in busy) - now, 0.0)
            waitables = [w.conn for w in usable()] + [
                w.proc.sentinel for w in usable()
            ]
            connection.wait(waitables, timeout=min(timeout + 0.01, 1.0))

            # Drain messages first: a result may have been queued before a
            # worker died, and it is still a perfectly good result.
            for worker in list(usable()):
                while True:
                    try:
                        if not worker.conn.poll():
                            break
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        break  # death handled below via the sentinel
                    kind = msg[0]
                    if kind == "ready":
                        continue
                    if msg[1] != worker.wid or msg[2] != seq:
                        continue  # stale message from an aborted launch
                    if kind == "start":
                        continue
                    if kind == "done":
                        _, _, _, index, payload = msg
                        results[index] = payload
                        worker.tasks_done += 1
                        worker.task = None
                    elif kind == "sim-fault":
                        telemetry.sim_faults += 1
                        telemetry.record(
                            "sim-fault",
                            f"chunk {msg[3]} hit a simulator fault",
                            worker=worker.pid,
                            chunk=msg[3],
                        )
                        failed = "simulator fault (exact semantics rerun)"
                        worker.task = None

            if failed is not None:
                break

            # Sentinel-confirmed deaths (crashes).
            reap_deaths()
            if failed is not None:
                break

            # Deadline enforcement: the watchdog half of the loop.
            now = time.monotonic()
            for worker in list(usable()):
                if worker.task is not None and now > worker.deadline:
                    task = worker.task
                    telemetry.deadline_kills += 1
                    telemetry.record(
                        "deadline-kill",
                        f"chunk {task.index} exceeded {chunk_timeout:.3g}s on "
                        f"worker {worker.wid}; SIGKILL",
                        worker=worker.pid,
                        chunk=task.index,
                    )
                    self._kill(worker)
                    replace_worker()
                    retry_or_fail(task)
                    if failed is not None:
                        break

        if failed is not None:
            # Abort: kill workers still chewing on chunks of this launch so
            # the pool is quiescent for whatever runs next; idle workers
            # survive untouched.
            for worker in list(usable()):
                if worker.task is not None:
                    telemetry.record(
                        "abort-kill",
                        f"worker {worker.wid} still busy at abort",
                        worker=worker.pid,
                        chunk=worker.task.index,
                    )
                    self._kill(worker)
            telemetry.degraded = "sequential"
            telemetry.record("degrade-sequential", failed)
            return None

        # Success: merge in ascending chunk order (sequential last-writer-
        # wins order for overlapping writes; integer stats merge exactly).
        stats = KernelStats()
        shared_bytes = 0
        executed = 0
        for index in range(len(chunks)):
            r = results[index]
            stats.merge(r["stats"])
            if profile is not None and r["profile"] is not None:
                profile.merge(r["profile"])
            executed += r["executed"]
            shared_bytes = r["shared_bytes"]
            for name, (idx, values) in r["writes"].items():
                gmem[name].data[idx] = values
        return ParallelOutcome(
            stats=stats,
            executed=executed,
            shared_bytes=shared_bytes,
            workers=want,
        )

    # -- independent task execution ------------------------------------------

    def run_tasks(
        self,
        runner: str,
        payloads: List[object],
        workers: int,
        config: ResilienceConfig,
        telemetry: ResilienceTelemetry,
        injector=None,
        kernel_name: str = "",
    ) -> Optional[List[Optional[object]]]:
        """Run independent pickled tasks across the pool.

        The independent-tasks twin of :meth:`run_launch`, sharing its
        deadlines, bounded retries, respawn budget, and telemetry — but
        with per-task failure semantics: a task whose retries are exhausted
        yields ``None`` at its index while every other task still completes
        (the sharded autotuner turns those into disqualified points).  Only
        infrastructure collapse (pipe/pickle trouble, no live workers) fails
        the whole call, returning ``None`` so the caller reruns everything
        sequentially.

        ``runner`` is a ``"module.path:function"`` string resolved inside
        the worker; the function receives one payload and returns a
        picklable result.  ``injector`` resolves ``worker_crash`` /
        ``worker_hang`` / ``worker_slow`` specs at dispatch, exactly like
        the chunk path — a spec's ``block`` filter selects the *task index*
        here.
        """
        with self._lock:
            try:
                return self._run_tasks_locked(
                    runner, payloads, workers, config, telemetry, injector,
                    kernel_name,
                )
            except (OSError, ValueError, TypeError, pickle.PicklingError) as exc:
                telemetry.record("pool-error", f"{type(exc).__name__}: {exc}")
                telemetry.degraded = "sequential"
                return None

    def _run_tasks_locked(self, runner, payloads, workers, config, telemetry,
                          injector, kernel_name) -> Optional[List[Optional[object]]]:
        self._seq += 1
        seq = self._seq
        want = max(min(workers, len(payloads)), 1)
        telemetry.workers = want
        telemetry.chunks = len(payloads)
        self.ensure_workers(want, config, telemetry)
        for worker in sorted(self.alive_workers(), key=lambda w: w.wid)[:want]:
            worker.launch_seq = seq
            worker.task = None

        pending = collections.deque(
            _Task(index=i, blocks=[i]) for i in range(len(payloads))
        )
        results: Dict[int, object] = {}
        done = 0
        respawns_left = (
            config.max_respawns if config.max_respawns is not None else want * 2
        )
        rng = random.Random(config.seed)
        chunk_timeout = config.effective_chunk_timeout
        failed: Optional[str] = None

        def usable() -> List[_Worker]:
            return [
                w for w in self._workers.values()
                if w.alive and w.launch_seq == seq
            ]

        def retry_or_drop(task: _Task) -> None:
            """Per-task failure: exhausted retries disqualify one task only."""
            nonlocal done
            if task.attempt >= config.max_retries:
                detail = (
                    f"task {task.index} failed {task.attempt + 1} times "
                    f"(max_retries={config.max_retries})"
                )
                telemetry.record("retries-exhausted", detail, chunk=task.index)
                results[task.index] = None
                done += 1
                return
            delay = jittered_backoff(
                task.attempt, rng, config.backoff_base, config.backoff_cap
            )
            telemetry.retries += 1
            telemetry.record(
                "retry",
                f"task {task.index} attempt {task.attempt + 1} "
                f"after {delay * 1e3:.0f}ms backoff",
                chunk=task.index,
            )
            time.sleep(delay)
            pending.appendleft(
                _Task(index=task.index, blocks=task.blocks, attempt=task.attempt + 1)
            )

        def replace_worker() -> None:
            nonlocal respawns_left
            if respawns_left > 0:
                respawns_left -= 1
                telemetry.respawns += 1
                replacement = self._spawn(config, telemetry)
                replacement.launch_seq = seq
            elif usable():
                if telemetry.degraded != "reduced":
                    telemetry.degraded = "reduced"
                    telemetry.record(
                        "degrade-reduced",
                        f"respawn budget exhausted; continuing on "
                        f"{len(usable())} worker(s)",
                    )

        def handle_death(worker: _Worker, reason: str) -> None:
            telemetry.worker_crashes += 1
            telemetry.record(
                "worker-crash",
                f"worker {worker.wid} {reason} (exitcode "
                f"{worker.proc.exitcode})",
                worker=worker.pid,
                chunk=worker.task.index if worker.task else None,
            )
            task = worker.task
            self._discard(worker)
            replace_worker()
            if task is not None:
                retry_or_drop(task)

        def reap_deaths() -> None:
            for worker in [
                w for w in list(self._workers.values())
                if w.launch_seq == seq and not w.alive
            ]:
                handle_death(worker, "died")

        while failed is None and done < len(payloads):
            reap_deaths()
            workers_now = usable()
            if not workers_now:
                if respawns_left > 0:
                    replace_worker()
                    continue
                failed = "no live workers remain"
                telemetry.record("no-workers", failed)
                break
            for worker in sorted(workers_now, key=lambda w: w.wid):
                if not pending:
                    break
                if worker.task is not None:
                    continue
                task = pending.popleft()
                directive = None
                if injector is not None:
                    directive = injector.poll_worker_fault(
                        kernel_name, task.index, task.blocks,
                        worker_pid=worker.pid,
                    )
                    if directive is not None:
                        telemetry.record(
                            "inject-" + directive[0],
                            f"task {task.index} on worker {worker.wid}",
                            worker=worker.pid,
                            chunk=task.index,
                        )
                deadline = time.monotonic() + chunk_timeout
                if directive is not None and directive[0] == "worker_slow":
                    deadline += directive[1]
                worker.task = task
                worker.deadline = deadline
                telemetry.attempts += 1
                worker.conn.send(
                    ("task", seq, task.index, runner, payloads[task.index],
                     directive)
                )

            busy = [w for w in usable() if w.task is not None]
            if not busy:
                continue  # dispatch again (e.g. after a drop or respawn)
            now = time.monotonic()
            timeout = max(min(w.deadline for w in busy) - now, 0.0)
            waitables = [w.conn for w in usable()] + [
                w.proc.sentinel for w in usable()
            ]
            connection.wait(waitables, timeout=min(timeout + 0.01, 1.0))

            for worker in list(usable()):
                while True:
                    try:
                        if not worker.conn.poll():
                            break
                        msg = worker.conn.recv()
                    except (EOFError, OSError):
                        break  # death handled below via the sentinel
                    kind = msg[0]
                    if kind == "ready":
                        continue
                    if msg[1] != worker.wid or msg[2] != seq:
                        continue  # stale message from an aborted run
                    if kind == "start":
                        continue
                    if kind == "done":
                        _, _, _, index, payload = msg
                        if index not in results:
                            results[index] = payload
                            done += 1
                        worker.tasks_done += 1
                        worker.task = None

            reap_deaths()

            now = time.monotonic()
            for worker in list(usable()):
                if worker.task is not None and now > worker.deadline:
                    task = worker.task
                    telemetry.deadline_kills += 1
                    telemetry.record(
                        "deadline-kill",
                        f"task {task.index} exceeded {chunk_timeout:.3g}s on "
                        f"worker {worker.wid}; SIGKILL",
                        worker=worker.pid,
                        chunk=task.index,
                    )
                    self._kill(worker)
                    replace_worker()
                    retry_or_drop(task)

        if failed is not None:
            for worker in list(usable()):
                if worker.task is not None:
                    telemetry.record(
                        "abort-kill",
                        f"worker {worker.wid} still busy at abort",
                        worker=worker.pid,
                        chunk=worker.task.index,
                    )
                    self._kill(worker)
            telemetry.degraded = "sequential"
            telemetry.record("degrade-sequential", failed)
            return None

        return [results.get(i) for i in range(len(payloads))]


_POOL: Optional[WorkerPool] = None
_POOL_PID: Optional[int] = None


def get_pool() -> WorkerPool:
    """The process-wide persistent pool (created on first use).

    Re-created after a fork: a child process must not adopt its parent's
    worker pipes.
    """
    global _POOL, _POOL_PID
    if _POOL is None or _POOL_PID != os.getpid():
        _POOL = WorkerPool()
        _POOL_PID = os.getpid()
    return _POOL


def shutdown_pool() -> None:
    """Tear down the process-wide pool (tests; atexit)."""
    global _POOL
    if _POOL is not None and _POOL_PID == os.getpid():
        _POOL.shutdown()
    _POOL = None


def drain_pool(timeout: Optional[float] = None) -> bool:
    """Gracefully drain the process-wide pool (server shutdown path).

    True when there was no pool to drain or every worker exited cleanly
    within ``timeout``; see :meth:`WorkerPool.drain`.
    """
    global _POOL
    if _POOL is None or _POOL_PID != os.getpid():
        _POOL = None
        return True
    clean = _POOL.drain(timeout)
    _POOL = None
    return clean


atexit.register(shutdown_pool)
