"""Chaos suite for the resilient parallel launch path.

Workers are crashed, hung, and slowed *on purpose* and the launch must
still produce byte-identical buffers and exactly equal statistics to the
sequential path — the supervised pool's retry/replace machinery is only
correct if failure handling is invisible in the output.  The suite also
pins the observable side: retry/crash/deadline counters must match the
injected schedule exactly, the circuit breaker must walk its state machine
(closed → open → half-open) on exactly the prescribed transitions, and no
launch may ever block past its deadline.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.gpusim import scheduler
from repro.gpusim.faults import FaultInjector, FaultSpec
from repro.gpusim.launch import run_kernel
from repro.gpusim.pool import get_pool, shutdown_pool
from repro.gpusim.resilience import (
    CircuitBreaker,
    ResilienceConfig,
    ResilienceTelemetry,
    get_breaker,
    jittered_backoff,
    reset_breaker,
)
from repro.gpusim.stream import Stream, default_stream, launch_async
from repro.kernels import BENCHMARKS
from repro.minicuda.parser import parse_kernel

needs_fork = pytest.mark.skipif(
    not scheduler.available(), reason="needs POSIX fork"
)

ALL_NAMES = list(BENCHMARKS)

#: Same scaled-down shapes as the backend differential suite.
SMALL = {
    "MC": dict(nvox=64),
    "LU": dict(matrix_dim=32),
    "LE": dict(positions=64, block=32),
    "MV": dict(width=64, height=64, block=32),
    "SS": dict(dim=64, points=32, block=32),
    "LIB": dict(npath=64, block=32),
    "CFD": dict(ncells=128, block=32),
    "BK": dict(elements=1024, block=32),
    "TMV": dict(width=64, height=64, block=32),
    "NN": dict(records=128, queries=64, block=32),
}

#: Short watchdog so injected hangs cost tenths of seconds, not minutes.
FAST = ResilienceConfig(chunk_timeout=2.0)


@pytest.fixture(autouse=True)
def _isolated_breaker():
    """Injected worker faults must not trip the breaker for later tests."""
    reset_breaker()
    yield
    reset_breaker()


@pytest.fixture(scope="module")
def benches():
    return {name: cls(**SMALL[name]) for name, cls in BENCHMARKS.items()}


def assert_identical(ref, got, label):
    ref_bufs = ref.gmem.buffers()
    got_bufs = got.gmem.buffers()
    assert ref_bufs.keys() == got_bufs.keys()
    for name in ref_bufs:
        a, b = ref_bufs[name].data, got_bufs[name].data
        assert a.tobytes() == b.tobytes(), (
            f"{label}: buffer {name} not bit-identical"
        )
    for f in dataclasses.fields(ref.stats):
        assert getattr(ref.stats, f.name) == getattr(got.stats, f.name), (
            f"{label}: stats field {f.name} diverged"
        )


SRC = """
__global__ void scale(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a[i] * 2.0f + (float)blockIdx.x;
}
"""
N = 256


def make_args():
    rng = np.random.default_rng(11)
    return {
        "out": np.zeros(N, np.float32),
        "a": rng.standard_normal(N).astype(np.float32),
        "n": N,
    }


KERNEL = parse_kernel(SRC)


def launch(**kwargs):
    return run_kernel(KERNEL, 8, 32, make_args(), **kwargs)


class TestConfig:
    def test_env_knobs(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_LAUNCH_TIMEOUT", "12.5")
        monkeypatch.setenv("GPUSIM_MAX_RETRIES", "5")
        monkeypatch.setenv("GPUSIM_BREAKER_THRESHOLD", "7")
        cfg = ResilienceConfig.from_env()
        assert cfg.launch_timeout == 12.5
        assert cfg.max_retries == 5
        assert cfg.breaker_threshold == 7

    def test_env_defaults(self, monkeypatch):
        for knob in ("GPUSIM_LAUNCH_TIMEOUT", "GPUSIM_MAX_RETRIES",
                     "GPUSIM_BREAKER_THRESHOLD"):
            monkeypatch.delenv(knob, raising=False)
        cfg = ResilienceConfig.from_env()
        assert cfg.launch_timeout is None  # tier-1 default: no wall deadline
        assert cfg.max_retries == 2
        assert cfg.breaker_threshold == 3

    def test_validation(self):
        with pytest.raises(TypeError):  # one substrate: no pool_mode knob
            ResilienceConfig(pool_mode="fork")
        with pytest.raises(ValueError):
            ResilienceConfig(max_retries=-1)
        with pytest.raises(ValueError):
            ResilienceConfig(breaker_threshold=0)

    def test_effective_chunk_timeout(self):
        assert ResilienceConfig().effective_chunk_timeout == 60.0
        assert ResilienceConfig(launch_timeout=5.0).effective_chunk_timeout == 5.0
        assert ResilienceConfig(
            launch_timeout=5.0, chunk_timeout=1.0
        ).effective_chunk_timeout == 1.0

    def test_backoff_deterministic_and_bounded(self):
        import random

        a = [jittered_backoff(i, random.Random(3)) for i in range(6)]
        b = [jittered_backoff(i, random.Random(3)) for i in range(6)]
        assert a == b
        for attempt, delay in enumerate(a):
            cap = min(0.25, 0.01 * 2 ** attempt)
            assert 0.5 * cap <= delay <= cap


@needs_fork
class TestChaosBitIdentity:
    """Every paper benchmark, under every worker-fault kind: the recovered
    parallel result must be byte-identical to the sequential run."""

    @pytest.mark.parametrize("name", ALL_NAMES)
    @pytest.mark.parametrize(
        "kind", ["worker_crash", "worker_hang", "worker_slow"]
    )
    def test_bit_identical_under_fault(self, benches, name, kind):
        bench = benches[name]
        seq = bench.run_baseline()
        inj = FaultInjector([FaultSpec(kind=kind, count=1, delay=0.05)])
        par = bench.run_baseline(parallel=2, faults=inj, resilience=FAST)
        assert_identical(seq, par, f"{name} under {kind}")
        t = par.resilience
        if t is None:
            # Never reached the scheduler (e.g. a single-block grid at this
            # scaled-down size); nothing parallel happened to supervise.
            assert par.parallel_fallback == "single-block"
            return
        if par.parallel_fallback is None:
            # Recovered in place: the schedule says exactly what happened.
            if kind == "worker_crash":
                assert t.worker_crashes == 1 and t.retries == 1
            elif kind == "worker_hang":
                assert t.deadline_kills == 1 and t.retries == 1
            else:
                assert t.worker_faults == 0 and t.retries == 0
            assert t.attempts == t.chunks + t.retries


@needs_fork
class TestRetrySchedule:
    def test_counters_match_injected_schedule(self):
        inj = FaultInjector([FaultSpec(kind="worker_crash", count=2)])
        res = launch(parallel=4, faults=inj, resilience=FAST)
        t = res.resilience
        assert res.parallel_fallback is None
        assert t.worker_crashes == 2
        assert t.retries == 2
        assert t.respawns == 2
        assert t.attempts == t.chunks + 2
        kinds = [e.kind for e in t.events]
        assert kinds.count("inject-worker_crash") == 2
        assert kinds.count("worker-crash") == 2
        assert kinds.count("retry") == 2
        assert kinds.count("worker-spawn") >= 2  # replacements
        seq = launch()
        assert_identical(seq, res, "crash x2")

    def test_retries_exhausted_falls_back_sequential(self):
        # Chunk containing block 0 crashes on every dispatch: initial try
        # plus max_retries=1 retry, then the parallel attempt is abandoned
        # and the sequential rerun still yields the exact result.
        inj = FaultInjector([FaultSpec(kind="worker_crash", block=0, count=3)])
        cfg = dataclasses.replace(FAST, max_retries=1)
        res = launch(parallel=4, faults=inj, resilience=cfg)
        t = res.resilience
        assert res.parallel_fallback == "worker-fault"
        assert res.parallel_workers is None
        assert t.degraded == "sequential"
        assert t.worker_crashes == 2  # initial + one retry
        kinds = [e.kind for e in t.events]
        assert "retries-exhausted" in kinds
        assert kinds[-1] == "degrade-sequential"
        assert_identical(launch(), res, "retries exhausted")

    def test_slow_worker_not_killed(self):
        inj = FaultInjector([FaultSpec(kind="worker_slow", count=1, delay=0.3)])
        res = launch(parallel=2, faults=inj, resilience=FAST)
        t = res.resilience
        assert res.parallel_fallback is None
        assert t.deadline_kills == 0 and t.worker_crashes == 0
        assert_identical(launch(), res, "slow straggler")


@needs_fork
class TestDeadlines:
    def test_hung_worker_killed_and_chunk_retried(self):
        inj = FaultInjector([FaultSpec(kind="worker_hang", count=1)])
        cfg = ResilienceConfig(chunk_timeout=0.5)
        t0 = time.monotonic()
        res = launch(parallel=2, faults=inj, resilience=cfg)
        elapsed = time.monotonic() - t0
        t = res.resilience
        assert res.parallel_fallback is None
        assert t.deadline_kills == 1 and t.retries == 1
        assert elapsed < 30.0, "launch blocked far past the 0.5s deadline"
        kill = next(e for e in t.events if e.kind == "deadline-kill")
        assert kill.worker is not None and kill.chunk is not None
        assert_identical(launch(), res, "hung worker")


class TestCircuitBreakerMachine:
    """Exact state machine, no processes involved."""

    CFG = ResilienceConfig(breaker_threshold=2, breaker_cooldown=2)

    def test_trip_open_halfopen_close(self):
        br = CircuitBreaker()
        assert br.allow(self.CFG) and br.state == "closed"
        br.record_result(1, self.CFG)
        assert br.state == "closed"  # below threshold
        br.record_result(1, self.CFG)
        assert br.state == "open" and br.trips == 1
        assert not br.allow(self.CFG)          # skip 1
        assert br.allow(self.CFG)              # skip 2 -> half-open trial
        assert br.state == "half-open"
        br.record_result(0, self.CFG)
        assert br.state == "closed" and br.fault_count == 0
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]

    def test_halfopen_trial_fault_reopens(self):
        br = CircuitBreaker()
        br.record_result(2, self.CFG)
        assert br.state == "open"
        br.allow(self.CFG)
        br.allow(self.CFG)
        assert br.state == "half-open"
        br.record_result(1, self.CFG)
        assert br.state == "open" and br.trips == 2
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "open"),
        ]

    def test_success_resets_fault_count(self):
        br = CircuitBreaker()
        br.record_result(1, self.CFG)
        br.record_result(0, self.CFG)
        br.record_result(1, self.CFG)
        assert br.state == "closed"  # the clean launch reset the count


@needs_fork
class TestCircuitBreakerIntegration:
    def test_repeated_faults_trip_then_half_open_recovers(self):
        cfg = dataclasses.replace(
            FAST, breaker_threshold=2, breaker_cooldown=2, max_retries=2
        )
        # Two launches, each suffering one worker crash -> breaker opens.
        for _ in range(2):
            inj = FaultInjector([FaultSpec(kind="worker_crash", count=1)])
            res = launch(parallel=2, faults=inj, resilience=cfg)
            assert res.resilience.worker_crashes == 1
        br = get_breaker()
        assert br.state == "open"
        assert ("closed", "open") in [(a, b) for a, b, _ in br.transitions]

        # While open, parallel is skipped outright: fallback "breaker-open".
        skipped = launch(parallel=2, resilience=cfg)
        assert skipped.parallel_fallback == "breaker-open"
        assert skipped.parallel_workers is None
        assert skipped.resilience.degraded == "sequential"
        assert_identical(launch(), skipped, "breaker-open fallback")

        # Second skipped launch half-opens; the trial runs clean -> closed.
        trial = launch(parallel=2, resilience=cfg)
        assert trial.parallel_fallback is None
        assert br.state == "closed"
        assert [(a, b) for a, b, _ in br.transitions] == [
            ("closed", "open"),
            ("open", "half-open"),
            ("half-open", "closed"),
        ]
        assert trial.resilience.breaker_state == "closed"


@needs_fork
class TestPersistentPoolLifecycle:
    def test_workers_survive_across_launches(self):
        launch(parallel=2)
        pids1 = {h["pid"] for h in get_pool().health() if h["alive"]}
        launch(parallel=2)
        pids2 = {h["pid"] for h in get_pool().health() if h["alive"]}
        assert pids1 and pids1 <= pids2  # nobody was torn down between launches

    def test_health_snapshot_shape(self):
        launch(parallel=2)
        health = get_pool().health()
        assert len(health) >= 2
        for h in health:
            assert h["alive"] and h["pid"] is not None
            assert h["heartbeat_age"] is None or h["heartbeat_age"] < 60.0

    def test_shutdown_and_respawn(self):
        launch(parallel=2)
        old = {h["pid"] for h in get_pool().health()}
        shutdown_pool()
        res = launch(parallel=2)
        assert res.parallel_fallback is None
        new = {h["pid"] for h in get_pool().health() if h["alive"]}
        assert new and new.isdisjoint(old)


@needs_fork
class TestStreams:
    def test_future_result_matches_sync(self):
        seq = launch()
        fut = launch_async(KERNEL, 8, 32, make_args(), parallel=2)
        res = fut.result(timeout=120)
        assert fut.done()
        assert fut.exception() is None
        assert_identical(seq, res, "async launch")

    def test_stream_fifo_order(self):
        with Stream() as s:
            futs = [
                s.launch_async(KERNEL, 8, 32, make_args(), parallel=2)
                for _ in range(3)
            ]
            results = [f.result(timeout=120) for f in futs]
        # FIFO: by the time a later future resolves, every earlier one has.
        assert all(f.done() for f in futs)
        ref = launch()
        for i, res in enumerate(results):
            assert_identical(ref, res, f"stream launch {i}")

    def test_synchronize_drains_everything(self):
        s = Stream()
        futs = [s.launch_async(KERNEL, 8, 32, make_args()) for _ in range(3)]
        s.synchronize(timeout=120)
        assert all(f.done() for f in futs)
        s.close()

    def test_launch_error_surfaces_from_future(self):
        s = Stream()
        try:
            fut = s.launch_async(KERNEL, 8, 32, {"wrong": 1})
            with pytest.raises(Exception):
                fut.result(timeout=120)
            assert fut.exception(timeout=120) is not None
            # The stream is not poisoned: later launches still run.
            ok = s.launch_async(KERNEL, 8, 32, make_args())
            assert ok.result(timeout=120).ok
        finally:
            s.close()

    def test_closed_stream_rejects_work(self):
        s = Stream()
        s.close()
        with pytest.raises(RuntimeError):
            s.launch_async(KERNEL, 8, 32, make_args())

    def test_default_stream_recreated_after_close(self):
        first = default_stream()
        first.close()
        second = default_stream()
        assert second is not first
        fut = launch_async(KERNEL, 8, 32, make_args())
        assert fut.result(timeout=120).ok


@needs_fork
class TestTimelineInstants:
    def test_pool_events_exported_as_chrome_instants(self):
        from repro.prof.timeline import POOL_ROW, chrome_trace

        inj = FaultInjector([FaultSpec(kind="worker_crash", count=1)])
        res = launch(parallel=2, faults=inj, resilience=FAST, profile=True)
        assert res.parallel_fallback is None
        trace = chrome_trace(res)
        pool_evts = [
            e for e in trace["traceEvents"] if e.get("cat") == "pool"
        ]
        assert pool_evts, "no pool lifecycle instants in the trace"
        assert all(e["ph"] == "i" and e["tid"] == POOL_ROW for e in pool_evts)
        names = {e["name"] for e in pool_evts}
        assert "inject-worker_crash" in names
        assert "worker-crash" in names
        assert "retry" in names
        rows = [
            e for e in trace["traceEvents"]
            if e.get("name") == "thread_name"
            and e["args"]["name"] == "worker pool"
        ]
        assert len(rows) == 1

    def test_no_pool_row_for_sequential_launch(self):
        from repro.prof.timeline import chrome_trace

        res = launch(profile=True)
        trace = chrome_trace(res)
        assert not [
            e for e in trace["traceEvents"] if e.get("cat") == "pool"
        ]


@needs_fork
class TestTelemetryPlumbing:
    def test_clean_parallel_launch_telemetry(self):
        res = launch(parallel=2)
        t = res.resilience
        assert t is not None
        assert t.workers == 2
        assert t.chunks >= 2
        assert t.attempts == t.chunks
        assert t.retries == 0 and t.worker_faults == 0
        assert t.breaker_state == "closed" and t.degraded is None
        assert t.summary().startswith("workers=2 ")

    def test_sequential_launch_has_no_telemetry(self):
        res = launch()
        assert res.resilience is None

    def test_sim_fault_in_worker_reruns_sequentially(self):
        # A *simulator* fault must abort the parallel attempt (never a
        # chunk retry) and rerun sequentially for exact fault semantics.
        inj = FaultInjector([FaultSpec(kind="bit_flip", count=1)])
        res = launch(parallel=2, faults=inj)
        # Sim-fault injectors force the sequential path up front.
        assert res.parallel_fallback == "faults"
        assert res.parallel_workers is None
