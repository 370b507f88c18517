"""Parallel block scheduler: bit-identical merging, fallbacks, fault rerun.

The scheduler forks worker processes, so these tests run real pools even on a
single-CPU host (workers then timeshare — correctness is what's under test,
not speed).  Every feature that needs the exact sequential interleaving must
refuse to parallelize, reported via ``LaunchResult.parallel_workers``.
"""

import numpy as np
import pytest

from repro.gpusim import scheduler
from repro.gpusim.faults import FaultInjector
from repro.gpusim.launch import run_kernel

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


def launch(**kwargs):
    return run_kernel(SRC, 8, 32, make_args(), **kwargs)


class TestResolveWorkers:
    def test_values(self, monkeypatch):
        monkeypatch.delenv("GPUSIM_PARALLEL", raising=False)
        assert scheduler.resolve_workers(None) == 0
        assert scheduler.resolve_workers(False) == 0
        assert scheduler.resolve_workers(3) == 3
        assert scheduler.resolve_workers("2") == 2
        assert scheduler.resolve_workers(True) >= 1
        assert scheduler.resolve_workers("auto") >= 1

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_PARALLEL", "4")
        assert scheduler.resolve_workers(None) == 4

    def test_invalid(self):
        from repro.gpusim.errors import LaunchError

        with pytest.raises(LaunchError):
            scheduler.resolve_workers("many")


class TestChunking:
    def test_contiguous_cover(self):
        ids = list(range(37))
        chunks = scheduler.chunk_blocks(ids, 3)
        assert [b for c in chunks for b in c] == ids
        assert all(c == list(range(c[0], c[0] + len(c))) for c in chunks)

    def test_more_workers_than_blocks(self):
        chunks = scheduler.chunk_blocks([0, 1], 8)
        assert [b for c in chunks for b in c] == [0, 1]


@pytest.mark.skipif(not scheduler.available(), reason="needs POSIX fork")
class TestParallelExecution:
    def test_bit_identical_to_sequential(self):
        seq = launch(backend="megablock")
        par = launch(backend="megablock", parallel=2)
        assert par.parallel_workers == 2
        assert par.parallel_fallback is None
        assert seq.parallel_workers is None
        # No parallelism was requested, so there was nothing to fall back
        # from — the reason stays unset.
        assert seq.parallel_fallback is None
        assert (
            seq.buffer("out").tobytes() == par.buffer("out").tobytes()
        )
        # Integer statistics merge exactly (float ALU weights can differ by
        # rounding across chunk boundaries; these are ints end to end).
        for field in (
            "blocks_executed",
            "warps_executed",
            "global_load_insts",
            "global_store_insts",
            "global_transactions",
            "divergent_branches",
        ):
            assert getattr(seq.stats, field) == getattr(par.stats, field), field

    def test_works_on_interp_backend_too(self):
        par = launch(backend="interp", parallel=2)
        assert par.parallel_workers == 2
        assert par.buffer("out").tobytes() == launch().buffer("out").tobytes()

    def test_single_block_stays_sequential(self):
        res = run_kernel(
            SRC, 1, 32, make_args(), backend="megablock", parallel=2
        )
        assert res.parallel_workers is None
        assert res.parallel_fallback == "single-block"

    def test_trace_falls_back(self):
        res = launch(backend="megablock", parallel=2, trace=True)
        assert res.parallel_workers is None
        assert res.parallel_fallback == "trace"
        assert res.trace.global_accesses  # trace actually recorded

    def test_racecheck_falls_back(self):
        res = launch(backend="megablock", parallel=2, racecheck=True)
        assert res.parallel_workers is None
        assert res.parallel_fallback == "sanitizer"

    def test_faults_fall_back(self):
        inj = FaultInjector()
        res = launch(backend="megablock", parallel=2, faults=inj)
        assert res.parallel_workers is None
        assert res.parallel_fallback == "faults"

    def test_atomics_fall_back(self):
        res = run_kernel(
            "__global__ void t(int *c) { atomicAdd(c[0], 1); }",
            8, 32, {"c": np.zeros(1, np.int32)},
            backend="megablock", parallel=2,
        )
        assert res.parallel_workers is None
        assert res.parallel_fallback == "atomics"
        assert res.buffer("c")[0] == 8 * 32

    def test_unavailable_falls_back(self, monkeypatch):
        monkeypatch.setattr(scheduler, "available", lambda: False)
        res = launch(backend="megablock", parallel=2)
        assert res.parallel_workers is None
        assert res.parallel_fallback == "unavailable"

    def test_worker_fault_reruns_sequentially(self):
        """A faulting block makes the scheduler bail; the sequential rerun
        reports the same located fault as a plain sequential launch."""
        bad = (
            "__global__ void t(float *o) {"
            " if (blockIdx.x == 5) o[threadIdx.x + 9999] = 1.0f;"
            " else o[threadIdx.x] = 1.0f; }"
        )
        args = lambda: {"o": np.zeros(N, np.float32)}
        seq = run_kernel(bad, 8, 32, args(), backend="megablock",
                         on_error="status")
        par = run_kernel(bad, 8, 32, args(), backend="megablock",
                         parallel=2, on_error="status")
        assert seq.error is not None and par.error is not None
        assert seq.error.summary() == par.error.summary()
        assert par.parallel_workers is None  # the parallel attempt was discarded
        # The reason survives on the error-path result: the parallel attempt
        # was made, failed, and the rerun hit the same fault.
        assert par.parallel_fallback == "worker-fault"
        assert seq.parallel_fallback is None

    def test_env_knob_engages(self, monkeypatch):
        monkeypatch.setenv("GPUSIM_PARALLEL", "2")
        res = launch(backend="megablock")
        assert res.parallel_workers == 2


class TestBlockSampling:
    def test_sampled_ids_deduped_and_recorded(self):
        # 8 blocks sampled 5 ways: int(i * 8/5) = 0,1,3,4,6 — no duplicates
        # survive even when truncation collides.
        res = launch(backend="megablock", sample_blocks=5)
        ids = res.sampled_block_ids
        assert ids is not None
        assert list(ids) == sorted(set(ids))
        assert len(ids) == len(set(ids))
        assert res.sampled_blocks == len(ids)

    def test_truncation_collision_deduped(self):
        # 3 samples of 2 blocks: int(0*2/3)=0, int(1*2/3)=0, int(2*2/3)=1
        # — naive generation repeats block 0.
        res = run_kernel(
            SRC, 2, 32, make_args(), sample_blocks=3, backend="megablock"
        )
        assert res.sampled_block_ids is None or len(
            res.sampled_block_ids
        ) == len(set(res.sampled_block_ids))

    def test_full_grid_has_no_sampled_ids(self):
        res = launch(backend="megablock")
        assert res.sampled_block_ids is None
