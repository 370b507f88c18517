"""Differential check of the two execution backends.

The tree-walking interpreter is the reference semantics; the batch-vectorized
megablock engine (:mod:`repro.gpusim.megablock`) must be **bit-identical** —
not merely allclose — on every paper benchmark, for the baseline kernel and
for at least one CUDA-NP variant each, over the full grid and over a single
sampled block (a one-block batch).  Outputs are compared via raw buffer
bytes and the full :class:`~repro.gpusim.stats.KernelStats` record, so a
fast-path that drifted by a ULP or double-counted a transaction fails
loudly.

The megablock engine additionally promises an *observable* fallback: every
launch configuration it cannot batch exactly (traces, fault injection,
sim-faults, sanitizers, order-sensitive atomics) must run per block on the
interpreter with the reason on :attr:`LaunchResult.megablock_fallback` — and
still be bit-identical, located faults included.  Order-free atomics
(single site outside loops, or integer adds whose old value is discarded)
batch on the fast path instead, through the deterministic segmented reduce,
and BK — the one paper benchmark built on ``atomicAdd`` — rides it with
``megablock_megawarp`` set.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.gpusim import scheduler
from repro.gpusim.faults import FaultInjector, FaultSpec
from repro.gpusim.launch import run_kernel
from repro.gpusim.megablock import ROW_CLASS_FLOOR
from repro.kernels import BENCHMARKS

ALL_NAMES = list(BENCHMARKS)

#: How megablock runs are checked against the interpreter reference: the
#: full grid as one batch, and one sampled block as a one-block batch.
MODES = {"megablock": {}, "one-block": {"sample_blocks": 1}}

#: Scaled-down inputs so the interp-side runs stay cheap; the kernels (and
#: therefore the lowered closures exercised) are the full paper suite.
SMALL = {
    "MC": dict(nvox=64),
    "LU": dict(matrix_dim=32),
    "LE": dict(positions=64, block=32),
    "MV": dict(width=64, height=64, block=32),
    "SS": dict(dim=64, points=32, block=32),
    "LIB": dict(npath=64, block=32),
    "CFD": dict(ncells=128, block=32),
    "BK": dict(elements=1024, block=32),  # must be a multiple of block*STRIP
    "TMV": dict(width=64, height=64, block=32),
    "NN": dict(records=128, queries=64, block=32),
}


def assert_identical(ref, got, label):
    """Bit-identical buffers and exactly equal statistics."""
    ref_bufs = ref.gmem.buffers()
    got_bufs = got.gmem.buffers()
    assert ref_bufs.keys() == got_bufs.keys()
    for name in ref_bufs:
        a, b = ref_bufs[name].data, got_bufs[name].data
        assert a.dtype == b.dtype, f"{label}: buffer {name} dtype drifted"
        assert a.tobytes() == b.tobytes(), f"{label}: buffer {name} not bit-identical"
    assert ref.stats == got.stats, f"{label}: stats diverged"
    assert (ref.error is None) == (got.error is None), f"{label}: fault"
    if ref.error is not None:
        assert ref.error.render() == got.error.render(), f"{label}: report"


@pytest.fixture(scope="module")
def benches():
    return {name: cls(**SMALL[name]) for name, cls in BENCHMARKS.items()}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_baseline_bit_identical(benches, name, mode):
    bench = benches[name]
    ref = bench.run_baseline(backend="interp", **MODES[mode])
    got = bench.run_baseline(backend="megablock", **MODES[mode])
    assert ref.backend == "interp" and got.backend == "megablock"
    assert got.megablock_fallback is None
    assert_identical(ref, got, f"{name} baseline [{mode}]")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_np_variant_bit_identical(benches, name, mode):
    """At least one generated CUDA-NP variant per benchmark: the master/slave
    rewrite exercises shuffles, shared staging, and barrier placement the
    baselines do not."""
    bench = benches[name]
    config = bench.configs()[0]
    ref = bench.run_variant(config, backend="interp", **MODES[mode])
    got = bench.run_variant(config, backend="megablock", **MODES[mode])
    assert_identical(ref, got, f"{name} {config.describe()} [{mode}]")


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", ALL_NAMES)
def test_profile_bit_identical_across_backends(benches, name, mode):
    """Per-line profiles must match exactly: the counters are attributed at
    mirrored hook points in both engines, so any drift means a hook moved."""
    bench = benches[name]
    ref = bench.run_baseline(backend="interp", profile=True, **MODES[mode])
    got = bench.run_baseline(backend="megablock", profile=True, **MODES[mode])
    assert got.megablock_fallback is None
    assert ref.profile is not None and got.profile is not None
    mismatches = ref.profile.diff_lines(got.profile)
    assert not mismatches, f"{name}: " + "; ".join(mismatches[:10])
    assert ref.profile.blocks == got.profile.blocks, f"{name}: block costs"
    assert ref.profile.total_issues > 0


#: Grids of at least ``ROW_CLASS_FLOOR`` rows (blocks x warps per block), so
#: megablock's access-stat reductions take their row-class front end; the
#: ``SMALL`` grids stay under the floor and only reach the general sort.
ABOVE_FLOOR = {
    "MC": dict(nvox=1024),
    "LU": dict(matrix_dim=1056, offset=512),
    "LE": dict(positions=1024, block=32),
    "MV": dict(width=64, height=2048, block=64),
    "SS": dict(dim=64, points=1024, block=32),
    "LIB": dict(npath=1024, block=32),
    "CFD": dict(ncells=2048, block=32),
    "BK": dict(elements=32768, block=32),
    "TMV": dict(width=2048, height=64, block=32),
    "NN": dict(records=64, queries=1024, block=32),
}


@pytest.mark.parametrize("which", ("baseline", "variant"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_above_row_floor_bit_identical(name, which):
    """Stats, per-line profiles and output bytes match the interpreter on
    grids whose batches are large enough for the row-class reductions."""
    bench = BENCHMARKS[name](**ABOVE_FLOOR[name])
    warps = -(-int(np.prod(bench.block_size)) // 32)
    assert int(np.prod(bench.grid)) * warps >= ROW_CLASS_FLOOR
    run = bench.run_baseline
    if which == "variant":
        run = functools.partial(bench.run_variant, bench.configs()[0])
    ref = run(backend="interp", profile=True)
    got = run(backend="megablock", profile=True)
    assert got.megablock_fallback is None
    assert_identical(ref, got, f"{name} {which} [above floor]")
    mismatches = ref.profile.diff_lines(got.profile)
    if (name, which) == ("NN", "variant"):
        # Known drift, also at the SMALL sizes: a statement the NP transform
        # synthesizes has no source line, so its counters go to the last
        # line the warp executed.  The interpreter tracks that per warp,
        # megablock once per batch, so the master and slave warps' shared
        # broadcast loads land on different lines.  Stats are unaffected.
        assert mismatches, "NN variant profiles now match: drop this case"
        pytest.xfail("per-warp attribution of unlocated NP statements")
    assert not mismatches, f"{name} {which}: " + "; ".join(mismatches[:10])
    assert ref.profile.blocks == got.profile.blocks, f"{name}: block costs"


@pytest.mark.skipif(not scheduler.available(), reason="needs POSIX fork")
@pytest.mark.parametrize("backend", ("interp", "megablock"))
@pytest.mark.parametrize("name", ALL_NAMES)
def test_stats_and_profile_sequential_vs_parallel(benches, name, backend):
    """Chunk merging in the parallel scheduler must reproduce the sequential
    stats exactly (every KernelStats field merges by summation — nothing is
    max- or last-writer-merged) and the per-line profiles likewise, for the
    pool's per-block interp chunks and its batched megablock chunks (one
    megablock per worker chunk equals one whole-grid batch)."""
    bench = benches[name]
    seq = bench.run_baseline(backend=backend, profile=True)
    par = bench.run_baseline(backend=backend, profile=True, parallel=2)
    for f in dataclasses.fields(seq.stats):
        assert getattr(seq.stats, f.name) == getattr(par.stats, f.name), (
            f"{name}: stats field {f.name} diverged under parallel scheduling"
        )
    assert seq.profile == par.profile, (
        f"{name}: " + "; ".join(seq.profile.diff_lines(par.profile)[:10])
    )
    # Kernels that refuse to parallelize must say why.
    if par.parallel_workers is None:
        assert par.parallel_fallback is not None


def test_trace_records_identical():
    """The access trace (per-instruction coalescing log) matches too."""
    src = """
    __global__ void k(float* out, const float* a, int n) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        if (i < n) out[i] = a[i] * 2.0f + 1.0f;
    }
    """
    rng = np.random.default_rng(7)
    a = rng.standard_normal(128, dtype=np.float32)
    args = lambda: {"out": np.zeros(128, dtype=np.float32), "a": a.copy(), "n": 128}
    ref = run_kernel(src, 4, 32, args(), trace=True, backend="interp")
    got = run_kernel(src, 4, 32, args(), trace=True, backend="megablock")
    assert ref.trace.global_accesses == got.trace.global_accesses
    assert ref.trace.shared_accesses == got.trace.shared_accesses


# ---------------------------------------------------------------------------
# Megablock fallback ladder: every ineligible configuration names its reason
# and still produces bit-identical results through the per-block path.
# ---------------------------------------------------------------------------

_SIMPLE = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) out[i] = a[i] * 2.0f + 1.0f;
}
"""

#: Single atomic site outside any loop: order-free, so it batches exactly
#: (the segmented reduce replays ascending block/warp/lane order, which is
#: precisely the sequential issue order of one statement instance).
_ATOMIC = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) atomicAdd(out[0], a[i]);
}
"""

#: Two float sites accumulating into the same buffer: sequential execution
#: interleaves them warp by warp, a flattened batch issues each statement
#: once for the whole grid — float addition is not associative, so this
#: kernel MUST take the "atomic-order" fallback to stay bit-identical.
_ATOMIC_TWO_SITE = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    if (i < n) {
        atomicAdd(out[i % 7], a[i] * 1.0001f);
        atomicAdd(out[0], a[i]);
    }
}
"""

#: A float site inside a loop: successive iterations land on the same
#: addresses in an order the batch cannot reproduce — also "atomic-order".
_ATOMIC_FLOAT_LOOP = """
__global__ void k(float* out, const float* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = i; j < n; j += gridDim.x * blockDim.x) {
        atomicAdd(out[j % 5], a[j]);
    }
}
"""

#: Integer histogram in a loop with the result discarded: modular addition
#: is order-independent, so this stays on the fast path even though the
#: loop issues the site many times.
_ATOMIC_INT_LOOP = """
__global__ void k(int* hist, const int* a, int n) {
    int i = blockIdx.x * blockDim.x + threadIdx.x;
    for (int j = i; j < n; j += gridDim.x * blockDim.x) {
        atomicAdd(hist[a[j] % 16], 1);
    }
}
"""


def _simple_args(n=128):
    rng = np.random.default_rng(11)
    return {
        "out": np.zeros(n, dtype=np.float32),
        "a": rng.standard_normal(n, dtype=np.float32),
        "n": n,
    }


class TestMegablockFallbacks:
    def _run(self, src=_SIMPLE, grid=4, **kwargs):
        return run_kernel(src, grid, 32, _simple_args(), backend="megablock", **kwargs)

    def test_eligible_launch_batches(self):
        result = self._run()
        assert result.backend == "megablock"
        assert result.megablock_fallback is None

    def test_single_block(self):
        """One block batches: "single-block" refuses only the pool."""
        result = run_kernel(
            _SIMPLE, 1, 32, _simple_args(32), backend="megablock"
        )
        assert result.megablock_fallback is None
        assert result.megablock_megawarp is True
        ref = run_kernel(_SIMPLE, 1, 32, _simple_args(32), backend="interp")
        assert_identical(ref, result, "single-block batch")

    def test_trace(self):
        result = self._run(trace=True)
        assert result.megablock_fallback == "trace"
        ref = run_kernel(_SIMPLE, 4, 32, _simple_args(), backend="interp", trace=True)
        assert ref.trace.global_accesses == result.trace.global_accesses
        assert_identical(ref, result, "trace fallback")

    def test_faults(self):
        result = self._run(
            faults=FaultInjector([FaultSpec(kind="bit_flip", block=1)]),
            on_error="status",
        )
        assert result.megablock_fallback == "faults"
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp",
            faults=FaultInjector([FaultSpec(kind="bit_flip", block=1)]),
            on_error="status",
        )
        assert_identical(ref, result, "faults fallback")

    def test_worker_only_faults_do_not_force_fallback(self):
        """Pool-level faults need no interpreter hooks, so they do not block
        batching — same rule the parallel scheduler applies."""
        injector = FaultInjector([FaultSpec(kind="worker_slow", delay=0.0)])
        result = self._run(faults=injector)
        assert result.megablock_fallback is None

    @pytest.mark.parametrize("flag", ["racecheck", "initcheck"])
    def test_sanitizer(self, flag):
        result = self._run(**{flag: True})
        assert result.megablock_fallback == "sanitizer"
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp", **{flag: True}
        )
        assert_identical(ref, result, f"{flag} fallback")

    def test_order_free_atomics_batch(self):
        """A single atomic site outside any loop is order-free: the batched
        segmented reduce reproduces the sequential fold exactly, so no
        fallback fires and the whole grid flattens into one megawarp row
        block."""
        result = run_kernel(_ATOMIC, 4, 32, _simple_args(), backend="megablock")
        assert result.megablock_fallback is None
        assert result.megablock_megawarp is True
        ref = run_kernel(_ATOMIC, 4, 32, _simple_args(), backend="interp")
        assert_identical(ref, result, "order-free atomics fast path")
        assert result.stats.atomic_serializations > 0

    def test_integer_loop_atomics_batch(self):
        """Integer adds with the old value discarded commute, so even a
        looped histogram stays on the fast path."""
        n = 256
        vals = np.random.default_rng(3).integers(0, 1000, n).astype(np.int32)

        def args():
            return {"hist": np.zeros(16, dtype=np.int32), "a": vals.copy(), "n": n}

        ref = run_kernel(_ATOMIC_INT_LOOP, 4, 32, args(), backend="interp")
        got = run_kernel(_ATOMIC_INT_LOOP, 4, 32, args(), backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, "integer loop atomics fast path")

    @pytest.mark.parametrize(
        "src", [_ATOMIC_TWO_SITE, _ATOMIC_FLOAT_LOOP],
        ids=["two-site", "float-loop"],
    )
    def test_atomic_order_fallback(self, src):
        """Kernels whose atomic accumulation order the batch cannot replay
        (multiple sites or float adds in loops) fall back per block with the
        "atomic-order" reason — and remain bit-identical, float rounding
        included."""
        result = run_kernel(src, 4, 32, _simple_args(), backend="megablock")
        assert result.megablock_fallback == "atomic-order"
        assert result.megablock_megawarp is None
        ref = run_kernel(src, 4, 32, _simple_args(), backend="interp")
        assert_identical(ref, result, "atomic-order fallback")

    def test_sim_fault_restores_and_reruns_per_block(self):
        """A fault inside the batched attempt must restore the global-memory
        snapshot and rerun per block, reproducing the exact located error."""
        src = """
        __global__ void k(float* out, const float* a, int n) {
            int i = blockIdx.x * blockDim.x + threadIdx.x;
            out[i + n] = a[i];
        }
        """
        got = run_kernel(
            src, 4, 32, _simple_args(), backend="megablock", on_error="status"
        )
        assert got.megablock_fallback == "sim-fault"
        assert got.error is not None
        ref = run_kernel(
            src, 4, 32, _simple_args(), backend="interp", on_error="status"
        )
        assert ref.error is not None
        assert_identical(ref, got, "sim-fault fallback")

    def test_fallback_is_still_bit_identical(self):
        """The observable reason never costs correctness: an ineligible
        megablock launch equals the interpreter exactly."""
        ref = run_kernel(
            _SIMPLE, 4, 32, _simple_args(), backend="interp", racecheck=True
        )
        got = self._run(racecheck=True)
        assert_identical(ref, got, "sanitizer fallback")


# ---------------------------------------------------------------------------
# BK on the fast path: the one paper benchmark built on atomicAdd.  No xfail,
# no fallback — its integer histogram passes the order-freedom analysis, so
# the megablock engine batches it (and flattens it into a megawarp) while
# staying bit-identical to the interpreter, statistics included.
# ---------------------------------------------------------------------------


class TestBKFastPath:
    @pytest.fixture(scope="class")
    def bk(self):
        # 2048 elements -> a 2-block grid, so the launch clears the
        # single-block rung and actually exercises batching + flattening.
        return BENCHMARKS["BK"](elements=2048, block=32)

    def test_baseline_no_fallback(self, bk):
        ref = bk.run_baseline(backend="interp")
        got = bk.run_baseline(backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, "BK baseline fast path")
        assert got.stats.atomic_insts > 0

    def test_np_variant_no_fallback(self, bk):
        config = bk.configs()[0]
        ref = bk.run_variant(config, backend="interp")
        got = bk.run_variant(config, backend="megablock")
        assert got.megablock_fallback is None
        assert got.megablock_megawarp is True
        assert_identical(ref, got, f"BK {config.describe()} fast path")

    def test_atomic_serializations_counted(self, bk):
        """The collision counter agrees across both engines."""
        results = {
            be: bk.run_baseline(backend=be) for be in ("interp", "megablock")
        }
        serial = {be: r.stats.atomic_serializations for be, r in results.items()}
        assert serial["interp"] > 0
        assert len(set(serial.values())) == 1, serial
