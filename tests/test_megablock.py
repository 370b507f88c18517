"""Unit tests for the batch-vectorized megablock engine internals.

The end-to-end bit-identity contract lives in
``tests/test_backend_differential.py``; this file pins down the batched
building blocks — per-row stat reductions, block-varying shuffle rejection,
the batched memory slabs, and worker-pool chunk composition — so a
regression localizes to the helper that drifted instead of a whole-kernel
diff.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpusim import scheduler
from repro.gpusim.errors import SimError
from repro.gpusim.launch import run_kernel
from repro.gpusim.coalescing import (
    bank_conflict_replays,
    is_fully_coalesced,
    transactions_for,
)
from repro.gpusim.megablock import (
    ROW_CLASS_FLOOR,
    _STRIDE_TABLES,
    _STRIDE_TABLES_MAX,
    _batch_bank_replays,
    _batch_const_serialized,
    _batch_global_stats,
    _batch_txns,
    _uniform_int,
    compile_megablock,
)
from repro.gpusim.memory import BatchedLocalArray, BatchedSharedArray
from repro.minicuda.parser import parse_kernel


# ---------------------------------------------------------------------------
# Per-row reductions vs the per-block scalar implementations
# ---------------------------------------------------------------------------


def _rand_case(rng, nblocks=5):
    addrs = rng.integers(0, 4096, size=(nblocks, 32), dtype=np.int64)
    mask = rng.random((nblocks, 32)) < 0.7
    mask[2] = False  # one empty row
    return addrs, mask


def test_batch_txns_matches_per_block():
    from repro.gpusim.coalescing import transactions_for

    rng = np.random.default_rng(5)
    addrs, mask = _rand_case(rng)
    got = _batch_txns(addrs, mask)
    for row in range(addrs.shape[0]):
        assert got[row] == transactions_for(addrs[row], mask[row])


def test_batch_global_stats_matches_per_block():
    from repro.gpusim.coalescing import is_fully_coalesced, transactions_for

    rng = np.random.default_rng(6)
    addrs, mask = _rand_case(rng)
    txns, unco = _batch_global_stats(addrs, mask, 4)
    for row in range(addrs.shape[0]):
        assert txns[row] == transactions_for(addrs[row], mask[row])
        coalesced = is_fully_coalesced(addrs[row], mask[row], 4)
        assert bool(unco[row]) == (not coalesced)


def test_batch_bank_replays_matches_per_block():
    from repro.gpusim.coalescing import bank_conflict_replays

    rng = np.random.default_rng(7)
    addrs, mask = _rand_case(rng)
    got = _batch_bank_replays(addrs, mask)
    for row in range(addrs.shape[0]):
        assert got[row] == bank_conflict_replays(addrs[row], mask[row])


def test_batch_const_serialized_matches_per_block():
    from repro.gpusim.coalescing import broadcast_segments

    rng = np.random.default_rng(8)
    addrs, mask = _rand_case(rng)
    addrs[0, :] = 1024  # one genuinely broadcast row
    got = _batch_const_serialized(addrs, mask)
    for row in range(addrs.shape[0]):
        assert bool(got[row]) == (not broadcast_segments(addrs[row], mask[row]))


# ---------------------------------------------------------------------------
# Row-class front end: batches on both sides of the row floor, every address
# and mask class, against the per-block scalars
# ---------------------------------------------------------------------------

_LANES = np.arange(32, dtype=np.int64)


@st.composite
def _access_batches(draw):
    """``(byte_addrs, mask, itemsize)`` for one batched access."""
    nrows = draw(st.one_of(
        st.integers(1, 8),
        st.integers(ROW_CLASS_FLOOR, ROW_CLASS_FLOOR + 40),
    ))
    itemsize = draw(st.sampled_from([1, 2, 4, 8]))
    stride = itemsize * draw(st.one_of(
        st.sampled_from([0, 1, -1, 3, 32, 33, -64]), st.integers(-300, 300)
    ))
    kind = draw(st.sampled_from(
        ["lane-only", "lane-gather", "uniform", "per-row", "wrapped", "gather"]
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Unaligned byte bases, some of them negative.
    base = rng.integers(-4096, 1 << 20, size=(nrows, 1))
    if kind == "lane-only":
        addrs = base[0, 0] + stride * _LANES
    elif kind == "lane-gather":
        addrs = rng.integers(-4096, 1 << 12, size=32)
    elif kind == "uniform":
        addrs = base + stride * _LANES
    elif kind == "per-row":
        strides = rng.choice([stride, stride + itemsize, -stride], size=(nrows, 1))
        addrs = base + strides * _LANES
    elif kind == "wrapped":
        modulus = int(rng.integers(2, 64))
        addrs = base + (stride * _LANES) % (modulus * itemsize)
    else:
        addrs = base + rng.integers(0, 1 << 12, size=(nrows, 32)) * itemsize
    # Full, partial and empty rows, in proportions from all-full to none.
    weights = draw(st.sampled_from([(1, 0, 0), (6, 3, 1), (0, 3, 1), (1, 0, 1)]))
    row_kind = rng.choice(3, size=nrows, p=np.array(weights) / sum(weights))
    mask = np.ones((nrows, 32), dtype=bool)
    density = draw(st.sampled_from([0.5, 0.95]))
    mask[row_kind == 1] = rng.random(((row_kind == 1).sum(), 32)) < density
    mask[row_kind == 2] = False
    return addrs.astype(np.int64), mask, itemsize


@settings(max_examples=300, deadline=None)
@given(_access_batches())
def test_row_class_reductions_match_per_block(batch):
    addrs, mask, itemsize = batch
    txns = _batch_txns(addrs, mask)
    stats_txns, uncoalesced = _batch_global_stats(addrs, mask, itemsize)
    replays = _batch_bank_replays(addrs, mask)
    rows = np.broadcast_to(addrs, mask.shape)
    for row in range(mask.shape[0]):
        a, m = rows[row], mask[row]
        assert txns[row] == stats_txns[row] == transactions_for(a, m)
        assert bool(uncoalesced[row]) == (not is_fully_coalesced(a, m, itemsize))
        assert replays[row] == bank_conflict_replays(a, m)
    assert len(_STRIDE_TABLES) <= _STRIDE_TABLES_MAX


# ---------------------------------------------------------------------------
# Shuffle operand uniformity
# ---------------------------------------------------------------------------


def test_uniform_int_accepts_block_invariant_operands():
    assert _uniform_int(7) == 7
    assert _uniform_int(np.full(32, 3, dtype=np.int32)) == 3
    assert _uniform_int(np.full((4, 32), 5, dtype=np.int32)) == 5


def test_uniform_int_rejects_block_varying_operands():
    varying = np.repeat(np.arange(4, dtype=np.int32)[:, None], 32, axis=1)
    with pytest.raises(SimError, match="varies across blocks"):
        _uniform_int(varying)


# ---------------------------------------------------------------------------
# Batched memory slabs
# ---------------------------------------------------------------------------


def test_batched_shared_rows_are_isolated():
    arr = BatchedSharedArray("s", (32,), "float", nblocks=3)
    mask = np.ones((3, 32), dtype=bool)
    idx = np.arange(32, dtype=np.int64)
    values = np.arange(3, dtype=np.float32)[:, None] + np.zeros(32, np.float32)
    arr.store(idx, mask, values)
    for row in range(3):
        assert np.all(arr.block_view(row) == row)
    got = arr.load(idx, mask)
    assert np.array_equal(got, values)


def test_batched_local_per_lane_storage():
    arr = BatchedLocalArray("l", 4, "int", nblocks=2)
    mask = np.ones((2, 32), dtype=bool)
    idx = np.zeros((2, 32), dtype=np.int64)
    lane_vals = np.tile(np.arange(32, dtype=np.int32), (2, 1))
    arr.store(idx, mask, lane_vals + np.array([[0], [100]], dtype=np.int32))
    got = arr.load(idx, mask)
    assert np.array_equal(got[0], np.arange(32))
    assert np.array_equal(got[1], np.arange(32) + 100)


def test_batched_local_in_registers_flag():
    assert BatchedLocalArray("r", 4, "int", nblocks=1).in_registers is False
    assert BatchedLocalArray(
        "r", 4, "int", nblocks=1, in_registers=True
    ).in_registers is True


# ---------------------------------------------------------------------------
# Compiled artifact shape
# ---------------------------------------------------------------------------

_BARRIER_SRC = """
__global__ void k(float* out) {
    __shared__ float s[64];
    s[threadIdx.x] = out[blockIdx.x * blockDim.x + threadIdx.x];
    __syncthreads();
    out[blockIdx.x * blockDim.x + threadIdx.x] = s[63 - threadIdx.x];
}
"""


def test_barrier_kernel_lowers_to_generator():
    mega = compile_megablock(parse_kernel(_BARRIER_SRC), cache=False)
    assert mega.has_barriers and mega.body_is_gen
    assert not mega.uses_atomics


def test_barrier_kernel_runs_batched_and_matches_interp():
    args = lambda: {"out": np.arange(256, dtype=np.float32)}
    ref = run_kernel(_BARRIER_SRC, 4, 64, args(), backend="interp")
    got = run_kernel(_BARRIER_SRC, 4, 64, args(), backend="megablock")
    assert got.megablock_fallback is None
    assert (
        ref.gmem.buffers()["out"].data.tobytes()
        == got.gmem.buffers()["out"].data.tobytes()
    )
    assert ref.stats == got.stats


# ---------------------------------------------------------------------------
# Worker-pool composition: chunked megablocks merge to the sequential batch
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not scheduler.available(), reason="needs POSIX fork")
def test_parallel_megablock_chunks_match_sequential_batch():
    src = """
    __global__ void k(float* out, const float* a) {
        int i = blockIdx.x * blockDim.x + threadIdx.x;
        float acc = 0.0f;
        for (int j = 0; j < 8; j++) acc = acc + a[i] * (float)j;
        out[i] = acc;
    }
    """
    rng = np.random.default_rng(21)
    a = rng.standard_normal(512, dtype=np.float32)
    args = lambda: {"out": np.zeros(512, dtype=np.float32), "a": a.copy()}
    seq = run_kernel(src, 16, 32, args(), backend="megablock", profile=True)
    par = run_kernel(
        src, 16, 32, args(), backend="megablock", profile=True, parallel=2
    )
    assert seq.megablock_fallback is None and par.megablock_fallback is None
    assert (
        seq.gmem.buffers()["out"].data.tobytes()
        == par.gmem.buffers()["out"].data.tobytes()
    )
    for f in dataclasses.fields(seq.stats):
        assert getattr(seq.stats, f.name) == getattr(par.stats, f.name), f.name
    assert seq.profile == par.profile
