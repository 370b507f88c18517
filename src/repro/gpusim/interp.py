"""Warp-level SIMT interpreter for mini-CUDA kernels.

Execution model (paper §2.1): threads run in warps of 32 lanes that share one
instruction pointer.  The interpreter evaluates every expression *warp-wide*
as numpy arrays of shape ``(32,)`` and handles control-flow divergence with
active-lane masks — both sides of a divergent branch are executed, serially,
exactly like SIMD hardware, so divergence and intra-warp load imbalance cost
real issue cycles in the statistics.

``__syncthreads`` is implemented by running each warp as a Python generator
and advancing all warps of a block round-robin between barrier yields.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

import numpy as np

from ..minicuda.nodes import (
    ArrayType,
    Assign,
    Binary,
    Block,
    BoolLit,
    Break,
    Call,
    Cast,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    If,
    Index,
    IntLit,
    Kernel,
    Member,
    Name,
    PointerType,
    Return,
    ScalarType,
    Stmt,
    Ternary,
    Unary,
    VarDecl,
    While,
    walk,
)
from . import coalescing
from .diagnostics import FaultContext, lanes_to_mask
from .errors import InjectedFault, IntrinsicError, MemoryFault, SimError, SyncError
from .intrinsics import (
    BINOP_WEIGHTS,
    DEFAULT_BINOP_WEIGHT,
    MATH_INTRINSICS,
    shfl,
    shfl_down,
    shfl_up,
)
from .memory import (
    ConstArray,
    GlobalBuffer,
    LocalArray,
    SharedArray,
    dtype_for,
)
from .stats import AccessTrace, KernelStats

WARP_SIZE = 32

_DIM_NAMES = ("threadIdx", "blockIdx", "blockDim", "gridDim")


@dataclass
class PointerValue:
    """A pointer into a global buffer: per-lane element offsets."""

    buffer: GlobalBuffer
    offsets: np.ndarray  # int64 (WARP_SIZE,)

    def shifted(self, delta: np.ndarray) -> "PointerValue":
        return PointerValue(self.buffer, self.offsets + delta.astype(np.int64))


@dataclass
class _LoopFrame:
    """Per-lane liveness bookkeeping for one loop nest level."""

    broken: np.ndarray
    cont: np.ndarray
    exited: np.ndarray

    @classmethod
    def new(cls) -> "_LoopFrame":
        z = np.zeros(WARP_SIZE, dtype=bool)
        return cls(z.copy(), z.copy(), z.copy())


class WarpContext:
    """All per-warp interpreter state.

    Besides the execution state proper, the context tracks *where* the warp
    currently is (source location of the executing statement, the active
    mask it runs under, and its block/warp coordinates) so any fault raised
    mid-execution can be located precisely, and carries the optional fault
    injector consulted at the interpreter's hook points.
    """

    def __init__(
        self,
        env: dict,
        init_mask: np.ndarray,
        stats: KernelStats,
        trace: AccessTrace,
        kernel_name: str = "?",
        block_idx: Optional[tuple[int, int, int]] = None,
        block_dim: Optional[tuple[int, int, int]] = None,
        grid_dim: Optional[tuple[int, int, int]] = None,
        warp_idx: int = 0,
        linear_block: Optional[int] = None,
        injector=None,
        provenance: Optional[str] = None,
        synccheck: bool = False,
        sanitizer=None,
        profile=None,
    ):
        self.env = env
        self.init_mask = init_mask
        self.inactive = np.zeros(WARP_SIZE, dtype=bool)
        self.returned = np.zeros(WARP_SIZE, dtype=bool)
        self.loop_stack: list[_LoopFrame] = []
        self.stats = stats
        self.trace = trace
        self.kernel_name = kernel_name
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.warp_idx = warp_idx
        self.linear_block = linear_block
        self.injector = injector
        self.provenance = provenance
        self.synccheck = synccheck
        #: Optional :class:`~repro.gpusim.racecheck.Sanitizer` consulted at
        #: the shared/local memory hook points.
        self.sanitizer = sanitizer
        #: Optional :class:`~repro.prof.counters.KernelProfile` fed at the
        #: per-line hook points (statement issue, memory access, intrinsics).
        #: The megablock engine calls the hooks at mirrored sites keyed off the
        #: same ``current_loc`` bookkeeping, so profiles are bit-identical.
        self.profile = profile
        #: Source location of the statement currently executing.
        self.current_loc = None
        #: Active mask the current statement runs under.
        self.current_mask = init_mask

    # -- located diagnostics -------------------------------------------------

    def make_context(
        self,
        lanes=(),
        space=None,
        buffer=None,
        index=None,
        limit=None,
        address=None,
        injected=False,
    ) -> FaultContext:
        """Snapshot this warp's position as a :class:`FaultContext`."""
        lanes = tuple(int(l) for l in lanes)
        active = np.nonzero(self.current_mask)[0] if self.current_mask is not None else []
        lane = lanes[0] if lanes else (int(active[0]) if len(active) else None)
        thread_idx = None
        if lane is not None:
            try:
                thread_idx = (
                    int(self.env["threadIdx.x"][lane]),
                    int(self.env["threadIdx.y"][lane]),
                    int(self.env["threadIdx.z"][lane]),
                )
            except (KeyError, TypeError, IndexError):
                thread_idx = None
        loc = self.current_loc
        return FaultContext(
            kernel=self.kernel_name,
            grid=self.grid_dim,
            block_dim=self.block_dim,
            block_idx=self.block_idx,
            warp=self.warp_idx,
            lane=lane,
            thread_idx=thread_idx,
            active_mask=lanes_to_mask(active),
            line=(loc.line or None) if loc is not None else None,
            col=(loc.col or None) if loc is not None else None,
            space=space,
            buffer=buffer,
            index=index,
            limit=limit,
            address=address,
            lanes=lanes,
            provenance=self.provenance,
            injected=injected,
        )

    def fault_context(self, exc: SimError) -> FaultContext:
        """Locate ``exc`` at this warp's current position, folding in any
        structured fields the exception carries (memory space, lanes, ...)."""
        injected = isinstance(exc, InjectedFault) or (
            self.injector is not None and self.injector.was_planted(exc)
        )
        return self.make_context(
            lanes=getattr(exc, "lanes", ()) or (),
            space=getattr(exc, "space", None),
            buffer=getattr(exc, "buffer", None),
            index=getattr(exc, "index", None),
            limit=getattr(exc, "limit", None),
            address=getattr(exc, "address", None),
            injected=injected,
        )


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _broadcast(value, dtype=np.int32) -> np.ndarray:
    if isinstance(value, np.ndarray):
        return value
    return np.full(WARP_SIZE, value, dtype=dtype)


def _c_int_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """C semantics: integer division truncates toward zero."""
    with np.errstate(all="ignore"):
        safe_b = np.where(b == 0, 1, b)
        q = np.abs(a) // np.abs(safe_b)
        q = (np.sign(a) * np.sign(safe_b)).astype(q.dtype) * q
        return np.where(b == 0, 0, q).astype(np.result_type(a, b))


def _c_int_mod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    q = _c_int_div(a, b)
    with np.errstate(all="ignore"):
        return (a - q * np.where(b == 0, 1, b)).astype(np.result_type(a, b))


def _is_float(arr: np.ndarray) -> bool:
    return np.issubdtype(arr.dtype, np.floating)


def _make_bitwise_impl(fn):
    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return fn(a.astype(np.int64), b.astype(np.int64)).astype(np.int32)

    return impl


def _make_arith_impl(fop, iop):
    """Arithmetic with C-like promotion: any float operand -> float32."""

    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if _is_float(a) or _is_float(b):
            with np.errstate(all="ignore"):
                return fop(a.astype(np.float32), b.astype(np.float32)).astype(
                    np.float32
                )
        ai = a.astype(np.int32) if a.dtype == np.bool_ else a
        bi = b.astype(np.int32) if b.dtype == np.bool_ else b
        with np.errstate(all="ignore"):
            return iop(ai, bi).astype(np.result_type(ai, bi))

    return impl


def _make_int_special_impl(fop, ifn):
    """Like :func:`_make_arith_impl`, but the integer path has its own C
    semantics helper (truncating division / remainder)."""

    def impl(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if _is_float(a) or _is_float(b):
            with np.errstate(all="ignore"):
                return fop(a.astype(np.float32), b.astype(np.float32)).astype(
                    np.float32
                )
        ai = a.astype(np.int32) if a.dtype == np.bool_ else a
        bi = b.astype(np.int32) if b.dtype == np.bool_ else b
        return ifn(ai, bi)

    return impl


#: One implementation function per binary operator.  The tree-walking
#: interpreter below dispatches through this table, and the megablock
#: lowering's :data:`repro.gpusim.compile.FAST_BINARY_IMPLS` mirrors it bit
#: for bit, so numeric semantics are defined exactly once.
BINARY_IMPLS: dict = {
    "&&": lambda a, b: a.astype(bool) & b.astype(bool),
    "||": lambda a, b: a.astype(bool) | b.astype(bool),
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    ">": np.greater,
    "<=": np.less_equal,
    ">=": np.greater_equal,
    "&": _make_bitwise_impl(np.bitwise_and),
    "|": _make_bitwise_impl(np.bitwise_or),
    "^": _make_bitwise_impl(np.bitwise_xor),
    "<<": _make_bitwise_impl(np.left_shift),
    ">>": _make_bitwise_impl(np.right_shift),
    "+": _make_arith_impl(np.add, np.add),
    "-": _make_arith_impl(np.subtract, np.subtract),
    "*": _make_arith_impl(np.multiply, np.multiply),
    "/": _make_int_special_impl(np.divide, _c_int_div),
    "%": _make_int_special_impl(np.fmod, _c_int_mod),
}


def _numeric_binop(op: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return BINARY_IMPLS[op](a, b)


def _resolve_index_chain(expr: Index) -> tuple[Expr, list[Expr]]:
    """Split a chain ``base[i][j]...`` into (root expr, [i, j, ...])."""
    indices: list[Expr] = []
    node: Expr = expr
    while isinstance(node, Index):
        indices.append(node.index)
        node = node.base
    indices.reverse()
    return node, indices


def eval_expr(ctx: WarpContext, expr: Expr, mask: np.ndarray):
    """Evaluate ``expr`` warp-wide; returns ndarray / PointerValue / memory
    object (memory objects only appear as Index bases)."""
    stats = ctx.stats
    if isinstance(expr, IntLit):
        value = expr.value & 0xFFFFFFFF
        if value > 0x7FFFFFFF:
            value -= 0x100000000  # wrap to int32 like C
        return _broadcast(value, np.int32)
    if isinstance(expr, FloatLit):
        return _broadcast(expr.value, np.float32)
    if isinstance(expr, BoolLit):
        return _broadcast(expr.value, np.bool_)
    if isinstance(expr, Name):
        try:
            value = ctx.env[expr.id]
        except KeyError as exc:
            raise SimError(f"undefined variable {expr.id!r}", ) from exc
        if isinstance(value, (int, np.integer)):
            return _broadcast(int(value), np.int32)
        if isinstance(value, float):
            return _broadcast(value, np.float32)
        if isinstance(value, GlobalBuffer):
            return PointerValue(value, np.zeros(WARP_SIZE, dtype=np.int64))
        return value
    if isinstance(expr, Member):
        if isinstance(expr.base, Name) and expr.base.id in _DIM_NAMES:
            key = f"{expr.base.id}.{expr.name}"
            try:
                return ctx.env[key]
            except KeyError as exc:
                raise SimError(f"unknown builtin {key}") from exc
        raise SimError(f"unsupported member access .{expr.name}")
    if isinstance(expr, Unary):
        value = eval_expr(ctx, expr.operand, mask)
        stats.alu_insts += 1
        if expr.op == "-":
            return -value
        if expr.op == "+":
            return value
        if expr.op == "!":
            return ~value.astype(bool)
        if expr.op == "~":
            return (~value.astype(np.int64)).astype(np.int32)
        raise SimError(f"unknown unary op {expr.op}")
    if isinstance(expr, Binary):
        lhs = eval_expr(ctx, expr.lhs, mask)
        rhs = eval_expr(ctx, expr.rhs, mask)
        weight = BINOP_WEIGHTS.get(expr.op, DEFAULT_BINOP_WEIGHT)
        if expr.op in ("/", "%") and _is_const_operand(ctx, expr.rhs):
            # Division by a compile-time constant strength-reduces (the
            # NP variants divide by the template parameter slave_size).
            weight = 1.0
        stats.alu_insts += weight
        if isinstance(lhs, PointerValue) or isinstance(rhs, PointerValue):
            return _pointer_arith(expr.op, lhs, rhs)
        return _numeric_binop(expr.op, lhs, rhs)
    if isinstance(expr, Ternary):
        cond = eval_expr(ctx, expr.cond, mask).astype(bool)
        then = eval_expr(ctx, expr.then, mask)
        els = eval_expr(ctx, expr.els, mask)
        stats.alu_insts += 1  # select
        if _is_float(then) or _is_float(els):
            then = then.astype(np.float32)
            els = els.astype(np.float32)
        return np.where(cond, then, els)
    if isinstance(expr, Cast):
        value = eval_expr(ctx, expr.expr, mask)
        stats.alu_insts += 1
        if isinstance(value, PointerValue):
            return value
        return value.astype(dtype_for(expr.type.name))
    if isinstance(expr, Index):
        return _eval_load(ctx, expr, mask)
    if isinstance(expr, Call):
        return _eval_call(ctx, expr, mask)
    raise SimError(f"cannot evaluate expression {expr!r}")


def _is_const_operand(ctx: WarpContext, expr: Expr) -> bool:
    if isinstance(expr, IntLit):
        return True
    if isinstance(expr, Name):
        return isinstance(ctx.env.get(expr.id), (int, np.integer))
    return False


def _pointer_arith(op: str, lhs, rhs) -> PointerValue:
    if op == "+" and isinstance(lhs, PointerValue) and isinstance(rhs, np.ndarray):
        return lhs.shifted(rhs)
    if op == "+" and isinstance(rhs, PointerValue) and isinstance(lhs, np.ndarray):
        return rhs.shifted(lhs)
    if op == "-" and isinstance(lhs, PointerValue) and isinstance(rhs, np.ndarray):
        return lhs.shifted(-rhs)
    raise SimError(f"unsupported pointer arithmetic {op!r}")


def _eval_load(ctx: WarpContext, expr: Index, mask: np.ndarray):
    if expr.loc is not None and expr.loc.line:
        ctx.current_loc = expr.loc
    root_expr, index_exprs = _resolve_index_chain(expr)
    root = eval_expr(ctx, root_expr, mask)
    indices = [
        eval_expr(ctx, ie, mask).astype(np.int64) for ie in index_exprs
    ]
    return _load_object(ctx, root, indices, mask)


def _load_object(ctx: WarpContext, root, indices: list[np.ndarray], mask: np.ndarray):
    stats = ctx.stats
    inj = ctx.injector
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        offsets = root.offsets + indices[0]
        if inj is not None:
            offsets = inj.corrupt_index(
                ctx, "global", root.buffer.name, offsets, mask, root.buffer.size
            )
        addrs = root.buffer.byte_addrs(offsets)
        if inj is not None:
            addrs = inj.corrupt_addrs(ctx, "global", root.buffer.name, addrs, mask)
        txns = coalescing.transactions_for(addrs, mask)
        stats.global_load_insts += 1
        stats.global_transactions += txns
        uncoalesced = not coalescing.is_fully_coalesced(
            addrs, mask, root.buffer.itemsize
        )
        if uncoalesced:
            stats.uncoalesced_accesses += 1
        ctx.trace.record_global(root.buffer.name, txns, int(mask.sum()))
        if ctx.profile is not None:
            ctx.profile.global_access(ctx.current_loc, txns, uncoalesced, False)
        value = root.buffer.load(offsets, mask)
        if inj is not None:
            value = inj.flip_bits(ctx, "global", root.buffer.name, value, mask)
        return value
    if isinstance(root, SharedArray):
        flat = root.flat_index(indices)
        if inj is not None:
            flat = inj.corrupt_index(ctx, "shared", root.name, flat, mask, root.numel)
        stats.shared_load_insts += 1
        replays = coalescing.bank_conflict_replays(root.byte_addrs(flat), mask)
        stats.shared_bank_replays += replays
        ctx.trace.record_shared(root.name, replays)
        if ctx.profile is not None:
            ctx.profile.shared_access(ctx.current_loc, replays, False)
        value = root.load(flat, mask)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_load(ctx, root, flat, mask)
        if inj is not None:
            value = inj.flip_bits(ctx, "shared", root.name, value, mask)
        return value
    if isinstance(root, LocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            stats.local_load_insts += 1
            addrs = root.byte_addrs(idx)
            ltx = coalescing.transactions_for(addrs, mask)
            stats.local_transactions += ltx
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access(ctx.current_loc, ltx)
        value = root.load(idx, mask)
        if ctx.sanitizer is not None:
            ctx.sanitizer.local_load(ctx, root, idx, mask)
        return value
    if isinstance(root, ConstArray):
        if len(indices) != 1:
            raise MemoryFault("constant arrays are 1-D")
        idx = indices[0]
        stats.const_load_insts += 1
        serialized = not coalescing.broadcast_segments(root.byte_addrs(idx), mask)
        if serialized:
            stats.const_serialized += 1
        if ctx.profile is not None:
            ctx.profile.const_access(ctx.current_loc, serialized)
        return root.load(idx, mask)
    raise MemoryFault(f"cannot index into {type(root).__name__}")


def _store_object(
    ctx: WarpContext, root, indices: list[np.ndarray], mask: np.ndarray, values
) -> None:
    stats = ctx.stats
    inj = ctx.injector
    values = np.asarray(values)
    if isinstance(root, PointerValue):
        if len(indices) != 1:
            raise MemoryFault("global pointers are 1-D; use manual 2-D math")
        offsets = root.offsets + indices[0]
        if inj is not None:
            offsets = inj.corrupt_index(
                ctx, "global", root.buffer.name, offsets, mask, root.buffer.size
            )
        addrs = root.buffer.byte_addrs(offsets)
        if inj is not None:
            addrs = inj.corrupt_addrs(ctx, "global", root.buffer.name, addrs, mask)
        txns = coalescing.transactions_for(addrs, mask)
        stats.global_store_insts += 1
        stats.global_transactions += txns
        uncoalesced = not coalescing.is_fully_coalesced(
            addrs, mask, root.buffer.itemsize
        )
        if uncoalesced:
            stats.uncoalesced_accesses += 1
        ctx.trace.record_global(root.buffer.name, txns, int(mask.sum()))
        if ctx.profile is not None:
            ctx.profile.global_access(ctx.current_loc, txns, uncoalesced, True)
        root.buffer.store(offsets, mask, values)
        return
    if isinstance(root, SharedArray):
        flat = root.flat_index(indices)
        if inj is not None:
            flat = inj.corrupt_index(ctx, "shared", root.name, flat, mask, root.numel)
        stats.shared_store_insts += 1
        replays = coalescing.bank_conflict_replays(root.byte_addrs(flat), mask)
        stats.shared_bank_replays += replays
        ctx.trace.record_shared(root.name, replays)
        if ctx.profile is not None:
            ctx.profile.shared_access(ctx.current_loc, replays, True)
        root.store(flat, mask, values)
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_store(ctx, root, flat, mask)
        return
    if isinstance(root, LocalArray):
        if len(indices) != 1:
            raise MemoryFault("local arrays are 1-D in this subset")
        idx = indices[0]
        if root.in_registers:
            pass  # register operand: free (the template unrolls the index)
        else:
            stats.local_store_insts += 1
            addrs = root.byte_addrs(idx)
            ltx = coalescing.transactions_for(addrs, mask)
            stats.local_transactions += ltx
            stats.local_bytes += int(mask.sum()) * root.itemsize
            if ctx.profile is not None:
                ctx.profile.local_access(ctx.current_loc, ltx)
        root.store(idx, mask, values)
        if ctx.sanitizer is not None:
            ctx.sanitizer.local_store(ctx, root, idx, mask)
        return
    if isinstance(root, ConstArray):
        raise MemoryFault(f"constant array {root.name!r} is read-only")
    raise MemoryFault(f"cannot store into {type(root).__name__}")


def _eval_call(ctx: WarpContext, expr: Call, mask: np.ndarray):
    stats = ctx.stats
    func = expr.func
    if expr.loc is not None and expr.loc.line:
        ctx.current_loc = expr.loc
    if func == "__syncthreads":
        raise SimError("__syncthreads() must be a standalone statement")
    if func in ("__shfl", "__shfl_down", "__shfl_up"):
        if len(expr.args) != 3:
            raise IntrinsicError(f"{func} expects (var, lane, width)")
        var = eval_expr(ctx, expr.args[0], mask)
        lane = eval_expr(ctx, expr.args[1], mask)
        width_arr = eval_expr(ctx, expr.args[2], mask)
        width = int(width_arr[0])
        stats.shfl_insts += 1
        if ctx.profile is not None:
            ctx.profile.shfl(ctx.current_loc)
        if func == "__shfl":
            if ctx.injector is not None:
                lane = ctx.injector.corrupt_shfl_lane(ctx, _broadcast(lane), width)
            return shfl(var, lane, width)
        if func == "__shfl_down":
            return shfl_down(var, int(lane[0]), width)
        return shfl_up(var, int(lane[0]), width)
    if func == "atomicAdd":
        # atomicAdd(lvalue, value): lvalue is an Index expression.
        if len(expr.args) != 2 or not isinstance(expr.args[0], Index):
            raise IntrinsicError("atomicAdd expects (array[index], value)")
        root_expr, index_exprs = _resolve_index_chain(expr.args[0])
        root = eval_expr(ctx, root_expr, mask)
        indices = [eval_expr(ctx, ie, mask).astype(np.int64) for ie in index_exprs]
        delta = eval_expr(ctx, expr.args[1], mask)
        stats.atomic_insts += 1
        if ctx.profile is not None:
            ctx.profile.atomic(ctx.current_loc)
        return _atomic_add(ctx, root, indices, mask, delta)
    if func == "tex1Dfetch":
        if len(expr.args) != 2 or not isinstance(expr.args[0], Name):
            raise IntrinsicError("tex1Dfetch expects (texture_name, index)")
        tex = ctx.env.get(expr.args[0].id)
        idx = eval_expr(ctx, expr.args[1], mask).astype(np.int64)
        if isinstance(tex, (ConstArray, GlobalBuffer)):
            # Textures are global memory behind the read-only texture cache,
            # which captures streaming/2-D locality: DRAM traffic amortizes
            # to the useful bytes (each 128-byte line is consumed across
            # nearby fetches), unlike an uncached gather.
            stats.global_load_insts += 1
            active = int(mask.sum())
            txns = max(1, (active * tex.itemsize + 127) // 128)
            stats.global_transactions += txns
            if ctx.profile is not None:
                ctx.profile.global_access(ctx.current_loc, txns, False, False)
            return tex.load(idx, mask)
        raise IntrinsicError(f"texture {expr.args[0].id!r} not bound")
    intrinsic = MATH_INTRINSICS.get(func)
    if intrinsic is not None:
        if len(expr.args) != intrinsic.arity:
            raise IntrinsicError(
                f"{func} expects {intrinsic.arity} args, got {len(expr.args)}"
            )
        args = [eval_expr(ctx, a, mask) for a in expr.args]
        stats.alu_insts += intrinsic.weight
        return intrinsic.fn(*args)
    raise IntrinsicError(f"unknown device function {func!r}")


def _atomic_add(ctx: WarpContext, root, indices, mask, delta):
    if isinstance(root, PointerValue):
        offsets = (root.offsets + indices[0])[mask]
        # Lanes aiming at the same address serialize into extra RMW passes.
        ctx.stats.atomic_serializations += offsets.size - np.unique(offsets).size
        old = root.buffer.data[offsets].copy()
        np.add.at(root.buffer.data, offsets, delta[mask].astype(root.buffer.data.dtype))
        out = np.zeros(WARP_SIZE, dtype=root.buffer.data.dtype)
        out[mask] = old
        return out
    if isinstance(root, SharedArray):
        flat_full = root.flat_index(indices)
        flat = flat_full[mask]
        ctx.stats.atomic_serializations += flat.size - np.unique(flat).size
        old = root.data[flat].copy()
        np.add.at(root.data, flat, delta[mask].astype(root.data.dtype))
        if ctx.sanitizer is not None:
            ctx.sanitizer.shared_atomic(ctx, root, flat_full, mask)
        out = np.zeros(WARP_SIZE, dtype=root.data.dtype)
        out[mask] = old
        return out
    raise IntrinsicError("atomicAdd target must be global or shared memory")


# ---------------------------------------------------------------------------
# Statement execution (generators; yields are __syncthreads barriers)
# ---------------------------------------------------------------------------


def exec_block(ctx: WarpContext, body: Block, mask: np.ndarray) -> Iterator:
    for stmt in body.stmts:
        m = mask & ~ctx.inactive
        if not m.any():
            return
        yield from exec_stmt(ctx, stmt, m)


def exec_stmt(ctx: WarpContext, stmt: Stmt, mask: np.ndarray) -> Iterator:
    stats = ctx.stats
    if stmt.loc is not None and stmt.loc.line:
        ctx.current_loc = stmt.loc
        if ctx.profile is not None:
            ctx.profile.stmt(stmt.loc.line, int(mask.sum()))
    ctx.current_mask = mask
    if isinstance(stmt, VarDecl):
        _exec_decl(ctx, stmt, mask)
    elif isinstance(stmt, Assign):
        _exec_assign(ctx, stmt, mask)
    elif isinstance(stmt, ExprStmt):
        if isinstance(stmt.expr, Call) and stmt.expr.func == "__syncthreads":
            stats.syncthreads += 1
            if ctx.profile is not None:
                ctx.profile.sync(stmt.loc.line if stmt.loc is not None else 0)
            sync_mask = mask
            if ctx.injector is not None:
                skip = ctx.injector.sync_skip_lanes(ctx, sync_mask)
                if skip is not None:
                    sync_mask = sync_mask & ~skip
            # A withheld lane is always a fault: lanes that executed this
            # statement did not all arrive (only injection can cause this).
            withheld = mask & ~sync_mask
            if withheld.any():
                lanes = np.nonzero(withheld)[0].tolist()
                raise SyncError(
                    f"lanes {lanes} of warp {ctx.warp_idx} missed the "
                    "barrier: __syncthreads reached by only part of the warp",
                    lanes=lanes,
                )
            if ctx.synccheck:
                # compute-sanitizer synccheck semantics: every non-exited
                # lane must be active at the barrier.  The default matches
                # pre-Volta hardware — a warp's arrival at *any* barrier
                # counts for the whole warp — which the paper's generated
                # master/slave kernels rely on (barriers under `if (master)`
                # divergence).
                expected = ctx.init_mask & ~ctx.returned
                missing = expected & ~mask
                if missing.any():
                    lanes = np.nonzero(missing)[0].tolist()
                    raise SyncError(
                        "__syncthreads reached by only part of the thread "
                        f"block: lanes {lanes} of warp {ctx.warp_idx} are "
                        "divergence-parked at this barrier",
                        lanes=lanes,
                    )
            yield ("sync", stmt.loc.line if stmt.loc is not None else 0)
        else:
            eval_expr(ctx, stmt.expr, mask)
    elif isinstance(stmt, Block):
        yield from exec_block(ctx, stmt, mask)
    elif isinstance(stmt, If):
        cond = eval_expr(ctx, stmt.cond, mask).astype(bool)
        stats.control_insts += 1
        m_then = mask & cond
        m_else = mask & ~cond
        has_else = stmt.els is not None and stmt.els.stmts
        if m_then.any() and (m_else.any() and has_else):
            stats.divergent_branches += 1
            if ctx.profile is not None and stmt.loc is not None and stmt.loc.line:
                ctx.profile.divergent(stmt.loc.line)
        if m_then.any():
            yield from exec_block(ctx, stmt.then, m_then)
        if has_else and m_else.any():
            yield from exec_block(ctx, stmt.els, m_else)
    elif isinstance(stmt, For):
        yield from _exec_for(ctx, stmt, mask)
    elif isinstance(stmt, While):
        yield from _exec_while(ctx, stmt, mask)
    elif isinstance(stmt, Return):
        if stmt.value is not None:
            eval_expr(ctx, stmt.value, mask)
        ctx.returned |= mask
        ctx.inactive |= mask
    elif isinstance(stmt, Break):
        if not ctx.loop_stack:
            raise SimError("break outside loop")
        ctx.loop_stack[-1].broken |= mask
        ctx.inactive |= mask
    elif isinstance(stmt, Continue):
        if not ctx.loop_stack:
            raise SimError("continue outside loop")
        ctx.loop_stack[-1].cont |= mask
        ctx.inactive |= mask
    else:
        raise SimError(f"cannot execute statement {type(stmt).__name__}")


def _exec_decl(ctx: WarpContext, stmt: VarDecl, mask: np.ndarray) -> None:
    type_ = stmt.type
    if isinstance(type_, ArrayType):
        if type_.space == "shared":
            # Pre-allocated by the block executor; the declaration itself is free.
            if stmt.name not in ctx.env:
                raise SimError(f"shared array {stmt.name!r} was not pre-allocated")
            return
        if type_.space == "constant":
            if stmt.name not in ctx.env:
                raise SimError(f"constant array {stmt.name!r} was not bound")
            return
        existing = ctx.env.get(stmt.name)
        if isinstance(existing, LocalArray) and existing.numel == type_.numel:
            existing.data[...] = 0
            existing.shadow = None  # re-declared: sanitizer state starts over
        else:
            base = ctx.env.get("__local_base__", 1 << 32)
            arr = LocalArray(
                stmt.name,
                type_.numel,
                type_.elem.name,
                base_addr=base,
                in_registers=(type_.space == "reg"),
            )
            ctx.env["__local_base__"] = base + arr.bytes_per_thread * WARP_SIZE
            ctx.env[stmt.name] = arr
        return
    if stmt.init is None:
        dtype = np.float32 if isinstance(type_, ScalarType) and type_.name == "float" else np.int32
        if isinstance(type_, PointerType):
            raise SimError(f"pointer {stmt.name!r} declared without initializer")
        ctx.env[stmt.name] = np.zeros(WARP_SIZE, dtype=dtype)
        return
    value = eval_expr(ctx, stmt.init, mask)
    if isinstance(type_, PointerType):
        if not isinstance(value, PointerValue):
            raise SimError(f"pointer {stmt.name!r} initialized with non-pointer")
        ctx.env[stmt.name] = value
        return
    if isinstance(value, PointerValue):
        raise SimError(f"scalar {stmt.name!r} initialized with pointer")
    ctx.env[stmt.name] = value.astype(dtype_for(type_.name))


def _exec_assign(ctx: WarpContext, stmt: Assign, mask: np.ndarray) -> None:
    # Compound assignment: evaluate target op value.
    if stmt.op != "=":
        binop = stmt.op[:-1]
        value = eval_expr(ctx, Binary(binop, stmt.target, stmt.value), mask)
    else:
        value = eval_expr(ctx, stmt.value, mask)

    target = stmt.target
    if isinstance(target, Name):
        old = ctx.env.get(target.id)
        if isinstance(value, PointerValue):
            ctx.env[target.id] = value
            return
        if old is None:
            raise SimError(f"assignment to undeclared variable {target.id!r}")
        if isinstance(old, (int, float)):
            # Scalar kernel parameters are broadcast per warp on first write.
            old = _broadcast(old, np.int32 if isinstance(old, int) else np.float32)
        if isinstance(old, PointerValue):
            ctx.env[target.id] = value
            return
        merged = np.where(mask, value.astype(old.dtype), old)
        ctx.env[target.id] = merged
        return
    if isinstance(target, Index):
        root_expr, index_exprs = _resolve_index_chain(target)
        root = eval_expr(ctx, root_expr, mask)
        indices = [eval_expr(ctx, ie, mask).astype(np.int64) for ie in index_exprs]
        _store_object(ctx, root, indices, mask, value)
        return
    raise SimError(f"invalid assignment target {type(target).__name__}")


def _exec_for(ctx: WarpContext, stmt: For, mask: np.ndarray) -> Iterator:
    if stmt.init is not None:
        yield from exec_stmt(ctx, stmt.init, mask)
    frame = _LoopFrame.new()
    ctx.loop_stack.append(frame)
    try:
        while True:
            m = mask & ~ctx.inactive
            if not m.any():
                break
            if stmt.cond is not None:
                cond = eval_expr(ctx, stmt.cond, m).astype(bool)
                ctx.stats.control_insts += 1
                leaving = m & ~cond
                frame.exited |= leaving
                ctx.inactive |= leaving
                m = m & cond
                if not m.any():
                    break
            yield from exec_block(ctx, stmt.body, m)
            # Reactivate lanes parked by 'continue' for the update step.
            ctx.inactive &= ~frame.cont
            frame.cont[:] = False
            if stmt.update is not None:
                mu = mask & ~ctx.inactive
                if mu.any():
                    yield from exec_stmt(ctx, stmt.update, mu)
    finally:
        ctx.loop_stack.pop()
        ctx.inactive &= ~(frame.broken | frame.exited)


def _exec_while(ctx: WarpContext, stmt: While, mask: np.ndarray) -> Iterator:
    frame = _LoopFrame.new()
    ctx.loop_stack.append(frame)
    try:
        while True:
            m = mask & ~ctx.inactive
            if not m.any():
                break
            cond = eval_expr(ctx, stmt.cond, m).astype(bool)
            ctx.stats.control_insts += 1
            leaving = m & ~cond
            frame.exited |= leaving
            ctx.inactive |= leaving
            m = m & cond
            if not m.any():
                break
            yield from exec_block(ctx, stmt.body, m)
            ctx.inactive &= ~frame.cont
            frame.cont[:] = False
    finally:
        ctx.loop_stack.pop()
        ctx.inactive &= ~(frame.broken | frame.exited)


# ---------------------------------------------------------------------------
# Block execution
# ---------------------------------------------------------------------------


def shared_decls(kernel: Kernel) -> list[VarDecl]:
    """All __shared__ declarations anywhere in the kernel body."""
    return [
        node
        for node in walk(kernel.body)
        if isinstance(node, VarDecl)
        and isinstance(node.type, ArrayType)
        and node.type.space == "shared"
    ]


class WarpScaffold:
    """Launch-wide cache of block-invariant warp-environment scaffolding.

    ``shared_decls`` and the per-warp builtin arrays (``threadIdx.*`` lane
    vectors, ``blockDim``/``gridDim`` broadcasts) depend only on the kernel
    and the launch shape, so they are computed once per launch and shared by
    every :class:`BlockExecutor` instead of being rebuilt per block per warp.
    Nothing in the interpreter mutates these arrays in place, which makes
    sharing them across blocks safe.  ``decls`` passes in an already
    computed ``shared_decls(kernel)`` (the megablock lowering keeps one).
    """

    def __init__(
        self,
        kernel: Kernel,
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        decls: Optional[list[VarDecl]] = None,
    ):
        self.kernel = kernel
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.shared_decls = shared_decls(kernel) if decls is None else decls
        bx, by, bz = block_dim
        gx, gy, gz = grid_dim
        total = bx * by * bz
        self.total_threads = total
        self.num_warps = (total + WARP_SIZE - 1) // WARP_SIZE
        dims = {
            "blockDim.x": _broadcast(bx),
            "blockDim.y": _broadcast(by),
            "blockDim.z": _broadcast(bz),
            "gridDim.x": _broadcast(gx),
            "gridDim.y": _broadcast(gy),
            "gridDim.z": _broadcast(gz),
        }
        self._warps: list[tuple[np.ndarray, dict]] = []
        for w in range(self.num_warps):
            linear = w * WARP_SIZE + np.arange(WARP_SIZE)
            mask = linear < total
            linear = np.minimum(linear, total - 1)
            builtins = dict(dims)
            builtins["threadIdx.x"] = (linear % bx).astype(np.int32)
            builtins["threadIdx.y"] = ((linear // bx) % by).astype(np.int32)
            builtins["threadIdx.z"] = (linear // (bx * by)).astype(np.int32)
            self._warps.append((mask, builtins))

    def warp_builtins(self, warp_idx: int) -> tuple[np.ndarray, dict]:
        return self._warps[warp_idx]


class BlockExecutor:
    """Runs all warps of one thread block, honouring ``__syncthreads``.

    ``scaffold`` caches launch-invariant warp scaffolding (built on demand
    when omitted, so direct construction keeps working).
    """

    def __init__(
        self,
        kernel: Kernel,
        block_idx: tuple[int, int, int],
        block_dim: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        base_env: dict,
        stats: KernelStats,
        trace: Optional[AccessTrace] = None,
        injector=None,
        linear_block: Optional[int] = None,
        synccheck: bool = False,
        sanitizer=None,
        scaffold: Optional[WarpScaffold] = None,
        profile=None,
    ):
        self.kernel = kernel
        self.block_idx = block_idx
        self.block_dim = block_dim
        self.grid_dim = grid_dim
        self.base_env = base_env
        self.stats = stats
        # `is not None` (not truthiness): a caller-provided trace must be
        # kept even when it is empty or compares falsy.
        self.trace = trace if trace is not None else AccessTrace()
        self.injector = injector
        self.linear_block = linear_block
        self.synccheck = synccheck
        self.sanitizer = sanitizer
        self.profile = profile
        if scaffold is None:
            scaffold = WarpScaffold(kernel, block_dim, grid_dim)
        else:
            assert scaffold.kernel is kernel and scaffold.block_dim == block_dim
        self.scaffold = scaffold
        cx, cy, cz = block_idx
        self._block_builtins = {
            "blockIdx.x": _broadcast(cx),
            "blockIdx.y": _broadcast(cy),
            "blockIdx.z": _broadcast(cz),
        }
        self._pointer_keys = [
            key
            for key, value in base_env.items()
            if isinstance(value, (GlobalBuffer, PointerValue))
        ]
        self.shared: dict[str, SharedArray] = {}
        self._alloc_shared()

    def _alloc_shared(self) -> None:
        offset = 0
        for decl in self.scaffold.shared_decls:
            assert isinstance(decl.type, ArrayType)
            arr = SharedArray(
                decl.name, decl.type.dims, decl.type.elem.name, base_offset=offset
            )
            offset += arr.nbytes
            self.shared[decl.name] = arr

    @property
    def shared_bytes(self) -> int:
        return sum(arr.nbytes for arr in self.shared.values())

    def _warp_env(self, warp_idx: int) -> tuple[dict, np.ndarray]:
        mask, builtins = self.scaffold.warp_builtins(warp_idx)
        env = dict(self.base_env)
        env.update(self.shared)
        env.update(self.kernel.const_env)
        env.update(builtins)
        env.update(self._block_builtins)
        # Pointer params get per-warp offset arrays (no aliasing across warps).
        for key in self._pointer_keys:
            value = env[key]
            if isinstance(value, GlobalBuffer):
                env[key] = PointerValue(value, np.zeros(WARP_SIZE, dtype=np.int64))
            elif isinstance(value, PointerValue):
                env[key] = PointerValue(value.buffer, value.offsets.copy())
        return env, mask

    def run(self) -> None:
        # One errstate guard covers the whole block, the same guard the
        # megablock executor holds around its batch; the interpreter's per-op
        # guards are inner duplicates of it.
        with np.errstate(all="ignore"):
            self._run_block()

    def _run_block(self) -> None:
        total = self.scaffold.total_threads
        num_warps = self.scaffold.num_warps
        warps: list[tuple[WarpContext, Iterator]] = []
        for w in range(num_warps):
            env, mask = self._warp_env(w)
            ctx = WarpContext(
                env,
                mask,
                self.stats,
                self.trace,
                kernel_name=self.kernel.name,
                block_idx=self.block_idx,
                block_dim=self.block_dim,
                grid_dim=self.grid_dim,
                warp_idx=w,
                provenance=getattr(self.kernel, "provenance", None),
                linear_block=self.linear_block,
                injector=self.injector,
                synccheck=self.synccheck,
                sanitizer=self.sanitizer,
                profile=self.profile,
            )
            warps.append((ctx, exec_block(ctx, self.kernel.body, mask)))
        if self.sanitizer is not None:
            self.sanitizer.begin_block(self.linear_block)
        if self.profile is not None:
            # Single shared collection point for both backends: per-block
            # cost records start here, before any warp issues a statement.
            linear = self.linear_block if self.linear_block is not None else 0
            self.profile.begin_block(linear, num_warps, total)
        self.stats.blocks_executed += 1
        self.stats.warps_executed += num_warps
        self.stats.threads_launched += total

        alive = warps
        while alive:
            still_alive = []
            arrivals: list[tuple[WarpContext, int]] = []
            for wctx, gen in alive:
                try:
                    event = next(gen)
                except StopIteration:
                    continue
                except SimError as exc:
                    # Locate the fault at the warp's current position before
                    # it unwinds into the host runtime.
                    raise exc.attach(wctx.fault_context(exc))
                if not (isinstance(event, tuple) and event[0] == "sync"):
                    raise SyncError(
                        f"unexpected warp event {event!r}",
                        ctx=wctx.make_context(),
                    )  # pragma: no cover - defensive
                arrivals.append((wctx, event[1]))
                still_alive.append((wctx, gen))
            # Under synccheck, all running warps must wait at the *same*
            # barrier; mixed source lines mean the block's barriers slipped
            # out of alignment.  The default (hardware) semantics treat any
            # __syncthreads arrival as the one block-wide barrier.
            if arrivals and self.synccheck:
                lines = sorted({line for _, line in arrivals})
                if len(lines) > 1:
                    wctx = arrivals[0][0]
                    raise SyncError(
                        "warps arrived at different __syncthreads barriers "
                        f"(source lines {lines})",
                        ctx=wctx.make_context(),
                    )
            # Every running warp arrived: that round *is* the block-wide
            # barrier — accesses across it are ordered.
            if arrivals and self.sanitizer is not None:
                self.sanitizer.barrier()
            alive = still_alive
