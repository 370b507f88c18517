"""The CUDA-NP master/slave kernel transformation (paper §3, Fig. 7).

Given a 1-D-thread kernel and an :class:`~repro.npc.config.NpConfig`, this
pass produces the transformed kernel body:

1. the thread block grows by ``slave_size`` along a new dimension — masters
   keep the original ``threadIdx.x`` (inter-warp) or move to ``threadIdx.y``
   (intra-warp);
2. sequential statements run under ``if (slave_id == 0)`` unless the
   uniformity analysis proves them slave-invariant (then they run
   redundantly, §3.1);
3. pragma-marked loops distribute their iterations across each slave group
   (guarded-cyclic by default, padded on request, chunked for scans);
4. live-in scalars are broadcast with ``read_from_master`` (shfl or shared
   memory), live-out reduction/scan variables are combined group-wide and
   re-published to all threads (§3.1–3.2);
5. live local arrays are replaced per the §3.3 plan (done by the caller via
   :mod:`~repro.npc.local_arrays` before this pass runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..analysis.liveness import stmt_defs, stmt_uses
from ..analysis.loops import LoopInfo, normalize_loop
from ..analysis.symbols import Space, SymbolTable, build_symbol_table
from ..analysis.uniformity import UniformityState, redundant_executable
from ..minicuda.build import (
    assign,
    sync as sync_stmt,
    binop,
    block,
    call,
    decl,
    e,
    eq,
    if_,
    lt,
    mul,
    name,
)
from ..minicuda.errors import SourceLoc, TransformError
from ..minicuda.nodes import (
    Assign,
    Block,
    Call,
    Expr,
    ExprStmt,
    For,
    If,
    Index,
    IntLit,
    Kernel,
    Member,
    Name,
    Return,
    ScalarType,
    Stmt,
    VarDecl,
    While,
    clone,
    map_expr,
    walk,
)
from .comm import (
    CommBuffers,
    apply_op,
    gen_broadcast,
    gen_group_exclusive_scan,
    gen_read_from_lane,
    gen_reduction,
    identity_lit,
)
from .config import NpConfig

_RESERVED = ("master_id", "slave_id", "master_size", "slave_size")


def _fold_mul(expr: Expr, factor: int) -> Expr:
    """``expr * factor`` with the ×1 case folded away."""
    if factor == 1:
        return expr
    return binop("*", expr, factor)


def _fold_add(lhs: Expr, rhs: Expr) -> Expr:
    """``lhs + rhs`` with literal-zero operands folded away."""
    if isinstance(lhs, IntLit) and lhs.value == 0:
        return rhs
    if isinstance(rhs, IntLit) and rhs.value == 0:
        return lhs
    return binop("+", lhs, rhs)


def is_parallel_loop(stmt: Stmt) -> bool:
    return isinstance(stmt, For) and stmt.pragma is not None


def contains_parallel_loop(stmt: Stmt) -> bool:
    return any(is_parallel_loop(node) for node in walk(stmt))


def collect_parallel_loops(stmt: Stmt) -> list[For]:
    return [node for node in walk(stmt) if is_parallel_loop(node)]


def _locate(stmts: list[Stmt], loc: SourceLoc) -> None:
    """Give unlocated statements a source line: each statement of ``stmts``
    without one gets ``loc``, and each unlocated statement nested inside
    gets the line of its nearest located enclosing statement.

    The engines charge an unlocated statement's per-line profile counters
    to the last line run, which the interpreter tracks per warp and
    megablock per batch; after a master-only region the two disagree.  A
    synthesized statement therefore takes the line of the source statement
    it replaces.
    """
    for stmt in stmts:
        if loc.line and not stmt.loc.line:
            stmt.loc = loc
        if isinstance(stmt, Block):
            _locate(stmt.stmts, stmt.loc)
        elif isinstance(stmt, If):
            _locate(stmt.then.stmts, stmt.loc)
            if stmt.els is not None:
                _locate(stmt.els.stmts, stmt.loc)
        elif isinstance(stmt, For):
            heads = [s for s in (stmt.init, stmt.update) if s is not None]
            _locate(heads + stmt.body.stmts, stmt.loc)
        elif isinstance(stmt, While):
            _locate(stmt.body.stmts, stmt.loc)


def remap_thread_ids(stmt: Stmt, np_type: str) -> Stmt:
    """Rewrite the original kernel's thread-id references.

    ``threadIdx.x`` becomes ``master_id``; ``blockDim.x`` becomes
    ``master_size`` (a compile-time constant in the variant).
    """

    def repl(expr: Expr) -> Expr:
        if isinstance(expr, Member) and isinstance(expr.base, Name):
            if expr.base.id == "threadIdx":
                if expr.name == "x":
                    return Name("master_id")
                raise TransformError(
                    "input kernels must be 1-D (run the preprocessor first)"
                )
            if expr.base.id == "blockDim":
                if expr.name == "x":
                    return Name("master_size")
                raise TransformError(
                    "input kernels must be 1-D (run the preprocessor first)"
                )
        return expr

    return map_expr(stmt, repl)


def prelude(config: NpConfig) -> list[Stmt]:
    """``master_id``/``slave_id`` definitions for the chosen mapping (§3.4)."""
    if config.np_type == "inter":
        master_src, slave_src = "threadIdx.x", "threadIdx.y"
    else:
        master_src, slave_src = "threadIdx.y", "threadIdx.x"
    return [
        decl("master_id", ScalarType("int"), e(master_src)),
        decl("slave_id", ScalarType("int"), e(slave_src)),
    ]


@dataclass
class TransformResult:
    body: Block
    buffers: CommBuffers
    notes: list[str] = field(default_factory=list)


class MasterSlaveTransformer:
    """Stateful single-forward-pass transformer over the kernel body."""

    def __init__(
        self,
        kernel: Kernel,
        config: NpConfig,
        master_size: int,
        section_sync: bool = False,
    ):
        #: Emit __syncthreads() around parallel sections — required when a
        #: local array was replaced by shared/global memory, so master-side
        #: writes are visible to slave warps (§3.3).
        self.section_sync = section_sync
        user_names = {p.name for p in kernel.params} | {
            n.name for n in walk(kernel.body) if isinstance(n, VarDecl)
        }
        for reserved in _RESERVED:
            if reserved in user_names:
                raise TransformError(
                    f"input kernel already defines reserved name {reserved!r}"
                )
        self.kernel = kernel
        self.config = config
        self.master_size = master_size
        self.symtab: SymbolTable = build_symbol_table(kernel)
        # All parameters are uniform across the grid: scalar values and
        # pointer *addresses* alike (loads through pointers are not).
        param_names = {p.name for p in kernel.params}
        const_names = set(kernel.const_env) | {"master_id", "master_size", "slave_size"}
        self.uniform = UniformityState(param_names, const_names)
        #: Names whose *current value* is correct on slave threads.
        self.slave_valid: set[str] = set(param_names) | const_names
        self.buffers = CommBuffers(master_size, config.slave_size)
        self.notes: list[str] = []
        #: Reduction temporaries whose combine was hoisted out of a
        #: container loop: they stay valid per-thread partials after their
        #: parallel loop (no kill, no broadcast).
        self._deferred_partials: set[str] = set()
        #: Scan kernels distribute *all* parallel loops in contiguous chunks
        #: so partitioned local arrays keep a consistent slice mapping.
        self.chunked = any(
            loop.pragma is not None and loop.pragma.scans
            for loop in collect_parallel_loops(kernel.body)
        )

    # -- helpers -------------------------------------------------------------

    def _is_float(self, var: str) -> bool:
        info = self.symtab.get(var)
        if info is None:
            return True
        type_ = info.type
        return isinstance(type_, ScalarType) and type_.name == "float"

    def _stores_shared(self, stmt: Stmt) -> bool:
        """True when ``stmt`` writes through an index into a __shared__ array."""
        for node in walk(stmt):
            target = None
            if isinstance(node, Assign) and isinstance(node.target, Index):
                target = node.target
            elif (
                isinstance(node, Call)
                and node.func.startswith("atomic")
                and node.args
                and isinstance(node.args[0], Index)
            ):
                target = node.args[0]
            if target is None:
                continue
            while isinstance(target, Index):
                target = target.base
            if isinstance(target, Name):
                info = self.symtab.get(target.id)
                if info is not None and info.space is Space.SHARED:
                    return True
        return False

    def _private_scalars(self, names: set[str]) -> list[str]:
        out = []
        for n in sorted(names):
            info = self.symtab.get(n)
            if info is not None and info.space is Space.REGISTER and not info.const:
                if isinstance(info.type, ScalarType):
                    out.append(n)
        return out

    def _broadcasts_for(self, section: Stmt, exclude: set[str] = frozenset()) -> list[Stmt]:
        """read_from_master calls for live-in private scalars (§3.1).

        The compiler infers live-ins automatically; a ``copyin(...)`` clause
        (§3.6) *forces* broadcasts the developer asked for, even when the
        analysis believes the value is already valid on the slaves.
        """
        declared_inside = {
            n.name for n in walk(section) if isinstance(n, VarDecl)
        }
        live_in = stmt_uses(section) - set(exclude) - declared_inside
        forced: list[str] = []
        if isinstance(section, For) and section.pragma is not None:
            for v in section.pragma.copyins:
                if self.symtab.get(v) is None:
                    raise TransformError(
                        f"copyin names unknown variable {v!r}"
                    )
                forced.append(v)
        needed = [
            v
            for v in self._private_scalars(live_in)
            if v not in self.slave_valid and v not in self.kernel.const_env
        ]
        needed.extend(v for v in forced if v not in needed)
        if not needed:
            return []
        stmts = gen_broadcast(
            [(v, self._is_float(v)) for v in needed], self.config, self.buffers
        )
        self.slave_valid.update(needed)
        self.notes.append(f"broadcast live-ins {needed} before parallel section")
        return stmts

    # -- main recursion --------------------------------------------------------

    def transform(self) -> TransformResult:
        body_stmts = self._xform_stmts(self.kernel.body.stmts)
        return TransformResult(Block(body_stmts), self.buffers, self.notes)

    def _xform_stmts(self, stmts: list[Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        guard_run: list[Stmt] = []

        def flush() -> None:
            if guard_run:
                wrote_shared = any(self._stores_shared(s) for s in guard_run)
                guarded = [if_(eq("slave_id", 0), list(guard_run))]
                if wrote_shared and self.config.np_type == "inter":
                    # A master-only store to shared memory is unordered with
                    # reads from slave *warps* until a block barrier; intra-warp
                    # slaves are lockstep with their master and need none.
                    guarded.append(sync_stmt())
                    if "barrier after master-only shared stores" not in self.notes:
                        self.notes.append("barrier after master-only shared stores")
                _locate(guarded, guard_run[0].loc)
                out.extend(guarded)
                guard_run.clear()

        for idx, stmt in enumerate(stmts):
            n_out, n_guard = len(out), len(guard_run)
            self._xform_stmt(idx, stmt, stmts, out, guard_run, flush)
            _locate(out[n_out:], stmt.loc)
            _locate(guard_run[n_guard:], stmt.loc)
        flush()
        return out

    def _xform_stmt(self, idx, stmt, stmts, out, guard_run, flush) -> None:
        """Append the translation of ``stmts[idx]`` to ``out`` (or, for a
        master-only statement, to ``guard_run``)."""
        if is_parallel_loop(stmt):
            flush()
            assert isinstance(stmt, For)
            info = normalize_loop(stmt)
            if self.section_sync:
                out.append(sync_stmt())
            out.extend(self._broadcasts_for(stmt, exclude={info.iterator}))
            rest_uses: set[str] = set()
            for later in stmts[idx + 1:]:
                rest_uses |= stmt_uses(later)
            out.extend(self._xform_parallel_loop(stmt, rest_uses))
            if self.section_sync:
                out.append(sync_stmt())
            return
        if contains_parallel_loop(stmt):
            flush()
            out.append(self._xform_container(stmt))
            return
        if isinstance(stmt, ExprStmt) and isinstance(stmt.expr, Call) and stmt.expr.func == "__syncthreads":
            flush()
            out.append(clone(stmt))
            return
        if isinstance(stmt, Return):
            flush()
            out.append(clone(stmt))
            return
        if isinstance(stmt, If) and any(isinstance(n, Return) for n in walk(stmt)):
            flush()
            out.append(self._xform_early_exit(stmt))
            return
        # --- ordinary sequential statement ---------------------------
        if isinstance(stmt, VarDecl):
            self._xform_decl(stmt, out, guard_run, flush)
            return
        if self.config.redundant_compute and redundant_executable(
            stmt, self.uniform
        ):
            flush()
            out.append(clone(stmt))
            self.uniform.update(stmt)
            self.slave_valid |= stmt_defs(stmt)
            return
        guard_run.append(clone(stmt))
        self.uniform.update(stmt)
        self.uniform.kill(stmt_defs(stmt))
        self.slave_valid -= stmt_defs(stmt)

    def _xform_decl(self, stmt: VarDecl, out, guard_run, flush) -> None:
        from ..minicuda.nodes import PointerType

        # Compiler-generated pointer aliases (local-array -> global rewrites)
        # must initialize on every thread even in the no-redundancy ablation:
        # a pointer cannot be hoisted without its initializer.
        redundant_ok = self.config.redundant_compute or isinstance(
            stmt.type, PointerType
        )
        if stmt.init is None or (
            redundant_ok and redundant_executable(stmt, self.uniform)
        ):
            # Declarations without initializers are free; invariant inits may
            # run redundantly on slaves (§3.1 redundant computation).
            out.append(clone(stmt))
            self.uniform.update(stmt)
            if stmt.init is not None or isinstance(stmt.type, ScalarType):
                self.slave_valid.add(stmt.name)
            if stmt.init is None:
                # zero-init scalars are trivially identical on all threads
                self.slave_valid.add(stmt.name)
            return
        # Hoist the declaration, guard the initialization (paper Fig. 3b:
        # 'int array_offset;' outside, assignment inside the master guard).
        hoisted = VarDecl(stmt.name, stmt.type, None, const=False)
        out.append(hoisted)
        guard_run.append(assign(name(stmt.name), clone(stmt.init)))
        self.uniform.update(stmt)
        self.uniform.kill({stmt.name})
        self.slave_valid.discard(stmt.name)

    def _xform_container(self, stmt: Stmt) -> Stmt:
        """If/For/While that *contains* a parallel loop: all threads traverse
        it, so its control expressions must be slave-invariant."""
        if isinstance(stmt, If):
            if not self.uniform.expr_invariant(stmt.cond):
                raise TransformError(
                    "branch containing a parallel loop must have a "
                    "slave-invariant condition"
                )
            saved_valid = set(self.slave_valid)
            then = Block(self._xform_stmts(stmt.then.stmts))
            valid_then = set(self.slave_valid)
            self.slave_valid = set(saved_valid)
            els = None
            if stmt.els is not None:
                els = Block(self._xform_stmts(stmt.els.stmts))
            self.slave_valid &= valid_then
            self.uniform.kill(stmt_defs(stmt))
            return If(clone(stmt.cond), then, els)
        if isinstance(stmt, For):
            return self._xform_container_for(stmt)
        if isinstance(stmt, While):
            if not self.uniform.expr_invariant(stmt.cond):
                raise TransformError(
                    "while containing a parallel loop must have a "
                    "slave-invariant condition"
                )
            defs = stmt_defs(stmt)
            self.uniform.kill(defs)
            self.slave_valid -= defs
            body = Block(self._xform_stmts(stmt.body.stmts))
            return While(clone(stmt.cond), body)
        raise TransformError(
            f"unsupported container around parallel loop: {type(stmt).__name__}"
        )

    def _xform_container_for(self, stmt: For):
        """A sequential loop whose body holds parallel sections.

        Applies the *deferred-reduction* optimization first: when a nested
        parallel loop's reduction result only accumulates into a scalar
        (``sum += part`` per tile), the group-wide combine is hoisted out of
        the container — each thread accumulates its private partial across
        every tile and ONE reduction runs after the loop.  This removes a
        per-iteration communication round (MV's 64 per-tile reductions
        become one)."""
        info = self._check_sequential_loop(stmt)
        stmt, deferred = self._plan_deferred_reductions(stmt)
        pre: list[Stmt] = []
        post: list[Stmt] = []
        for acc, op, is_float in deferred:
            if acc not in self.slave_valid:
                pre.extend(
                    gen_broadcast([(acc, is_float)], self.config, self.buffers)
                )
                self.slave_valid.add(acc)
            save = self.buffers.fresh("in_" + acc)
            pre.append(
                decl(save, ScalarType("float" if is_float else "int"), name(acc))
            )
            pre.append(assign(acc, identity_lit(op, is_float)))
            post.extend(gen_reduction(acc, op, is_float, self.config, self.buffers))
            post.append(assign(acc, apply_op(op, name(save), name(acc), is_float)))
            self.notes.append(
                f"deferred reduction({op}:{acc}): one combine after the "
                f"'{info.iterator}' loop instead of one per iteration"
            )
        deferred_names = {acc for acc, _, _ in deferred}
        # While transforming the body, the accumulators hold per-thread
        # partials; treating them as invariant keeps their accumulation
        # statements unguarded (every thread folds its own partial) and
        # suppresses broadcasts.  The surrounding conditions guarantee no
        # other use observes them inside the loop.
        self.uniform.mark_invariant(deferred_names)
        self.slave_valid |= deferred_names

        # Kill body defs up front: the pass sees the body once but it
        # executes many times.
        defs = stmt_defs(stmt) - deferred_names
        defs.discard(info.iterator)
        self.uniform.kill(defs)
        self.slave_valid -= defs
        if isinstance(stmt.init, (VarDecl, Assign)):
            self.uniform.update(stmt.init)
        self.slave_valid.add(info.iterator)
        body = Block(self._xform_stmts(stmt.body.stmts))
        self.uniform.kill({info.iterator})
        loop = For(clone(stmt.init), clone(stmt.cond), clone(stmt.update), body)
        if not deferred:
            return loop
        self.uniform.kill(deferred_names)
        for acc, _, _ in deferred:
            self.uniform.mark_invariant({acc})  # post-reduction: group-wide
        return Block(pre + [loop] + post)

    def _plan_deferred_reductions(self, container: For):
        """Find (accumulator, op, is_float) triples eligible for hoisting.

        Pattern per reduction pair (op, R) of a directly nested parallel
        loop: the only other appearances of R among the container body's
        direct statements are an identity-initialized declaration and a
        single ``X op= R`` accumulation, where X appears nowhere else in the
        body.  The clause is stripped from the loop (R stays a per-slave
        partial) and X is combined once, after the container.
        """
        if not self.config.defer_reductions:
            return container, []
        body = container.body.stmts
        deferred: list[tuple[str, str, bool]] = []
        new_body: list[Stmt] = [clone(s) for s in body]
        for idx, loop_stmt in enumerate(new_body):
            if not (is_parallel_loop(loop_stmt) and loop_stmt.pragma.reductions):
                continue
            keep: list[tuple[str, str]] = []
            for op, red_var in loop_stmt.pragma.reductions:
                acc = self._deferral_accumulator(body, idx, op, red_var)
                if acc is None:
                    keep.append((op, red_var))
                else:
                    deferred.append((acc, op, self._is_float(acc)))
                    self._deferred_partials.add(red_var)
            loop_stmt.pragma.reductions = keep
        if not deferred:
            return container, []
        out = For(
            clone(container.init),
            clone(container.cond),
            clone(container.update),
            Block(new_body),
            pragma=None,
        )
        return out, deferred

    def _deferral_accumulator(self, body, loop_idx, op, red_var):
        """Return the hoistable accumulator name, or None if ineligible."""
        if op not in ("+", "*"):
            return None
        others = [s for i, s in enumerate(body) if i != loop_idx]
        accumulate: Assign | None = None
        for s in others:
            touches = red_var in (stmt_uses(s) | stmt_defs(s))
            if not touches:
                continue
            if (
                isinstance(s, VarDecl)
                and s.name == red_var
                and s.init is not None
                and self._is_identity(s.init, op, self._is_float(red_var))
            ):
                continue  # per-iteration reset to the identity: fine
            if (
                isinstance(s, Assign)
                and isinstance(s.target, Name)
                and s.op == op + "="
                and isinstance(s.value, Name)
                and s.value.id == red_var
                and s.target.id != red_var
                and accumulate is None
            ):
                accumulate = s
                continue
            return None  # some other use: not hoistable
        if accumulate is None:
            return None
        acc = accumulate.target.id
        info = self.symtab.get(acc)
        if info is None or info.space is not Space.REGISTER or not isinstance(
            info.type, ScalarType
        ):
            return None
        # The accumulator must not appear anywhere else in the body.
        for s in body:
            if s is accumulate:
                continue
            mentioned = acc in (stmt_uses(s) | stmt_defs(s))
            if isinstance(s, For) and body.index(s) == loop_idx:
                if mentioned:
                    return None
                continue
            if mentioned:
                return None
        return acc

    @staticmethod
    def _is_identity(expr, op: str, is_float: bool) -> bool:
        from ..minicuda.nodes import FloatLit, IntLit

        target = 0.0 if op == "+" else 1.0
        if isinstance(expr, (IntLit, FloatLit)):
            return float(expr.value) == target
        return False

    def _check_sequential_loop(self, stmt: For) -> LoopInfo:
        try:
            info = normalize_loop(stmt)
        except TransformError as exc:
            raise TransformError(
                f"sequential loop around a parallel loop is not canonical: {exc}"
            ) from exc
        lower_ok = self.uniform.expr_invariant(info.lower)
        upper_ok = self.uniform.expr_invariant(info.upper)
        if not (lower_ok and upper_ok):
            raise TransformError(
                "sequential loop around a parallel loop must have "
                "slave-invariant bounds"
            )
        return info

    def _xform_early_exit(self, stmt: If) -> Stmt:
        """``if (cond) return;``-style guards: every thread must exit (§3.5)."""
        if not self.uniform.expr_invariant(stmt.cond):
            raise TransformError(
                "early-exit guard condition must be slave-invariant"
            )
        then = Block(self._xform_exit_body(stmt.then.stmts))
        els = Block(self._xform_exit_body(stmt.els.stmts)) if stmt.els else None
        return If(clone(stmt.cond), then, els)

    def _xform_exit_body(self, stmts: list[Stmt]) -> list[Stmt]:
        out: list[Stmt] = []
        for s in stmts:
            if isinstance(s, Return):
                out.append(clone(s))
            elif isinstance(s, Assign) and not isinstance(s.target, Name):
                out.append(if_(eq("slave_id", 0), [clone(s)]))
            else:
                out.append(clone(s))
        return out

    # -- parallel loop code generation ---------------------------------------

    def _xform_parallel_loop(
        self, loop: For, rest_uses: set[str] = frozenset()
    ) -> list[Stmt]:
        assert loop.pragma is not None
        pragma = loop.pragma
        info = normalize_loop(loop)
        select_vars = self._select_live_outs(loop, info, rest_uses)
        if pragma.scans:
            stmts = self._gen_scan_loop(loop, info)
        else:
            stmts = self._gen_plain_or_reduction_loop(loop, info)
        if select_vars:
            # §3.2 select-assign trick: an unannotated live-out written by
            # exactly one iteration ('if (i == 3) x = a[i];') is zeroed on
            # every thread before the loop and sum-reduced after it, which
            # transports the single writer's value to the whole group.
            pre: list[Stmt] = []
            post: list[Stmt] = []
            for var in select_vars:
                is_float = self._is_float(var)
                pre.append(assign(var, identity_lit("+", is_float)))
                post.extend(
                    gen_reduction(var, "+", is_float, self.config, self.buffers)
                )
                self.notes.append(
                    f"live-out {var!r}: select-assign recovered via +-reduction "
                    "(paper §3.2)"
                )
            stmts = pre + stmts + post
        # After the section: slave validity of defs (§3.2).  Reduction/scan
        # results are identical on every thread of the group, so they are
        # both slave-valid and slave-invariant (later pure arithmetic over
        # them can run redundantly — Fig. 6d computes 'ave' unguarded).
        defs = stmt_defs(loop)
        handled = {v for _, v in pragma.reductions} | {v for _, v in pragma.scans}
        handled |= defs & self._deferred_partials
        handled |= select_vars
        self.slave_valid -= defs - handled
        self.slave_valid |= handled
        self.uniform.kill(defs - handled)
        self.uniform.mark_invariant(handled - self._deferred_partials)
        return stmts

    def _select_live_outs(
        self, loop: For, info: LoopInfo, rest_uses: set[str]
    ) -> set[str]:
        """Unannotated scalar live-outs plainly assigned inside the loop.

        These only transport correctly under the §3.2 select-assign trick;
        live-outs *accumulated* without a clause cannot be recovered and
        raise a diagnostic instead of miscompiling.
        """
        assert loop.pragma is not None
        clause_vars = {v for _, v in loop.pragma.reductions} | {
            v for _, v in loop.pragma.scans
        }
        declared_inside = {
            n.name for n in walk(loop.body) if isinstance(n, VarDecl)
        }
        plain, compound = set(), set()
        for node in walk(loop.body):
            if isinstance(node, Assign) and isinstance(node.target, Name):
                (compound if node.op != "=" else plain).add(node.target.id)
        live_out = (rest_uses - declared_inside - clause_vars) - {info.iterator}
        select = {
            v for v in (plain - compound) & live_out
            if self.symtab.get(v) is not None
            and self.symtab[v].space is Space.REGISTER
            and isinstance(self.symtab[v].type, ScalarType)
        }
        unhandled = (compound & live_out) - self._deferred_partials
        unhandled = {
            v for v in unhandled
            if self.symtab.get(v) is not None
            and self.symtab[v].space is Space.REGISTER
        }
        if unhandled:
            raise TransformError(
                f"live-out accumulation(s) {sorted(unhandled)} need a "
                "reduction/scan clause on the parallel loop"
            )
        return select

    def _chunk_bounds(self, info: LoopInfo) -> tuple[list[Stmt], str, str]:
        """Declarations for a slave's contiguous chunk: returns
        (stmts, lo_name, hi_name) with lo/hi in iteration-space offsets."""
        S = self.config.slave_size
        n = self.buffers.fresh("n")
        chunk = self.buffers.fresh("chunk")
        lo = self.buffers.fresh("lo")
        hi = self.buffers.fresh("hi")
        stmts: list[Stmt] = [
            decl(n, ScalarType("int"), binop("-", clone(info.upper), clone(info.lower))),
            decl(chunk, ScalarType("int"), binop("/", binop("+", name(n), e(S - 1)), e(S))),
            decl(lo, ScalarType("int"), mul("slave_id", name(chunk))),
            decl(
                hi,
                ScalarType("int"),
                call("min", binop("+", name(lo), name(chunk)), name(n)),
            ),
        ]
        return stmts, lo, hi

    def _chunked_for(self, loop: For, info: LoopInfo, lo: str, hi: str) -> For:
        """``for (i = L + lo; i < L + hi; i++) body`` for one chunk."""
        body = clone(loop.body)
        start = _fold_add(clone(info.lower), name(lo))
        stop = _fold_add(clone(info.lower), name(hi))
        init: Stmt
        if info.declares_iterator:
            init = decl(info.iterator, ScalarType("int"), start)
        else:
            init = assign(name(info.iterator), start)
        return For(
            init,
            lt(name(info.iterator), stop),
            Assign(name(info.iterator), "+=", IntLit(1)),
            body,
        )

    def _distributed_for(self, loop: For, info: LoopInfo) -> list[Stmt]:
        """Distribute iterations over the slave group (§3, Fig. 3b / §3.7)."""
        S = self.config.slave_size
        body = clone(loop.body)
        if self.chunked:
            if info.step != 1:
                raise TransformError(
                    "chunked distribution (scan kernels) requires unit-step loops"
                )
            stmts, lo, hi = self._chunk_bounds(info)
            stmts.append(self._chunked_for(loop, info, lo, hi))
            self.notes.append(
                f"loop over {info.iterator!r}: chunked distribution across "
                f"{S}-thread groups"
            )
            return stmts
        if not self.config.padded:
            # Guarded-cyclic: for (i = L + slave_id*c; i < U; i += S*c),
            # with the trivial algebra folded away (c == 1, L == 0 are the
            # common cases and the loop header runs every iteration).
            start = _fold_add(clone(info.lower), _fold_mul(name("slave_id"), info.step))
            init: Stmt
            if info.declares_iterator:
                init = decl(info.iterator, ScalarType("int"), start)
            else:
                init = assign(name(info.iterator), start)
            cond = lt(name(info.iterator), clone(info.upper))
            update = Assign(name(info.iterator), "+=", IntLit(S * info.step))
            self.notes.append(
                f"loop over {info.iterator!r}: cyclic distribution across "
                f"{S}-thread groups"
            )
            return [For(init, cond, update, body)]
        # Padded (§3.7.3): trip count rounded up to a multiple of slave_size,
        # with an in-body bounds guard skipping the padding iterations.
        trip = info.trip_count()
        ni = self.buffers.fresh("ni")
        if trip is not None:
            padded_bound: Expr = e(-(-trip // S))
            padded_desc = f"{trip} -> {-(-trip // S) * S}"
        else:
            # ceil(ceil((U-L)/c) / S), evaluated at run time.
            trips = binop(
                "/",
                binop(
                    "+",
                    binop("-", clone(info.upper), clone(info.lower)),
                    e(info.step - 1),
                ),
                e(info.step),
            )
            padded_bound = binop("/", binop("+", trips, e(S - 1)), e(S))
            padded_desc = "runtime-padded"
        iter_stmt: Stmt
        iter_value = _fold_add(
            clone(info.lower),
            _fold_mul(binop("+", mul(ni, e(S)), e("slave_id")), info.step),
        )
        if info.declares_iterator:
            iter_stmt = decl(info.iterator, ScalarType("int"), iter_value)
        else:
            iter_stmt = assign(name(info.iterator), iter_value)
        guarded = if_(lt(name(info.iterator), clone(info.upper)), body)
        inner = Block([iter_stmt, guarded])
        outer = For(
            decl(ni, ScalarType("int"), e(0)),
            lt(name(ni), padded_bound),
            Assign(name(ni), "+=", IntLit(1)),
            inner,
        )
        self.notes.append(
            f"loop over {info.iterator!r}: padded distribution ({padded_desc})"
        )
        return [outer]

    def _gen_plain_or_reduction_loop(self, loop: For, info: LoopInfo) -> list[Stmt]:
        assert loop.pragma is not None
        out: list[Stmt] = []
        saves: list[tuple[str, str, str, bool]] = []  # (save, var, op, is_float)
        for op, var in loop.pragma.reductions:
            is_float = self._is_float(var)
            save = self.buffers.fresh("in_" + var)
            out.append(
                decl(save, ScalarType("float" if is_float else "int"), name(var))
            )
            out.append(assign(var, identity_lit(op, is_float)))
            saves.append((save, var, op, is_float))
        out.extend(self._distributed_for(loop, info))
        for save, var, op, is_float in saves:
            out.extend(gen_reduction(var, op, is_float, self.config, self.buffers))
            out.append(assign(var, apply_op(op, name(save), name(var), is_float)))
            self.notes.append(
                f"reduction({op}:{var}) via "
                + ("__shfl" if self.config.shfl_available else "shared memory")
            )
        return out

    def _gen_scan_loop(self, loop: For, info: LoopInfo) -> list[Stmt]:
        """Two-phase chunked scan (§3.2; CUDA-SDK-style scan-then-propagate).

        Phase 1 runs each slave's contiguous chunk with the scan variable
        reset to the identity, yielding per-chunk partials; a group-wide
        exclusive scan turns partials into per-chunk offsets; phase 2 replays
        the chunk with the corrected running value so every in-loop use and
        store sees the true prefix.  Stores must therefore be idempotent
        (addressed by the iterator), which the paper's scan benchmarks (LIB)
        satisfy.
        """
        assert loop.pragma is not None
        if info.step != 1:
            raise TransformError("scan loops must have unit step")
        out: list[Stmt] = []
        S = self.config.slave_size
        bound_stmts, lo, hi = self._chunk_bounds(info)
        out.extend(bound_stmts)

        scan_saves: list[tuple[str, str, str, bool]] = []
        for op, var in loop.pragma.scans:
            is_float = self._is_float(var)
            save = self.buffers.fresh("in_" + var)
            out.append(decl(save, ScalarType("float" if is_float else "int"), name(var)))
            out.append(assign(var, identity_lit(op, is_float)))
            scan_saves.append((save, var, op, is_float))
        red_saves: list[tuple[str, str, str, bool]] = []
        for op, var in loop.pragma.reductions:
            is_float = self._is_float(var)
            save = self.buffers.fresh("in_" + var)
            out.append(decl(save, ScalarType("float" if is_float else "int"), name(var)))
            out.append(assign(var, identity_lit(op, is_float)))
            red_saves.append((save, var, op, is_float))

        def chunk_loop() -> For:
            return self._chunked_for(loop, info, lo, hi)

        # Phase 1: local partials.
        out.append(chunk_loop())
        # Group exclusive scan -> per-chunk offsets; fold in the incoming value.
        for save, var, op, is_float in scan_saves:
            out.extend(
                gen_group_exclusive_scan(var, op, is_float, self.config, self.buffers)
            )
            out.append(assign(var, apply_op(op, name(save), name(var), is_float)))
        # Reductions restart for the replay (phase-1 partials were a warm-up).
        for _save, var, op, is_float in red_saves:
            out.append(assign(var, identity_lit(op, is_float)))
        # Phase 2: replay with correct running values.
        out.append(chunk_loop())
        # Publish the total (last slave holds the inclusive total).
        for _save, var, op, is_float in scan_saves:
            out.extend(
                gen_read_from_lane(var, S - 1, is_float, self.config, self.buffers)
            )
        for save, var, op, is_float in red_saves:
            out.extend(gen_reduction(var, op, is_float, self.config, self.buffers))
            out.append(assign(var, apply_op(op, name(save), name(var), is_float)))
        self.notes.append(
            f"scan loop over {info.iterator!r}: two-phase chunked "
            f"scan-then-propagate across {S}-thread groups"
        )
        return out
