"""AST node utilities: traversal, cloning, substitution, builders."""

import copy
import dataclasses

import pytest

from repro.kernels import BENCHMARKS
from repro.minicuda import nodes as n
from repro.minicuda.build import (
    add,
    assign,
    block,
    call,
    decl,
    e,
    for_range,
    if_,
    ix,
    name,
    sync,
)
from repro.minicuda.parser import parse_kernel
from repro.minicuda.pretty import emit_kernel
from repro.npc import pipeline
from repro.testing.fuzzgen import generate


def test_scalar_type_validation():
    with pytest.raises(ValueError):
        n.ScalarType("double")


def test_array_type_validation():
    with pytest.raises(ValueError):
        n.ArrayType(n.FLOAT, (0,))
    with pytest.raises(ValueError):
        n.ArrayType(n.FLOAT, (4,), "heap")


def test_array_numel():
    assert n.ArrayType(n.FLOAT, (4, 8)).numel == 32


def test_walk_visits_all_names():
    kernel = parse_kernel(
        "__global__ void t(float *a, int w) {"
        " int x = w + 1; if (x > 0) a[x] = (float)x; }"
    )
    assert n.names_used(kernel.body) == {"a", "w", "x"}


def test_children_order():
    stmt = if_(e("c"), [assign("x", 1)], [assign("y", 2)])
    kids = list(n.children(stmt))
    assert isinstance(kids[0], n.Name)
    assert isinstance(kids[1], n.Block)
    assert isinstance(kids[2], n.Block)


def test_clone_is_deep():
    loop = for_range("i", 0, 8, [assign(ix("a", "i"), 0)])
    copy = n.clone(loop)
    copy.body.stmts[0].value = n.IntLit(9)
    assert loop.body.stmts[0].value.value == 0


def test_substitute_replaces_free_names():
    expr = add(name("x"), add(name("y"), name("x")))
    out = n.substitute(expr, {"x": n.IntLit(5)})
    found = [node.value for node in n.walk(out) if isinstance(node, n.IntLit)]
    assert found == [5, 5]
    # original untouched
    assert n.names_used(expr) == {"x", "y"}


def test_map_expr_bottom_up():
    expr = add(name("a"), name("b"))

    def repl(node):
        if isinstance(node, n.Name):
            return n.IntLit(1)
        return node

    out = n.map_expr(expr, repl)
    assert isinstance(out.lhs, n.IntLit) and isinstance(out.rhs, n.IntLit)


class TestBuilders:
    def test_e_coercion(self):
        assert isinstance(e(3), n.IntLit)
        assert isinstance(e(1.5), n.FloatLit)
        assert isinstance(e("x"), n.Name)
        member = e("threadIdx.x")
        assert isinstance(member, n.Member) and member.name == "x"

    def test_e_rejects_unknown(self):
        with pytest.raises(TypeError):
            e(object())

    def test_ix_multi(self):
        expr = ix("t", 1, 2)
        assert isinstance(expr, n.Index) and isinstance(expr.base, n.Index)

    def test_for_range_shape(self):
        loop = for_range("i", 2, "n", [sync()], step=3)
        assert isinstance(loop.init, n.VarDecl)
        assert loop.cond.op == "<"
        assert loop.update.value.value == 3

    def test_block_flattens(self):
        b = block(assign("x", 1), [assign("y", 2), assign("z", 3)])
        assert len(b.stmts) == 3

    def test_if_wraps_single_stmt(self):
        stmt = if_(e(1), assign("x", 1))
        assert isinstance(stmt.then, n.Block)

    def test_call_builder(self):
        c = call("fminf", 1.0, "x")
        assert c.func == "fminf" and len(c.args) == 2

    def test_decl_builder(self):
        d = decl("x", n.FLOAT, 0.0)
        assert d.name == "x" and isinstance(d.init, n.FloatLit)


# ---------------------------------------------------------------------------
# The traversal helpers against their reference implementations
# ---------------------------------------------------------------------------
#
# The references are the original ``copy.deepcopy`` clone and the recursive
# ``dataclasses.fields`` walk; the helpers in ``nodes`` must reproduce them
# exactly (same visit order, same copies, same rewrites) over the paper
# kernels, every NP variant of them and a fuzzer corpus.


def ref_clone(node):
    return copy.deepcopy(node)


def ref_children(node):
    for f in dataclasses.fields(node):
        if f.name == "loc":
            continue
        value = getattr(node, f.name)
        if isinstance(value, n.Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, n.Node):
                    yield item


def ref_walk(node):
    yield node
    for child in ref_children(node):
        yield from ref_walk(child)


def ref_map_expr(node, fn):
    if not dataclasses.is_dataclass(node) or not isinstance(node, n.Node):
        return node
    new = copy.copy(node)
    for f in dataclasses.fields(node):
        if f.name == "loc":
            continue
        value = getattr(node, f.name)
        if isinstance(value, n.Node):
            setattr(new, f.name, ref_map_expr(value, fn))
        elif isinstance(value, list):
            setattr(
                new,
                f.name,
                [ref_map_expr(v, fn) if isinstance(v, n.Node) else v for v in value],
            )
    if isinstance(new, n.Expr):
        new = fn(new)
    return new


def ref_substitute(node, mapping):
    def repl(expr):
        if isinstance(expr, n.Name) and expr.id in mapping:
            return ref_clone(mapping[expr.id])
        return expr

    return ref_map_expr(node, repl)


def _variants():
    """Every NP variant of every paper kernel, compiled from cold."""
    out = []
    for name, cls in sorted(BENCHMARKS.items()):
        bench = cls()
        for config in bench.configs():
            pipeline.clear_variant_cache()
            variant = pipeline.compile_np(
                bench.kernel, bench.block_size, config, bench.device
            )
            out.append((f"{name} {config.describe()}", variant))
    pipeline.clear_variant_cache()
    return out


@pytest.fixture(scope="module")
def corpus():
    """(label, kernel): paper kernels, their NP variants, fuzzed kernels."""
    kernels = [(name, cls().kernel) for name, cls in sorted(BENCHMARKS.items())]
    kernels += [(label, v.kernel) for label, v in _variants()]
    kernels += [(f"fuzz {s}", parse_kernel(generate(s).source)) for s in range(40)]
    return kernels


def _containers(node, seen=None):
    """ids of every Node, list and dict reachable from ``node``."""
    if seen is None:
        seen = set()
    if isinstance(node, (n.Node, list, dict)):
        if id(node) in seen:
            return seen
        seen.add(id(node))
    if isinstance(node, n.Node):
        values = node.__dict__.values()
    elif isinstance(node, dict):
        values = list(node.keys()) + list(node.values())
    elif isinstance(node, (list, tuple)):
        values = node
    else:
        return seen
    for value in values:
        _containers(value, seen)
    return seen


def test_walk_and_children_match_reference(corpus):
    for label, kernel in corpus:
        got = [id(node) for node in n.walk(kernel)]
        want = [id(node) for node in ref_walk(kernel)]
        assert got == want, label
        for node in n.walk(kernel):
            assert [id(c) for c in n.children(node)] == [
                id(c) for c in ref_children(node)
            ], label


def test_clone_matches_reference(corpus):
    for label, kernel in corpus:
        copied = n.clone(kernel)
        assert copied == ref_clone(kernel), label
        assert emit_kernel(copied) == emit_kernel(kernel), label
        assert [x.loc for x in n.walk(copied)] == [x.loc for x in n.walk(kernel)], label
        assert not _containers(copied) & _containers(kernel), label
        stmts = n.clone(kernel.body.stmts)
        assert stmts == kernel.body.stmts, label
        assert not _containers(stmts) & _containers(kernel), label


def test_clone_keeps_aliasing_within_the_copy():
    shared = n.Name("x")
    stmt = n.Block([n.ExprStmt(shared), n.ExprStmt(shared)])
    copied = n.clone(stmt)
    assert copied.stmts[0].expr is copied.stmts[1].expr
    assert copied.stmts[0].expr is not shared


def _rename(expr):
    if isinstance(expr, n.Name):
        return n.Name(expr.id + "_m")
    if isinstance(expr, n.IntLit):
        return n.IntLit(expr.value + 1)
    return expr


def test_map_expr_and_substitute_match_reference(corpus):
    for label, kernel in corpus:
        before = emit_kernel(kernel)
        got = n.map_expr(kernel, _rename)
        want = ref_map_expr(kernel, _rename)
        assert got == want and emit_kernel(got) == emit_kernel(want), label
        mapping = {
            p.name: n.Binary("+", n.Name("q"), n.IntLit(i))
            for i, p in enumerate(kernel.params)
        }
        got = n.substitute(kernel, mapping)
        want = ref_substitute(kernel, mapping)
        assert got == want and emit_kernel(got) == emit_kernel(want), label
        assert emit_kernel(kernel) == before, label


def test_walk_reads_children_after_resuming():
    """A caller may replace a yielded node's fields; the walk descends into
    the new values (the pipeline's loop stripping and declaration
    replacement rely on it)."""
    body = block(assign("x", 1), if_(e("c"), [assign("y", 2)]))
    seen = []
    for node in n.walk(body):
        if isinstance(node, n.Block) and node is body:
            node.stmts = [assign("z", 3)]
        if isinstance(node, n.Name):
            seen.append(node.id)
    assert seen == ["z"]


def test_mutating_walk_sites_match_reference_walk(monkeypatch):
    """compile_np edits yielded nodes while walking in two places (stripping
    the parallel loops from a body copy, and ``_replace_decls``); its output
    is the same with the reference walk."""
    replaced = []
    real_replace = pipeline._replace_decls

    def spy(*args):
        replaced.append(args)
        return real_replace(*args)

    monkeypatch.setattr(pipeline, "_replace_decls", spy)
    fast = [(label, emit_kernel(v.kernel), v.notes) for label, v in _variants()]
    assert replaced, "no variant replaced a local-array declaration"
    monkeypatch.setattr(pipeline, "walk", ref_walk)
    slow = [(label, emit_kernel(v.kernel), v.notes) for label, v in _variants()]
    assert fast == slow
