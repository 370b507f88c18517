"""AST node definitions for the mini-CUDA language.

All nodes are plain dataclasses.  Transform passes produce *new* trees via
:func:`clone` plus targeted rewrites; nothing in the compiler mutates a tree
it does not own.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, fields
from typing import Iterator, Optional, Union

from .errors import SourceLoc

# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------

#: Scalar type names understood by the language.
SCALAR_TYPES = ("void", "int", "uint", "float", "bool")


@dataclass(frozen=True)
class ScalarType:
    """A scalar value type: ``int``, ``uint``, ``float``, ``bool``, ``void``."""

    name: str

    def __post_init__(self) -> None:
        if self.name not in SCALAR_TYPES:
            raise ValueError(f"unknown scalar type {self.name!r}")

    def __str__(self) -> str:
        return {"uint": "unsigned int"}.get(self.name, self.name)


INT = ScalarType("int")
UINT = ScalarType("uint")
FLOAT = ScalarType("float")
BOOL = ScalarType("bool")
VOID = ScalarType("void")


@dataclass(frozen=True)
class PointerType:
    """A pointer to global memory (kernel parameters) or to a local slice."""

    elem: ScalarType

    def __str__(self) -> str:
        return f"{self.elem}*"


@dataclass(frozen=True)
class ArrayType:
    """A statically sized array in a specific memory space.

    ``space`` is one of ``"local"`` (per-thread, i.e. CUDA local memory when
    it does not fit the register file), ``"shared"`` (per thread block),
    ``"constant"``, or ``"reg"`` — a small per-thread array the backend
    promotes into the register file (produced by the CUDA-NP local-array
    partitioning, which the paper instantiates via ``template<int
    slave_size>`` so indices become compile-time constants).
    """

    elem: ScalarType
    dims: tuple[int, ...]
    space: str = "local"

    def __post_init__(self) -> None:
        if self.space not in ("local", "shared", "constant", "reg"):
            raise ValueError(f"bad array space {self.space!r}")
        if not self.dims or any(d <= 0 for d in self.dims):
            raise ValueError(f"bad array dims {self.dims!r}")

    @property
    def numel(self) -> int:
        n = 1
        for d in self.dims:
            n *= d
        return n

    def __str__(self) -> str:
        dims = "".join(f"[{d}]" for d in self.dims)
        prefix = {
            "shared": "__shared__ ",
            "constant": "__constant__ ",
            "local": "",
            "reg": "",
        }[self.space]
        return f"{prefix}{self.elem}{dims}"


Type = Union[ScalarType, PointerType, ArrayType]

# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


#: The location of a node with no source line.  ``SourceLoc`` is frozen, so
#: every such node shares this one object.
NO_LOC = SourceLoc()


@dataclass
class Node:
    """Common base so passes can test ``isinstance(x, Node)``."""

    loc: SourceLoc = field(default=NO_LOC, kw_only=True, compare=False)


@dataclass
class Expr(Node):
    pass


@dataclass
class IntLit(Expr):
    value: int


@dataclass
class FloatLit(Expr):
    value: float


@dataclass
class BoolLit(Expr):
    value: bool


@dataclass
class Name(Expr):
    """A reference to a variable, parameter, or named constant."""

    id: str


@dataclass
class Member(Expr):
    """``base.name`` — in practice only builtin dim3 members (threadIdx.x)."""

    base: Expr
    name: str


@dataclass
class Index(Expr):
    """``base[index]``; multi-dimensional access is a chain of Index nodes."""

    base: Expr
    index: Expr


@dataclass
class Call(Expr):
    """A builtin/device function call, e.g. ``sqrtf(x)`` or ``__shfl(...)``."""

    func: str
    args: list[Expr]


@dataclass
class Unary(Expr):
    op: str  # '-', '+', '!', '~'
    operand: Expr


@dataclass
class Binary(Expr):
    op: str  # arithmetic, comparison, logical, bitwise, shifts
    lhs: Expr
    rhs: Expr


@dataclass
class Ternary(Expr):
    cond: Expr
    then: Expr
    els: Expr


@dataclass
class Cast(Expr):
    type: ScalarType
    expr: Expr


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------


@dataclass
class Stmt(Node):
    pass


@dataclass
class VarDecl(Stmt):
    """A single variable declaration, possibly with an initializer.

    Scalars live in the (virtual) register file; arrays carry their memory
    space in their :class:`ArrayType`.  Pointer declarations are used by
    generated code to alias a kernel parameter plus offset.
    """

    name: str
    type: Type
    init: Optional[Expr] = None
    const: bool = False


@dataclass
class Assign(Stmt):
    """``target op value`` where op is '=', '+=', '-=', '*=', '/='."""

    target: Expr  # Name or Index chain
    op: str
    value: Expr


@dataclass
class ExprStmt(Stmt):
    expr: Expr


@dataclass
class Block(Stmt):
    stmts: list[Stmt] = field(default_factory=list)


@dataclass
class If(Stmt):
    cond: Expr
    then: Block = field(default_factory=Block)
    els: Optional[Block] = None


@dataclass
class NpPragma(Node):
    """A parsed ``#pragma np parallel for`` directive (see paper §3.6)."""

    parallel_for: bool = True
    reductions: list[tuple[str, str]] = field(default_factory=list)  # (op, var)
    scans: list[tuple[str, str]] = field(default_factory=list)
    copyins: list[str] = field(default_factory=list)
    num_threads: Optional[int] = None
    np_type: Optional[str] = None  # 'inter' | 'intra'
    sm_version: Optional[int] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt]  # VarDecl or Assign
    cond: Optional[Expr]
    update: Optional[Stmt]  # Assign
    body: Block = field(default_factory=Block)
    pragma: Optional[NpPragma] = None


@dataclass
class While(Stmt):
    cond: Expr
    body: Block = field(default_factory=Block)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Break(Stmt):
    pass


@dataclass
class Continue(Stmt):
    pass


# ---------------------------------------------------------------------------
# Top level
# ---------------------------------------------------------------------------


@dataclass
class Param(Node):
    name: str
    type: Type


@dataclass
class Kernel(Node):
    """A ``__global__`` function."""

    name: str
    params: list[Param] = field(default_factory=list)
    body: Block = field(default_factory=Block)
    #: Compile-time constants visible inside the kernel (e.g. slave_size for
    #: generated variants — the paper emits ``template<int slave_size>``; we
    #: bind the instantiated value here instead).
    const_env: dict[str, int] = field(default_factory=dict)
    #: For compiler-generated kernels: which source kernel and transform
    #: produced this one (surfaced by fault diagnostics so a crash in
    #: generated code points back at its origin).  None for hand-written
    #: kernels.
    provenance: Optional[str] = None

    def param_names(self) -> list[str]:
        return [p.name for p in self.params]


@dataclass
class Program(Node):
    kernels: dict[str, Kernel] = field(default_factory=dict)
    defines: dict[str, str] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generic traversal helpers
# ---------------------------------------------------------------------------

#: Per-class non-``loc`` field names, in declaration order (filled on first
#: use of each class by :func:`_field_names`).
_FIELDS: dict[type, tuple[str, ...]] = {}

#: Immutable values :func:`clone` shares between the source and the copy.
_SHARED_TYPES = frozenset(
    {ScalarType, PointerType, ArrayType, SourceLoc, str, int, float, bool, type(None)}
)


def _field_names(cls: type) -> tuple[str, ...]:
    names = _FIELDS.get(cls)
    if names is None:
        names = tuple(f.name for f in fields(cls) if f.name != "loc")
        _FIELDS[cls] = names
    return names


def clone(node):
    """Deep-copy an AST node (or list of nodes).

    Nodes, lists and dicts are rebuilt; the frozen types, :class:`SourceLoc`
    and plain scalars (and tuples of them) are shared with the source.
    """
    return _clone(node, {})


def _clone(value, memo: dict):
    cls = value.__class__
    if cls in _SHARED_TYPES:
        return value
    copied = memo.get(id(value))
    if copied is not None:
        return copied
    if isinstance(value, Node):
        new = cls.__new__(cls)
        memo[id(value)] = new
        state = new.__dict__
        for key, item in value.__dict__.items():
            state[key] = item if item.__class__ in _SHARED_TYPES else _clone(item, memo)
        return new
    if cls is list:
        new = []
        memo[id(value)] = new
        for item in value:
            new.append(item if item.__class__ in _SHARED_TYPES else _clone(item, memo))
        return new
    if cls is dict:
        new = {}
        memo[id(value)] = new
        for key, item in value.items():
            new[_clone(key, memo)] = _clone(item, memo)
        return new
    if cls is tuple and all(item.__class__ in _SHARED_TYPES for item in value):
        return value
    return copy.deepcopy(value, memo)


def children(node: Node) -> Iterator[Node]:
    """Yield direct child nodes of ``node`` in source order."""
    for name in _field_names(node.__class__):
        value = getattr(node, name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, Node):
                    yield item


def walk(node: Node) -> Iterator[Node]:
    """Yield ``node`` and all descendants, pre-order.

    A node's children are read when the walk resumes after yielding it, so
    the caller may replace a yielded node's fields and the walk descends
    into the new values.
    """
    # The child scan is inlined rather than calling children(): every pass
    # walks, and a helper call per node made it about 1.7x slower.
    stack = [node]
    pop = stack.pop
    push = stack.append
    while stack:
        node = pop()
        yield node
        names = _FIELDS.get(node.__class__)
        if names is None:
            names = _field_names(node.__class__)
        for name in reversed(names):
            value = getattr(node, name)
            if isinstance(value, Node):
                push(value)
            elif isinstance(value, list):
                for item in reversed(value):
                    if isinstance(item, Node):
                        push(item)


def names_used(node: Node) -> set[str]:
    """All :class:`Name` identifiers appearing anywhere below ``node``."""
    return {n.id for n in walk(node) if isinstance(n, Name)}


def map_expr(node, fn):
    """Return a copy of ``node`` with every :class:`Expr` descendant replaced
    by ``fn(expr)`` (applied bottom-up).  ``fn`` must return an Expr.
    """
    if not isinstance(node, Node):
        return node
    cls = node.__class__
    new = cls.__new__(cls)
    state = new.__dict__
    state.update(node.__dict__)
    for name in _field_names(cls):
        value = state[name]
        if isinstance(value, Node):
            state[name] = map_expr(value, fn)
        elif isinstance(value, list):
            state[name] = [
                map_expr(v, fn) if isinstance(v, Node) else v for v in value
            ]
    if isinstance(new, Expr):
        new = fn(new)
    return new


def substitute(node, mapping: dict[str, Expr]):
    """Replace free ``Name`` occurrences per ``mapping`` (returns a copy)."""

    def repl(e: Expr) -> Expr:
        if isinstance(e, Name) and e.id in mapping:
            return clone(mapping[e.id])
        return e

    return map_expr(node, repl)
