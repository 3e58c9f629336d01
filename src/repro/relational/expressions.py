"""Expression tree evaluated column-at-a-time over a Table.

``LLMExpr`` is the paper's operator: it cannot be evaluated locally — the
execution context routes it through :class:`~repro.relational.llm_functions.LLMRuntime`,
which reorders the touched sub-table, builds prompts, and runs the serving
simulator. Every other node evaluates eagerly in Python.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError, SQLError
from repro.relational.table import Table


class Expr:
    """Base expression node."""

    def eval(self, table: Table, ctx: Optional["ExecutionContext"] = None) -> List[Any]:
        raise NotImplementedError

    def referenced_columns(self, table: Table) -> Set[str]:
        return set()


#: Attribute names that hold sub-expressions across every node type
#: (including :class:`~repro.relational.sql.nodes.AggCall`'s ``arg``).
_SUB_EXPR_ATTRS = ("left", "right", "child", "arg")


def iter_sub_expressions(expr: Expr):
    """Yield the direct sub-expressions of ``expr``.

    The generic traversal used by the planner (aggregate detection) and
    the optimizer (LLM detection, predicate ranking) — one place to update
    when a new composite node type is added.
    """
    for attr in _SUB_EXPR_ATTRS:
        sub = getattr(expr, attr, None)
        if isinstance(sub, Expr):
            yield sub


@dataclass(frozen=True)
class Col(Expr):
    """Column reference; ``qualifier.name`` resolves to ``name``."""

    name: str

    def resolve(self, table: Table) -> str:
        if table.has_column(self.name):
            return self.name
        if "." in self.name:
            bare = self.name.split(".", 1)[1]
            if table.has_column(bare):
                return bare
        raise SchemaError(f"unknown column {self.name!r}; table has {table.fields!r}")

    def eval(self, table: Table, ctx=None) -> List[Any]:
        return table.column(self.resolve(table))

    def referenced_columns(self, table: Table) -> Set[str]:
        return {self.resolve(table)}


@dataclass(frozen=True)
class Lit(Expr):
    value: Any

    def eval(self, table: Table, ctx=None) -> List[Any]:
        return [self.value] * table.n_rows


#: Comparisons follow SQL's three-valued logic: a NULL operand yields NULL
#: (None), which a filter treats as false. Operands of unorderable types
#: raise a one-line SQLError.
_CMP_OPS = {
    "=": lambda a, b: a == b,
    "<>": lambda a, b: a != b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


def _unorderable(fn, a, b) -> bool:
    if a is None or b is None:
        return False
    try:
        fn(a, b)
    except TypeError:
        return True
    return False


@dataclass(frozen=True)
class Cmp(Expr):
    op: str
    left: Expr
    right: Expr

    def __post_init__(self):
        if self.op not in _CMP_OPS:
            raise SQLError(f"unsupported comparison operator {self.op!r}")

    def eval(self, table: Table, ctx=None) -> List[Any]:
        fn = _CMP_OPS[self.op]
        lv = self.left.eval(table, ctx)
        rv = self.right.eval(table, ctx)
        try:
            return [
                None if a is None or b is None else fn(a, b)
                for a, b in zip(lv, rv)
            ]
        except TypeError:
            a, b = next(p for p in zip(lv, rv) if _unorderable(fn, *p))
            raise SQLError(
                f"cannot compare {type(a).__name__} {self.op} {type(b).__name__}"
            ) from None

    def referenced_columns(self, table: Table) -> Set[str]:
        return self.left.referenced_columns(table) | self.right.referenced_columns(table)


def _and3(a, b):
    """Kleene AND: false if a side is false, else NULL if a side is NULL."""
    if (a is not None and not a) or (b is not None and not b):
        return False
    return None if a is None or b is None else True


def _or3(a, b):
    """Kleene OR: true if a side is true, else NULL if a side is NULL."""
    if (a is not None and a) or (b is not None and b):
        return True
    return None if a is None or b is None else False


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def eval(self, table: Table, ctx=None) -> List[Any]:
        lv = self.left.eval(table, ctx)
        rv = self.right.eval(table, ctx)
        return [_and3(a, b) for a, b in zip(lv, rv)]

    def referenced_columns(self, table: Table) -> Set[str]:
        return self.left.referenced_columns(table) | self.right.referenced_columns(table)


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def eval(self, table: Table, ctx=None) -> List[Any]:
        lv = self.left.eval(table, ctx)
        rv = self.right.eval(table, ctx)
        return [_or3(a, b) for a, b in zip(lv, rv)]

    def referenced_columns(self, table: Table) -> Set[str]:
        return self.left.referenced_columns(table) | self.right.referenced_columns(table)


@dataclass(frozen=True)
class Not(Expr):
    child: Expr

    def eval(self, table: Table, ctx=None) -> List[Any]:
        # NOT NULL is NULL, so a negated comparison still filters the row.
        return [None if v is None else not bool(v) for v in self.child.eval(table, ctx)]

    def referenced_columns(self, table: Table) -> Set[str]:
        return self.child.referenced_columns(table)


@dataclass(frozen=True)
class IsNotNull(Expr):
    """``col IS NOT NULL`` (and ``col <> NULL``, the paper's first example
    query). As in sqlite3, only ``None`` is NULL: ``''`` is a value, the
    same one ``Cmp`` compares."""

    child: Expr

    def eval(self, table: Table, ctx=None) -> List[Any]:
        return [v is not None for v in self.child.eval(table, ctx)]

    def referenced_columns(self, table: Table) -> Set[str]:
        return self.child.referenced_columns(table)


@dataclass(frozen=True)
class LLMExpr(Expr):
    """The paper's generic LLM operator (§3.1): a natural-language query
    plus a list of field references (or ``*``) of the current table.

    ``fields=("*",)`` expands to all columns at evaluation time. Evaluation
    requires an :class:`ExecutionContext` carrying an ``llm_runtime``.
    """

    query: str
    fields: Tuple[str, ...] = ("*",)

    def expanded_fields(self, table: Table) -> List[str]:
        out: List[str] = []
        for f in self.fields:
            if f == "*" or f.endswith(".*"):
                out.extend(table.fields)
            else:
                out.append(Col(f).resolve(table))
        # Preserve order, drop duplicates.
        return list(dict.fromkeys(out))

    def eval(self, table: Table, ctx=None) -> List[Any]:
        if ctx is None or ctx.llm_runtime is None:
            raise SQLError("LLM() expression requires an execution context with an LLM runtime")
        return ctx.llm_runtime.execute(table, self, fds=getattr(ctx, "fds", None))

    def referenced_columns(self, table: Table) -> Set[str]:
        return set(self.expanded_fields(table))


@dataclass
class ExecutionContext:
    """Carried through evaluation: catalog access, the LLM runtime, and the
    functional dependencies of the tables the query reads."""

    llm_runtime: Optional["LLMRuntime"] = None  # noqa: F821 - circular at runtime
    catalog: Optional[object] = None
    fds: Optional[object] = None  # FunctionalDependencies of scanned tables
