"""AST for the S3 Select SQL subset.

The dialect deliberately matches what S3 Select supported in 2019
(paper SII-A): single-table SELECT over ``S3Object`` with projection,
scalar expressions (arithmetic incl. ``%``, comparisons, boolean logic,
``CAST``, ``SUBSTRING``, ``CASE WHEN``, ``LIKE``, ``BETWEEN``, ``IN``),
simple aggregates (``SUM/COUNT/AVG/MIN/MAX``) *without group-by*, and
``LIMIT``. Joins, GROUP BY, ORDER BY, bitwise operators and binary data
are rejected by the parser -- those gaps are precisely why the paper's
Bloom join and group-by decompositions look the way they do.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

AGG_FUNCS = {"SUM", "COUNT", "AVG", "MIN", "MAX"}


def _typed(value) -> tuple:
    # Floats compare by repr so that 0.0 and -0.0 stay apart too.
    return (type(value), repr(value) if isinstance(value, float) else value)


def _hash_once(cls):
    """Cache a composite node's structural hash on first use.

    The evaluator's per-request memo is keyed by nodes, so it hashes each
    one many times; without the cache every hash walks the subtree. The
    cached value is left out of pickles (string hashes differ between
    processes).
    """
    structural = cls.__hash__

    def __hash__(self):
        h = self.__dict__.get("_hash")
        if h is None:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
        return h

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k != "_hash"}

    cls.__hash__ = __hash__
    cls.__getstate__ = __getstate__
    return cls


@dataclass(frozen=True, eq=False)
class Literal:
    """A string, integer, float, or NULL literal.

    Equality and hash include the value's type: ``1``, ``1.0`` and
    ``True`` are equal in Python but evaluate (and render) differently,
    so they are different literals. Every node holding a literal
    inherits this, which makes structural equality a safe memo key.
    """
    value: Union[str, int, float, None]

    def __eq__(self, other):
        if not isinstance(other, Literal):
            return NotImplemented
        return _typed(self.value) == _typed(other.value)

    def __hash__(self):
        return hash(_typed(self.value))


@dataclass(frozen=True)
class Column:
    """A column reference (case preserved; lookup is case-insensitive)."""
    name: str


@dataclass(frozen=True)
class Star:
    """``*`` in a projection or ``COUNT(*)``."""


@_hash_once
@dataclass(frozen=True)
class BinOp:
    """Binary operator: arithmetic, comparison, AND/OR."""
    op: str  # '+','-','*','/','%','=','!=','<','<=','>','>=','AND','OR'
    left: "Expr"
    right: "Expr"


@_hash_once
@dataclass(frozen=True)
class UnaryOp:
    """Unary ``-``, ``+`` or ``NOT``."""
    op: str
    operand: "Expr"


@_hash_once
@dataclass(frozen=True)
class Cast:
    """``CAST(expr AS type)`` -- the only way to type CSV fields."""
    expr: "Expr"
    type: str  # 'INT','FLOAT','DECIMAL','STRING','TIMESTAMP','BOOL'


@_hash_once
@dataclass(frozen=True)
class Substring:
    """``SUBSTRING(str, start[, length])`` -- 1-based, SQL semantics."""
    expr: "Expr"
    start: "Expr"
    length: Optional["Expr"] = None


@_hash_once
@dataclass(frozen=True)
class Func:
    """Aggregate or scalar function call."""
    name: str  # upper-cased
    args: tuple = ()
    star: bool = False  # COUNT(*)


@_hash_once
@dataclass(frozen=True)
class Case:
    """``CASE WHEN cond THEN val [WHEN ...] [ELSE val] END``."""
    whens: tuple  # tuple[(cond, value), ...]
    else_: Optional["Expr"] = None


@_hash_once
@dataclass(frozen=True)
class IsNull:
    expr: "Expr"
    negated: bool = False


@_hash_once
@dataclass(frozen=True)
class Between:
    expr: "Expr"
    low: "Expr"
    high: "Expr"
    negated: bool = False


@_hash_once
@dataclass(frozen=True)
class InList:
    expr: "Expr"
    items: tuple = ()
    negated: bool = False


@_hash_once
@dataclass(frozen=True)
class Like:
    expr: "Expr"
    pattern: str
    negated: bool = False


Expr = Union[
    Literal, Column, Star, BinOp, UnaryOp, Cast, Substring, Func, Case,
    IsNull, Between, InList, Like,
]


@dataclass(frozen=True)
class SelectItem:
    expr: Expr
    alias: Optional[str] = None


@dataclass
class Query:
    """A parsed S3 Select query."""
    items: list = field(default_factory=list)  # list[SelectItem]; [Star] for SELECT *
    where: Optional[Expr] = None
    limit: Optional[int] = None

    @property
    def is_star(self) -> bool:
        return len(self.items) == 1 and isinstance(self.items[0].expr, Star)


def walk(expr):
    """All AST nodes in ``expr`` (pre-order), for analysis passes."""
    yield expr
    if isinstance(expr, BinOp):
        children = [expr.left, expr.right]
    elif isinstance(expr, UnaryOp):
        children = [expr.operand]
    elif isinstance(expr, (Cast, IsNull, Like)):
        children = [expr.expr]
    elif isinstance(expr, Substring):
        children = [expr.expr, expr.start, expr.length]
    elif isinstance(expr, Func):
        children = list(expr.args)
    elif isinstance(expr, Case):
        children = [n for when in expr.whens for n in when] + [expr.else_]
    elif isinstance(expr, Between):
        children = [expr.expr, expr.low, expr.high]
    elif isinstance(expr, InList):
        children = [expr.expr, *expr.items]
    else:
        children = []
    for child in children:
        if child is not None:
            yield from walk(child)


def contains_aggregate(expr) -> bool:
    """True if any node is an aggregate function call."""
    return any(isinstance(n, Func) and n.name in AGG_FUNCS for n in walk(expr))


def referenced_columns(query: Query) -> set:
    """Lower-cased column names a query touches (for Parquet pruning)."""
    cols: set = set()
    exprs = [it.expr for it in query.items if not isinstance(it.expr, Star)]
    if query.where is not None:
        exprs.append(query.where)
    for e in exprs:
        cols |= {n.name.lower() for n in walk(e) if isinstance(n, Column)}
    return cols
