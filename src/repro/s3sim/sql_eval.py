"""Vectorized evaluator for the S3 Select SQL subset.

Evaluates a parsed :class:`~repro.s3sim.sql_ast.Query` against one
object's rows (a pandas frame). CSV objects arrive as all-string frames
(see ``csvio``): values stay strings until a ``CAST`` or an implicit
numeric coercion, mirroring S3 Select's handling of CSV fields.

Semantics notes (kept deliberately close to the real service):

* Comparisons between two strings are lexicographic -- which is exactly
  why the paper's date predicates (``'1992-03-01' < ...``) work on CSV.
* If either comparison/arithmetic operand is numeric (a number literal
  or a ``CAST`` result), the other side is coerced to numeric;
  non-parseable cells become NULL and drop out of the result.
* Empty CSV cells are NULL (``IS NULL``, skipped by aggregates).
* ``CAST(x AS INT)`` rounds half away from zero, as DuckDB does:
  ``CAST('2.5' AS INT)`` is 3 and ``CAST('-1.5' AS INT)`` is -2; a
  non-numeric or empty ``x`` gives NULL. Results are float-backed,
  exact below 2**53.
* An aggregate query must be all-aggregates (no group-by exists, so a
  bare column next to ``SUM(...)`` is rejected) -- this is the
  restriction the paper's CASE-WHEN group-by works around.

Each request evaluates every *distinct* subexpression once. The
evaluator memoizes, per node, both the node's value and its numeric
coercion, so the paper's wide queries cost what their distinct work
costs: Q1's 36 ``SUM(CASE ...)`` columns share 6 conditions and 4
``CAST``s, a hybrid group-by's ``g = v`` conditions share one
``to_numeric(g)``, and a Bloom probe's k ``SUBSTRING`` hashes share one
``CAST(key AS INT)`` and one character array of the bit-string literal.
The memo is keyed by the AST nodes themselves, whose equality includes
literal types (``c + 1`` and ``c + 1.0`` stay apart; see ``Literal``),
and lives on the evaluator, i.e. for one request over one object only.
"""
from __future__ import annotations

import re

import numpy as np
import pandas as pd

from repro.s3sim.sql_ast import (
    AGG_FUNCS, Between, BinOp, Case, Cast, Column, Func, InList, IsNull,
    Like, Literal, Query, Star, Substring, UnaryOp, contains_aggregate,
)


class SqlEvalError(ValueError):
    """Raised for semantically invalid queries (bad column, mixed aggs...)."""


# -- helpers --------------------------------------------------------------

def _is_numeric(v) -> bool:
    if isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool):
        return True
    return isinstance(v, pd.Series) and pd.api.types.is_numeric_dtype(v)


def _to_numeric(v):
    if isinstance(v, pd.Series):
        if pd.api.types.is_numeric_dtype(v):
            return v
        s = v.mask(v == "") if v.dtype == object else v
        return pd.to_numeric(s, errors="coerce")
    if v is None or isinstance(v, (int, float, np.integer, np.floating)):
        return v
    try:
        f = float(v)
        return int(f) if f.is_integer() else f
    except (TypeError, ValueError):
        return np.nan


def _null_mask(v, index) -> pd.Series:
    if isinstance(v, pd.Series):
        if pd.api.types.is_numeric_dtype(v):
            return v.isna()
        return v.isna() | (v == "")
    return pd.Series(v is None or (isinstance(v, float) and np.isnan(v)), index=index)


def _as_mask(v, index) -> pd.Series:
    """Coerce an evaluated boolean expression to a NULL-is-False mask."""
    if isinstance(v, pd.Series):
        if v.dtype == bool:
            return v
        return v.fillna(False).astype(bool)
    return pd.Series(bool(v), index=index)


def _round_half_away(n):
    """Round half away from zero: 2.5 -> 3, -1.5 -> -2, -0.3 -> 0 (not -0)."""
    a = np.abs(n)
    r = np.floor(a)
    r = r + (a - r >= 0.5)
    return np.copysign(r, n) + 0.0


def _like_to_regex(pattern: str) -> str:
    out = []
    for ch in pattern:
        if ch == "%":
            out.append(".*")
        elif ch == "_":
            out.append(".")
        else:
            out.append(re.escape(ch))
    return "^" + "".join(out) + "$"


class _Evaluator:
    """Evaluates expressions over one frame, each distinct node once."""

    def __init__(self, df: pd.DataFrame):
        self.df = df
        self.colmap = {c.lower(): c for c in df.columns}
        self._values: dict = {}   # node -> its value
        self._numbers: dict = {}  # node -> its value coerced to numeric
        self._chars: dict = {}    # string literal -> its character array

    def col(self, name: str) -> pd.Series:
        actual = self.colmap.get(name.lower())
        if actual is None:
            raise SqlEvalError(
                f"no such column {name!r}; have {sorted(self.df.columns)}"
            )
        return self.df[actual]

    # -- expression dispatch ---------------------------------------------

    def eval(self, e):
        try:
            return self._values[e]
        except KeyError:
            pass
        method = getattr(self, "_eval_" + type(e).__name__.lower(), None)
        if method is None:
            raise SqlEvalError(f"cannot evaluate node {type(e).__name__}")
        v = self._values[e] = method(e)
        return v

    def num(self, e):
        """``eval(e)`` coerced to numeric (memoized like ``eval``)."""
        try:
            return self._numbers[e]
        except KeyError:
            v = self._numbers[e] = _to_numeric(self.eval(e))
            return v

    def _eval_literal(self, e: Literal):
        return e.value

    def _eval_column(self, e: Column):
        return self.col(e.name)

    def _eval_unaryop(self, e: UnaryOp):
        if e.op == "NOT":
            return ~_as_mask(self.eval(e.operand), self.df.index)
        v = self.num(e.operand)
        return -v if e.op == "-" else v

    def _eval_binop(self, e: BinOp):
        if e.op in ("AND", "OR"):
            lm = _as_mask(self.eval(e.left), self.df.index)
            rm = _as_mask(self.eval(e.right), self.df.index)
            return (lm & rm) if e.op == "AND" else (lm | rm)
        if e.op in ("+", "-", "*", "/", "%"):
            left, right = self.num(e.left), self.num(e.right)
            if e.op == "+":
                return left + right
            if e.op == "-":
                return left - right
            if e.op == "*":
                return left * right
            if e.op == "/":
                return left / right
            return left % right  # SQL MOD via '%', used by the Bloom hash
        # comparison: numeric if either side is numeric, else lexicographic
        left, right = self.eval(e.left), self.eval(e.right)
        if _is_numeric(left) or _is_numeric(right):
            left, right = self.num(e.left), self.num(e.right)
        nulls = _null_mask(left, self.df.index) | _null_mask(right, self.df.index)
        ops = {
            "=": lambda a, b: a == b,
            "!=": lambda a, b: a != b,
            "<": lambda a, b: a < b,
            "<=": lambda a, b: a <= b,
            ">": lambda a, b: a > b,
            ">=": lambda a, b: a >= b,
        }
        if not isinstance(left, pd.Series) and not isinstance(right, pd.Series):
            return bool(ops[e.op](left, right))
        res = ops[e.op](left, right)
        return _as_mask(res, self.df.index) & ~nulls

    def _eval_cast(self, e: Cast):
        if e.type in ("INT", "INTEGER", "BIGINT"):
            n = self.num(e.expr)
            if isinstance(n, pd.Series):
                return _round_half_away(n)
            if n is None or np.isnan(n):
                return None
            return int(_round_half_away(n))
        if e.type in ("FLOAT", "DOUBLE", "DECIMAL", "NUMERIC"):
            return self.num(e.expr)
        v = self.eval(e.expr)
        if e.type in ("STRING", "CHAR", "VARCHAR", "TIMESTAMP"):
            if isinstance(v, pd.Series):
                return v.astype(str)
            return None if v is None else str(v)
        if e.type == "BOOL":
            return _as_mask(v, self.df.index)
        raise SqlEvalError(f"unsupported CAST type {e.type!r}")

    def _char_array(self, s: str) -> np.ndarray:
        """``s`` as a ``<U1`` array, built once per distinct literal."""
        chars = self._chars.get(s)
        if chars is None:
            chars = self._chars[s] = np.frombuffer(
                s.encode("utf-32-le"), dtype="<U1"
            )
        return chars

    def _eval_substring(self, e: Substring):
        s = self.eval(e.expr)
        start = self.eval(e.start)
        length = None if e.length is None else self.eval(e.length)
        # Fast path for the paper's Bloom filter probe: a *literal* bit
        # string indexed at a per-row position with length 1.
        if (
            isinstance(s, str)
            and isinstance(start, pd.Series)
            and (length == 1 or length is None)
        ):
            chars = self._char_array(s)
            idx = self.num(e.start).to_numpy(dtype="float64")
            valid = np.isfinite(idx) & (idx >= 1) & (idx <= len(chars))
            safe = np.where(valid, idx - 1, 0).astype(np.int64)
            if length == 1:
                out = np.where(valid, chars[safe], "")
            else:  # tail substring of a literal, per-row start
                out = np.array(
                    [s[i:] if ok else "" for ok, i in zip(valid, safe)], dtype=object
                )
            return pd.Series(out, index=start.index)
        if isinstance(s, pd.Series):
            start_n = self.num(e.start)
            if isinstance(start_n, pd.Series):
                start_n = start_n.astype(int)
                starts = start_n
            else:
                starts = pd.Series(int(start_n), index=s.index)
            if length is None:
                return pd.Series(
                    [str(v)[max(p - 1, 0):] for v, p in zip(s, starts)], index=s.index
                )
            len_n = self.num(e.length)
            lens = (
                len_n.astype(int)
                if isinstance(len_n, pd.Series)
                else pd.Series(int(len_n), index=s.index)
            )
            return pd.Series(
                [str(v)[max(p - 1, 0): max(p - 1, 0) + L]
                 for v, p, L in zip(s, starts, lens)],
                index=s.index,
            )
        # scalar string, scalar positions
        p = int(self.num(e.start))
        if length is None:
            return str(s)[max(p - 1, 0):]
        return str(s)[max(p - 1, 0): max(p - 1, 0) + int(self.num(e.length))]

    def _eval_case(self, e: Case):
        conds = [
            _as_mask(self.eval(c), self.df.index).to_numpy() for c, _ in e.whens
        ]
        nodes = [v for _, v in e.whens]
        nodes.append(Literal(0) if e.else_ is None else e.else_)
        vals = [self.eval(v) for v in nodes]
        if all(_is_numeric(v) or v is None for v in vals):
            vals = [self.num(v) for v in nodes]
        vals = [v.to_numpy() if isinstance(v, pd.Series) else v for v in vals]
        out = np.select(conds, vals[:-1], vals[-1])
        return pd.Series(out, index=self.df.index)

    def _eval_isnull(self, e: IsNull):
        m = _null_mask(self.eval(e.expr), self.df.index)
        return ~m if e.negated else m

    def _negate(self, m: pd.Series, expr) -> pd.Series:
        # SQL three-valued logic: NULL BETWEEN/IN/LIKE is NULL, and so is
        # its negation -- a NULL row never qualifies either way.
        return ~m & ~_null_mask(self.eval(expr), self.df.index)

    def _eval_between(self, e: Between):
        lo = BinOp(">=", e.expr, e.low)
        hi = BinOp("<=", e.expr, e.high)
        m = _as_mask(self.eval(BinOp("AND", lo, hi)), self.df.index)
        return self._negate(m, e.expr) if e.negated else m

    def _eval_inlist(self, e: InList):
        m = pd.Series(False, index=self.df.index)
        for item in e.items:
            m = m | _as_mask(self.eval(BinOp("=", e.expr, item)), self.df.index)
        return self._negate(m, e.expr) if e.negated else m

    def _eval_like(self, e: Like):
        v = self.eval(e.expr)
        rx = _like_to_regex(e.pattern)
        if isinstance(v, pd.Series):
            m = v.astype(str).str.match(rx, na=False)
        else:
            m = pd.Series(bool(re.match(rx, str(v))), index=self.df.index)
        return self._negate(m, e.expr) if e.negated else m

    def _eval_func(self, e: Func):
        if e.name in AGG_FUNCS:
            return self._eval_aggregate(e)
        v = self.eval(e.args[0])
        if e.name == "UPPER":
            return v.str.upper() if isinstance(v, pd.Series) else str(v).upper()
        if e.name == "LOWER":
            return v.str.lower() if isinstance(v, pd.Series) else str(v).lower()
        if e.name == "ABS":
            n = self.num(e.args[0])
            return n.abs() if isinstance(n, pd.Series) else abs(n)
        raise SqlEvalError(f"unsupported function {e.name}")

    def _eval_aggregate(self, e: Func):
        if e.name == "COUNT" and e.star:
            return len(self.df)
        if contains_aggregate(e.args[0]):
            raise SqlEvalError("nested aggregates are not supported")
        v = self.eval(e.args[0])
        scalar = not isinstance(v, pd.Series)
        if scalar:
            v = pd.Series(v, index=self.df.index)
        if e.name == "COUNT":
            return int((~_null_mask(v, self.df.index)).sum())
        if e.name in ("SUM", "AVG"):
            n = _to_numeric(v) if scalar else self.num(e.args[0])
            if len(n) == 0 or n.isna().all():
                return None  # SQL: SUM/AVG over no rows is NULL
            return float(n.sum()) if e.name == "SUM" else float(n.mean())
        # MIN/MAX work on strings (dates) and numbers alike
        vv = v.mask(v == "") if v.dtype == object else v
        vv = vv.dropna()
        if len(vv) == 0:
            return None
        return vv.min() if e.name == "MIN" else vv.max()


def eval_query(query: Query, df: pd.DataFrame) -> pd.DataFrame:
    """Run a parsed query over one object's rows; returns the result frame.

    Aggregate queries return exactly one row. Projection queries return
    the filtered/projected rows with ``LIMIT`` applied last.
    """
    ev = _Evaluator(df)
    if query.where is not None:
        if contains_aggregate(query.where):
            raise SqlEvalError("aggregates are not allowed in WHERE")
        mask = _as_mask(ev.eval(query.where), df.index)
        sub = df[mask]
    else:
        sub = df
    sub_ev = _Evaluator(sub)

    if query.is_star:
        out = sub.copy()
        if query.limit is not None:
            out = out.head(query.limit)
        return out.reset_index(drop=True)

    agg_flags = [contains_aggregate(it.expr) for it in query.items]
    if any(agg_flags):
        if not all(agg_flags):
            raise SqlEvalError(
                "cannot mix aggregates and plain columns without GROUP BY "
                "(S3 Select has no GROUP BY)"
            )
        row = {}
        for i, it in enumerate(query.items):
            name = it.alias or f"_{i + 1}"
            row[name] = sub_ev.eval(it.expr)
        return pd.DataFrame([row])

    cols = {}
    for i, it in enumerate(query.items):
        if isinstance(it.expr, Column):
            name = it.alias or sub_ev.colmap.get(
                it.expr.name.lower(), it.expr.name
            )
        else:
            name = it.alias or f"_{i + 1}"
        v = sub_ev.eval(it.expr)
        if not isinstance(v, pd.Series):
            v = pd.Series(v, index=sub.index)
        cols[name] = v
    out = pd.DataFrame(cols, index=sub.index)
    if query.limit is not None:
        out = out.head(query.limit)
    return out.reset_index(drop=True)
