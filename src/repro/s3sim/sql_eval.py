"""Vectorized evaluator for the S3 Select SQL subset, over Arrow columns.

Evaluates a parsed :class:`~repro.s3sim.sql_ast.Query` against a batch
of objects' rows, a ``pyarrow.Table`` with the objects' row bounds
(``eval_query``). CSV objects arrive as all-``string`` tables (see ``csvio``):
values stay strings until a ``CAST`` or an implicit numeric coercion,
mirroring S3 Select's handling of CSV fields. Only the result becomes a
pandas frame.

Values take one of four forms while a request runs:

* a scalar (a literal, or an expression over literals only);
* a string vector: a ``pyarrow`` ``string`` array;
* a numeric vector: a numpy ``int64`` or ``float64`` array, NaN = NULL;
* a predicate: a ``pyarrow`` boolean array, null = NULL.

Semantics notes (kept deliberately close to the real service):

* Comparisons between two strings are lexicographic -- which is exactly
  why the paper's date predicates (``'1992-03-01' < ...``) work on CSV.
* If either comparison/arithmetic operand is numeric (a number literal
  or a ``CAST`` result), the other side is coerced to numeric;
  non-parseable cells become NULL and drop out of the result.
  Coercion follows ``pandas.to_numeric(errors="coerce")``: surrounding
  whitespace and a leading ``+`` are allowed, ``nan``/``inf`` parse,
  and a column becomes ``int64`` only if every cell is an integer (no
  NULL), else ``float64`` -- which decides how values render in CSV.
  Decimals are parsed correctly rounded, as Python's ``float()`` does.
* Empty CSV cells are NULL (``IS NULL``, skipped by aggregates).
* Predicates follow SQL's three-valued logic. A comparison, ``BETWEEN``,
  ``IN`` or ``LIKE`` over a NULL operand is NULL, ``AND``/``OR``/``NOT``
  combine these with Kleene logic (``NOT NULL`` is NULL, ``NULL OR
  TRUE`` is TRUE), and ``WHERE`` and ``CASE WHEN`` treat NULL as false
  -- so neither ``WHERE p`` nor ``WHERE NOT p`` returns a row where
  ``p`` is NULL.
* ``CAST(x AS INT)`` rounds half away from zero, as DuckDB does:
  ``CAST('2.5' AS INT)`` is 3 and ``CAST('-1.5' AS INT)`` is -2; a
  non-numeric or empty ``x`` gives NULL. Results are float-backed,
  exact below 2**53.
* A ``CASE`` whose branches are not all numbers (a string column, or a
  ``NULL``) yields strings: each numeric branch value as Python renders
  it, so the CSV result is the same as for a mixed-type column.
* An aggregate query must be all-aggregates (no group-by exists, so a
  bare column next to ``SUM(...)`` is rejected) -- this is the
  restriction the paper's CASE-WHEN group-by works around.

Each request evaluates every *distinct* subexpression once. The
evaluator memoizes, per node, the node's value, its numeric coercion
and its string form with ``''`` as NULL, so the paper's wide queries
cost what their distinct work costs: Q1's 36 ``SUM(CASE ...)`` columns
share 6 conditions and 4 ``CAST``s, a hybrid group-by's ``g = v``
conditions share one parse of ``g``, and a Bloom probe's k
``SUBSTRING`` hashes share one ``CAST(key AS INT)``. The memo is keyed
by the AST nodes themselves, whose equality includes literal types
(``c + 1`` and ``c + 1.0`` stay apart; see ``Literal``), and lives on
the evaluator, i.e. for one batch of requests only. An aggregate query
is evaluated item by item: once every object has taken an item's value,
the memo forgets each node that no later item references, so Q1 holds
one ``CASE`` vector at a time, next to the conditions and casts
that later items still share.

A batch is the same query over several objects, their rows back to back
(``eval_query``'s ``bounds``): each distinct node is evaluated once over
all of them, and each object's result is cut from the batch's values --
its rows of a projection, its own slice for each aggregate, ``LIMIT``
per object. That is exact because a row's value does not depend on the
other rows, with one exception: the int64-or-float64 choice of a
numeric vector. Where an object alone would choose otherwise than the
batch (say ``a + 1`` over ``['1', '2']`` in a batch with ``['3', '']``),
the batch is evaluated again one object at a time.

A WHERE that is an AND chain is decided one conjunct at a time, in the
order the SQL gives them (``_where``). The first conjunct sees every
row of the batch; each later one sees only the rows that every earlier
one kept (``_Kept``): it reads the columns it references at those rows
only, and a value an earlier conjunct computed is taken at those rows,
not computed again. A row is kept where every conjunct is TRUE, which
is what the chain's three-valued AND keeps. The projection or the
aggregates then run on the kept rows. One rule types a numeric vector
in a conjunct: the rows of its object, all of them, not the rows that
earlier conjuncts kept -- so a conjunct decides a row as it would over
the whole object, and as ``CASE WHEN`` over the same chain does
(``tests/test_where_norec.py``). The projection types its vectors by
the kept rows, as it always has: ``x = 9007199254740992`` over
``['9007199254740993', 'abc']`` is TRUE for the first cell (``'abc'``
makes ``x`` float64 over the object), while ``x + 0`` of the kept row
is the int64 9007199254740993.

The Bloom join's membership test, ``SUBSTRING('<bits>', pos, 1) =
'1'`` (or ``!=``, with any one-character ASCII literal and an ASCII
bit string), is a lookup in the literal's bytes at ``pos - 1``: TRUE or
FALSE where ``pos`` is in range, NULL where it is NULL or out of range,
as comparing the picked character (``''``, which is NULL, off the
string) gives. No per-row string is built.
"""
from __future__ import annotations

import operator
import weakref

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from repro.s3sim import csvio
from repro.s3sim.sql_ast import (
    AGG_FUNCS, Between, BinOp, Case, Cast, Column, Func, InList, IsNull,
    Like, Literal, Query, Substring, UnaryOp, contains_aggregate, walk,
)


class SqlEvalError(ValueError):
    """Raised for semantically invalid queries (bad column, mixed aggs...)."""


class _Ragged(Exception):
    """An object of a batch would type a value otherwise alone (see ``eval_query``)."""


_NULL_STRING = pa.scalar(None, pa.string())

# An evaluator's memos, each keyed by AST node (see ``_Evaluator``).
_MEMOS = ("_values", "_numbers", "_texts", "_masks", "_nulls", "_summands")

# What ``pandas.to_numeric`` accepts once whitespace is trimmed.
_NUMBER = r"^[+-]?(?:(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|(?i:nan|inf|infinity))$"

_ARITH = {
    "+": operator.add, "-": operator.sub, "*": operator.mul,
    "/": operator.truediv, "%": operator.mod,  # SQL MOD, used by the Bloom hash
}
_COMPARE = {
    "=": (operator.eq, pc.equal), "!=": (operator.ne, pc.not_equal),
    "<": (operator.lt, pc.less), "<=": (operator.le, pc.less_equal),
    ">": (operator.gt, pc.greater), ">=": (operator.ge, pc.greater_equal),
}


# -- helpers --------------------------------------------------------------

def _is_vector(v) -> bool:
    return isinstance(v, (np.ndarray, pa.Array))


def _is_numeric(v) -> bool:
    if isinstance(v, np.ndarray):
        return True
    return isinstance(v, (int, float, np.integer, np.floating)) and not isinstance(v, bool)


def _is_null_scalar(v) -> bool:
    return v is None or (isinstance(v, (float, np.floating)) and np.isnan(v))


def _nan_mask(x: np.ndarray):
    """Where a numeric vector is NULL, or None if it cannot be."""
    return np.isnan(x) if x.dtype.kind == "f" else None


def _data(text: pa.Array) -> np.ndarray:
    """The UTF-8 bytes of a string array's values, as one uint8 array."""
    if len(text) == 0:
        return np.empty(0, dtype=np.uint8)
    offsets = np.frombuffer(text.buffers()[1], dtype=np.int32)
    lo, hi = offsets[text.offset], offsets[text.offset + len(text)]
    if lo == hi:
        return np.empty(0, dtype=np.uint8)
    return np.frombuffer(text.buffers()[2], dtype=np.uint8)[lo:hi]


def _cell_lengths(text: pa.Array) -> np.ndarray:
    """Each cell's length in bytes, from a string array's offsets."""
    if len(text) == 0:
        return np.empty(0, dtype=np.int32)
    offsets = np.frombuffer(text.buffers()[1], dtype=np.int32)
    return np.diff(offsets[text.offset:text.offset + len(text) + 1])


def _cast_numbers(text: pa.Array):
    """``text`` (NULL = empty cell) as int64, else float64; None if Arrow cannot cast it.

    Int64 only when every cell is an integer. A failed cast is slow, so
    the int64 cast is tried only when every byte is a digit or ``-``.
    A float64 infinity that overflowed from a finite literal is NULL, as
    in pandas.
    """
    if text.null_count == 0:
        data = _data(text)
        if (((data >= 48) & (data <= 57)) | (data == 45)).all():
            try:
                return pc.cast(text, pa.int64()).to_numpy()
            except pa.ArrowInvalid:  # out of int64's range, or a stray '-'
                pass
    try:
        x = pc.cast(text, pa.float64()).to_numpy(zero_copy_only=False)
    except pa.ArrowInvalid:
        return None
    inf = np.isinf(x)
    if inf.any():
        spelled = pc.match_substring(text, "inf", ignore_case=True)
        x = np.where(inf & ~_mask(spelled), np.nan, x)
    return x


def _parse_numbers(text: pa.Array) -> np.ndarray:
    """Strings (NULL = empty cell) as numbers, like ``pandas.to_numeric(errors="coerce")``.

    Arrow's casts take canonical cells directly. Otherwise -- a cell with
    whitespace, a leading ``+`` or no number at all -- the cells are
    trimmed, validated against pandas's grammar (the rest become NULL)
    and cast again. Values are correctly rounded, where pandas's parser
    can be an ulp off; and ``'0E624'`` is 0, where pandas rejects any
    exponent past 308.
    """
    if not (_data(text) == ord("+")).any():
        x = _cast_numbers(text)
        if x is not None:
            return x
    text = pc.ascii_trim_whitespace(text)
    text = pc.if_else(pc.match_substring_regex(text, _NUMBER), text, _NULL_STRING)
    return _cast_numbers(pc.utf8_ltrim(text, characters="+"))


def cells_to_numbers(cells: pa.Array) -> np.ndarray:
    """CSV cells as numbers, ``''`` and NULL being NULL: S3 Select's coercion.

    It is also how ``repro.schema`` types the rows a compute-side reader
    receives, so the two cannot drift.
    """
    return _parse_numbers(_nulled(cells))


def _scalar_number(v):
    """A scalar coerced to a number (None stays None, junk is NaN)."""
    if v is None or isinstance(v, (int, float, np.integer, np.floating)):
        return v
    try:
        f = float(v)
        return int(f) if f.is_integer() else f
    except (TypeError, ValueError):
        return np.nan


def _as_strings(v) -> pa.Array:
    """A vector as a string array: numbers as Python renders them, NaN as NULL."""
    if isinstance(v, np.ndarray):
        return pa.array(v.astype(str), type=pa.string(), mask=_nan_mask(v))
    if pa.types.is_string(v.type):
        return v
    return pc.cast(v, pa.string())


def _nulled(text: pa.Array) -> pa.Array:
    """A string array with ``''`` read as NULL (itself if no cell is ``''``)."""
    if _cell_lengths(text).all():
        return text
    return pc.if_else(pc.equal(text, ""), _NULL_STRING, text)


def _predicate(v, n: int) -> pa.Array:
    """A value as a three-valued predicate of ``n`` rows."""
    if isinstance(v, pa.Array):
        if pa.types.is_boolean(v.type):
            return v
        return pc.fill_null(pc.not_equal(_as_strings(v), ""), False)
    if isinstance(v, np.ndarray):
        nulls = _nan_mask(v)
        return pa.array(v != 0 if nulls is None else (v != 0) & ~nulls)
    if v is None:
        return pa.nulls(n, pa.bool_())
    return pa.array(np.full(n, bool(v)))


def _bits(buf: pa.Buffer, offset: int, n: int) -> np.ndarray:
    """Bits ``offset:offset + n`` of an Arrow bitmap, as booleans."""
    packed = np.frombuffer(buf, dtype=np.uint8)
    return np.unpackbits(packed, count=offset + n, bitorder="little")[offset:].view(bool)


def _mask(pred: pa.Array) -> np.ndarray:
    """A predicate as a numpy mask, NULL = false: its value bits, unpacked, and its validity."""
    n = len(pred)
    if pred.null_count == n:
        return np.zeros(n, dtype=bool)
    validity, values = pred.buffers()
    m = _bits(values, pred.offset, n)
    if pred.null_count:
        m &= _bits(validity, pred.offset, n)
    return m


def _round_half_away(n):
    """Round half away from zero: 2.5 -> 3, -1.5 -> -2, -0.3 -> 0 (not -0)."""
    a = np.abs(n)
    r = np.floor(a)
    with np.errstate(invalid="ignore"):  # inf - inf
        r = r + (a - r >= 0.5)
    return np.copysign(r, n) + 0.0


def _arith(op: str, a, b):
    if op == "%":
        return _mod(a, b)
    with np.errstate(all="ignore"):
        return _ARITH[op](a, b)


def _mod(a, b):
    """``a % b`` with pandas's semantics: numpy's floor remainder, NULL for int MOD 0.

    A float64 vector of integers (a ``CAST(k AS INT)``, as in the Bloom
    probe's hash) MOD a positive integer is taken in int64, which gives
    the same floats about ten times faster than a float remainder.
    """
    if (
        isinstance(a, np.ndarray) and a.dtype.kind == "f"
        and isinstance(b, (int, np.integer)) and not isinstance(b, bool) and b > 0
    ):
        nan = np.isnan(a)
        has_nan = nan.any()
        z = np.where(nan, 0.0, a) if has_nan else a
        with np.errstate(invalid="ignore"):
            ints = z.astype(np.int64)
        if (ints == z).all() and (np.abs(z) <= 2.0**53).all():
            out = (ints % b).astype(np.float64)
            return np.where(nan, np.nan, out) if has_nan else out
    with np.errstate(all="ignore"):
        out = a % b
    if isinstance(out, np.ndarray) and out.dtype.kind == "i":
        zero = np.equal(b, 0)
        if zero.any():  # pandas: integer MOD by zero is NULL
            out = np.where(zero, np.nan, out)
    return out


def _like_pattern(pattern: str) -> str:
    """Our LIKE has no escape character; Arrow's treats ``\\`` as one."""
    return pattern.replace("\\", "\\\\")


def _picked_chars(s: str, pos: np.ndarray) -> pa.Array:
    """Per row, the character of ``s`` at 1-based ``pos``, or ``''`` if out of range."""
    valid = np.isfinite(pos) & (pos >= 1) & (pos <= len(s))
    safe = np.where(valid, pos - 1, 0).astype(np.int64)
    if not s.isascii():
        chars = np.frombuffer(s.encode("utf-32-le"), dtype="<U1")
        return pa.array(np.where(valid, chars[safe], ""), type=pa.string())
    data = np.frombuffer(s.encode(), dtype=np.uint8)[safe[valid]]
    offsets = np.zeros(len(pos) + 1, dtype=np.int32)
    np.cumsum(valid, out=offsets[1:])
    return pa.StringArray.from_buffers(
        len(pos), pa.py_buffer(offsets), pa.py_buffer(data.tobytes())
    )


def _column(v, n: int) -> pd.Series:
    """One result column as the pandas Series the result frame holds."""
    if isinstance(v, np.ndarray):
        return pd.Series(v)
    if isinstance(v, pa.Array):  # predicates become nullable booleans
        return v.to_pandas(types_mapper={pa.bool_(): pd.BooleanDtype()}.get)
    return pd.Series(v, index=pd.RangeIndex(n))


def _pairs(bounds: list) -> list:
    """``(lo, hi)`` of each object of a batch, from its row bounds."""
    return list(zip(bounds[:-1], bounds[1:]))


def _cut(v, lo: int, hi: int):
    """Rows ``lo:hi`` of a vector; a scalar is the value of every row."""
    if isinstance(v, np.ndarray):
        return v[lo:hi]
    if isinstance(v, pa.Array):
        return v.slice(lo, hi - lo)
    return v


def _take(v, rows: np.ndarray):
    """A vector's values at ``rows``; a scalar is the value of every row."""
    if isinstance(v, np.ndarray):
        return v[rows]
    if isinstance(v, pa.Array):
        return v.take(rows)
    return v


def _integral(x: np.ndarray) -> bool:
    """Whether every value is a finite integer (so no NULL, NaN being NULL)."""
    return bool(np.isfinite(x).all() and (x == np.trunc(x)).all())


def _ints_alone(text: pa.Array, lo: int, hi: int) -> bool:
    """Whether cells ``lo:hi`` of ``text`` alone parse as int64.

    The cells are parsed again, copied out of the slice: pyarrow 16's
    ``if_else`` mangles sliced string arrays.
    """
    return _parse_numbers(pa.concat_arrays([text.slice(lo, hi - lo)])).dtype.kind == "i"


def _int_cells(cells: pa.Array) -> bool:
    """Whether every cell is 1 to 18 digits, so that the cells parse as int64.

    A quick test that never parses: False says nothing.
    """
    if not pa.types.is_string(cells.type) or cells.null_count:
        return False
    lengths = _cell_lengths(cells)
    if not ((lengths > 0) & (lengths <= 18)).all():
        return False
    data = _data(cells)
    return bool(((data >= 48) & (data <= 57)).all())


def _char_test(e: BinOp):
    """``(s, c)`` if ``e`` is ``SUBSTRING(s, <pos>, 1) = c`` (or ``!=``) of ASCII literals.

    The paper's Bloom probe tests its bits so: ``s`` is the filter's bit
    string and ``c`` is ``'1'``.
    """
    sub, char = e.left, e.right
    if (
        e.op in ("=", "!=") and isinstance(sub, Substring) and sub.length == Literal(1)
        and isinstance(sub.expr, Literal) and isinstance(sub.expr.value, str)
        and isinstance(char, Literal) and isinstance(char.value, str)
    ):
        s, c = sub.expr.value, char.value
        if s and len(c) == 1 and s.isascii() and c.isascii():
            return s, c
    return None


def _conjuncts(e) -> list:
    """The operands of an AND chain, in the order the SQL gives them."""
    if isinstance(e, BinOp) and e.op == "AND":
        return _conjuncts(e.left) + _conjuncts(e.right)
    return [e]


def _last_uses(items: list) -> dict:
    """Each node the select items reference -> the index of the last item that does."""
    return {n: i for i, it in enumerate(items) for n in walk(it.expr)}


def _vector(col: pa.ChunkedArray):
    """A stored column as an evaluator value."""
    arr = col.combine_chunks() if col.num_chunks != 1 else col.chunk(0)
    if arr.offset:  # pyarrow 16's if_else mangles sliced string arrays
        arr = pa.concat_arrays([arr])
    t = arr.type
    if pa.types.is_integer(t) and arr.null_count == 0:
        return arr.to_numpy().astype(np.int64, copy=False)
    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return pc.cast(arr, pa.float64()).to_numpy(zero_copy_only=False)
    if pa.types.is_string(t) or pa.types.is_boolean(t):
        return arr
    return pc.cast(arr, pa.string())


class _Evaluator:
    """Evaluates expressions over one table, each distinct node once.

    The table may be a batch: object ``i`` is rows ``bounds[i]:bounds[i +
    1]``. Where an object's rows alone would type a value otherwise than
    the batch's, evaluation raises ``_Ragged``. Aggregates read their
    argument from this evaluator or, for one object of a batch, from
    ``rows``: the batch evaluator's values cut to the object's rows.
    """

    def __init__(self, table: pa.Table, bounds: list | None = None, rows=None):
        self.table = table
        self.n = table.num_rows
        self.bounds = [0, self.n] if bounds is None else bounds
        self._rows = rows  # None: this evaluator (a reference to self would be a cycle)
        self.colmap = {c.lower(): c for c in table.column_names}
        self._values: dict = {}   # node -> its value
        self._numbers: dict = {}  # node -> its value coerced to numeric
        self._texts: dict = {}    # node -> its string vector, '' as NULL
        self._masks: dict = {}    # predicate node -> its numpy mask
        self._nulls: dict = {}    # node -> where its value is NULL
        self._summands: dict = {}  # node -> its numbers, NULL as 0, and where NULL

    def objects(self) -> list:
        """One evaluator per object of the batch, for its aggregates."""
        if len(self.bounds) == 2:
            return [self]
        return [
            _Evaluator(self.table.slice(lo, hi - lo), rows=_Rows(self, lo, hi))
            for lo, hi in _pairs(self.bounds)
        ]

    def release(self, last_use: dict, item: int) -> None:
        """Forget every memoized node that no select item after ``item`` references.

        ``last_use`` is :func:`_last_uses` of the items; a node it lacks
        (one an evaluation built, such as a ``BETWEEN``'s two comparisons)
        is forgotten too.
        """
        for name in _MEMOS:
            memo = getattr(self, name)
            for e in [e for e in memo if last_use.get(e, -1) <= item]:
                del memo[e]

    def check_alone(self, alone) -> None:
        """Raise ``_Ragged`` if ``alone(lo, hi)``, for some object's rows ``lo:hi``.

        ``alone`` says whether those rows alone would type the value
        being evaluated otherwise. Empty objects are skipped: no value of
        theirs is cut from the batch's.
        """
        if len(self.bounds) > 2 and any(
            alone(lo, hi) for lo, hi in _pairs(self.bounds) if hi > lo
        ):
            raise _Ragged

    def int_alone(self, x: np.ndarray, alone=None) -> bool:
        """Whether some object's rows of the float64 ``x`` would be int64 alone.

        They would where their values are all integers and ``alone(lo,
        hi)``, if given, holds for them (rows ``lo:hi``).
        """
        return len(self.bounds) > 2 and any(
            _integral(x[lo:hi]) and (alone is None or alone(lo, hi))
            for lo, hi in _pairs(self.bounds) if hi > lo
        )

    def typed(self, e, x: np.ndarray, alone=None) -> np.ndarray:
        """``x``, the numbers ``e`` takes over these rows, as each object's rows type them.

        ``x`` was parsed from strings (``alone`` parses an object's cells
        again), cast from a predicate, or is an integer ``%``: it is
        float64 where some row is NULL or a fraction, else int64. Here
        the rows are the objects' own, so ``x`` is as they type it,
        unless an object alone would type it otherwise: ``_Ragged``.
        """
        if x.dtype.kind == "f" and self.int_alone(x, alone):
            raise _Ragged
        return x

    def col(self, name: str):
        actual = self.colmap.get(name.lower())
        if actual is None:
            raise SqlEvalError(
                f"no such column {name!r}; have {sorted(self.table.column_names)}"
            )
        column = self.table.column(actual)
        if pa.types.is_integer(column.type) and column.null_count:  # float64, see _vector
            self.check_alone(lambda lo, hi: column.slice(lo, hi - lo).null_count == 0)
        return _vector(column)

    # -- expression dispatch ---------------------------------------------

    def eval(self, e):
        if type(e) is Literal:
            return e.value
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
            pass
        v = self.eval(e)
        if isinstance(v, np.ndarray):
            out = v
        elif isinstance(v, pa.Array) and pa.types.is_boolean(v.type):
            out = self.typed(e, pc.cast(v, pa.int64()).to_numpy(zero_copy_only=False))
        elif isinstance(v, pa.Array):
            text = self.text(e)
            out = self.typed(e, _parse_numbers(text), lambda lo, hi: _ints_alone(text, lo, hi))
        else:
            out = _scalar_number(v)
        self._numbers[e] = out
        return out

    def text(self, e) -> pa.Array:
        """``eval(e)``, a vector, as strings with ``''`` as NULL (memoized)."""
        try:
            return self._texts[e]
        except KeyError:
            v = self._texts[e] = _nulled(_as_strings(self.eval(e)))
            return v

    def pred(self, e) -> pa.Array:
        return _predicate(self.eval(e), self.n)

    def mask(self, e) -> np.ndarray:
        """``pred(e)`` as a numpy mask, NULL = false (memoized)."""
        try:
            return self._masks[e]
        except KeyError:
            m = self._masks[e] = _mask(self.pred(e))
            return m

    def nulls(self, e) -> pa.Array:
        """Where ``eval(e)`` is NULL, as a (non-null) boolean array (memoized)."""
        try:
            return self._nulls[e]
        except KeyError:
            pass
        v = self.eval(e)
        if isinstance(v, np.ndarray):
            m = _nan_mask(v)
            out = pa.array(np.zeros(self.n, dtype=bool) if m is None else m)
        elif isinstance(v, pa.Array):
            out = pc.is_null(v if pa.types.is_boolean(v.type) else self.text(e))
        else:
            out = pa.array(np.full(self.n, _is_null_scalar(v)))
        self._nulls[e] = out
        return out

    def summands(self, e) -> tuple:
        """``num(e)`` as a vector with NULL as 0, and where it is NULL (None: nowhere).

        What SUM and AVG add up: memoized, so a batch's objects cut it
        from one vector.
        """
        try:
            return self._summands[e]
        except KeyError:
            pass
        x = self.num(e)
        if not isinstance(x, np.ndarray):
            x = np.full(self.n, np.nan if x is None else x)
        nulls = _nan_mask(x)
        if nulls is not None and nulls.any():
            x = np.where(nulls, 0.0, x)
        else:
            nulls = None
        out = self._summands[e] = (x, nulls)
        return out

    def _eval_literal(self, e: Literal):
        return e.value

    def _eval_column(self, e: Column):
        return self.col(e.name)

    def _eval_unaryop(self, e: UnaryOp):
        if e.op == "NOT":
            return pc.invert(self.pred(e.operand))
        v = self.num(e.operand)
        return -v if e.op == "-" else v

    def _eval_binop(self, e: BinOp):
        if e.op in ("AND", "OR"):
            kleene = pc.and_kleene if e.op == "AND" else pc.or_kleene
            return kleene(self.pred(e.left), self.pred(e.right))
        if e.op in _ARITH:
            a, b = self.num(e.left), self.num(e.right)
            out = _arith(e.op, a, b)
            if e.op == "%" and isinstance(b, np.ndarray) and b.dtype.kind == "i" and (
                isinstance(a, int) or isinstance(a, np.ndarray) and a.dtype.kind == "i"
            ):  # integer MOD 0 is NULL, which makes the result float64
                return self.typed(e, out)
            return out
        chars = _char_test(e)
        if chars is not None and _is_vector(self.eval(e.left.start)):
            # The Bloom probe's bit test, as a lookup in the literal's
            # bytes: NULL where the position is NULL or out of range, as
            # the picked character '' (``_picked_chars``) would compare.
            s, c = chars
            pos = self.num(e.left.start).astype(np.float64, copy=False)
            valid = np.isfinite(pos) & (pos >= 1) & (pos <= len(s))
            at = np.where(valid, pos - 1, 0).astype(np.int64)
            hit = np.frombuffer(s.encode(), dtype=np.uint8)[at] == ord(c)
            return pa.array(hit if e.op == "=" else ~hit, mask=~valid)
        # comparison: numeric if either side is numeric, else lexicographic
        left, right = self.eval(e.left), self.eval(e.right)
        py_op, arrow_op = _COMPARE[e.op]
        numeric = _is_numeric(left) or _is_numeric(right)
        if numeric:
            left, right = self.num(e.left), self.num(e.right)
        if not _is_vector(left) and not _is_vector(right):
            if _is_null_scalar(left) or _is_null_scalar(right):
                return None
            return bool(py_op(left, right))
        if _is_null_scalar(left) or _is_null_scalar(right):
            return pa.nulls(self.n, pa.bool_())
        if numeric:
            with np.errstate(invalid="ignore"):
                res = py_op(left, right)
            nulls = [m for m in (
                _nan_mask(x) for x in (left, right) if isinstance(x, np.ndarray)
            ) if m is not None]
            return pa.array(res, mask=np.logical_or.reduce(nulls) if nulls else None)
        lt = self.text(e.left) if _is_vector(left) else left
        rt = self.text(e.right) if _is_vector(right) else right
        return arrow_op(lt, rt)

    def _eval_cast(self, e: Cast):
        if e.type in ("INT", "INTEGER", "BIGINT"):
            n = self.num(e.expr)
            if isinstance(n, np.ndarray):
                return _round_half_away(n)
            if _is_null_scalar(n):
                return None
            return int(_round_half_away(n))
        if e.type in ("FLOAT", "DOUBLE", "DECIMAL", "NUMERIC"):
            return self.num(e.expr)
        v = self.eval(e.expr)
        if e.type in ("STRING", "CHAR", "VARCHAR", "TIMESTAMP"):
            if _is_vector(v):
                return _as_strings(v)
            return None if v is None else str(v)
        if e.type == "BOOL":
            return pc.fill_null(self.pred(e.expr), False)
        raise SqlEvalError(f"unsupported CAST type {e.type!r}")

    def _eval_substring(self, e: Substring):
        s = self.eval(e.expr)
        start = self.eval(e.start)
        length = None if e.length is None else self.eval(e.length)
        if isinstance(s, str) and _is_vector(start):
            pos = self.num(e.start).astype(np.float64)
            # The paper's Bloom filter probe: one character of a literal
            # bit string at a per-row position.
            if length == 1:
                return _picked_chars(s, pos)
            if length is None:  # tail substring of a literal, per-row start
                ok = np.isfinite(pos) & (pos >= 1) & (pos <= len(s))
                return pa.array(
                    [s[int(p) - 1:] if k else "" for k, p in zip(ok, pos)],
                    type=pa.string(),
                )
        if _is_vector(s):
            strings = _as_strings(s)
            start_n = self.num(e.start)
            len_n = None if e.length is None else self.num(e.length)
            if _is_vector(start_n) or _is_vector(len_n):
                starts = np.broadcast_to(np.asarray(start_n).astype(int), (self.n,))
                lens = (
                    [None] * self.n if len_n is None
                    else np.broadcast_to(np.asarray(len_n).astype(int), (self.n,))
                )
                return pa.array(
                    [None if v is None else
                     v[max(p - 1, 0):] if L is None else v[max(p - 1, 0): max(p - 1, 0) + L]
                     for v, p, L in zip(strings.to_pylist(), starts, lens)],
                    type=pa.string(),
                )
            begin = max(int(start_n) - 1, 0)
            if len_n is None:
                return pc.utf8_slice_codeunits(strings, begin)
            return pc.utf8_slice_codeunits(strings, begin, begin + int(len_n))
        # scalar string, scalar positions
        p = int(self.num(e.start))
        if length is None:
            return str(s)[max(p - 1, 0):]
        return str(s)[max(p - 1, 0): max(p - 1, 0) + int(self.num(e.length))]

    def _eval_case(self, e: Case):
        conds = [self.mask(c) for c, _ in e.whens]
        nodes = [v for _, v in e.whens]
        nodes.append(Literal(0) if e.else_ is None else e.else_)
        vals = [self.eval(v) for v in nodes]
        if all(_is_numeric(v) for v in vals):
            vals = [self.num(v) for v in nodes]
            if len(conds) == 1:  # same result as np.select, without its overhead
                return np.where(conds[0], vals[0], vals[1])
            return np.select(conds, vals[:-1], vals[-1])
        # Mixed branches: each value as the string it renders as.
        cases = [
            _as_strings(v) if _is_vector(v)
            else _NULL_STRING if _is_null_scalar(v) else pa.scalar(str(v))
            for v in vals
        ]
        which = pa.StructArray.from_arrays(
            [pa.array(c) for c in conds], [str(i) for i in range(len(conds))]
        )
        return pc.case_when(which, *cases)

    def _eval_isnull(self, e: IsNull):
        m = self.nulls(e.expr)
        return pc.invert(m) if e.negated else m

    def _eval_between(self, e: Between):
        lo = BinOp(">=", e.expr, e.low)
        hi = BinOp("<=", e.expr, e.high)
        m = self.pred(BinOp("AND", lo, hi))
        return pc.invert(m) if e.negated else m

    def _eval_inlist(self, e: InList):
        m = pa.array(np.zeros(self.n, dtype=bool))
        for item in e.items:
            m = pc.or_kleene(m, self.pred(BinOp("=", e.expr, item)))
        return pc.invert(m) if e.negated else m

    def _eval_like(self, e: Like):
        v = self.eval(e.expr)
        pattern = _like_pattern(e.pattern)
        if _is_vector(v):
            m = pc.match_like(self.text(e.expr), pattern)
        elif v is None:
            m = pa.nulls(self.n, pa.bool_())
        else:
            hit = pc.match_like(pa.array([str(v)]), pattern)[0].as_py()
            m = pa.array(np.full(self.n, hit))
        return pc.invert(m) if e.negated else m

    def _eval_func(self, e: Func):
        if e.name in AGG_FUNCS:
            return self._eval_aggregate(e)
        v = self.eval(e.args[0])
        if e.name in ("UPPER", "LOWER"):
            if _is_vector(v):
                kernel = pc.utf8_upper if e.name == "UPPER" else pc.utf8_lower
                return kernel(_as_strings(v))
            return str(v).upper() if e.name == "UPPER" else str(v).lower()
        if e.name == "ABS":
            return abs(self.num(e.args[0]))
        raise SqlEvalError(f"unsupported function {e.name}")

    def _eval_aggregate(self, e: Func):
        if e.name == "COUNT" and e.star:
            return self.n
        arg, rows = e.args[0], self._rows or self
        v = rows.eval(arg)
        if e.name == "COUNT":
            return self.n - pc.sum(rows.nulls(arg)).as_py() if self.n else 0
        if e.name in ("SUM", "AVG"):
            n, nulls = rows.summands(arg)
            count = len(n) if nulls is None else len(n) - int(np.count_nonzero(nulls))
            if count == 0:
                return None  # SQL: SUM/AVG over no rows is NULL
            if e.name == "SUM":
                return float(n.sum())
            return float(n.sum(dtype=np.float64) / count)
        # MIN/MAX work on strings (dates) and numbers alike
        if isinstance(v, np.ndarray):
            nulls = _nan_mask(v)
            vv = v if nulls is None else v[~nulls]
            if len(vv) == 0:
                return None
            return vv.min() if e.name == "MIN" else vv.max()
        if isinstance(v, pa.Array):
            mm = pc.min_max(rows.text(arg))
            return mm["min" if e.name == "MIN" else "max"].as_py()
        if self.n == 0 or _is_null_scalar(v) or v == "":
            return None
        return v


class _Carried(dict):
    """One memo of a ``_Kept``: a node it lacks is taken from an earlier evaluator's memo."""

    def __init__(self, ev: "_Kept", name: str):
        super().__init__()
        # A proxy, not a reference: a cycle would keep the batch's arrays
        # alive until the garbage collector ran.
        self.ev, self.name = weakref.proxy(ev), name

    def __missing__(self, e):
        v = self[e] = self.ev.carried(self.name, e)
        return v


class _Kept(_Evaluator):
    """The rows of a batch that a WHERE's earlier conjuncts kept, for the later ones.

    ``ev`` evaluated the conjunct that kept rows ``kept`` of its own;
    ``base`` evaluates every row of the batch, and ``index`` holds the
    kept rows' positions in it. Values are computed over the kept rows
    only: a column is read at those rows when a conjunct references it,
    and a node that an earlier evaluator computed is taken at those rows
    (each computed array once, however many memos hold it). A numeric
    vector is typed by each object's rows, not by its kept rows
    (``typed``), so a conjunct decides a row as it would over the whole
    object.
    """

    def __init__(self, ev: _Evaluator, kept: np.ndarray):
        base = getattr(ev, "base", ev)
        self.table, self.colmap, self._rows = base.table, base.colmap, None
        self.base, self.earlier = base, ev
        self.index = kept if ev is base else ev.index[kept]
        self.n = len(self.index)
        self.bounds = np.searchsorted(self.index, base.bounds).tolist()
        self._taken: dict = {}  # id of an earlier evaluator's array -> it at these rows
        for name in _MEMOS:
            setattr(self, name, _Carried(self, name))

    def at(self, v, ev: _Evaluator):
        """``ev``'s value ``v`` at these rows."""
        if not _is_vector(v):
            return v
        try:
            return self._taken[id(v)][1]
        except KeyError:
            pass
        rows = self.index if ev is self.base else np.searchsorted(ev.index, self.index)
        out = _take(v, rows)
        self._taken[id(v)] = (v, out)  # holding ``v`` keeps its id from being reused
        return out

    def carried(self, name: str, e):
        """Memo ``name``'s value of ``e`` in the latest earlier evaluator that has it."""
        ev = self.earlier
        while not dict.__contains__(getattr(ev, name), e):
            if ev is self.base:
                raise KeyError(e)
            ev = ev.earlier
        return self.at(dict.__getitem__(getattr(ev, name), e), ev)

    def _eval_column(self, e: Column):
        return self.at(self.base.eval(e), self.base)

    def typed(self, e, x: np.ndarray, alone=None) -> np.ndarray:
        """``x`` in the dtype that ``base`` gives ``e``.

        An object whose kept rows make ``x`` float64 has those rows, so
        it is float64 too. Only kept rows that would be int64 need the
        object's other rows: a column whose every cell is short digits
        is int64 in every object, and anything else is typed by
        ``base``, which evaluates ``e`` over every row and raises
        ``_Ragged`` where objects differ.
        """
        if x.dtype.kind == "f":
            if not self.int_alone(x, alone):
                return x
        elif isinstance(e, Column) and _int_cells(self.base.eval(e)):
            return x
        return x.astype(self.base.num(e).dtype, copy=False)


class _Rows:
    """A batch evaluator's row-wise values, cut to one object's rows ``lo:hi``."""

    def __init__(self, ev: _Evaluator, lo: int, hi: int):
        self.ev, self.lo, self.hi = ev, lo, hi

    def eval(self, e):
        return _cut(self.ev.eval(e), self.lo, self.hi)

    def num(self, e):
        return _cut(self.ev.num(e), self.lo, self.hi)

    def text(self, e) -> pa.Array:
        return _cut(self.ev.text(e), self.lo, self.hi)

    def nulls(self, e) -> pa.Array:
        return _cut(self.ev.nulls(e), self.lo, self.hi)

    def summands(self, e) -> tuple:
        return tuple(_cut(v, self.lo, self.hi) for v in self.ev.summands(e))


def _check(query: Query) -> bool:
    """Reject the aggregates S3 Select cannot run; whether ``query`` aggregates."""
    if query.where is not None and contains_aggregate(query.where):
        raise SqlEvalError("aggregates are not allowed in WHERE")
    agg_flags = [contains_aggregate(it.expr) for it in query.items]
    if any(agg_flags) and not all(agg_flags):
        raise SqlEvalError(
            "cannot mix aggregates and plain columns without GROUP BY "
            "(S3 Select has no GROUP BY)"
        )
    if any(
        isinstance(n, Func) and n.name in AGG_FUNCS
        and any(contains_aggregate(a) for a in n.args)
        for it in query.items for n in walk(it.expr)
    ):
        raise SqlEvalError("nested aggregates are not supported")
    return any(agg_flags)


class Result:
    """One request's result rows, as evaluator values until a caller wants pandas.

    ``columns`` maps each result column's name to its value: a numpy or
    pyarrow vector of ``n`` rows, or a scalar that every row holds (an
    aggregate's one row holds scalars). ``SELECT *`` keeps the object's
    ``table`` instead. :meth:`to_pandas` is the request's frame, and
    :meth:`csv_size` the length of its header-less CSV text, which S3
    Select bills as ``bytes_returned``.
    """

    def __init__(self, columns: dict, n: int, *, aggregate: bool = False,
                 table: pa.Table | None = None):
        self.columns, self.n, self.aggregate, self.table = columns, n, aggregate, table

    def to_pandas(self) -> pd.DataFrame:
        if self.table is not None:
            return self.table.to_pandas()
        if self.aggregate:
            return pd.DataFrame([self.columns])
        return pd.DataFrame(
            {name: _column(v, self.n) for name, v in self.columns.items()},
            index=pd.RangeIndex(self.n),
        )

    def csv_size(self) -> int:
        if self.table is None:
            return csvio.csv_size(list(self.columns.values()), self.n)
        # ``to_pandas`` gives back a pandas nullable-int column (Parquet's
        # pandas metadata) as ints, NULL empty, where other ints with a
        # NULL become floats.
        meta = self.table.schema.pandas_metadata or {}
        nullable = {
            c["name"] for c in meta.get("columns", [])
            if str(c.get("numpy_type")).startswith(("Int", "UInt"))
        }
        return csvio.csv_size([
            pc.cast(col, pa.string()) if name in nullable else col
            for name, col in zip(self.table.column_names, self.table.columns)
        ], self.n)


def _where(where, table: pa.Table, bounds: list) -> np.ndarray:
    """The positions of the rows of the batch ``table`` that ``where`` keeps.

    An AND chain is decided one conjunct at a time, in the order the SQL
    gives them, each only on the rows that every earlier one kept
    (``_Kept``): a row is kept where every conjunct is TRUE, as the
    chain's three-valued AND would keep it.
    """
    ev = _Evaluator(table, bounds)
    rows = None
    for c in _conjuncts(where):
        if rows is not None and len(kept) < ev.n:
            ev = _Kept(ev, kept)
        kept = np.flatnonzero(ev.mask(c))
        rows = kept if rows is None else rows[kept]
    return rows


def _run(query: Query, aggregate: bool, table: pa.Table, bounds: list) -> list:
    """One :class:`Result` per object of the batch ``table`` (see ``eval_query``)."""
    if query.where is not None:
        rows = _where(query.where, table, bounds)
        if len(rows) < table.num_rows:
            table = table.take(rows)
            bounds = np.searchsorted(rows, bounds).tolist()
    ev = _Evaluator(table, bounds)

    if aggregate:
        # Item by item, so that the memo can forget what no later item uses.
        objects, last_use = ev.objects(), _last_uses(query.items)
        columns = [{} for _ in objects]
        for i, it in enumerate(query.items):
            for obj, out in zip(objects, columns):
                out[it.alias or f"_{i + 1}"] = obj.eval(it.expr)
            ev.release(last_use, i)
        return [Result(c, 1, aggregate=True) for c in columns]

    # Rows are independent, so LIMIT can cut them before projecting.
    if query.limit is not None:
        ends = [min(hi, lo + query.limit) for lo, hi in _pairs(bounds)]
        if ends != bounds[1:]:
            table = pa.concat_tables(
                [table.slice(lo, end - lo) for lo, end in zip(bounds, ends)]
            )
            bounds = np.cumsum([0] + [end - lo for lo, end in zip(bounds, ends)]).tolist()
            ev = _Evaluator(table, bounds)
    if query.is_star:
        return [
            Result({}, hi - lo, table=table.slice(lo, hi - lo))
            for lo, hi in _pairs(bounds)
        ]

    names = [
        it.alias or (
            ev.colmap.get(it.expr.name.lower(), it.expr.name)
            if isinstance(it.expr, Column) else f"_{i + 1}"
        )
        for i, it in enumerate(query.items)
    ]
    values = [ev.eval(it.expr) for it in query.items]
    results = []
    for lo, hi in _pairs(bounds):
        if hi > lo:
            cut = [_cut(v, lo, hi) for v in values]
        else:  # an empty object's columns are typed by its own (no) rows
            alone = _Evaluator(table.slice(lo, 0))
            cut = [alone.eval(it.expr) for it in query.items]
        results.append(Result(dict(zip(names, cut)), hi - lo))
    return results


def eval_query(query: Query, table: pa.Table, bounds: list) -> list:
    """Run a parsed query over a batch of objects: one :class:`Result` per object.

    ``table`` holds the objects' rows back to back, as decoded by
    ``csvio`` or ``parquetio``; object ``i`` is rows ``bounds[i]:bounds[i
    + 1]`` (one object is ``[0, table.num_rows]``). Each object's
    :class:`Result` is the one that it alone gives
    (``Result.to_pandas()`` is its frame): an aggregate query's is
    exactly one row, a projection's its filtered, projected rows with
    ``LIMIT`` applied last. The batch is evaluated at once; if an object
    alone would type a value otherwise, it is evaluated again one object
    at a time.
    """
    aggregate = _check(query)
    bounds = [int(b) for b in bounds]
    try:
        return _run(query, aggregate, table, bounds)
    except _Ragged:
        return [
            _run(query, aggregate, table.slice(lo, hi - lo), [0, hi - lo])[0]
            for lo, hi in _pairs(bounds)
        ]
