"""Tokenizer + recursive-descent parser for the S3 Select SQL subset.

Grammar (standard precedence: OR < AND < NOT < comparison < additive <
multiplicative < unary < primary)::

    query     := SELECT select_list FROM table (WHERE expr)? (LIMIT int)?
    select_list := '*' | item (',' item)*
    item      := expr (AS? ident)?
    table     := 'S3Object' (AS? ident)?      -- S3 Select's fixed table name
    primary   := literal | column | '(' expr ')' | CAST '(' expr AS type ')'
               | SUBSTRING '(' expr ',' expr (',' expr)? ')'
               | func '(' (expr (',' expr)* | '*') ')' | CASE ... END

Anything S3 Select cannot do -- GROUP BY, ORDER BY, JOIN, DISTINCT,
subqueries, bitwise operators -- raises :class:`SqlSyntaxError` with a
message naming the unsupported feature, so callers cannot silently lean
on capabilities the real service lacks.
"""
from __future__ import annotations

import re

from repro.s3sim.sql_ast import (
    Between, BinOp, Case, Cast, Column, Func, InList, IsNull, Like, Literal,
    Query, SelectItem, Star, Substring, UnaryOp, AGG_FUNCS,
)


class SqlSyntaxError(ValueError):
    """Raised for malformed SQL or features outside the S3 Select subset."""


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)
  | (?P<string>'[^']*(?:''[^']*)*')  # '' is an escaped quote; unrolled, no per-char alternation
  | (?P<qident>"[^"]+")
  | (?P<ident>[A-Za-z_][A-Za-z_0-9$]*)
  | (?P<op><>|!=|<=|>=|=|<|>|\+|-|\*|/|%|\(|\)|,|\.)
    """,
    re.VERBOSE,
)

_UNSUPPORTED_KEYWORDS = {
    "GROUP": "GROUP BY is not supported by S3 Select",
    "ORDER": "ORDER BY is not supported by S3 Select",
    "JOIN": "JOIN is not supported by S3 Select",
    "DISTINCT": "DISTINCT is not supported by S3 Select",
    "HAVING": "HAVING is not supported by S3 Select",
    "UNION": "UNION is not supported by S3 Select",
}

_CAST_TYPES = {"INT", "INTEGER", "BIGINT", "FLOAT", "DOUBLE", "DECIMAL",
               "NUMERIC", "STRING", "CHAR", "VARCHAR", "TIMESTAMP", "BOOL"}


def tokenize(sql: str) -> list[tuple[str, str]]:
    """Split ``sql`` into ``(kind, text)`` tokens; raises on junk."""
    tokens: list[tuple[str, str]] = []
    pos = 0
    while pos < len(sql):
        m = _TOKEN_RE.match(sql, pos)
        if m is None:
            raise SqlSyntaxError(f"unexpected character {sql[pos]!r} at offset {pos}")
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append((kind, m.group()))
    tokens.append(("eof", ""))
    return tokens


class _Parser:
    def __init__(self, sql: str):
        self.tokens = tokenize(sql)
        self.i = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_kw(self, *words: str) -> bool:
        kind, text = self.peek()
        return kind == "ident" and text.upper() in words

    def expect_kw(self, word: str) -> None:
        if not self.at_kw(word):
            raise SqlSyntaxError(f"expected {word}, got {self.peek()[1]!r}")
        self.next()

    def accept_kw(self, *words: str) -> bool:
        if self.at_kw(*words):
            self.next()
            return True
        return False

    def expect_op(self, op: str) -> None:
        kind, text = self.peek()
        if kind != "op" or text != op:
            raise SqlSyntaxError(f"expected {op!r}, got {text!r}")
        self.next()

    def accept_op(self, op: str) -> bool:
        kind, text = self.peek()
        if kind == "op" and text == op:
            self.next()
            return True
        return False

    def _check_unsupported(self) -> None:
        kind, text = self.peek()
        if kind == "ident" and text.upper() in _UNSUPPORTED_KEYWORDS:
            raise SqlSyntaxError(_UNSUPPORTED_KEYWORDS[text.upper()])

    # -- grammar ----------------------------------------------------------

    def parse_query(self) -> Query:
        self.expect_kw("SELECT")
        self._check_unsupported()
        items = self.select_list()
        self.expect_kw("FROM")
        self.table()
        where = None
        if self.accept_kw("WHERE"):
            where = self.expr()
        limit = None
        if self.accept_kw("LIMIT"):
            kind, text = self.next()
            if kind != "number" or "." in text:
                raise SqlSyntaxError(f"LIMIT expects an integer, got {text!r}")
            limit = int(text)
        self._check_unsupported()
        kind, text = self.peek()
        if kind != "eof":
            raise SqlSyntaxError(f"trailing input at {text!r}")
        return Query(items=items, where=where, limit=limit)

    def select_list(self) -> list[SelectItem]:
        if self.accept_op("*"):
            return [SelectItem(Star())]
        items = [self.select_item()]
        while self.accept_op(","):
            items.append(self.select_item())
        return items

    def select_item(self) -> SelectItem:
        expr = self.expr()
        alias = None
        if self.accept_kw("AS"):
            alias = self._ident("alias")
        elif self.peek()[0] in ("ident", "qident") and not self.at_kw("FROM"):
            alias = self._ident("alias")
        return SelectItem(expr, alias)

    def table(self) -> None:
        name = self._ident("table name")
        if name.lower() != "s3object":
            raise SqlSyntaxError(
                f"S3 Select queries read from 'S3Object', got {name!r}"
            )
        # Optional alias (commonly "s"); the evaluator ignores it.
        if self.accept_kw("AS"):
            self._ident("table alias")
        elif self.peek()[0] == "ident" and not self.at_kw("WHERE", "LIMIT"):
            self._check_unsupported()
            self._ident("table alias")

    def _ident(self, what: str) -> str:
        kind, text = self.peek()
        if kind == "qident":
            self.next()
            return text[1:-1]
        if kind == "ident":
            self._check_unsupported()
            self.next()
            return text
        raise SqlSyntaxError(f"expected {what}, got {text!r}")

    # expressions, lowest to highest precedence

    def expr(self):
        left = self.and_expr()
        while self.at_kw("OR"):
            self.next()
            left = BinOp("OR", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.at_kw("AND"):
            self.next()
            left = BinOp("AND", left, self.not_expr())
        return left

    def not_expr(self):
        if self.at_kw("NOT"):
            self.next()
            return UnaryOp("NOT", self.not_expr())
        return self.comparison()

    def comparison(self):
        left = self.additive()
        kind, text = self.peek()
        if kind == "op" and text in ("=", "!=", "<>", "<", "<=", ">", ">="):
            self.next()
            op = "!=" if text == "<>" else text
            return BinOp(op, left, self.additive())
        if self.at_kw("IS"):
            self.next()
            negated = self.accept_kw("NOT")
            if not self.accept_kw("NULL"):
                raise SqlSyntaxError("expected NULL after IS [NOT]")
            return IsNull(left, negated)
        negated = False
        if self.at_kw("NOT"):
            # NOT BETWEEN / NOT IN / NOT LIKE
            self.next()
            negated = True
            if not self.at_kw("BETWEEN", "IN", "LIKE"):
                raise SqlSyntaxError("expected BETWEEN/IN/LIKE after NOT")
        if self.accept_kw("BETWEEN"):
            low = self.additive()
            self.expect_kw("AND")
            high = self.additive()
            return Between(left, low, high, negated)
        if self.accept_kw("IN"):
            self.expect_op("(")
            items = [self.additive()]
            while self.accept_op(","):
                items.append(self.additive())
            self.expect_op(")")
            return InList(left, tuple(items), negated)
        if self.accept_kw("LIKE"):
            kind, text = self.next()
            if kind != "string":
                raise SqlSyntaxError("LIKE expects a string literal pattern")
            return Like(left, text[1:-1].replace("''", "'"), negated)
        return left

    def additive(self):
        left = self.multiplicative()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in ("+", "-"):
                self.next()
                left = BinOp(text, left, self.multiplicative())
            else:
                return left

    def multiplicative(self):
        left = self.unary()
        while True:
            kind, text = self.peek()
            if kind == "op" and text in ("*", "/", "%"):
                self.next()
                left = BinOp(text, left, self.unary())
            else:
                return left

    def unary(self):
        kind, text = self.peek()
        if kind == "op" and text in ("-", "+"):
            self.next()
            return UnaryOp(text, self.unary())
        return self.primary()

    def primary(self):
        kind, text = self.peek()
        if kind == "number":
            self.next()
            is_float = "." in text or "e" in text or "E" in text
            return Literal(float(text) if is_float else int(text))
        if kind == "string":
            self.next()
            return Literal(text[1:-1].replace("''", "'"))
        if kind == "op" and text == "(":
            self.next()
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "qident":
            self.next()
            return self._maybe_qualified(Column(text[1:-1]))
        if kind == "ident":
            self._check_unsupported()
            upper = text.upper()
            if upper == "NULL":
                self.next()
                return Literal(None)
            if upper == "CAST":
                return self.cast()
            if upper == "SUBSTRING":
                return self.substring()
            if upper == "CASE":
                return self.case()
            # function call or bare column
            if self.tokens[self.i + 1] == ("op", "("):
                return self.func(text)
            self.next()
            return self._maybe_qualified(Column(text))
        raise SqlSyntaxError(f"unexpected token {text!r}")

    def _maybe_qualified(self, col: Column) -> Column:
        """Strip a table qualifier: ``s.col`` / ``S3Object.col`` -> ``col``."""
        if self.peek() == ("op", "."):
            self.next()
            return Column(self._ident("column name"))
        return col

    def cast(self):
        self.expect_kw("CAST")
        self.expect_op("(")
        e = self.expr()
        self.expect_kw("AS")
        t = self._ident("type name").upper()
        if t not in _CAST_TYPES:
            raise SqlSyntaxError(f"unsupported CAST type {t!r}")
        # Optional precision, e.g. DECIMAL(10, 2) -- accepted and ignored.
        if self.accept_op("("):
            while not self.accept_op(")"):
                self.next()
        self.expect_op(")")
        return Cast(e, t)

    def substring(self):
        self.expect_kw("SUBSTRING")
        self.expect_op("(")
        e = self.expr()
        self.expect_op(",")
        start = self.expr()
        length = None
        if self.accept_op(","):
            length = self.expr()
        self.expect_op(")")
        return Substring(e, start, length)

    def case(self):
        self.expect_kw("CASE")
        whens = []
        while self.accept_kw("WHEN"):
            cond = self.expr()
            self.expect_kw("THEN")
            whens.append((cond, self.expr()))
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN")
        else_ = None
        if self.accept_kw("ELSE"):
            else_ = self.expr()
        self.expect_kw("END")
        return Case(tuple(whens), else_)

    def func(self, name: str):
        upper = name.upper()
        known = AGG_FUNCS | {"UPPER", "LOWER", "ABS"}
        if upper not in known:
            raise SqlSyntaxError(f"unsupported function {name!r}")
        self.next()  # name
        self.expect_op("(")
        if upper == "COUNT" and self.accept_op("*"):
            self.expect_op(")")
            return Func("COUNT", star=True)
        args = [self.expr()]
        while self.accept_op(","):
            args.append(self.expr())
        self.expect_op(")")
        return Func(upper, tuple(args))


def parse(sql: str) -> Query:
    """Parse one S3 Select query string into a :class:`Query`."""
    return _Parser(sql).parse_query()
