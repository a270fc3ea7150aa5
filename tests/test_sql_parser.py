"""Unit tests for the S3 Select SQL parser (accept + reject sets)."""
import re

import pytest
from hypothesis import given, settings, strategies as hst

from repro.s3sim import sql_ast as A
from repro.s3sim.sql_parser import _TOKEN_RE, SqlSyntaxError, parse, tokenize

# The string-literal pattern that the tokenizer's unrolled one must equal.
_ALTERNATION = re.compile(r"'(?:[^']|'')*'")


# -- tokenizer -------------------------------------------------------------

def test_tokenize_basics():
    toks = tokenize("SELECT a FROM S3Object")
    assert toks[0] == ("ident", "SELECT")
    assert toks[-1] == ("eof", "")


def test_tokenize_operators():
    kinds = [t for t in tokenize("a <> b != c <= >=") if t[0] == "op"]
    assert ("op", "<>") in kinds and ("op", "!=") in kinds


def test_tokenize_string_with_escaped_quote():
    toks = tokenize("'it''s'")
    assert toks[0] == ("string", "'it''s'")


def test_tokenize_rejects_junk():
    with pytest.raises(SqlSyntaxError, match="unexpected character"):
        tokenize("SELECT a ; DROP")


# -- accepted queries ------------------------------------------------------

@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM S3Object",
        "SELECT a FROM S3Object",
        "SELECT a, b FROM S3Object",
        "SELECT a AS x FROM S3Object",
        "SELECT a x FROM S3Object",
        'SELECT "a" FROM S3Object',
        "SELECT s.a FROM S3Object s",
        "SELECT s.a FROM S3Object AS s",
        "SELECT S3Object.a FROM S3Object",
        "select a from s3object",  # case-insensitive keywords
        "SELECT a FROM S3Object WHERE a = 1",
        "SELECT a FROM S3Object WHERE a = 'x'",
        "SELECT a FROM S3Object WHERE a < 'b' AND b > 2 OR NOT c = 3",
        "SELECT a FROM S3Object WHERE (a = 1 OR b = 2) AND c != 3",
        "SELECT a FROM S3Object WHERE a <> 1",
        "SELECT a FROM S3Object WHERE a IS NULL",
        "SELECT a FROM S3Object WHERE a IS NOT NULL",
        "SELECT a FROM S3Object WHERE a BETWEEN 1 AND 5",
        "SELECT a FROM S3Object WHERE a NOT BETWEEN 1 AND 5",
        "SELECT a FROM S3Object WHERE a IN (1, 2, 3)",
        "SELECT a FROM S3Object WHERE a NOT IN ('x', 'y')",
        "SELECT a FROM S3Object WHERE a LIKE 'PROMO%'",
        "SELECT a FROM S3Object WHERE a NOT LIKE '%x_y%'",
        "SELECT CAST(a AS INT) FROM S3Object",
        "SELECT CAST(a AS DECIMAL(10,2)) FROM S3Object",
        "SELECT CAST(a AS FLOAT) + 1 * 2 - 3 / 4 FROM S3Object",
        "SELECT (a + b) % 97 FROM S3Object",
        "SELECT -a, +b FROM S3Object",
        "SELECT SUBSTRING('101', 2, 1) FROM S3Object",
        "SELECT SUBSTRING(a, 1) FROM S3Object",
        "SELECT CASE WHEN a = 1 THEN b ELSE 0 END FROM S3Object",
        "SELECT CASE WHEN a = 1 THEN 1 WHEN a = 2 THEN 2 END FROM S3Object",
        "SELECT SUM(a), COUNT(*), AVG(b), MIN(c), MAX(c) FROM S3Object",
        "SELECT SUM(CASE WHEN g = 1 THEN v ELSE 0 END) FROM S3Object",
        "SELECT COUNT(a) FROM S3Object WHERE a > 0",
        "SELECT UPPER(a), LOWER(b), ABS(c) FROM S3Object",
        "SELECT a FROM S3Object LIMIT 10",
        "SELECT a FROM S3Object WHERE a = 1 LIMIT 5",
        "SELECT a FROM S3Object WHERE a = NULL",
        "SELECT a FROM S3Object WHERE SUBSTRING('10', ((3 * CAST(a AS INT) + 1) % 7) % 2 + 1, 1) = '1'",
    ],
)
def test_parses(sql):
    q = parse(sql)
    assert isinstance(q, A.Query)


# -- structure spot-checks -------------------------------------------------

def test_star_query():
    assert parse("SELECT * FROM S3Object").is_star


def test_alias_captured():
    q = parse("SELECT a AS x FROM S3Object")
    assert q.items[0].alias == "x"


def test_limit_captured():
    assert parse("SELECT a FROM S3Object LIMIT 7").limit == 7


def test_where_tree():
    q = parse("SELECT a FROM S3Object WHERE a < 3 AND b = 'x'")
    assert isinstance(q.where, A.BinOp) and q.where.op == "AND"


def test_precedence_mul_over_add():
    q = parse("SELECT 1 + 2 * 3 FROM S3Object")
    e = q.items[0].expr
    assert e.op == "+" and e.right.op == "*"


def test_precedence_and_over_or():
    q = parse("SELECT a FROM S3Object WHERE a = 1 OR b = 2 AND c = 3")
    assert q.where.op == "OR" and q.where.right.op == "AND"


def test_neq_normalized():
    q = parse("SELECT a FROM S3Object WHERE a <> 1")
    assert q.where.op == "!="


def test_qualified_column_stripped():
    q = parse("SELECT s.a FROM S3Object s")
    assert q.items[0].expr == A.Column("a")


def test_count_star():
    q = parse("SELECT COUNT(*) FROM S3Object")
    assert q.items[0].expr.star


def test_contains_aggregate_detection():
    q = parse("SELECT SUM(CASE WHEN a = 1 THEN b ELSE 0 END) FROM S3Object")
    assert A.contains_aggregate(q.items[0].expr)
    q2 = parse("SELECT a + 1 FROM S3Object")
    assert not A.contains_aggregate(q2.items[0].expr)


def test_referenced_columns():
    q = parse("SELECT a, SUM(b) FROM S3Object WHERE c > 1 AND d LIKE 'x%'")
    assert A.referenced_columns(q) == {"a", "b", "c", "d"}


def test_referenced_columns_star_is_empty_set():
    assert A.referenced_columns(parse("SELECT * FROM S3Object")) == set()


# -- rejected: outside the S3 Select dialect -------------------------------

@pytest.mark.parametrize(
    "sql,msg",
    [
        ("SELECT a FROM S3Object GROUP BY a", "GROUP BY"),
        ("SELECT a FROM S3Object ORDER BY a", "ORDER BY"),
        ("SELECT DISTINCT a FROM S3Object", "DISTINCT"),
        ("SELECT a FROM S3Object JOIN t", "JOIN"),
        ("SELECT a FROM S3Object WHERE a = 1 HAVING b = 2", "HAVING"),
        ("SELECT a FROM S3Object UNION SELECT b FROM S3Object", "UNION"),
    ],
)
def test_rejects_unsupported_features(sql, msg):
    with pytest.raises(SqlSyntaxError, match=msg):
        parse(sql)


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT FROM S3Object",
        "SELECT a",
        "SELECT a FROM other_table",
        "SELECT a FROM S3Object WHERE",
        "SELECT a FROM S3Object LIMIT x",
        "SELECT a FROM S3Object LIMIT 1.5",
        "SELECT CAST(a AS BLOB) FROM S3Object",
        "SELECT FOO(a) FROM S3Object",
        "SELECT CASE END FROM S3Object",
        "SELECT a FROM S3Object trailing junk here",
        "SELECT a FROM S3Object WHERE a IS 1",
        "SELECT a FROM S3Object WHERE a LIKE 5",
        "SELECT SUBSTRING() FROM S3Object",
    ],
)
def test_rejects_malformed(sql):
    with pytest.raises(SqlSyntaxError):
        parse(sql)


@pytest.mark.parametrize("literal", [
    "''", "'a'", "''''", "'it''s'", "'a''''b'", "'" + "01" * 25_000 + "'",
    "'" + "0''1" * 12_500 + "'",
])
def test_string_literal_tokens(literal):
    """A string literal is one token, ``''`` escapes included, however long."""
    sql = f"SELECT a FROM S3Object WHERE SUBSTRING({literal}, 2, 1) = '1'"
    tokens = tokenize(sql)
    assert ("string", literal) in tokens
    assert tokens[-3:] == [("op", "="), ("string", "'1'"), ("eof", "")]


def test_unterminated_string_is_junk():
    with pytest.raises(SqlSyntaxError, match="unexpected character"):
        tokenize("SELECT 'abc FROM S3Object")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=hst.text(alphabet="'a0 ,", max_size=12))
def test_string_token_is_the_alternation_pattern_match(text):
    """The unrolled literal pattern matches what ``'(?:[^']|'')*'`` matches."""
    for start in range(len(text)):
        m = _TOKEN_RE.match(text, start)
        want = _ALTERNATION.match(text, start)
        got = m if m is not None and m.lastgroup == "string" else None
        assert (got and got.group()) == (want and want.group())
