"""Query fingerprinting: normalization rules and parameter extraction."""

from __future__ import annotations

import pytest

from repro.errors import SqlError
from repro.expr.expressions import Parameter
from repro.sql.parameterize import fingerprint_sql
from repro.sql.parser import (
    RawAnd,
    RawBetween,
    RawComparison,
    RawIn,
    RawLike,
    RawLiteral,
    parse_select,
    parse_tokens,
)


def test_constants_do_not_change_fingerprint():
    a = fingerprint_sql(
        "SELECT COUNT(*) FROM t WHERE t.x = 5 AND t.name = 'foo'"
    )
    b = fingerprint_sql(
        "SELECT COUNT(*) FROM t WHERE t.x = 99 AND t.name = 'bar'"
    )
    assert a.text == b.text
    assert a.digest == b.digest
    assert a.parameters == (5, "foo")
    assert b.parameters == (99, "bar")


def test_whitespace_case_and_comments_do_not_change_fingerprint():
    a = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x = 1")
    b = fingerprint_sql(
        "select  count(*)\n  from t -- a comment\n where t.x   = 2"
    )
    assert a.text == b.text


def test_structure_changes_fingerprint():
    base = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x = 1")
    other_column = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.y = 1")
    other_op = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x < 1")
    other_table = fingerprint_sql("SELECT COUNT(*) FROM u WHERE u.x = 1")
    texts = {base.text, other_column.text, other_op.text, other_table.text}
    assert len(texts) == 4


def test_in_list_arity_is_part_of_the_shape():
    two = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x IN (1, 2)")
    three = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x IN (1, 2, 3)")
    assert two.text != three.text
    assert two.parameters == (1, 2)
    assert three.parameters == (1, 2, 3)


def test_like_patterns_stay_literal():
    a = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.name LIKE 'A%'")
    b = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.name LIKE 'B%'")
    assert a.text != b.text
    assert a.parameters == ()


def test_between_and_floats_extract_in_source_order():
    fp = fingerprint_sql(
        "SELECT COUNT(*) FROM t WHERE t.a BETWEEN 1 AND 2 AND t.b = 3.5"
    )
    assert fp.parameters == (1, 2, 3.5)


def test_empty_query_rejected():
    with pytest.raises(SqlError):
        fingerprint_sql("   -- nothing here\n")


def _literals(raw):
    """Every literal value in a WHERE / HAVING tree, in source order."""
    if isinstance(raw, RawLiteral):
        yield raw.value
    elif isinstance(raw, RawAnd):
        for operand in raw.operands:
            yield from _literals(operand)
    elif isinstance(raw, RawComparison):
        yield from _literals(raw.left)
        yield from _literals(raw.right)
    elif isinstance(raw, RawBetween):
        yield raw.low.value
        yield raw.high.value
    elif isinstance(raw, RawIn):
        yield from raw.values
    elif isinstance(raw, RawLike):
        yield raw.pattern


def test_template_statement_has_no_remaining_literals():
    sql = (
        "SELECT COUNT(*) FROM t WHERE t.x = 5 AND t.y IN (1, 2) "
        "AND t.z BETWEEN 'a' AND 'b'"
    )
    fp = fingerprint_sql(sql)
    template = parse_tokens(fp.template_tokens())
    values = list(_literals(template.where))
    # Every literal in the template is a Parameter marker, numbered in
    # source order, and the fingerprint's parameters fill them.
    assert values == [Parameter(i) for i in range(5)]
    assert fp.parameters == (5, 1, 2, "a", "b")
    # The tokens as lexed still parse to the statement itself.
    assert parse_tokens(fp.tokens) == parse_select(sql)


def test_like_having_and_limit_literals_stay_literal_in_the_template():
    sql = (
        "SELECT t.g, COUNT(*) AS cnt FROM t WHERE t.x = 5 "
        "AND t.name LIKE 'A%' GROUP BY t.g HAVING COUNT(*) > 3 "
        "ORDER BY t.g LIMIT 7"
    )
    fp = fingerprint_sql(sql)
    assert fp.parameters == (5,)
    template = parse_tokens(fp.template_tokens())
    statement = parse_select(sql)
    assert list(_literals(template.where)) == [Parameter(0), "A%"]
    assert template.having == statement.having
    assert list(_literals(template.having)) == [3]
    assert template.limit == statement.limit == 7
