"""Minimal SQL front-end.

Covers the decision-support subset the paper's experiments need:
``SELECT`` with aggregates, implicit-join ``FROM`` lists with aliases,
``WHERE`` conjunctions of equi-joins and column-vs-literal predicates
(``=, <>, <, <=, >, >=, BETWEEN, IN, LIKE``, plus ``OR``/``NOT``
sub-expressions on a single table), and ``GROUP BY``.

``parse_query`` goes from SQL text to a bound
:class:`repro.query.spec.QuerySpec` validated against a database.
"""

from repro.sql.lexer import tokenize, Token
from repro.sql.parser import parse_select, SelectStatement
from repro.sql.binder import bind_select, parse_query
from repro.sql.parameterize import QueryFingerprint, fingerprint_sql

__all__ = [
    "tokenize",
    "Token",
    "parse_select",
    "SelectStatement",
    "bind_select",
    "parse_query",
    "QueryFingerprint",
    "fingerprint_sql",
]
