"""Query fingerprinting: extract literal constants into parameters.

Decision-support traffic re-issues structurally identical queries with
different constants.  This module computes a *fingerprint* — a canonical
rendering of the query with every literal replaced by a ``?N`` marker —
so the service layer's plan cache (:mod:`repro.service`) can recognize
repeats without re-optimizing.

Normalization rules (documented for cache-key stability; see
``docs/ARCHITECTURE.md``):

* whitespace, SQL comments, and keyword case are irrelevant (the lexer
  discards them);
* number and string literals are replaced by positional ``?N`` markers,
  in source order, and collected as parameters;
* ``LIKE`` patterns are **not** parameterized — a pattern change alters
  selectivity structure, so it stays part of the fingerprint;
* ``HAVING`` literals and the ``LIMIT`` count are **not** parameterized
  either: cached plan templates bake the HAVING predicate and top-k
  operator into the plan tree, and only per-alias scan predicates can
  be overridden at execution time;
* identifiers (table names, aliases, columns) are significant and
  case-sensitive; ``x IN (1, 2)`` and ``x IN (1, 2, 3)`` differ (the
  marker count is part of the shape).

This is the only place a literal becomes a parameter.  A cache *hit*
needs nothing but :func:`fingerprint_sql`'s canonical text and
parameters (no recursive-descent parse, no binding).  A cache *miss*
parses the fingerprint's own tokens twice: as lexed, and as
:meth:`QueryFingerprint.template_tokens`, where each parameterized
literal is a ``parameter`` token the parser reads as a
:class:`~repro.expr.expressions.Parameter` placeholder — so the plan
template's parameters are the fingerprint's by construction.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.errors import SqlError
from repro.sql.lexer import Token, tokenize


@dataclasses.dataclass(frozen=True)
class QueryFingerprint:
    """Canonical shape of a query plus its extracted constants."""

    text: str
    parameters: tuple[object, ...]
    # The statement as lexed, and the index in it of each parameter's
    # literal token: what a plan-cache miss parses.
    tokens: list[Token] = dataclasses.field(repr=False, compare=False)
    slots: list[int] = dataclasses.field(repr=False, compare=False)

    @property
    def digest(self) -> str:
        """Stable short hash of the canonical text."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()[:16]

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    def template_tokens(self) -> list[Token]:
        """The token stream with parameter ``i``'s literal replaced by
        a ``parameter`` token ``?i``."""
        tokens = list(self.tokens)
        for index, slot in enumerate(self.slots):
            tokens[slot] = Token("parameter", f"?{index}", tokens[slot].position)
        return tokens


def fingerprint_sql(sql: str) -> QueryFingerprint:
    """Fingerprint SQL text from its token stream alone.

    >>> a = fingerprint_sql("SELECT COUNT(*) FROM t WHERE t.x = 5")
    >>> b = fingerprint_sql("select count(*)  from t where t.x = 99")
    >>> a.text == b.text
    True
    >>> (a.parameters, b.parameters)
    ((5,), (99,))
    """
    tokens = tokenize(sql)
    rendered: list[str] = []
    parameters: list[object] = []
    slots: list[int] = []
    previous: Token | None = None
    in_having = False
    for token in tokens:
        if token.is_keyword("having"):
            in_having = True
        elif token.kind == "keyword" and token.text in ("order", "limit"):
            in_having = False
        if token.kind in ("number", "string"):
            keep_literal = in_having or (
                previous is not None
                and (
                    previous.is_keyword("like")
                    or previous.is_keyword("limit")
                )
            )
            if keep_literal:
                # LIKE patterns, HAVING constants, and the LIMIT count
                # stay literal (see module docstring).
                if token.kind == "string":
                    escaped = token.text.replace("'", "''")
                    rendered.append(f"'{escaped}'")
                else:
                    rendered.append(token.text)
            else:
                slots.append(len(rendered))
                rendered.append(f"?{len(parameters)}")
                parameters.append(_literal_value(token))
        else:
            rendered.append(token.text)
        previous = token
    if not rendered:
        raise SqlError("empty query")
    return QueryFingerprint(
        text=" ".join(rendered),
        parameters=tuple(parameters),
        tokens=tokens,
        slots=slots,
    )


def _literal_value(token: Token) -> object:
    if token.kind == "string":
        return token.text
    return float(token.text) if "." in token.text else int(token.text)
