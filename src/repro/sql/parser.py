"""Recursive-descent parser producing an unbound SELECT AST.

Grammar (informal)::

    select     := SELECT item (',' item)*
                  FROM table_ref (',' table_ref)*
                  [WHERE expr]
                  [GROUP BY column (',' column)*]
                  [HAVING expr]
                  [ORDER BY order_key (',' order_key)*]
                  [LIMIT number]
    item       := agg_call [AS name] | column
    agg_call   := agg '(' (column | '*') ')'
    table_ref  := name [AS? name]
    order_key  := (agg_call | column) [ASC | DESC]
    expr       := or_expr
    or_expr    := and_expr (OR and_expr)*
    and_expr   := unary (AND unary)*
    unary      := NOT unary | '(' expr ')' | predicate
    predicate  := operand ( cmp operand
                          | [NOT] BETWEEN literal AND literal
                          | [NOT] IN '(' literal (',' literal)* ')'
                          | [NOT] LIKE string )
    operand    := qualified_column | literal
    literal    := number | string | parameter

A ``parameter`` token (``?i``) appears only in the template stream
:meth:`repro.sql.parameterize.QueryFingerprint.template_tokens` builds;
it parses to ``RawLiteral(Parameter(i))``.

Inside a HAVING expression an operand may also be an aggregate call
(``agg_call``), which refers to the aggregate-output domain.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SqlError
from repro.expr.expressions import Parameter
from repro.sql.lexer import Token, tokenize


@dataclasses.dataclass(frozen=True)
class RawColumn:
    """Possibly-qualified column name: ``qualifier.name`` or ``name``."""

    qualifier: str | None
    name: str


@dataclasses.dataclass(frozen=True)
class RawLiteral:
    value: object


@dataclasses.dataclass(frozen=True)
class RawComparison:
    op: str
    left: object
    right: object


@dataclasses.dataclass(frozen=True)
class RawBetween:
    operand: RawColumn
    low: RawLiteral
    high: RawLiteral
    negated: bool


@dataclasses.dataclass(frozen=True)
class RawIn:
    operand: RawColumn
    values: tuple[object, ...]
    negated: bool


@dataclasses.dataclass(frozen=True)
class RawLike:
    operand: RawColumn
    pattern: str
    negated: bool


@dataclasses.dataclass(frozen=True)
class RawAnd:
    operands: tuple[object, ...]


@dataclasses.dataclass(frozen=True)
class RawOr:
    operands: tuple[object, ...]


@dataclasses.dataclass(frozen=True)
class RawNot:
    operand: object


@dataclasses.dataclass(frozen=True)
class RawAggregate:
    """An aggregate call used as an operand (HAVING / ORDER BY only)."""

    function: str
    argument: RawColumn | None  # None => COUNT(*)


@dataclasses.dataclass(frozen=True)
class RawOrderKey:
    """One ORDER BY key: a column or aggregate call plus direction."""

    target: object              # RawColumn | RawAggregate
    ascending: bool


@dataclasses.dataclass(frozen=True)
class SelectItem:
    """Either an aggregate (function set) or a bare column."""

    function: str | None       # None => bare column
    argument: RawColumn | None # None with function => COUNT(*)
    alias: str | None


@dataclasses.dataclass(frozen=True)
class TableRef:
    table: str
    alias: str


@dataclasses.dataclass(frozen=True)
class SelectStatement:
    items: tuple[SelectItem, ...]
    tables: tuple[TableRef, ...]
    where: object | None
    group_by: tuple[RawColumn, ...]
    having: object | None = None
    order_by: tuple[RawOrderKey, ...] = ()
    limit: int | None = None


_AGGREGATE_KEYWORDS = ("count", "sum", "min", "max", "avg")


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._index = 0
        self._in_having = False

    # -- token plumbing -------------------------------------------------

    def _peek(self) -> Token | None:
        if self._index < len(self._tokens):
            return self._tokens[self._index]
        return None

    def _eof_position(self) -> int | None:
        if self._tokens:
            last = self._tokens[-1]
            return last.position + len(last.text)
        return None

    def _next(self) -> Token:
        token = self._peek()
        if token is None:
            raise SqlError("unexpected end of input", self._eof_position())
        self._index += 1
        return token

    def _accept_keyword(self, word: str) -> bool:
        token = self._peek()
        if token is not None and token.is_keyword(word):
            self._index += 1
            return True
        return False

    def _expect_keyword(self, word: str) -> Token:
        token = self._next()
        if not token.is_keyword(word):
            raise SqlError(
                f"expected {word.upper()}, got {token.text!r}", token.position
            )
        return token

    def _accept(self, kind: str) -> Token | None:
        token = self._peek()
        if token is not None and token.kind == kind:
            self._index += 1
            return token
        return None

    def _expect(self, kind: str) -> Token:
        token = self._next()
        if token.kind != kind:
            raise SqlError(f"expected {kind}, got {token.text!r}", token.position)
        return token

    # -- grammar --------------------------------------------------------

    def parse(self) -> SelectStatement:
        self._expect_keyword("select")
        items = [self._select_item()]
        while self._accept("comma"):
            items.append(self._select_item())
        self._expect_keyword("from")
        tables = [self._table_ref()]
        while self._accept("comma"):
            tables.append(self._table_ref())
        where = None
        if self._accept_keyword("where"):
            where = self._expr()
        group_by: list[RawColumn] = []
        if self._accept_keyword("group"):
            self._expect_keyword("by")
            group_by.append(self._qualified_column())
            while self._accept("comma"):
                group_by.append(self._qualified_column())
        having = None
        if self._accept_keyword("having"):
            self._in_having = True
            try:
                having = self._expr()
            finally:
                self._in_having = False
        order_by: list[RawOrderKey] = []
        if self._accept_keyword("order"):
            self._expect_keyword("by")
            order_by.append(self._order_key())
            while self._accept("comma"):
                order_by.append(self._order_key())
        limit = None
        if self._accept_keyword("limit"):
            limit = self._limit_count()
        trailing = self._peek()
        if trailing is not None:
            raise SqlError(
                f"unexpected trailing input {trailing.text!r}", trailing.position
            )
        return SelectStatement(
            items=tuple(items),
            tables=tuple(tables),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
        )

    def _at_aggregate_call(self) -> bool:
        token = self._peek()
        return (
            token is not None
            and token.kind == "keyword"
            and token.text in _AGGREGATE_KEYWORDS
        )

    def _aggregate_call(self) -> RawAggregate:
        function = self._next().text
        self._expect("lparen")
        if self._accept("star"):
            argument = None
        else:
            argument = self._qualified_column()
        self._expect("rparen")
        return RawAggregate(function=function, argument=argument)

    def _select_item(self) -> SelectItem:
        if self._at_aggregate_call():
            call = self._aggregate_call()
            alias = self._optional_alias()
            return SelectItem(
                function=call.function, argument=call.argument, alias=alias
            )
        column = self._qualified_column()
        alias = self._optional_alias()
        return SelectItem(function=None, argument=column, alias=alias)

    def _order_key(self) -> RawOrderKey:
        target: object
        if self._at_aggregate_call():
            target = self._aggregate_call()
        else:
            target = self._qualified_column()
        ascending = True
        if self._accept_keyword("asc"):
            ascending = True
        elif self._accept_keyword("desc"):
            ascending = False
        return RawOrderKey(target=target, ascending=ascending)

    def _limit_count(self) -> int:
        token = self._next()
        if token.kind != "number" or "." in token.text:
            raise SqlError(
                f"LIMIT expects an integer count, got {token.text!r}",
                token.position,
            )
        count = int(token.text)
        if count < 0:
            raise SqlError(
                f"LIMIT count must be non-negative, got {token.text!r}",
                token.position,
            )
        return count

    def _optional_alias(self) -> str | None:
        if self._accept_keyword("as"):
            return self._expect("identifier").text
        token = self._peek()
        if token is not None and token.kind == "identifier":
            self._index += 1
            return token.text
        return None

    def _table_ref(self) -> TableRef:
        table = self._expect("identifier").text
        if self._accept_keyword("as"):
            alias = self._expect("identifier").text
        else:
            token = self._peek()
            if token is not None and token.kind == "identifier":
                alias = self._next().text
            else:
                alias = table
        return TableRef(table=table, alias=alias)

    def _qualified_column(self) -> RawColumn:
        first = self._expect("identifier").text
        if self._accept("dot"):
            second = self._expect("identifier").text
            return RawColumn(qualifier=first, name=second)
        return RawColumn(qualifier=None, name=first)

    # expressions

    def _expr(self) -> object:
        return self._or_expr()

    def _or_expr(self) -> object:
        operands = [self._and_expr()]
        while self._accept_keyword("or"):
            operands.append(self._and_expr())
        if len(operands) == 1:
            return operands[0]
        return RawOr(tuple(operands))

    def _and_expr(self) -> object:
        operands = [self._unary()]
        while self._accept_keyword("and"):
            operands.append(self._unary())
        if len(operands) == 1:
            return operands[0]
        return RawAnd(tuple(operands))

    def _unary(self) -> object:
        if self._accept_keyword("not"):
            return RawNot(self._unary())
        if self._accept("lparen"):
            inner = self._expr()
            self._expect("rparen")
            return inner
        return self._predicate()

    def _predicate(self) -> object:
        anchor = self._peek()
        left = self._operand()
        negated = self._accept_keyword("not")
        if self._accept_keyword("between"):
            low = self._literal()
            self._expect_keyword("and")
            high = self._literal()
            if not isinstance(left, RawColumn):
                raise SqlError(
                    f"BETWEEN requires a column operand, got {anchor.text!r}",
                    anchor.position,
                )
            return RawBetween(left, low, high, negated)
        if self._accept_keyword("in"):
            self._expect("lparen")
            values = [self._literal().value]
            while self._accept("comma"):
                values.append(self._literal().value)
            self._expect("rparen")
            if not isinstance(left, RawColumn):
                raise SqlError(
                    f"IN requires a column operand, got {anchor.text!r}",
                    anchor.position,
                )
            return RawIn(left, tuple(values), negated)
        if self._accept_keyword("like"):
            pattern = self._expect("string").text
            if not isinstance(left, RawColumn):
                raise SqlError(
                    f"LIKE requires a column operand, got {anchor.text!r}",
                    anchor.position,
                )
            return RawLike(left, pattern, negated)
        if negated:
            follower = self._peek()
            if follower is None:
                raise SqlError(
                    "NOT must precede BETWEEN / IN / LIKE", self._eof_position()
                )
            raise SqlError(
                f"NOT must precede BETWEEN / IN / LIKE, got {follower.text!r}",
                follower.position,
            )
        op_token = self._expect("op")
        right = self._operand()
        return RawComparison(op=op_token.text, left=left, right=right)

    def _operand(self) -> object:
        token = self._peek()
        if token is None:
            raise SqlError("unexpected end of input", self._eof_position())
        if self._in_having and self._at_aggregate_call():
            return self._aggregate_call()
        if token.kind == "identifier":
            return self._qualified_column()
        return self._literal()

    def _literal(self) -> RawLiteral:
        token = self._next()
        if token.kind == "number":
            text = token.text
            value: object = float(text) if "." in text else int(text)
            return RawLiteral(value)
        if token.kind == "string":
            return RawLiteral(token.text)
        if token.kind == "parameter":
            return RawLiteral(Parameter(int(token.text[1:])))
        raise SqlError(f"expected literal, got {token.text!r}", token.position)


def parse_select(sql: str) -> SelectStatement:
    """Parse SQL text into an unbound SELECT AST."""
    return parse_tokens(tokenize(sql))


def parse_tokens(tokens: list[Token]) -> SelectStatement:
    """Parse an already-lexed statement into an unbound SELECT AST."""
    return _Parser(tokens).parse()
