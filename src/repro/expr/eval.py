"""Vectorized evaluation of predicate expressions.

The evaluator operates over a *column provider*: a callable mapping
``(alias, column)`` to a numpy array.  All relations in scope must have
the same row count (the executor guarantees this by construction).
"""

from __future__ import annotations

import dataclasses
import functools
import re
from typing import Callable

import numpy as np

from repro.errors import ExecutionError
from repro.expr.expressions import (
    And,
    Between,
    ColumnRef,
    Comparison,
    Expression,
    InList,
    Like,
    Literal,
    Not,
    Or,
    referenced_columns,
    structural_key,
)

ColumnProvider = Callable[[str, str], np.ndarray]


@functools.lru_cache(maxsize=1024)
def like_to_regex(pattern: str) -> re.Pattern:
    """Translate a SQL LIKE pattern to an anchored regular expression.

    ``%`` matches any run of characters, ``_`` matches one character
    (newlines included), everything else is literal; the pattern must
    cover the whole value, so match with ``regex.match``.
    """
    parts: list[str] = []
    for character in pattern:
        if character == "%":
            parts.append(".*")
        elif character == "_":
            parts.append(".")
        else:
            parts.append(re.escape(character))
    return re.compile("".join(parts) + r"\Z", re.DOTALL)


def _eval_value(expression: Expression, provider: ColumnProvider,
                num_rows: int) -> np.ndarray | object:
    """Evaluate a value expression: column arrays or scalar literals."""
    if isinstance(expression, ColumnRef):
        return provider(expression.alias, expression.column)
    if isinstance(expression, Literal):
        return expression.value
    raise ExecutionError(f"expected value expression, got {type(expression).__name__}")


def _compare(op: str, left, right) -> np.ndarray:
    if op == "=":
        return left == right
    if op == "<>":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise ExecutionError(f"unknown comparison operator {op!r}")


def _match_like(values: np.ndarray, pattern: str) -> np.ndarray:
    match = like_to_regex(pattern).match
    # Object arrays of Python strings: one regex match per element.
    # Scans of stored text columns reach this once per *distinct* value
    # (see ``lower_to_dictionaries``), not once per row.
    return np.fromiter(
        (match(value) is not None for value in values),
        dtype=bool,
        count=len(values),
    )


def evaluate_predicate(
    expression: Expression, provider: ColumnProvider, num_rows: int,
    codes=None,
) -> np.ndarray:
    """Evaluate a boolean expression to a boolean mask of ``num_rows``.

    ``codes(dictionary, alias, column)`` is only needed for a tree that
    went through :func:`lower_to_dictionaries`: for each
    :class:`DictionaryLookup` met it returns the rows' stored codes in
    the lookup's dictionary (``Relation.stored_codes``).
    """
    if isinstance(expression, DictionaryLookup):
        return expression.table[
            codes(expression.dictionary, expression.alias, expression.column)
        ]
    if isinstance(expression, Comparison):
        left = _eval_value(expression.left, provider, num_rows)
        right = _eval_value(expression.right, provider, num_rows)
        result = _compare(expression.op, left, right)
        if np.isscalar(result) or result.shape == ():
            return np.full(num_rows, bool(result))
        return np.asarray(result, dtype=bool)
    if isinstance(expression, Between):
        operand = _eval_value(expression.operand, provider, num_rows)
        low = _eval_value(expression.low, provider, num_rows)
        high = _eval_value(expression.high, provider, num_rows)
        return np.asarray((operand >= low) & (operand <= high), dtype=bool)
    if isinstance(expression, InList):
        operand = _eval_value(expression.operand, provider, num_rows)
        if not expression.values:
            return np.zeros(num_rows, dtype=bool)
        values = np.asarray(list(expression.values))
        if (
            isinstance(operand, np.ndarray)
            and operand.dtype.kind in "iufb"
            and values.dtype.kind in "iufb"
            and (
                operand.dtype.kind == "f"
                or np.result_type(operand.dtype, values.dtype).kind in "iub"
            )
        ):
            # One sorted-membership pass instead of a full-column
            # comparison per list element.  Guarded against integer
            # operands whose comparison with the value array would
            # promote to float64 (e.g. int64 vs uint64) — float
            # rounding near 2**63 would fabricate matches the exact
            # per-value loop never produces.
            return np.isin(operand, values)
        result = np.zeros(num_rows, dtype=bool)
        for value in expression.values:
            result |= np.asarray(operand == value, dtype=bool)
        return result
    if isinstance(expression, Like):
        operand = _eval_value(expression.operand, provider, num_rows)
        if not isinstance(operand, np.ndarray):
            raise ExecutionError("LIKE requires a column operand")
        return _match_like(operand, expression.pattern)
    if isinstance(expression, And):
        result = np.ones(num_rows, dtype=bool)
        for operand in expression.operands:
            result &= evaluate_predicate(operand, provider, num_rows, codes)
        return result
    if isinstance(expression, Or):
        result = np.zeros(num_rows, dtype=bool)
        for operand in expression.operands:
            result |= evaluate_predicate(operand, provider, num_rows, codes)
        return result
    if isinstance(expression, Not):
        return ~evaluate_predicate(
            expression.operand, provider, num_rows, codes
        )
    raise ExecutionError(
        f"cannot evaluate {type(expression).__name__} as a predicate"
    )


# ----------------------------------------------------------------------
# Dictionary-space evaluation
# ----------------------------------------------------------------------


@dataclasses.dataclass(frozen=True, eq=False)
class DictionaryLookup(Expression):
    """A predicate over one dictionary-backed column, already answered
    for every distinct value: a row holding ``code`` satisfies it iff
    ``table[code]``.  ``built`` says whether this lowering evaluated the
    table or found it memoized on the dictionary."""

    alias: str
    column: str
    dictionary: object  # repro.util.keycodes.ColumnDictionary
    table: np.ndarray
    built: bool


def lower_to_dictionaries(expression: Expression, dictionary_of) -> Expression:
    """Replace every maximal single-column subtree whose column has a
    dictionary with a :class:`DictionaryLookup`.

    ``dictionary_of(alias, column)`` returns the column's
    :class:`~repro.util.keycodes.ColumnDictionary`, or ``None`` to keep
    predicates on that column on the row path.  A lowered subtree is
    evaluated with :func:`evaluate_predicate` over the dictionary's
    distinct values — once per dictionary and predicate (constants
    included, relation alias not), see ``ColumnDictionary.truth_table``
    — so per row it costs one gather whatever it contains.  Operands of
    an AND / OR that share a column are lowered as one subtree; the
    rest of the tree is returned as it was.  Evaluate the result with
    :func:`evaluate_predicate`, passing ``codes``.
    """
    columns = referenced_columns(expression)
    if len(columns) == 1:
        ((alias, column),) = columns
        dictionary = dictionary_of(alias, column)
        if dictionary is None:
            return expression
        table, built = dictionary.truth_table(
            structural_key(expression, include_aliases=False),
            lambda values: evaluate_predicate(
                expression, lambda _alias, _column: values, len(values)
            ),
        )
        return DictionaryLookup(alias, column, dictionary, table, built)
    if isinstance(expression, (And, Or)):
        by_column: dict[tuple[str, str], list[Expression]] = {}
        lowered: list[Expression] = []
        for operand in expression.operands:
            columns = referenced_columns(operand)
            if len(columns) == 1:
                by_column.setdefault(next(iter(columns)), []).append(operand)
            else:
                lowered.append(lower_to_dictionaries(operand, dictionary_of))
        connective = type(expression)
        for operands in by_column.values():
            lowered.append(
                lower_to_dictionaries(
                    operands[0] if len(operands) == 1
                    else connective(tuple(operands)),
                    dictionary_of,
                )
            )
        return connective(tuple(lowered))
    if isinstance(expression, Not):
        return Not(lower_to_dictionaries(expression.operand, dictionary_of))
    return expression
