"""Tests for vectorized predicate evaluation."""

import numpy as np
import pytest

from repro.errors import ExecutionError
from repro.expr.eval import evaluate_predicate, like_to_regex
from repro.expr.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Like,
    Not,
    Or,
    col,
    lit,
)

_COLUMNS = {
    ("t", "x"): np.array([1, 5, 10, 15]),
    ("t", "y"): np.array([1, 4, 10, 20]),
    ("t", "s"): np.array(["apple", "grape", "ripe", "plum"], dtype=object),
}


def provider(alias, name):
    return _COLUMNS[(alias, name)]


def evaluate(expr):
    return evaluate_predicate(expr, provider, 4).tolist()


class TestComparisons:
    def test_less_than(self):
        assert evaluate(Comparison("<", col("t", "x"), lit(10))) == [True, True, False, False]

    def test_column_vs_column(self):
        assert evaluate(Comparison("=", col("t", "x"), col("t", "y"))) == [True, False, True, False]

    def test_all_operators(self):
        assert evaluate(Comparison("<=", col("t", "x"), lit(5))) == [True, True, False, False]
        assert evaluate(Comparison(">", col("t", "x"), lit(5))) == [False, False, True, True]
        assert evaluate(Comparison(">=", col("t", "x"), lit(5))) == [False, True, True, True]
        assert evaluate(Comparison("<>", col("t", "x"), lit(5))) == [True, False, True, True]

    def test_scalar_comparison_broadcasts(self):
        assert evaluate(Comparison("=", lit(1), lit(1))) == [True] * 4


class TestCompound:
    def test_between_inclusive(self):
        assert evaluate(Between(col("t", "x"), lit(5), lit(10))) == [False, True, True, False]

    def test_in_list(self):
        assert evaluate(InList(col("t", "x"), (1, 15))) == [True, False, False, True]

    def test_empty_in_list(self):
        assert evaluate(InList(col("t", "x"), ())) == [False] * 4

    def test_and_or_not(self):
        a = Comparison(">", col("t", "x"), lit(1))
        b = Comparison("<", col("t", "x"), lit(15))
        assert evaluate(And((a, b))) == [False, True, True, False]
        assert evaluate(Or((Not(a), Not(b)))) == [True, False, False, True]


class TestLike:
    def test_contains(self):
        assert evaluate(Like(col("t", "s"), "%pe%")) == [False, True, True, False]

    def test_prefix(self):
        assert evaluate(Like(col("t", "s"), "p%")) == [False, False, False, True]

    def test_underscore(self):
        assert evaluate(Like(col("t", "s"), "ri_e")) == [False, False, True, False]

    def test_regex_chars_escaped(self):
        assert like_to_regex("a.c").match("a.c")
        assert not like_to_regex("a.c").match("abc")

    def test_like_on_literal_rejected(self):
        with pytest.raises(ExecutionError):
            evaluate(Like(lit("x"), "%"))

    def test_anchored(self):
        # no % => exact match only
        assert evaluate(Like(col("t", "s"), "apple")) == [True, False, False, False]

    def test_newlines_are_ordinary_characters(self):
        values = np.array(["a\nb", "abc\n", "abc", "a\n"], dtype=object)

        def like(pattern):
            return evaluate_predicate(
                Like(col("t", "s"), pattern), lambda alias, name: values, 4
            ).tolist()

        # % spans a newline ...
        assert like("a%b") == [True, False, False, False]
        # ... a trailing newline is not ignored by the end anchor ...
        assert like("abc") == [False, False, True, False]
        assert like("abc_") == [False, True, False, False]
        # ... and _ matches one.
        assert like("a_b") == [True, False, False, False]
        assert like("a_") == [False, False, False, True]


class TestInListPromotionGuard:
    def test_huge_literal_does_not_match_via_float_rounding(self):
        """int64 2**63-1 vs an IN list containing 2**63: float64
        promotion would make them equal; the exact loop must win."""
        import numpy as np
        from repro.expr.eval import evaluate_predicate
        from repro.expr.expressions import InList, col

        column = np.array([2**63 - 1, 5], dtype=np.int64)
        predicate = InList(col("t", "x"), (0, 2**63))
        result = evaluate_predicate(
            predicate, lambda a, c: column, len(column)
        )
        assert result.tolist() == [False, False]

    def test_float_column_in_list_fast_path(self):
        import numpy as np
        from repro.expr.eval import evaluate_predicate
        from repro.expr.expressions import InList, col

        column = np.array([1.5, 2.0, 3.0])
        predicate = InList(col("t", "x"), (2, 3))
        result = evaluate_predicate(
            predicate, lambda a, c: column, len(column)
        )
        assert result.tolist() == [False, True, True]
