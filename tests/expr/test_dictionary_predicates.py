"""Dictionary-space predicate evaluation equals row evaluation.

``lower_to_dictionaries`` answers every maximal subtree over one stored
text column through a truth table over the column's distinct values;
``evaluate_predicate`` over the rows is the reference.  The property
below draws random predicate trees (all seven node types, one column
and several) over random text / int / float columns and demands the
same bool mask from both, on an identity view, a ``narrow``ed row band
and a gathered selection.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.relation import Relation
from repro.expr.eval import (
    DictionaryLookup,
    evaluate_predicate,
    lower_to_dictionaries,
)
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
    referenced_columns,
)
from repro.storage.database import Database
from repro.storage.table import Table

# Wildcards, regex metacharacters and a newline, so patterns and values
# collide in every way LIKE has to get right.
_ALPHABET = "ab%_.*(\n"
_TEXT = st.text(alphabet=_ALPHABET, max_size=4)
_INTS = st.integers(-3, 3)
_FLOATS = st.sampled_from([-1.5, 0.0, 0.5, 2.0, float("nan")])
_COLUMNS = {"s": _TEXT, "t": _TEXT, "i": _INTS, "f": _FLOATS}
_DTYPES = {"s": object, "t": object, "i": np.int64, "f": np.float64}
_OPS = ("=", "<>", "<", "<=", ">", ">=")


@st.composite
def _tables(draw):
    rows = draw(st.integers(0, 30))
    return {
        name: np.array(
            draw(st.lists(values, min_size=rows, max_size=rows)),
            dtype=_DTYPES[name],
        )
        for name, values in _COLUMNS.items()
    }


def _leaf(name: str):
    """Predicates over column ``name`` with constants of its type (some
    present in the column, most not)."""
    values = _COLUMNS[name]
    ref = col("r", name)
    leaves = [
        st.builds(Comparison, st.sampled_from(_OPS), st.just(ref),
                  values.map(lit)),
        st.builds(Between, st.just(ref), values.map(lit), values.map(lit)),
        st.builds(InList, st.just(ref),
                  st.lists(values, max_size=3).map(tuple)),
    ]
    if name in ("s", "t"):
        leaves.append(st.builds(Like, st.just(ref), _TEXT))
        other = "t" if name == "s" else "s"
        leaves.append(
            st.builds(Comparison, st.sampled_from(_OPS), st.just(ref),
                      st.just(col("r", other)))
        )
    return st.one_of(leaves)


def _trees(names):
    return st.recursive(
        st.sampled_from(names).flatmap(_leaf),
        lambda children: st.one_of(
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: And(tuple(parts))
            ),
            st.lists(children, min_size=2, max_size=3).map(
                lambda parts: Or(tuple(parts))
            ),
            children.map(Not),
        ),
        max_leaves=6,
    )


def _scan(columns) -> tuple[Database, Relation]:
    database = Database("dictionary_predicates")
    database.add_table(Table.from_arrays("rel", columns))
    table = database.table("rel")
    relation = Relation(
        {("r", name): table.column(name) for name in table.column_names},
        table.num_rows,
        sources={("r", name): ("rel", name) for name in table.column_names},
    )
    return database, relation


def _lowered_mask(database, view, predicate):
    lowered = lower_to_dictionaries(
        predicate,
        lambda alias, column: view.column_dictionary(
            database, alias, column, text_only=True
        ),
    )
    mask = evaluate_predicate(
        lowered, view.provider, view.num_rows, view.stored_codes
    )
    return lowered, mask


def _views(relation, draw_rows):
    rows = relation.num_rows
    start, stop = sorted(draw_rows(2))
    yield relation
    yield relation.narrow(start, stop)
    yield relation.gather(np.array(draw_rows(7), dtype=np.int64))
    # A band of a selection: codes gathered through a sliced index.
    yield relation.gather(np.arange(rows)[::-1]).narrow(start, stop)


@given(
    columns=_tables(),
    predicate=_trees(["s", "t", "i", "f"]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_lowered_evaluation_equals_row_evaluation(columns, predicate, data):
    database, relation = _scan(columns)
    rows = relation.num_rows

    def draw_rows(count):
        if rows == 0:
            return [0] * count if count == 2 else []
        return data.draw(
            st.lists(st.integers(0, rows - 1), min_size=count, max_size=count)
        )

    for view in _views(relation, draw_rows):
        want = evaluate_predicate(predicate, view.provider, view.num_rows)
        _, got = _lowered_mask(database, view, predicate)
        assert got.dtype == np.bool_
        assert np.array_equal(got, want), str(predicate)


@given(columns=_tables(), predicate=_trees(["s"]))
@settings(max_examples=60, deadline=None)
def test_a_single_text_column_tree_is_one_lookup(columns, predicate):
    """Whatever it is made of, a predicate over one stored text column is
    one truth table — built on first sight, a memo hit after."""
    if referenced_columns(predicate) != {("r", "s")}:
        return  # drew a column-vs-column comparison
    database, relation = _scan(columns)
    first, mask = _lowered_mask(database, relation, predicate)
    assert isinstance(first, DictionaryLookup) and first.built
    assert np.array_equal(
        mask, evaluate_predicate(predicate, relation.provider, relation.num_rows)
    )
    again, _ = _lowered_mask(database, relation, predicate)
    assert isinstance(again, DictionaryLookup) and not again.built
    assert again.table is first.table


@given(columns=_tables(), predicate=_trees(["i", "f"]))
@settings(max_examples=40, deadline=None)
def test_numeric_columns_stay_on_rows(columns, predicate):
    database, relation = _scan(columns)
    lowered, _ = _lowered_mask(database, relation, predicate)
    assert not any(
        isinstance(node, DictionaryLookup) for node in lowered.walk()
    )
    assert database.dictionary_cache_info()["builds"] == 0


def test_operands_sharing_a_column_lower_together():
    """AND / OR operands over the same text column become one lookup even
    when siblings over other columns keep the connective multi-column."""
    database, relation = _scan(
        {
            "s": np.array(["ab", "ba", "b", "a%"], dtype=object),
            "t": np.array(["x", "y", "x", "y"], dtype=object),
            "i": np.array([1, 2, 3, 4]),
        }
    )
    predicate = And((
        Like(col("r", "s"), "%b%"),
        Comparison(">", col("r", "i"), lit(1)),
        Not(Comparison("=", col("r", "s"), lit("b"))),
        InList(col("r", "t"), ("y",)),
    ))
    lowered, mask = _lowered_mask(database, relation, predicate)
    lookups = [
        node for node in lowered.walk() if isinstance(node, DictionaryLookup)
    ]
    assert sorted(lookup.column for lookup in lookups) == ["s", "t"]
    assert mask.tolist() == [False, True, False, False]
