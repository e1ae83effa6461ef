"""Randomized differential testing across executor configurations.

A seeded generator produces TPC-DS-shaped queries — star joins with
random predicates, aggregates, GROUP BY / HAVING, ORDER BY ... LIMIT,
and single-table projection top-k scans — and each query executes at
``parallelism`` 1 and 4.  Both configurations must return byte-identical
answers: morsel parallelism is an execution strategy, never a semantics
change, so any divergence is an executor bug.

Agreement among configurations cannot see a bug they all share, so
every generated statement is also answered by stdlib ``sqlite3`` and
compared under the row-multiset comparator of
``tests/sqlite_reference.py`` — the engine held to an engine the
repository did not write.

A second generator always groups by one or two *string* dimension
columns with a HAVING clause: the engine groups on stored dictionary
codes (direct addressing, keys decoded from the dictionary), so every
such query holds code-space group-by to sqlite's grouping of the raw
strings.

A third generator always joins one dimension *only to filter* — a
selective local predicate, no output column — beside a grouped one.
Every configuration skips that join outright (its exact filter, applied
at the fact scan, already is the join: semi-join elision), so every
such query holds elision to sqlite's executed join; the test also
checks that the skip really happened.

Both configurations find their matches through the one
``CodeMatcher`` kernel.  The join-heavy generators therefore also run a
third, in-repo reference: the serial configuration, with the match
structure swapped (test-only) for a brute-force
nested-loop comparison of every streamed code with every indexed code.
The side-choice rule around it (``join_matcher``) stays — pair order is
part of the answer's bytes — and is itself held to the nested loop in
``tests/engine/test_join_kernel.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.engine.join_kernel as join_kernel
from repro.engine.executor import Executor
from repro.obs import Tracer
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from sqlite_reference import assert_matches_sqlite

_SEEDS = range(12)

_CONFIGS = [{"parallelism": 1}, {"parallelism": 4}]

_DIMENSIONS = {
    "date_dim": ("d", "ss_sold_date_sk", "d_date_sk"),
    "item": ("i", "ss_item_sk", "i_item_sk"),
    "store": ("s", "ss_store_sk", "s_store_sk"),
    "promotion": ("p", "ss_promo_sk", "p_promo_sk"),
    "time_dim": ("t", "ss_sold_time_sk", "t_time_sk"),
}

_GROUP_COLUMNS = {
    "date_dim": "d.d_year",
    "item": "i.i_category",
    "store": "s.s_state",
    "promotion": "p.p_channel_email",
    "time_dim": "t.t_meal_time",
}

_STRING_GROUP_COLUMNS = {
    "item": ("i.i_category", "i.i_class", "i.i_brand"),
    "store": ("s.s_state",),
    "promotion": ("p.p_channel_email", "p.p_channel_tv"),
    "time_dim": ("t.t_meal_time",),
}

_AGGREGATES = (
    "COUNT(*) AS cnt",
    "SUM(ss.ss_net_paid) AS paid",
    "AVG(ss.ss_sales_price) AS avg_price",
    "MIN(ss.ss_quantity) AS min_qty",
    "MAX(ss.ss_net_profit) AS max_profit",
)


def _random_predicate(rng: np.random.Generator, table: str) -> str | None:
    """One local predicate for ``table``, or None (rng-driven)."""
    if table == "date_dim":
        choice = rng.integers(0, 3)
        if choice == 0:
            return f"d.d_year = {1998 + int(rng.integers(0, 5))}"
        if choice == 1:
            low = 1 + int(rng.integers(0, 9))
            return f"d.d_moy BETWEEN {low} AND {low + 3}"
        return None
    if table == "item":
        choice = rng.integers(0, 3)
        if choice == 0:
            category = ["Books", "Music", "Shoes", "Sports"][int(rng.integers(0, 4))]
            return f"i.i_category = '{category}'"
        if choice == 1:
            return f"i.i_current_price > {int(rng.integers(50, 250))}"
        return None
    if table == "store":
        if rng.integers(0, 2) == 0:
            state = ["AL", "CA", "CO", "FL"][int(rng.integers(0, 4))]
            return f"s.s_state IN ('{state}', 'GA')"
        return None
    if table == "promotion":
        if rng.integers(0, 2) == 0:
            return f"p.p_channel_email = '{'Y' if rng.integers(0, 2) else 'N'}'"
        return None
    if table == "time_dim":
        if rng.integers(0, 2) == 0:
            low = int(rng.integers(0, 18))
            return f"t.t_hour BETWEEN {low} AND {low + 6}"
        return None
    return None


def _generate_star_query(rng: np.random.Generator) -> str:
    """Aggregate star query with optional GROUP BY/HAVING/ORDER/LIMIT."""
    tables = list(_DIMENSIONS)
    rng.shuffle(tables)
    picked = tables[: int(rng.integers(1, 4))]
    froms = ["store_sales ss"]
    joins, locals_ = [], []
    for table in picked:
        alias, fact_col, dim_col = _DIMENSIONS[table]
        froms.append(f"{table} {alias}")
        joins.append(f"ss.{fact_col} = {alias}.{dim_col}")
        predicate = _random_predicate(rng, table)
        if predicate:
            locals_.append(predicate)

    n_aggs = int(rng.integers(1, 4))
    order = rng.permutation(len(_AGGREGATES))[:n_aggs]
    aggregates = [_AGGREGATES[i] for i in sorted(order)]
    select = list(aggregates)

    group_by = ""
    having = ""
    order_limit = ""
    if rng.integers(0, 2) == 0:
        group_col = _GROUP_COLUMNS[picked[0]]
        select.insert(0, group_col)
        group_by = f" GROUP BY {group_col}"
        if rng.integers(0, 2) == 0:
            having = f" HAVING COUNT(*) > {int(rng.integers(0, 30))}"
        if rng.integers(0, 2) == 0:
            alias = aggregates[0].split(" AS ")[1]
            direction = "DESC" if rng.integers(0, 2) else "ASC"
            order_limit = (
                f" ORDER BY {alias} {direction}, {group_col} ASC"
                f" LIMIT {int(rng.integers(1, 8))}"
            )
    where = " AND ".join(joins + locals_)
    return (
        f"SELECT {', '.join(select)} FROM {', '.join(froms)}"
        f" WHERE {where}{group_by}{having}{order_limit}"
    )


def _generate_string_grouped_query(rng: np.random.Generator) -> str:
    """Star aggregate grouped by 1-2 string dimension columns + HAVING."""
    tables = list(_STRING_GROUP_COLUMNS)
    rng.shuffle(tables)
    picked = tables[: int(rng.integers(1, 3))]
    froms = ["store_sales ss"]
    joins, locals_, group_columns = [], [], []
    for table in picked:
        alias, fact_col, dim_col = _DIMENSIONS[table]
        froms.append(f"{table} {alias}")
        joins.append(f"ss.{fact_col} = {alias}.{dim_col}")
        predicate = _random_predicate(rng, table)
        if predicate:
            locals_.append(predicate)
        choices = _STRING_GROUP_COLUMNS[table]
        group_columns.append(choices[int(rng.integers(0, len(choices)))])
    if len(picked) == 1 and len(_STRING_GROUP_COLUMNS[picked[0]]) > 1:
        # Two columns of one dimension: a mixed-radix key whose domain
        # is mostly absent combinations.
        extra = [
            column
            for column in _STRING_GROUP_COLUMNS[picked[0]]
            if column not in group_columns
        ]
        group_columns.append(extra[int(rng.integers(0, len(extra)))])
    n_aggs = int(rng.integers(1, 4))
    aggregates = [
        _AGGREGATES[i]
        for i in sorted(rng.permutation(len(_AGGREGATES))[:n_aggs])
    ]
    having = (
        f"COUNT(*) > {int(rng.integers(0, 30))}"
        if rng.integers(0, 2) == 0
        else f"SUM(ss.ss_net_paid) > {int(rng.integers(0, 5000))}"
    )
    return (
        f"SELECT {', '.join(group_columns + aggregates)}"
        f" FROM {', '.join(froms)} WHERE {' AND '.join(joins + locals_)}"
        f" GROUP BY {', '.join(group_columns)} HAVING {having}"
    )


_FILTER_ONLY_PREDICATES = {
    "date_dim": lambda rng: f"d.d_year = {1998 + int(rng.integers(0, 5))}",
    "item": lambda rng: f"i.i_current_price > {int(rng.integers(50, 250))}",
    "store": lambda rng: "s.s_state IN ('AL', 'GA')",
    "promotion": lambda rng: "p.p_channel_email = 'Y'",
    "time_dim": lambda rng: f"t.t_hour BETWEEN {int(rng.integers(0, 12))} AND 20",
}


def _generate_filter_only_join_query(rng: np.random.Generator) -> str:
    """Star aggregate with one dimension joined only for its predicate.

    The first picked dimension carries a predicate and appears nowhere
    in the output; the second (when drawn) supplies a GROUP BY column,
    so its join must run while the first one can be absorbed.
    """
    tables = list(_DIMENSIONS)
    rng.shuffle(tables)
    filter_only = tables[0]
    grouped = tables[1] if rng.integers(0, 3) else None
    froms = ["store_sales ss"]
    joins, locals_ = [], [_FILTER_ONLY_PREDICATES[filter_only](rng)]
    for table in (filter_only, grouped):
        if table is None:
            continue
        alias, fact_col, dim_col = _DIMENSIONS[table]
        froms.append(f"{table} {alias}")
        joins.append(f"ss.{fact_col} = {alias}.{dim_col}")
    if grouped is not None:
        predicate = _random_predicate(rng, grouped)
        if predicate:
            locals_.append(predicate)
    aggregates = [
        _AGGREGATES[i]
        for i in sorted(rng.permutation(len(_AGGREGATES))[: int(rng.integers(1, 4))])
    ]
    select, group_by = list(aggregates), ""
    if grouped is not None:
        select.insert(0, _GROUP_COLUMNS[grouped])
        group_by = f" GROUP BY {_GROUP_COLUMNS[grouped]}"
    return (
        f"SELECT {', '.join(select)} FROM {', '.join(froms)}"
        f" WHERE {' AND '.join(joins + locals_)}{group_by}"
    )


def _generate_projection_query(rng: np.random.Generator) -> str:
    """Single-table projection top-k (exercises the TopK relation path)."""
    if rng.integers(0, 2) == 0:
        columns = ["d.d_date_sk", "d.d_year", "d.d_moy"]
        key = "d.d_date_sk"
        table = "date_dim d"
    else:
        columns = ["ss.ss_quantity", "ss.ss_sales_price"]
        key = "ss.ss_sales_price"
        table = "store_sales ss"
    direction = "DESC" if rng.integers(0, 2) else "ASC"
    return (
        f"SELECT {', '.join(columns)} FROM {table}"
        f" ORDER BY {key} {direction} LIMIT {int(rng.integers(1, 25))}"
    )


def _result_bytes(result, spec) -> tuple:
    """A hashable byte-exact rendering of an execution result."""
    if result.aggregates is not None:
        parts = []
        for label in sorted(result.aggregates):
            values = np.asarray(result.aggregates[label])
            if values.dtype.kind == "O":
                parts.append((label, tuple(values.tolist())))
            else:
                parts.append((label, values.dtype.str, values.tobytes()))
        return tuple(parts)
    parts = []
    for ref in spec.select_columns:
        values = np.asarray(result.relation.column(ref.alias, ref.column))
        if values.dtype.kind == "O":
            parts.append((str(ref), tuple(values.tolist())))
        else:
            parts.append((str(ref), values.dtype.str, values.tobytes()))
    return tuple(parts)


class _NestedLoopMatcher:
    """Drop-in for ``CodeMatcher``: all-pairs equality, no table, no
    sort — pairs in streamed-row order, per streamed row in indexed-row
    order; never claims an identity."""

    def __init__(self, codes, domain, streamed_rows, rows=None,
                 unique_only=False):
        self._codes = codes
        self._rows = np.arange(len(codes)) if rows is None else rows
        self.unique = len(np.unique(codes)) == len(codes)

    def match(self, streamed_codes):
        parts = [
            np.nonzero(
                streamed_codes[start:start + 2048, None]
                == self._codes[None, :]
            )
            for start in range(0, len(streamed_codes), 2048)
        ]
        empty = np.array([], dtype=np.int64)
        return (
            self._rows[
                np.concatenate([empty] + [indexed for _, indexed in parts])
            ],
            np.concatenate(
                [empty]
                + [streamed + 2048 * i for i, (streamed, _) in enumerate(parts)]
            ),
        )


def _nested_loop_reference(database, plan, spec) -> tuple:
    """Result bytes of the serial run joined by nested loops."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(join_kernel, "CodeMatcher", _NestedLoopMatcher)
        result = Executor(database).execute(plan)
    return _result_bytes(result, spec)


@pytest.fixture(scope="module")
def tpcds_db(tpcds_tiny):
    return tpcds_tiny[0]


class TestDifferentialOracle:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_star_queries_identical_across_configs(self, tpcds_db, seed):
        rng = np.random.default_rng(1000 + seed)
        sql = _generate_star_query(rng)
        spec = parse_query(tpcds_db, sql, f"diff_star_{seed}")
        plan = optimize_query(tpcds_db, spec, "bqo").plan
        outputs = set()
        for config in _CONFIGS:
            result = Executor(tpcds_db, **config).execute(plan)
            outputs.add(_result_bytes(result, spec))
        outputs.add(_nested_loop_reference(tpcds_db, plan, spec))
        assert len(outputs) == 1, f"configs disagree on: {sql}"
        assert_matches_sqlite(tpcds_db, sql, result, spec)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_string_group_by_identical_across_configs(self, tpcds_db, seed):
        rng = np.random.default_rng(3000 + seed)
        sql = _generate_string_grouped_query(rng)
        spec = parse_query(tpcds_db, sql, f"diff_group_{seed}")
        plan = optimize_query(tpcds_db, spec, "bqo").plan
        outputs = set()
        for config in _CONFIGS:
            result = Executor(tpcds_db, **config).execute(plan)
            outputs.add(_result_bytes(result, spec))
        assert len(outputs) == 1, f"configs disagree on: {sql}"
        assert_matches_sqlite(tpcds_db, sql, result, spec)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_filter_only_join_identical_across_configs(self, tpcds_db, seed):
        rng = np.random.default_rng(4000 + seed)
        sql = _generate_filter_only_join_query(rng)
        spec = parse_query(tpcds_db, sql, f"diff_filter_only_{seed}")
        plan = optimize_query(tpcds_db, spec, "bqo").plan
        outputs = set()
        for config in _CONFIGS:
            tracer = Tracer()
            result = Executor(tpcds_db, **config).execute(plan, tracer=tracer)
            outputs.add(_result_bytes(result, spec))
            elided = [
                span for span in tracer.spans("node")
                if span.attributes.get("elided")
            ]
            assert elided, f"no join elided in {config}: {sql}"
        outputs.add(_nested_loop_reference(tpcds_db, plan, spec))
        assert len(outputs) == 1, f"configs disagree on: {sql}"
        assert_matches_sqlite(tpcds_db, sql, result, spec)

    @pytest.mark.parametrize("seed", _SEEDS)
    def test_projection_topk_identical_across_configs(self, tpcds_db, seed):
        rng = np.random.default_rng(2000 + seed)
        sql = _generate_projection_query(rng)
        spec = parse_query(tpcds_db, sql, f"diff_proj_{seed}")
        plan = optimize_query(tpcds_db, spec, "bqo").plan
        outputs = set()
        for config in _CONFIGS:
            result = Executor(tpcds_db, **config).execute(plan)
            assert result.relation.num_rows <= spec.limit
            outputs.add(_result_bytes(result, spec))
        assert len(outputs) == 1, f"configs disagree on: {sql}"
        assert_matches_sqlite(tpcds_db, sql, result, spec)

    def test_generator_is_deterministic(self):
        first = _generate_star_query(np.random.default_rng(7))
        second = _generate_star_query(np.random.default_rng(7))
        assert first == second
