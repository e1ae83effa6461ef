"""Code-space execution is a strategy, never a semantics change.

Group-bys and exact-filter probes read stored dictionary codes
(:meth:`Relation.dictionary_codes`) instead of factorizing or
binary-searching raw values.  These tests hold the code paths to the
value paths they replace:

* seeded differential checks over random relations — every selection
  representation (identity, slice, unsorted index array, masked, a
  ``narrow`` band of a slice or of a masked view), int / text / bool / NaN-bearing float keys, empty
  input, one to three grouping columns, the sorted-codes branch and the
  radix-overflow fallback — comparing group order, dtypes and bytes;
* whole queries at ``parallelism`` 1 and 2 against a run with the code
  paths switched off;
* a counter gate (no wall-clock): a warm pass of the 32 ``tpcds_lite``
  statements, and a fresh-filter pass of the 30 ``job_lite`` ones,
  factorize nothing, never encode a row-length array, and sort no
  unique join build;
* predicates over stored text columns are answered per dictionary, not
  per row: a LIKE scan matches each distinct value at most once and a
  repeat matches nothing, and the per-dictionary tables (truth tables,
  translations) are bounded, follow the dictionary object across a data
  reload, and agree under racing threads.
"""

from __future__ import annotations

import gc
import sys
import threading

import numpy as np
import pytest

import repro.engine.join_kernel as join_kernel
import repro.expr.eval as eval_module
from repro.engine.executor import Executor
from repro.engine.relation import Relation
from repro.expr.eval import evaluate_predicate, lower_to_dictionaries
from repro.expr.expressions import ColumnRef, Comparison, Like, Or, col, lit
from repro.obs.trace import Tracer
from repro.filters import FILTER_KINDS
from repro.filters.registry import create_filter
from repro.optimizer.pipelines import optimize_query
from repro.service import QueryService
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table
from repro.util import keycodes
from repro.workloads import job_lite, tpcds_lite
from sqlite_reference import assert_matches_sqlite

# Wider than 65,536 rows: the widths whose selections were once
# bit-packed keep their coverage on the one int64 path.
_ROWS = 70_000
_SEEDS = range(4)
_TEXT = np.array([f"s{value:02d}" for value in range(23)], dtype=object)


def _database(seed: int, rows: int = _ROWS) -> Database:
    rng = np.random.default_rng(seed)
    database = Database(f"codes_{seed}")
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "k_int": rng.integers(-7, 40, rows),
                # Nearly all-distinct: too sparse for direct addressing.
                "k_wide": rng.integers(0, 10**9, rows),
                "k_text": _TEXT[rng.integers(0, len(_TEXT), rows)],
                "k_bool": rng.random(rows) < 0.3,
                "k_float": np.where(
                    rng.random(rows) < 0.1,
                    np.nan,
                    rng.integers(0, 5, rows).astype(np.float64),
                ),
                "m": rng.normal(size=rows),
            },
        )
    )
    return database


def _scan(database: Database) -> Relation:
    table = database.table("fact")
    names = table.column_names
    return Relation(
        {("f", name): table.column(name) for name in names},
        table.num_rows,
        sources={("f", name): ("fact", name) for name in names},
    )


def _views(database: Database, seed: int) -> dict[str, Relation]:
    rng = np.random.default_rng(100 + seed)
    scan = _scan(database)
    rows = scan.num_rows
    masked = scan.mask(rng.random(rows) < 0.4)
    assert isinstance(masked._groups[0].selection, np.ndarray)
    return {
        "identity": scan,
        "slice": scan.narrow(1_000, 30_000),
        "array": scan.gather(rng.permutation(rows)[:5_000]),
        "masked": masked,
        "masked-refined": masked.mask(rng.random(masked.num_rows) < 0.5),
        "slice-of-slice": scan.narrow(1_000, 30_000).narrow(7_192, 15_384),
        "slice-of-masked": masked.narrow(100, 9_000),
        "empty": scan.gather(np.array([], dtype=np.int64)),
    }


def _same_array(left: np.ndarray, right: np.ndarray) -> bool:
    if left.dtype != right.dtype or left.shape != right.shape:
        return False
    if left.dtype.kind == "O":
        return left.tolist() == right.tolist()
    return left.tobytes() == right.tobytes()


_CODED_KEYS = [
    ["k_int"],
    ["k_text"],
    ["k_bool"],
    ["k_wide"],
    ["k_text", "k_int"],
    ["k_wide", "k_text"],
    ["k_bool", "k_text", "k_int"],
]
_FALLBACK_KEYS = [["k_float"], ["k_text", "k_float"]]


class TestGroupByCodes:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_grouping_equals_value_factorization(self, seed):
        database = _database(seed)
        executor = Executor(database)
        for view_name, view in _views(database, seed).items():
            for columns in _CODED_KEYS:
                refs = [ColumnRef("f", column) for column in columns]
                coded = executor._group_by_codes(refs, view)
                valued = Executor._group_by_values(refs, view)
                where = f"{view_name} {columns}"
                assert coded is not None, where
                assert _same_array(coded[0], valued[0]), where
                assert coded[1] == valued[1], where
                for got, want in zip(coded[2], valued[2]):
                    assert _same_array(got, want), where

    def test_float_keys_and_lost_provenance_fall_back(self):
        database = _database(0)
        executor = Executor(database)
        scan = _scan(database)
        for columns in _FALLBACK_KEYS:
            refs = [ColumnRef("f", column) for column in columns]
            assert executor._group_by_codes(refs, scan) is None
        derived = Relation(
            {("f", "k_int"): database.table("fact").column("k_int")}, _ROWS
        )
        assert executor._group_by_codes([ColumnRef("f", "k_int")], derived) is None

    def test_radix_overflow_falls_back(self, monkeypatch):
        database = _database(0)
        executor = Executor(database)
        refs = [ColumnRef("f", "k_text"), ColumnRef("f", "k_int")]
        scan = _scan(database)
        assert executor._group_by_codes(refs, scan) is not None
        monkeypatch.setattr(keycodes, "_RADIX_LIMIT", 100)
        assert executor._group_by_codes(refs, scan) is None

    def test_grouping_never_materializes_key_columns(self):
        database = _database(0)
        view = _views(database, 0)["array"]
        Executor(database)._group_by_codes([ColumnRef("f", "k_text")], view)
        assert view._materialized == {}


_QUERIES = [
    "SELECT f.k_text, COUNT(*) AS c, SUM(f.m) AS s, MIN(f.m) AS lo,"
    " MAX(f.m) AS hi, AVG(f.m) AS a FROM fact f WHERE f.k_int > 3"
    " GROUP BY f.k_text HAVING COUNT(*) > 5",
    "SELECT f.k_bool, f.k_text, f.k_int, COUNT(*) AS c, SUM(f.m) AS s"
    " FROM fact f GROUP BY f.k_bool, f.k_text, f.k_int"
    " HAVING SUM(f.m) > 0",
    "SELECT f.k_wide, COUNT(*) AS c FROM fact f WHERE f.k_int < 0"
    " GROUP BY f.k_wide",
    "SELECT f.k_float, f.k_text, COUNT(*) AS c FROM fact f"
    " GROUP BY f.k_float, f.k_text",
    "SELECT f.k_text, COUNT(*) AS c FROM fact f WHERE f.k_int > 1000"
    " GROUP BY f.k_text",
]


class TestAggregateAnswers:
    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_queries_equal_the_value_paths(self, monkeypatch, parallelism):
        """Whole aggregate output — keys, every aggregate, HAVING — is
        byte-identical with the code paths on and off, serial and over
        morsel views, and the value paths answer as sqlite does.  The
        radix-overflow round forces the multi-column fallback inside a
        real query."""
        database = _database(7)
        specs = [
            parse_query(database, sql, f"q{index}")
            for index, sql in enumerate(_QUERIES)
        ]
        plans = [optimize_query(database, spec, "bqo").plan for spec in specs]
        executor = Executor(
            database, parallelism=parallelism, morsel_rows=8_192
        )

        def answers():
            return [executor.execute(plan) for plan in plans]

        coded = answers()
        with monkeypatch.context() as patch:
            patch.setattr(keycodes, "_RADIX_LIMIT", 100)
            overflowed = answers()
        with monkeypatch.context() as patch:
            patch.setattr(
                Relation, "dictionary_codes", lambda self, *args: None
            )
            valued = answers()
        for sql, spec, got, overflow, want in zip(
            _QUERIES, specs, coded, overflowed, valued
        ):
            assert_matches_sqlite(database, sql, want, spec)
            got, overflow, want = (
                got.aggregates, overflow.aggregates, want.aggregates
            )
            assert list(got) == list(want), sql
            for label in want:
                assert _same_array(got[label], want[label]), (sql, label)
                assert _same_array(overflow[label], want[label]), (sql, label)


class TestFloatKeysAgainstSqlite:
    """Float keys take the value paths for real — no test hook: the
    joint-factorization join (and its float-fallback exact filter) and
    the value group-by, each held to sqlite's answer."""

    def test_float_key_join(self, tpcds_tiny):
        database = tpcds_tiny[0]
        sql = (
            "SELECT COUNT(*) AS cnt, SUM(ss.ss_net_paid) AS paid"
            " FROM store_sales ss, store_sales s2"
            " WHERE ss.ss_sales_price = s2.ss_sales_price"
            " AND s2.ss_quantity < 20"
        )
        spec = parse_query(database, sql, "float_join")
        result = Executor(database).execute(
            optimize_query(database, spec, "bqo").plan
        )
        assert result.metrics.dictionary_misses == 1
        assert result.scalar("cnt") > 0
        assert_matches_sqlite(database, sql, result, spec)

    def test_float_group_by(self, tpcds_tiny, monkeypatch):
        database = tpcds_tiny[0]
        sql = (
            "SELECT ss.ss_sales_price, COUNT(*) AS cnt,"
            " SUM(ss.ss_net_paid) AS paid FROM store_sales ss, date_dim d"
            " WHERE ss.ss_sold_date_sk = d.d_date_sk AND d.d_year = 2000"
            " GROUP BY ss.ss_sales_price"
        )
        spec = parse_query(database, sql, "float_group")
        calls = []
        by_values = Executor._group_by_values

        def counting(group_by, relation):
            calls.append(len(group_by))
            return by_values(group_by, relation)

        monkeypatch.setattr(Executor, "_group_by_values", staticmethod(counting))
        result = Executor(database).execute(
            optimize_query(database, spec, "bqo").plan
        )
        assert calls == [1] and result.num_rows > 1
        assert_matches_sqlite(database, sql, result, spec)


def _exact(*columns):
    return create_filter("exact", [np.asarray(column) for column in columns])


def _contains_by_codes(executor, bitvector, probe_keys, view):
    """The executor's code-space probe of a whole view, or None."""
    probe = executor._code_probe(bitvector, probe_keys, view)
    return None if probe is None else probe(0, view.num_rows)


class TestFilterProbeCodes:
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_probe_equals_contains_on_values(self, seed):
        database = _database(seed)
        executor = Executor(database)
        rng = np.random.default_rng(200 + seed)
        # Build domains overlap the probe domains only partly: some
        # build keys never occur in the probed column and vice versa.
        pairs = rng.integers(0, len(_TEXT), 60)
        filters = {
            ("k_int",): _exact(rng.integers(-20, 60, 25)),
            ("k_text",): _exact(
                np.array(["s01", "s07", "s22", "zz", "a"], dtype=object)
            ),
            ("k_wide",): _exact(
                database.table("fact").column("k_wide")[::7]
            ),
            ("k_text", "k_int"): _exact(
                _TEXT[pairs], rng.integers(-10, 45, 60)
            ),
            ("k_bool",): _exact(np.array([], dtype=np.int64)),
        }
        for view_name, view in _views(database, seed).items():
            for keys, bitvector in filters.items():
                probe_keys = [("f", key) for key in keys]
                got = _contains_by_codes(executor, bitvector, probe_keys, view)
                want = bitvector.contains(
                    [view.column("f", key) for key in keys]
                )
                where = f"{view_name} {keys}"
                assert got is not None and got.dtype == np.bool_, where
                assert np.array_equal(got, want), where

    def test_fallbacks_answer_none(self):
        database = _database(0)
        executor = Executor(database)
        scan = _scan(database)
        ints = _exact(np.arange(5))
        # Float probe column, float build keys, the hashed kind, a probe
        # column without table provenance: all stay on contains(values).
        assert _contains_by_codes(
            executor, ints, [("f", "k_float")], scan
        ) is None
        floats = _exact(np.array([1.0, np.nan]))
        assert _contains_by_codes(
            executor, floats, [("f", "k_int")], scan
        ) is None
        hashed = create_filter("blocked_bloom", [np.arange(5)])
        assert _contains_by_codes(
            executor, hashed, [("f", "k_int")], scan
        ) is None
        derived = Relation(
            {("f", "k_int"): database.table("fact").column("k_int")}, _ROWS
        )
        assert _contains_by_codes(
            executor, ints, [("f", "k_int")], derived
        ) is None

    @pytest.mark.parametrize("kind", sorted(FILTER_KINDS))
    def test_sliced_probes_concatenate_to_the_whole_probe(self, kind):
        """A morsel task probes one slice of the keys the dispatching
        thread read once: the slices' masks, in order, are the whole
        view's, on the code path and the value path alike."""
        database = _database(0)
        executor = Executor(database)
        rng = np.random.default_rng(9)
        for keys in (["k_int"], ["k_text", "k_int"], ["k_float"]):
            bitvector = create_filter(
                kind,
                [database.table("fact").column(key)[rng.integers(0, 500, 40)]
                 for key in keys],
            )
            probe_keys = [("f", key) for key in keys]
            for view_name, view in _views(database, 0).items():
                probe = executor._probe(bitvector, probe_keys, view)
                rows = view.num_rows
                edges = sorted([0, min(1, rows), rows // 3, rows])
                got = np.concatenate(
                    [probe(a, b) for a, b in zip(edges, edges[1:])]
                )
                want = bitvector.contains(
                    [view.column("f", key) for key in keys]
                )
                assert np.array_equal(got, want), (kind, keys, view_name)

    def test_memo_follows_the_dictionary_object(self):
        """A rebuilt dictionary is a new object: it gets a fresh member
        table, and the stale one dies with the dictionary it describes."""
        database = _database(0)
        executor = Executor(database)
        scan = _scan(database)
        bitvector = _exact(np.arange(0, 40, 3))
        want = bitvector.contains([scan.column("f", "k_int")])
        first = database.dictionary("fact", "k_int")
        assert np.array_equal(
            _contains_by_codes(executor, bitvector, [("f", "k_int")], scan), want
        )
        assert list(bitvector._member_memo) == [first]
        database.invalidate_dictionaries()
        assert np.array_equal(
            _contains_by_codes(executor, bitvector, [("f", "k_int")], scan), want
        )
        rebuilt = database.dictionary("fact", "k_int")
        assert rebuilt is not first
        del first
        gc.collect()
        assert list(bitvector._member_memo) == [rebuilt]

    def test_one_filter_probed_through_two_databases(self):
        """Same table and column names, different data: entries are keyed
        by dictionary identity, so neither database sees the other's."""
        bitvector = _exact(np.arange(-5, 30, 2))
        for seed in (1, 2):
            database = _database(seed, rows=5_000)
            scan = _scan(database)
            got = _contains_by_codes(
                Executor(database),                 bitvector, [("f", "k_int")], scan
            )
            want = bitvector.contains([scan.column("f", "k_int")])
            assert np.array_equal(got, want)


class TestWarmPathNeverSorts:
    @pytest.mark.parametrize("pipeline", ["bqo", "original"])
    def test_warm_tpcds_pass_stays_in_code_space(self, monkeypatch, pipeline):
        self._second_pass_stays_in_code_space(
            monkeypatch, tpcds_lite, pipeline, clear_filters=False
        )

    @pytest.mark.parametrize("pipeline", ["bqo", "original"])
    def test_fresh_filter_job_pass_stays_in_code_space(
        self, monkeypatch, pipeline
    ):
        self._second_pass_stays_in_code_space(
            monkeypatch, job_lite, pipeline, clear_filters=True
        )

    @staticmethod
    def _second_pass_stays_in_code_space(
        monkeypatch, module, pipeline, clear_filters
    ):
        """After one cold pass, a second pass over the statements

        * factorizes nothing at all (``factorization_count()`` is flat):
          group-bys and joins read stored codes, and the filters it has
          to rebuild — every filter when ``clear_filters`` empties the
          filter cache between the passes, otherwise the uncacheable
          ones over joined or filtered build sides — are built from
          stored codes too;
        * builds no table dictionary;
        * encodes only dictionaries' distinct values (domain
          translations), never a gathered, row-length column;
        * sorts no indexed side whose key codes are distinct unless the
          code domain is too wide for the rows the join touches (the
          matcher's table rule — two small inputs are cheaper sorted
          than a table of the whole domain is to fill): every other
          distinct-code side gets the ``code -> row`` table, nothing
          else.
        """
        database = module.build_database(scale=0.05)
        statements = [sql for _, sql in module.query_sqls()]
        service = QueryService(database, pipeline=pipeline)
        try:
            for sql in statements:
                service.execute(sql)
            if clear_filters:
                service.filter_cache.clear()

            encoded = []
            encode = keycodes.encode_into_domain

            def counting_encode(values, domain):
                encoded.append(values)
                return encode(values, domain)

            monkeypatch.setattr(keycodes, "encode_into_domain", counting_encode)

            # (indexed codes were distinct, a sort order exists, the
            # domain earns a table for these row counts)
            builds = []
            matcher_init = join_kernel.CodeMatcher.__init__

            def recording_init(self, codes, domain, streamed_rows, **kwargs):
                matcher_init(self, codes, domain, streamed_rows, **kwargs)
                assert self.unique == (len(np.unique(codes)) == len(codes))
                builds.append(
                    (
                        self.unique,
                        self._order is not None,
                        domain <= join_kernel.DENSE_SLOTS_PER_ROW
                        * (len(codes) + streamed_rows),
                    )
                )

            monkeypatch.setattr(
                join_kernel.CodeMatcher, "__init__", recording_init
            )
            table_builds = database.dictionary_cache_info()["builds"]
            factorizations = keycodes.factorization_count()

            for sql in statements:
                service.execute(sql)

            assert keycodes.factorization_count() == factorizations
            assert database.dictionary_cache_info()["builds"] == table_builds
            resident = {
                id(dictionary.values)
                for dictionary in database._dictionaries.values()
            }
            assert all(id(values) in resident for values in encoded)
            assert any(distinct and table for distinct, _, table in builds)
            assert not any(
                distinct and ordered and table
                for distinct, ordered, table in builds
            )
        finally:
            service.close()


class _CountingPattern:
    """Stands in for a compiled LIKE pattern, counting ``match`` calls."""

    def __init__(self, pattern, calls: list) -> None:
        self._pattern = pattern
        self._calls = calls

    def match(self, value):
        self._calls.append(value)
        return self._pattern.match(value)


def _reloadable_database(shift: int) -> tuple[Database, int]:
    """``fact.k_text`` joins ``dim.d_text``; ``dim.d_name LIKE '%1%'``
    picks dim rows.  ``shift`` moves both domains, so dictionaries,
    translations and truth tables of one shift are all wrong for
    another.  Returns the database and the query's true answer."""
    rng = np.random.default_rng(shift)
    keys = range(shift, shift + 15)
    d_text = np.array([f"k{value:02d}" for value in keys], dtype=object)
    d_name = np.array([f"name{value * 7 % 23}" for value in keys], dtype=object)
    k_text = np.array(
        [f"k{value:02d}" for value in rng.integers(shift + 5, shift + 25, 4_000)],
        dtype=object,
    )
    database = Database("reload")
    database.add_table(
        Table.from_arrays("dim", {"d_text": d_text, "d_name": d_name})
    )
    database.add_table(Table.from_arrays("fact", {"k_text": k_text}))
    picked = {text for text, name in zip(d_text, d_name) if "1" in name}
    return database, sum(value in picked for value in k_text.tolist())


_RELOAD_SQL = (
    "SELECT COUNT(*) AS cnt FROM fact f, dim d "
    "WHERE f.k_text = d.d_text AND d.d_name LIKE '%1%'"
)


class TestDictionaryPredicates:
    def test_like_scan_matches_distinct_values_once_then_never(
        self, monkeypatch
    ):
        database = job_lite.build_database(scale=0.05)
        sql = next(
            sql for _, sql in job_lite.query_sqls()
            if "t.t_title LIKE" in sql and "k.k_keyword LIKE" in sql
        )
        plan = optimize_query(
            database, parse_query(database, sql, "like"), "bqo"
        ).plan
        distinct = sum(
            database.dictionary(table, column).num_values
            for table, column in (("title", "t_title"), ("keyword", "k_keyword"))
        )
        rows = sum(
            database.table(table).num_rows for table in ("title", "keyword")
        )
        assert distinct < rows / 10  # what makes the dictionary pay

        calls: list = []
        compile_like = eval_module.like_to_regex
        monkeypatch.setattr(
            eval_module,
            "like_to_regex",
            lambda pattern: _CountingPattern(compile_like(pattern), calls),
        )
        executor = Executor(database)
        first = executor.execute(plan)
        assert 0 < len(calls) <= distinct
        del calls[:]
        tracer = Tracer()
        second = executor.execute(plan, tracer=tracer)
        assert calls == []
        assert second.aggregates["cnt"].tolist() == first.aggregates["cnt"].tolist()
        # ... and the trace says how each scan was answered.
        answered = sorted(
            (span.attributes["label"], span.attributes["predicate"],
             span.attributes["truth_table"])
            for span in tracer.spans("node")
            if "predicate" in span.attributes
        )
        assert [entry[1:] for entry in answered] == [("dictionary", "hit")] * 2

    def test_numeric_predicates_build_no_dictionary(self):
        """Row path for numeric columns: the scan neither builds a
        dictionary nor says it used one."""
        database = _database(3, rows=5_000)
        plan = optimize_query(
            database,
            parse_query(
                database,
                "SELECT COUNT(*) AS cnt FROM fact f "
                "WHERE f.k_int > 3 AND f.k_float < 2.0",
                "numeric",
            ),
            "bqo",
        ).plan
        tracer = Tracer()
        Executor(database).execute(plan, tracer=tracer)
        assert database.dictionary_cache_info()["builds"] == 0
        (scan,) = [
            span for span in tracer.spans("node")
            if "predicate" in span.attributes
        ]
        assert scan.attributes["predicate"] == "rows"
        assert "truth_table" not in scan.attributes

    def test_reloaded_data_never_meets_an_old_table(self):
        """A reload swaps tables and invalidates dictionaries: the new
        dictionary objects start with no truth table and no translation,
        so the same statement answers for the new data."""
        database, want = _reloadable_database(0)
        plan = optimize_query(
            database, parse_query(database, _RELOAD_SQL, "reload"), "bqo"
        ).plan

        def run():
            tracer = Tracer()
            result = Executor(database).execute(plan, tracer=tracer)
            tables = [
                span.attributes["truth_table"]
                for span in tracer.spans("node")
                if "truth_table" in span.attributes
            ]
            return int(result.aggregates["cnt"][0]), tables

        assert run() == (want, ["built"])
        assert run() == (want, ["hit"])
        old_fact = database.dictionary("fact", "k_text")
        old_dim = database.dictionary("dim", "d_text")
        assert old_fact._translations.get(old_dim) is not None

        reloaded, want_reloaded = _reloadable_database(3)
        assert want_reloaded != want
        for name in ("fact", "dim"):
            database._tables[name] = reloaded.table(name)
        database.invalidate_dictionaries()
        assert run() == (want_reloaded, ["built"])
        assert run() == (want_reloaded, ["hit"])
        new_fact = database.dictionary("fact", "k_text")
        assert new_fact is not old_fact
        assert old_dim not in new_fact._translations

    def test_truth_tables_stay_bounded_under_fresh_literals(self):
        """One cached plan, 1 000 substituted constants: every answer is
        that constant's (tables are keyed after substitution) and the
        dictionary keeps at most its bound of them."""
        database = _database(5, rows=3_000)
        column = database.table("fact").column("k_text")
        counts = dict(zip(*np.unique(column, return_counts=True)))
        service = QueryService(database)
        try:
            for index in range(1_000):
                literal = f"s{index % 40:02d}" if index % 3 else f"x{index}"
                outcome = service.execute(
                    "SELECT COUNT(*) AS cnt FROM fact f "
                    f"WHERE f.k_text = '{literal}'"
                )
                assert outcome.result.aggregates["cnt"][0] == counts.get(
                    literal, 0
                ), literal
            assert service.stats().plan_cache_hits >= 999
        finally:
            service.close()
        tables = database.dictionary("fact", "k_text")._truth_tables
        assert 0 < len(tables) <= keycodes._TRUTH_TABLE_BOUND

    def test_racing_threads_agree(self):
        """More threads than cores lower and evaluate the same stream of
        predicates — more of them than the memo keeps, so first
        evaluations, hits and evictions all interleave — over one
        dictionary: every mask equals row evaluation."""
        database = _database(9, rows=2_000)
        scan = _scan(database)
        values = scan.column("f", "k_text")
        predicates = [
            Or((
                Like(col("f", "k_text"), f"s{index % 7}%"),
                Comparison("=", col("f", "k_text"), lit(f"s{index:02d}")),
            ))
            for index in range(keycodes._TRUTH_TABLE_BOUND + 30)
        ]
        want = [
            evaluate_predicate(
                predicate, lambda alias, column: values, len(values)
            )
            for predicate in predicates
        ]
        database.dictionary("fact", "k_text")  # built; the race is the memo
        start = threading.Barrier(4)
        wrong: list = []

        def worker(offset: int) -> None:
            start.wait(timeout=30)
            for step in range(3 * len(predicates)):
                index = (offset + step) % len(predicates)
                lowered = lower_to_dictionaries(
                    predicates[index],
                    lambda alias, column: scan.column_dictionary(
                        database, alias, column, text_only=True
                    ),
                )
                got = evaluate_predicate(
                    lowered, scan.provider, scan.num_rows, scan.stored_codes
                )
                if not np.array_equal(got, want[index]):
                    wrong.append(index)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(offset * 17,))
                for offset in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        tables = database.dictionary("fact", "k_text")._truth_tables
        assert len(tables) <= keycodes._TRUTH_TABLE_BOUND
