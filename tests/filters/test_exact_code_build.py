"""``ExactFilter.from_dictionary_codes`` builds the value-built filter.

The executor builds exact filters from the build rows' *stored
dictionary codes* (presence scatter + cumsum over the build column's
table dictionary) instead of factorizing the gathered values.  The
result must be field for field the filter ``ExactFilter(values)`` is —
same private dictionaries, code set, member-table words, bounds and
sizes — and must answer every probe identically, including the first
probe per probe dictionary, which a single-column code-built filter
answers by translating that dictionary into the build table's.  No
factorization may happen on the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.engine.relation import BitmapSelection, Relation
from repro.filters import exact as exact_module
from repro.filters.exact import ExactFilter
from repro.storage.database import Database
from repro.storage.table import Table
from repro.util import keycodes

# Above the relation layer's bitmap threshold (see relation.py).
_ROWS = 70_000
_TEXT = np.array([f"t{value:03d}" for value in range(140)], dtype=object)


def _database(seed: int = 0) -> Database:
    rng = np.random.default_rng(seed)
    database = Database(f"codebuild_{seed}")
    database.add_table(
        Table.from_arrays(
            "dim",
            {
                "k_int": rng.integers(-50, 4_000, _ROWS),
                "k_text": _TEXT[rng.integers(0, len(_TEXT), _ROWS)],
                "k_bool": rng.random(_ROWS) < 0.5,
                "k_float": rng.integers(0, 9, _ROWS).astype(np.float64),
            },
        )
    )
    # A probe-side table over overlapping but different domains: values
    # the build table never holds, and a dictionary that is not the
    # build column's.
    database.add_table(
        Table.from_arrays(
            "fact",
            {
                "fk_int": rng.integers(-200, 6_000, 9_000),
                "fk_text": np.concatenate(
                    [_TEXT, np.array(["zz", "a"], dtype=object)]
                )[rng.integers(0, len(_TEXT) + 2, 9_000)],
                "fk_bool": rng.random(9_000) < 0.2,
            },
        )
    )
    return database


def _scan(database: Database, table_name: str, alias: str) -> Relation:
    table = database.table(table_name)
    names = table.column_names
    return Relation(
        {(alias, name): table.column(name) for name in names},
        table.num_rows,
        sources={(alias, name): (table_name, name) for name in names},
    )


def _build_views(database: Database) -> dict[str, Relation]:
    rng = np.random.default_rng(5)
    scan = _scan(database, "dim", "d")
    bitmap = scan.mask(rng.random(_ROWS) < 0.03)
    assert isinstance(bitmap._groups[0].selection, BitmapSelection)
    return {
        "array": scan.gather(rng.permutation(_ROWS)[:700]),
        "slice": scan.narrow(2_000, 2_900),
        "bitmap": bitmap,
        "identity": scan,
        "empty": scan.gather(np.array([], dtype=np.int64)),
    }


def _same_array(left, right) -> bool:
    if left.dtype != right.dtype or left.shape != right.shape:
        return False
    if left.dtype.kind == "O":
        return left.tolist() == right.tolist()
    return left.tobytes() == right.tobytes()


def _pair(database, view, keys):
    """(code-built, value-built) filters over one view's key columns."""
    executor = Executor(database)
    coded = executor._key_codes(view, [("d", key) for key in keys])
    assert coded is not None
    before = keycodes.factorization_count()
    from_codes = ExactFilter.from_dictionary_codes(*coded)
    assert keycodes.factorization_count() == before, "code build factorized"
    from_values = ExactFilter([view.column("d", key) for key in keys])
    return from_codes, from_values


_KEYS = [
    ["k_int"],
    ["k_text"],
    ["k_bool"],
    ["k_text", "k_int"],
    ["k_bool", "k_text"],
]
_PROBE_OF = {"k_int": "fk_int", "k_text": "fk_text", "k_bool": "fk_bool"}


@pytest.fixture(scope="module")
def database():
    return _database()


@pytest.fixture(scope="module")
def build_views(database):
    return _build_views(database)


class TestFieldForField:
    @pytest.mark.parametrize("keys", _KEYS, ids="+".join)
    @pytest.mark.parametrize(
        "view_name", ["array", "slice", "bitmap", "identity", "empty"]
    )
    def test_equals_the_value_built_filter(
        self, database, build_views, view_name, keys
    ):
        from_codes, from_values = _pair(database, build_views[view_name], keys)
        where = f"{view_name} {keys}"
        assert from_codes._mode == from_values._mode == "indexed", where
        assert from_codes._key_columns is None
        for mine, theirs in zip(
            from_codes._dictionaries, from_values._dictionaries
        ):
            assert _same_array(mine.values, theirs.values), where
            assert _same_array(mine.codes, theirs.codes), where
        assert _same_array(from_codes._code_set, from_values._code_set), where
        assert (from_codes._member_table is None) == (
            from_values._member_table is None
        ), where
        if from_codes._member_table is not None:
            assert from_codes._member_table.num_bits == (
                from_values._member_table.num_bits
            )
            assert _same_array(
                from_codes._member_table.words, from_values._member_table.words
            ), where
        assert from_codes.num_keys == from_values.num_keys
        assert from_codes.size_bits == from_values.size_bits
        assert from_codes.has_distinct_keys == from_values.has_distinct_keys
        assert str(from_codes.key_bounds()) == str(from_values.key_bounds())

    def test_sparse_multi_column_domain_takes_the_unique_branch(
        self, database, build_views, monkeypatch
    ):
        """Past the packed-table cost model the code set is sorted out of
        the combined codes; still equal to the value build."""
        monkeypatch.setattr(
            exact_module, "_packed_table_worthwhile", lambda domain, count: False
        )
        from_codes, from_values = _pair(
            database, build_views["array"], ["k_text", "k_int"]
        )
        assert from_codes._member_table is None
        assert _same_array(from_codes._code_set, from_values._code_set)

    def test_distinct_keys_reflect_the_build_rows(self, database):
        table = database.table("dim")
        _, first_rows = np.unique(table.column("k_int"), return_index=True)
        scan = _scan(database, "dim", "d")
        unique_build, _ = _pair(database, scan.gather(first_rows), ["k_int"])
        assert unique_build.has_distinct_keys
        repeated, _ = _pair(database, scan, ["k_int"])
        assert not repeated.has_distinct_keys


class TestProbes:
    @pytest.mark.parametrize("keys", _KEYS, ids="+".join)
    @pytest.mark.parametrize("view_name", ["array", "bitmap", "empty"])
    def test_value_and_code_probes_agree(
        self, database, build_views, view_name, keys
    ):
        from_codes, from_values = _pair(database, build_views[view_name], keys)
        executor = Executor(database)
        # Foreign probe dictionary (the fact table's columns, holding
        # values the build table never saw) and the build column's own.
        fact = _scan(database, "fact", "f")
        dim = _scan(database, "dim", "d").narrow(10, 6_000)
        probes = [
            (fact, [("f", _PROBE_OF[key]) for key in keys]),
            (dim, [("d", key) for key in keys]),
        ]
        for view, probe_keys in probes:
            values = [view.column(alias, column) for alias, column in probe_keys]
            want = from_values.contains(values)
            assert np.array_equal(from_codes.contains(values), want)
            for bitvector in (from_codes, from_values):
                got = executor._contains_by_codes(bitvector, probe_keys, view)
                assert got is not None and got.dtype == np.bool_
                assert np.array_equal(got, want), (view_name, probe_keys)

    def test_first_probe_translates_instead_of_searching(
        self, database, build_views, monkeypatch
    ):
        """A single-column code-built filter answers its first probe per
        probe dictionary through the build *table* dictionary — it never
        encodes the probe domain into its sparse private one.  The
        translation is memoized per pair of table dictionaries, so an
        earlier probe of the pair may already have paid the encode."""
        from_codes, _ = _pair(database, build_views["array"], ["k_int"])
        private = from_codes._dictionaries[0]
        table_dictionary = database.dictionary("dim", "k_int")
        encoded_into = []
        encode = keycodes.ColumnDictionary.encode

        def spying_encode(self, values):
            encoded_into.append(self)
            return encode(self, values)

        monkeypatch.setattr(keycodes.ColumnDictionary, "encode", spying_encode)
        fact = _scan(database, "fact", "f")
        Executor(database)._contains_by_codes(
            from_codes, [("f", "fk_int")], fact
        )
        assert encoded_into in ([], [table_dictionary])
        assert private not in encoded_into

    def test_probe_after_dictionaries_are_rebuilt(self, database, build_views):
        """``invalidate_dictionaries`` hands out new dictionary objects;
        a filter built against the old ones still answers correctly."""
        from_codes, from_values = _pair(
            database, build_views["bitmap"], ["k_text"]
        )
        fact = _scan(database, "fact", "f")
        want = from_values.contains([fact.column("f", "fk_text")])
        executor = Executor(database)
        probe_keys = [("f", "fk_text")]
        assert np.array_equal(
            executor._contains_by_codes(from_codes, probe_keys, fact), want
        )
        old = database.dictionary("fact", "fk_text")
        database.invalidate_dictionaries()
        assert database.dictionary("fact", "fk_text") is not old
        assert np.array_equal(
            executor._contains_by_codes(from_codes, probe_keys, fact), want
        )
        dim = _scan(database, "dim", "d")
        assert np.array_equal(
            executor._contains_by_codes(from_codes, [("d", "k_text")], dim),
            from_values.contains([dim.column("d", "k_text")]),
        )

    def test_resident_bytes_count_the_presence_table(self, database, build_views):
        from_codes, from_values = _pair(database, build_views["array"], ["k_int"])
        table_values = database.dictionary("dim", "k_int").num_values
        assert (
            from_codes.resident_bytes
            == from_values.resident_bytes + table_values + 1
        )
        # Multi-column filters retain nothing extra.
        from_codes, from_values = _pair(
            database, build_views["array"], ["k_text", "k_int"]
        )
        assert from_codes.resident_bytes == from_values.resident_bytes


class TestFallbacks:
    def test_float_keys_stay_on_the_value_build(self, database):
        executor = Executor(database)
        scan = _scan(database, "dim", "d")
        assert executor._key_codes(scan, [("d", "k_float")]) is None
        assert executor._key_codes(scan, [("d", "k_int"), ("d", "k_float")]) is None

    def test_radix_overflow_returns_none(self, database, build_views, monkeypatch):
        executor = Executor(database)
        coded = executor._key_codes(
            build_views["array"], [("d", "k_text"), ("d", "k_int")]
        )
        monkeypatch.setattr(keycodes, "_RADIX_LIMIT", 1_000)
        assert ExactFilter.from_dictionary_codes(*coded) is None
        # ... and the value build over the same rows lands in the
        # overflow fallback, which is what the executor then publishes.
        values = [
            build_views["array"].column("d", key) for key in ("k_text", "k_int")
        ]
        assert ExactFilter(values)._mode == "overflow-fallback"

    def test_executor_falls_back_per_key_kind(self, database, monkeypatch):
        """The executor's build site: code space for dictionary-backed
        keys, the value constructor otherwise."""
        calls = []
        from_codes = ExactFilter.from_dictionary_codes.__func__

        def counting(cls, dictionaries, code_columns):
            calls.append(len(code_columns))
            return from_codes(cls, dictionaries, code_columns)

        monkeypatch.setattr(
            ExactFilter, "from_dictionary_codes", classmethod(counting)
        )

        class Definition:
            def __init__(self, *keys):
                self.build_keys = tuple(("d", key) for key in keys)

        from repro.engine.metrics import ExecutionMetrics

        scan = _scan(database, "dim", "d").narrow(0, 500)
        for parallelism in (1, 4):
            executor = Executor(database, parallelism=parallelism)
            built = executor._build_join_filter(
                Definition("k_int"), scan, ExecutionMetrics()
            )
            assert built._mode == "indexed" and built._presence is not None
            built = executor._build_join_filter(
                Definition("k_float"), scan, ExecutionMetrics()
            )
            assert built._mode == "float-fallback"
        assert calls == [1, 1]
        # A key without table provenance (a derived column) has no
        # stored codes: the value constructor builds it.
        derived = Relation({("d", "k_int"): scan.column("d", "k_int")}, 500)
        built = Executor(database)._build_join_filter(
            Definition("k_int"), derived, ExecutionMetrics()
        )
        assert built._mode == "indexed" and built._presence is None
        assert calls == [1, 1]
