"""``ExactFilter.from_dictionary_codes`` answers as the value-built filter.

The executor builds exact filters from the build rows' *stored
dictionary codes* (one presence scatter over the build column's table
dictionary) instead of factorizing the gathered values.  The result
must answer every probe as ``ExactFilter(values)`` and a brute-force
Python set of the build key tuples do — value probes, code probes
through another table's dictionary, bounds, distinctness, sizes — and
no factorization may happen on the way.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.engine.relation import Relation
from repro.filters.base import compute_key_bounds
from repro.filters.exact import ExactFilter
from repro.storage.database import Database
from repro.storage.table import Table
from repro.util import keycodes

# Wider than 65,536 rows: the widths whose selections were once
# bit-packed keep their coverage on the one int64 path.
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


_VIEWS = ["array", "slice", "masked", "identity", "empty"]


def _build_views(database: Database) -> dict[str, Relation]:
    rng = np.random.default_rng(5)
    scan = _scan(database, "dim", "d")
    masked = scan.mask(rng.random(_ROWS) < 0.03)
    assert isinstance(masked._groups[0].selection, np.ndarray)
    return {
        "array": scan.gather(rng.permutation(_ROWS)[:700]),
        "slice": scan.narrow(2_000, 2_900),
        "masked": masked,
        "identity": scan,
        "empty": scan.gather(np.array([], dtype=np.int64)),
    }


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


def _brute_force(build, probes) -> np.ndarray:
    """Membership of each probe tuple in the set of build tuples."""
    members = set(zip(*(column.tolist() for column in build)))
    return np.array(
        [row in members for row in zip(*(c.tolist() for c in probes))],
        dtype=bool,
    )


_KEYS = [
    ["k_int"],
    ["k_text"],
    ["k_bool"],
    ["k_text", "k_int"],
    ["k_bool", "k_text"],
]
_PROBE_OF = {"k_int": "fk_int", "k_text": "fk_text", "k_bool": "fk_bool"}
# Probe values outside every build domain (and, for ints, outside the
# dense lookup span of the build dictionary).
_OUTSIDE = {
    "k_int": np.array([-10**9, -51, 4_000, 10**12], dtype=np.int64),
    "k_text": np.array(["", "t", "t0000", "zzzz"], dtype=object),
    "k_bool": np.array([True, False, False, True]),
}


@pytest.fixture(scope="module")
def database():
    return _database()


@pytest.fixture(scope="module")
def build_views(database):
    return _build_views(database)


class TestBehaviour:
    @pytest.mark.parametrize("keys", _KEYS, ids="+".join)
    @pytest.mark.parametrize("view_name", _VIEWS)
    def test_matches_value_build_and_brute_force(
        self, database, build_views, view_name, keys
    ):
        view = build_views[view_name]
        from_codes, from_values = _pair(database, view, keys)
        where = f"{view_name} {keys}"
        build = [view.column("d", key) for key in keys]

        # Value probes: the fact table's values plus values outside
        # every build domain.
        fact = _scan(database, "fact", "f")
        probe_keys = [("f", _PROBE_OF[key]) for key in keys]
        values = [
            np.concatenate([fact.column(alias, column), _OUTSIDE[key]])
            for (alias, column), key in zip(probe_keys, keys)
        ]
        want = _brute_force(build, values)
        for bitvector in (from_codes, from_values):
            assert np.array_equal(bitvector.contains(values), want), where

        # Code probes through the fact table's dictionaries, which are
        # not the build's.
        want = _brute_force(
            build, [fact.column(alias, column) for alias, column in probe_keys]
        )
        executor = Executor(database)
        for bitvector in (from_codes, from_values):
            got = executor._contains_by_codes(bitvector, probe_keys, fact)
            assert got is not None and got.dtype == np.bool_
            assert np.array_equal(got, want), where

        bounds = compute_key_bounds(build)
        distinct = len(set(zip(*(column.tolist() for column in build))))
        for bitvector in (from_codes, from_values):
            assert bitvector.key_bounds() == bounds, where
            assert bitvector.num_keys == view.num_rows
            assert bitvector.has_distinct_keys == (distinct == view.num_rows)
            assert bitvector.size_bits == 64 * view.num_rows
        if view_name == "empty":
            assert bounds == [None] * len(keys)
            assert not from_codes.contains(values).any()

    def test_distinct_keys_reflect_the_build_rows(self, database):
        table = database.table("dim")
        _, first_rows = np.unique(table.column("k_int"), return_index=True)
        scan = _scan(database, "dim", "d")
        unique_build, _ = _pair(database, scan.gather(first_rows), ["k_int"])
        assert unique_build.has_distinct_keys
        repeated, _ = _pair(database, scan, ["k_int"])
        assert not repeated.has_distinct_keys

    @pytest.mark.parametrize("key", ["k_int", "k_text", "k_bool"])
    def test_single_column_code_build_neither_factorizes_nor_sorts(
        self, database, build_views, monkeypatch, key
    ):
        """A single-column code build is a scatter: it never builds a
        dictionary of its own and never sorts codes."""
        executor = Executor(database)
        coded = [
            executor._key_codes(build_views[name], [("d", key)])
            for name in _VIEWS
        ]

        def forbidden(*args, **kwargs):
            raise AssertionError("single-column code build factorized")

        monkeypatch.setattr(keycodes.ColumnDictionary, "build", forbidden)
        monkeypatch.setattr(np, "unique", forbidden)
        for dictionaries, code_columns in coded:
            built = ExactFilter.from_dictionary_codes(dictionaries, code_columns)
            assert built is not None
            assert built.num_keys == len(code_columns[0])


class TestProbes:
    @pytest.mark.parametrize("keys", _KEYS, ids="+".join)
    @pytest.mark.parametrize("view_name", ["array", "masked", "empty"])
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
        probe dictionary by encoding that dictionary's *distinct* values
        into the build table's dictionary — never the probe rows — and
        later probes through the same dictionary encode nothing.  The
        translation is memoized per pair of table dictionaries, so an
        earlier probe of the pair may already have paid the encode."""
        from_codes, _ = _pair(database, build_views["array"], ["k_int"])
        table_dictionary = database.dictionary("dim", "k_int")
        probe_dictionary = database.dictionary("fact", "fk_int")
        encoded = []
        encode = keycodes.ColumnDictionary.encode

        def spying_encode(self, values):
            encoded.append((self, len(values)))
            return encode(self, values)

        monkeypatch.setattr(keycodes.ColumnDictionary, "encode", spying_encode)
        fact = _scan(database, "fact", "f")
        executor = Executor(database)
        first = executor._contains_by_codes(from_codes, [("f", "fk_int")], fact)
        assert encoded in ([], [(table_dictionary, probe_dictionary.num_values)])
        encoded.clear()
        again = executor._contains_by_codes(from_codes, [("f", "fk_int")], fact)
        assert encoded == []
        want = _brute_force(
            [build_views["array"].column("d", "k_int")],
            [fact.column("f", "fk_int")],
        )
        assert np.array_equal(first, want) and np.array_equal(again, want)

    def test_probe_after_dictionaries_are_rebuilt(self, database, build_views):
        """``invalidate_dictionaries`` hands out new dictionary objects;
        a filter built against the old ones still answers correctly."""
        from_codes, from_values = _pair(
            database, build_views["masked"], ["k_text"]
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
        view = build_views["array"]
        from_codes, _ = _pair(database, view, ["k_int"])
        table_values = database.dictionary("dim", "k_int").num_values
        # One bool per table-dictionary code plus the absent slot; the
        # table dictionary itself belongs to the database.
        assert from_codes.resident_bytes == table_values + 1
        # A probe through another dictionary memoizes one bool per code
        # of that dictionary.
        fact = _scan(database, "fact", "f")
        Executor(database)._contains_by_codes(from_codes, [("f", "fk_int")], fact)
        probe_values = database.dictionary("fact", "fk_int").num_values
        assert from_codes.resident_bytes == table_values + 1 + probe_values
        # Several columns hold one int64 combined code per distinct tuple.
        from_codes, _ = _pair(database, view, ["k_text", "k_int"])
        distinct = len(
            set(zip(view.column("d", "k_text").tolist(),
                    view.column("d", "k_int").tolist()))
        )
        assert from_codes.resident_bytes == 8 * distinct


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
        table_values = database.dictionary("dim", "k_int").num_values
        for parallelism in (1, 4):
            executor = Executor(database, parallelism=parallelism)
            built = executor._build_join_filter(
                Definition("k_int"), scan, ExecutionMetrics()
            )
            # Presence over the table dictionary's domain.
            assert built.describe()["presence_slots"] == table_values + 1
            built = executor._build_join_filter(
                Definition("k_float"), scan, ExecutionMetrics()
            )
            assert built._mode == "float-fallback"
        assert calls == [1, 1]
        # A key without table provenance (a derived column) has no
        # stored codes: the value constructor builds it, over its own
        # dictionary of the 500 rows' values.
        derived = Relation({("d", "k_int"): scan.column("d", "k_int")}, 500)
        built = Executor(database)._build_join_filter(
            Definition("k_int"), derived, ExecutionMetrics()
        )
        distinct = len(set(scan.column("d", "k_int").tolist()))
        assert built.describe()["presence_slots"] == distinct + 1
        assert calls == [1, 1]
