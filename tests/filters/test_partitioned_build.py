"""Partition-build-then-merge equivalence for the Bloom kinds.

The contract (see :class:`repro.filters.base.BitvectorFilter`): a
filter assembled from per-partition partials under a shared geometry
must be indistinguishable from a serial build over the concatenated
partitions — *bit-identical* word arrays for the hashed kinds.  The
parallel executor's build pipeline rests entirely on this property.

The exact kind has no partitioned build: the executor builds it from
stored dictionary codes, or serially from the gathered values.
"""

import numpy as np
import pytest

from repro.engine.executor import Executor
from repro.filters import FILTER_KINDS
from repro.filters.base import BitvectorFilter
from repro.filters.blocked import BlockedBloomFilter
from repro.filters.bloom import BloomFilter
from repro.filters.exact import ExactFilter
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table


def _partition(columns, num_partitions):
    bounds = np.linspace(0, len(columns[0]), num_partitions + 1).astype(int)
    return [
        [column[start:stop] for column in columns]
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def _layout_columns(layout: str, rng):
    if layout == "clustered":
        return [np.sort(rng.integers(0, 4000, 30_000))]
    if layout == "shuffled":
        return [rng.integers(0, 4000, 30_000)]
    if layout == "primary_key":
        keys = np.arange(25_000)
        rng.shuffle(keys)
        return [keys]
    if layout == "strings":
        return [
            np.array(
                [f"k{int(v) % 701}" for v in rng.integers(0, 4000, 20_000)],
                dtype=object,
            )
        ]
    if layout == "multi_column":
        keys = rng.integers(0, 500, 25_000)
        return [
            keys,
            np.array([f"s{int(v) % 97}" for v in keys], dtype=object),
        ]
    raise AssertionError(layout)


_LAYOUTS = ("clustered", "shuffled", "primary_key", "strings", "multi_column")


def _probe_for(columns, rng):
    probe_keys = rng.integers(-100, 6000, 8_000)
    probe = [probe_keys]
    for column in columns[1:]:
        probe.append(
            np.array([f"s{int(v) % 101}" for v in probe_keys], dtype=object)
        )
    if columns[0].dtype.kind in "OUS":
        probe = [
            np.array([f"k{int(v) % 719}" for v in probe_keys], dtype=object)
        ]
    return probe


@pytest.mark.parametrize("num_partitions", [1, 4])
@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize(
    "kind",
    sorted(k for k, c in FILTER_KINDS.items() if c.supports_partitioned_build),
)
def test_partitioned_build_matches_serial(kind, layout, num_partitions):
    rng = np.random.default_rng(hash((kind, layout)) % (2**32))
    columns = _layout_columns(layout, rng)
    probe = _probe_for(columns, rng)
    filter_class = FILTER_KINDS[kind]
    serial = filter_class.build(columns)
    merged = filter_class.build_partitioned(
        _partition(columns, num_partitions)
    )

    assert merged.num_keys == serial.num_keys
    assert merged.size_bits == serial.size_bits
    # Identical membership answers, byte for byte — including hash
    # collisions for the approximate kinds (same geometry => same
    # bits => same false positives).
    assert np.array_equal(serial.contains(probe), merged.contains(probe))
    assert serial.false_positive_rate() == merged.false_positive_rate()


@pytest.mark.parametrize("num_partitions", [1, 4])
@pytest.mark.parametrize("layout", _LAYOUTS)
def test_bloom_variants_merge_bit_identical(layout, num_partitions):
    rng = np.random.default_rng(hash(layout) % (2**32))
    columns = _layout_columns(layout, rng)
    parts = _partition(columns, num_partitions)
    serial_bloom = BloomFilter.build(columns)
    merged_bloom = BloomFilter.build_partitioned(parts)
    assert np.array_equal(serial_bloom._words, merged_bloom._words)
    serial_blocked = BlockedBloomFilter.build(columns)
    merged_blocked = BlockedBloomFilter.build_partitioned(parts)
    assert np.array_equal(serial_blocked._blocks, merged_blocked._blocks)


def test_exact_float_keys_build_serially_at_parallelism_four():
    """Float build keys have no stored codes, so the exact filter is
    built from the gathered values; at parallelism 4 that build stays
    serial and answers as the serial executor does."""
    assert ExactFilter.supports_partitioned_build is False
    rng = np.random.default_rng(23)
    database = Database("float_keys")
    database.add_table(Table.from_arrays(
        "dim",
        {"k": np.arange(20_000) * 0.5, "w": rng.integers(0, 10, 20_000)},
    ))
    keys = rng.integers(0, 40_000, 30_000) * 0.5
    keys[::41] = np.nan
    database.add_table(Table.from_arrays(
        "fact", {"k": keys, "v": rng.integers(0, 100, 30_000)},
    ))
    sql = (
        "SELECT COUNT(*) AS cnt, SUM(f.v) AS total FROM fact f, dim d"
        " WHERE f.k = d.k AND d.w < 7"
    )
    plan = optimize_query(
        database, parse_query(database, sql, "float_keys"), "bqo"
    ).plan
    serial = Executor(database).execute(plan)
    parallel = Executor(database, parallelism=4, morsel_rows=2_048).execute(
        plan
    )
    # The build side is big enough to partition: a Bloom kind does.
    bloom = Executor(
        database, filter_kind="bloom", parallelism=4, morsel_rows=2_048
    ).execute(plan)
    assert bloom.metrics.filter_builds_parallel == 1
    assert parallel.metrics.filter_builds_parallel == 0
    assert parallel.metrics.filter_partials_built == 0
    assert serial.scalar("cnt") > 0
    for label in serial.aggregates:
        assert (
            parallel.aggregates[label].tobytes()
            == serial.aggregates[label].tobytes()
        ), label


def test_bloom_geometry_is_total_key_count():
    """Partials must share the geometry of the *total* build, not their
    own partition sizes — otherwise the OR-merge would be meaningless."""
    rng = np.random.default_rng(5)
    columns = [rng.integers(0, 1000, 10_000)]
    geometry = BloomFilter.build_geometry(len(columns[0]))
    partial = BloomFilter.build_partial(
        [columns[0][:100]], geometry
    )
    assert partial.size_bits == geometry["num_bits"]
    own = BloomFilter.build([columns[0][:100]])
    assert own.size_bits != partial.size_bits


def test_merge_rejects_geometry_mismatch():
    rng = np.random.default_rng(6)
    small = BloomFilter.build([rng.integers(0, 10, 50)])
    large = BloomFilter.build([rng.integers(0, 10, 5_000)])
    with pytest.raises(ValueError):
        BloomFilter.merge([small, large], 5_050)


def test_unsupported_kind_raises():
    class Opaque(BitvectorFilter):
        @classmethod
        def build(cls, key_columns, **options):
            return cls()

        def contains(self, key_columns):  # pragma: no cover - stub
            return np.ones(len(key_columns[0]), dtype=bool)

        @property
        def size_bits(self):
            return 0

        @property
        def num_keys(self):
            return 0

    assert not Opaque.supports_partitioned_build
    with pytest.raises(NotImplementedError):
        Opaque.build_partitioned([[np.arange(4)]])
