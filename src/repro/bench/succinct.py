"""Succinct-filter experiment: packed rank/select structures vs. dense.

Four measurements, one artifact (``BENCH_succinct_filters.json``):

* **membership footprint** — an :class:`~repro.filters.exact.ExactFilter`
  over a sparse multi-column code domain stores its member table as a
  packed bitvector (1 bit per domain slot plus the ~3% rank directory)
  instead of the dense bool table (8 bits per slot) the seed engine
  kept.  The headline ``footprint_ratio`` is dense-over-packed — the
  acceptance gate requires at least 6x.
* **probe throughput** — word-probe (``Bitvector.get``) vs. bool
  fancy-indexing at a cache-spilling domain, interleaved best-of-N.
  ``probe_throughput_ratio`` is packed-over-bool (>= 0.9 gate: the 8x
  memory win must not cost meaningful probe speed where it applies).
* **cache residency** — how many member tables of the measured geometry
  fit a fixed memory budget in each representation; the succinct form
  keeps ~8x more filters hot in the cross-query filter cache.
* **engine identity** — a selective workload large enough to take the
  bitmap-selection path runs serial and parallel; checksums must be
  identical, and the run reports the selection-state bytes actually
  created vs. the dense int64 vectors they replace.

CLI::

    python -m repro.bench --experiment succinct-filters \
        --output BENCH_succinct_filters.json
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.bench.reporting import available_cores
from repro.engine.executor import Executor
from repro.filters.cache import BitvectorFilterCache
from repro.filters.exact import ExactFilter
from repro.optimizer.pipelines import optimize_query
from repro.sql.binder import parse_query
from repro.storage.database import Database
from repro.storage.table import Table
from repro.succinct import Bitvector

# Membership section: two key columns of this many distinct values each
# make a sparse combined code domain of KEY_DOMAIN**2 slots.
DEFAULT_KEY_DOMAIN = 2_048
DEFAULT_BUILD_ROWS = 300_000

# Probe-throughput section: the domain must spill the last-level cache
# for the packed representation's bandwidth advantage to show; below
# ~2^24 the dense bool table wins on numpy per-op overhead (which is
# exactly why ExactFilter keeps a small decoded probe view there).
DEFAULT_PROBE_DOMAIN = 1 << 25
DEFAULT_PROBES = 1 << 20

# Engine-identity section: the fact table must exceed the engine's
# bitmap-selection floor (repro.engine.relation._BITMAP_MIN_ROWS) so
# scan/filter selections actually take the packed path.
DEFAULT_FACT_ROWS = 400_000

DEFAULT_BUDGET_BYTES = 8 << 20


def _membership_footprint(
    key_domain: int, build_rows: int, seed: int = 5
) -> dict:
    """Packed vs. dense-bool member-table bytes for one exact filter."""
    rng = np.random.default_rng(seed)
    columns = [
        rng.integers(0, key_domain, build_rows),
        rng.integers(0, key_domain, build_rows),
    ]
    built = ExactFilter.build(columns)
    info = built.describe()
    table = built._member_table
    if table is None:
        raise RuntimeError(
            "membership benchmark geometry no longer builds a packed "
            f"member table: {info}"
        )
    # Force the rank directory so the packed number is the honest
    # steady-state footprint, directory overhead included.
    table.rank1(np.array([table.num_bits - 1], dtype=np.int64))
    packed_bytes = table.nbytes + table.directory_nbytes
    dense_bytes = table.num_bits  # the seed's np.bool_ table: 1 byte/slot
    return {
        "key_domain_per_column": key_domain,
        "build_rows": build_rows,
        "member_table_bits": table.num_bits,
        "member_count": table.count(),
        "packed_bytes": int(packed_bytes),
        "directory_bytes": int(table.directory_nbytes),
        "dense_bool_bytes": int(dense_bytes),
        "footprint_ratio": round(dense_bytes / packed_bytes, 3),
        "filter_resident_bytes": int(built.resident_bytes),
        "mode": info["mode"],
    }


def _probe_throughput(
    domain: int, probes: int, rounds: int, seed: int = 9
) -> dict:
    """Interleaved best-of-N probe timings, packed vs. dense bool."""
    rng = np.random.default_rng(seed)
    mask = rng.random(domain) < 0.3
    packed = Bitvector.from_mask(mask)
    positions = rng.integers(0, domain, probes)
    # Warm both paths (first packed probe may build nothing, but page
    # everything in regardless).
    reference = mask[positions]
    if not np.array_equal(packed.get(positions), reference):
        raise RuntimeError("packed probe disagrees with bool table")
    best = {"bool": float("inf"), "packed": float("inf")}
    for _ in range(rounds):
        started = time.perf_counter()
        mask[positions]
        best["bool"] = min(best["bool"], time.perf_counter() - started)
        started = time.perf_counter()
        packed.get(positions)
        best["packed"] = min(best["packed"], time.perf_counter() - started)
    bool_rate = probes / max(best["bool"], 1e-12)
    packed_rate = probes / max(best["packed"], 1e-12)
    return {
        "domain_bits": domain,
        "probes": probes,
        "rounds": rounds,
        "bool_seconds": round(best["bool"], 6),
        "packed_seconds": round(best["packed"], 6),
        "bool_probes_per_second": round(bool_rate),
        "packed_probes_per_second": round(packed_rate),
        "probe_throughput_ratio": round(packed_rate / bool_rate, 3),
    }


def _cache_residency(footprint: dict, budget_bytes: int) -> dict:
    """Member tables of the measured geometry that fit a fixed budget."""
    packed = footprint["packed_bytes"]
    dense = footprint["dense_bool_bytes"]
    return {
        "budget_bytes": budget_bytes,
        "filters_resident_packed": budget_bytes // packed,
        "filters_resident_dense": budget_bytes // dense,
        "residency_ratio": round(
            (budget_bytes // packed) / max(budget_bytes // dense, 1), 2
        ),
    }


def _identity_database(rows: int, seed: int = 11) -> tuple[Database, list[str]]:
    """A selective scan + filtered join over one fact table, with the
    fact key shuffled so neither zone pruning nor the clustered band
    search trivializes the row-filter paths under test."""
    rng = np.random.default_rng(seed)
    domain = max(rows // 20, 1)
    keys = rng.integers(0, domain, rows)
    values = (keys % 89).astype(np.float64) + 0.5
    database = Database("succinct_identity")
    database.add_table(
        Table.from_arrays("fact", {"f_key": keys, "f_val": values}),
        validate_key=False,
    )
    database.add_table(
        Table.from_arrays("dim", {"d_key": np.arange(domain)}, key=("d_key",))
    )
    low = int(domain * 0.2)
    high = int(domain * 0.6)
    sqls = [
        "SELECT COUNT(*) AS cnt, SUM(f.f_val) AS rev "
        f"FROM fact f WHERE f.f_key BETWEEN {low} AND {high}",
        "SELECT COUNT(*) AS cnt, SUM(f.f_val) AS rev "
        "FROM fact f, dim d WHERE f.f_key = d.d_key "
        f"AND d.d_key BETWEEN {low} AND {low + max(domain // 20, 1)}",
    ]
    return database, sqls


def _checksum(results) -> float:
    from repro.bench.harness import _checksum as harness_checksum

    return round(sum(harness_checksum(result) for result in results), 6)


def _engine_identity(rows: int, morsel_rows: int) -> dict:
    """Serial vs. parallel: byte identity plus the selection-state
    accounting of the succinct path."""
    database, sqls = _identity_database(rows)
    plans = [
        optimize_query(
            database, parse_query(database, sql, f"sf_{i}"), "bqo"
        ).plan
        for i, sql in enumerate(sqls)
    ]
    configs = {
        "lazy_serial": dict(parallelism=1),
        "lazy_parallel": dict(parallelism=4),
    }
    checksums: dict[str, float] = {}
    accounting: dict[str, dict] = {}
    for name, kwargs in configs.items():
        cache = BitvectorFilterCache(64)
        executor = Executor(
            database, filter_cache=cache, morsel_rows=morsel_rows, **kwargs
        )
        results = [executor.execute(plan) for plan in plans]
        checksums[name] = _checksum(results)
        selection = sum(r.metrics.selection_bytes for r in results)
        dense = sum(r.metrics.selection_bytes_dense for r in results)
        accounting[name] = {
            "selection_bytes": selection,
            "selection_bytes_dense": dense,
            "selection_ratio": round(selection / dense, 4) if dense else None,
            "filter_bytes_resident": cache.resident_bytes(),
            "filter_modes": cache.mode_summary(),
        }
    return {
        "fact_rows": rows,
        "queries": len(plans),
        "checksums": checksums,
        "checksums_identical": len(set(checksums.values())) == 1,
        "accounting": accounting,
    }


def run_succinct_filters(
    key_domain: int = DEFAULT_KEY_DOMAIN,
    build_rows: int = DEFAULT_BUILD_ROWS,
    probe_domain: int = DEFAULT_PROBE_DOMAIN,
    probes: int = DEFAULT_PROBES,
    fact_rows: int = DEFAULT_FACT_ROWS,
    morsel_rows: int = 16384,
    rounds: int = 7,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
) -> dict:
    """Run all four sections and assemble the artifact payload."""
    footprint = _membership_footprint(key_domain, build_rows)
    throughput = _probe_throughput(probe_domain, probes, rounds)
    residency = _cache_residency(footprint, budget_bytes)
    identity = _engine_identity(fact_rows, morsel_rows)
    lazy = identity["accounting"]["lazy_serial"]
    return {
        "experiment": "succinct_filters",
        "cpu_cores": available_cores(),
        "membership_footprint": footprint,
        "probe_throughput": throughput,
        "cache_residency": residency,
        "engine_identity": identity,
        # Headline gates (benchmarks/test_succinct_filters.py + CI).
        "footprint_ratio": footprint["footprint_ratio"],
        "probe_throughput_ratio": throughput["probe_throughput_ratio"],
        "checksums_identical": identity["checksums_identical"],
        "selection_bytes": lazy["selection_bytes"],
        "selection_bytes_dense": lazy["selection_bytes_dense"],
    }


def write_succinct_report(payload: dict, path: str | Path) -> Path:
    """Write the payload as JSON (the in-repo perf artifact)."""
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return path
