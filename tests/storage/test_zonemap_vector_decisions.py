"""``scan_morsel_decisions``'s all-morsels-at-once path.

The scan site decides every morsel with a few array comparisons when
the predicate and the synopsis allow it.  That path must be invisible:
flag for flag the per-morsel sweeps (``predicate_prune_flags`` /
``predicate_accept_flags``, which only ever walk morsel by morsel), and
absent — ``None`` — for every shape, synopsis or literal it could not
compare exactly.
"""

import numpy as np
import pytest

from repro.expr.expressions import (
    And,
    Between,
    Comparison,
    InList,
    Not,
    Or,
    col,
    lit,
)
from repro.storage.zonemaps import (
    ColumnZoneMap,
    _vector_decisions,
    predicate_accept_flags,
    predicate_prune_flags,
    scan_morsel_decisions,
)

_OPS = ("<", "<=", ">", ">=", "=", "<>")


def _ranges(rows, width):
    return [(start, min(start + width, rows)) for start in range(0, rows, width)]


def _zones(rng, kind):
    """Zone maps of columns ``a`` and ``b``: clustered runs, constant
    morsels and shuffled morsels side by side."""
    rows, width = 96, 8
    zones = {}
    for name in ("a", "b"):
        values = np.concatenate(
            [
                np.sort(rng.integers(0, 40, rows // 2)),
                np.full(width, 7),
                rng.integers(0, 40, rows // 2 - width),
            ]
        )
        if kind == "float":
            values = values.astype(np.float64) / 2
        elif kind == "float-nan":
            values = values.astype(np.float64)
            values[rng.integers(0, rows, 6)] = np.nan
            values[-width:] = np.nan  # one all-NaN morsel
        zones[name] = ColumnZoneMap.build(values, _ranges(rows, width))
    return zones


def _leaf(rng, kind):
    column = col("t", str(rng.choice(["a", "b"])))
    value = int(rng.integers(-2, 43))
    literal = lit(value / 2 if kind != "int" and rng.random() < 0.5 else value)
    shape = rng.integers(0, 4)
    if shape == 0:
        low = int(rng.integers(-2, 43))
        return Between(column, lit(low), lit(low + int(rng.integers(0, 12))))
    if shape == 1:  # literal on the left
        return Comparison(str(rng.choice(_OPS[:5])), literal, column)
    return Comparison(str(rng.choice(_OPS[:5])), column, literal)


def _tree(rng, kind, depth=2):
    if depth == 0 or rng.random() < 0.4:
        return _leaf(rng, kind)
    node = And if rng.random() < 0.6 else Or
    return node(
        tuple(_tree(rng, kind, depth - 1) for _ in range(rng.integers(1, 4)))
    )


def _sweeps(predicate, zones, morsels):
    pruned = predicate_prune_flags(predicate, "t", zones.get, morsels)
    accepted = predicate_accept_flags(predicate, "t", zones.get, morsels)
    return pruned, [a and not p for a, p in zip(accepted, pruned)]


@pytest.mark.parametrize("kind", ["int", "float", "float-nan"])
@pytest.mark.parametrize("seed", range(8))
def test_decisions_equal_the_per_morsel_sweeps(kind, seed):
    rng = np.random.default_rng(seed)
    zones = _zones(rng, kind)
    morsels = zones["a"].num_morsels
    vectorized = 0
    for _ in range(60):
        predicate = _tree(rng, kind)
        vectorized += _vector_decisions(predicate, "t", zones.get) is not None
        assert scan_morsel_decisions(
            predicate, "t", zones.get, morsels
        ) == _sweeps(predicate, zones, morsels), predicate
    # The all-NaN morsel leaves no plain numeric synopsis: always swept.
    assert (vectorized == 0) if kind == "float-nan" else (vectorized > 30)


def test_some_morsels_are_decided_each_way():
    """The generator is not vacuous: prune, accept and undecided all occur."""
    zone = ColumnZoneMap.build(np.arange(32), _ranges(32, 8))
    predicate = Between(col("t", "a"), lit(8), lit(19))
    pruned, accepted = scan_morsel_decisions(
        predicate, "t", {"a": zone}.get, 4
    )
    assert pruned == [True, False, False, True]
    assert accepted == [False, True, False, False]


def test_nan_rows_block_accept_but_not_prune():
    values = np.array([1.0, np.nan, 2.0, 3.0, 8.0, 9.0, 9.5, 9.75])
    zone = ColumnZoneMap.build(values, [(0, 4), (4, 8)])
    below = Comparison("<", col("t", "a"), lit(5.0))
    assert _vector_decisions(below, "t", {"a": zone}.get) is not None
    assert scan_morsel_decisions(below, "t", {"a": zone}.get, 2) == (
        [False, True],
        [False, False],
    )


@pytest.mark.parametrize(
    "predicate",
    [
        Comparison("<>", col("t", "a"), lit(3)),
        InList(col("t", "a"), (lit(1), lit(2))),
        Not(Comparison("<", col("t", "a"), lit(3))),
        Comparison("<", col("t", "a"), col("t", "b")),
        Comparison("<", col("t", "a"), lit("x")),
        Comparison("<", col("t", "a"), lit(2.5)),  # float against int bounds
        Comparison("<", col("t", "a"), lit(2**63)),
        Comparison("<", col("u", "a"), lit(3)),  # another alias
        Comparison("<", col("t", "missing"), lit(3)),
        And(()),
    ],
)
def test_shapes_the_vector_path_declines(predicate):
    zones = _zones(np.random.default_rng(0), "int")
    assert _vector_decisions(predicate, "t", zones.get) is None
    morsels = zones["a"].num_morsels
    assert scan_morsel_decisions(
        predicate, "t", zones.get, morsels
    ) == _sweeps(predicate, zones, morsels)


def test_synopses_without_plain_numeric_bounds_have_no_arrays():
    ranges = [(0, 2), (2, 4)]
    strings = ColumnZoneMap.build(np.array(["a", "b", "c", "d"], dtype=object), ranges)
    mixed = ColumnZoneMap.build(np.array([1, "b", 2, 3], dtype=object), ranges)
    wide = ColumnZoneMap.build(np.array([1, 2, 3, 2**63 + 5], dtype=np.uint64), ranges)
    empty = ColumnZoneMap.build(np.array([1, 2]), [(0, 2), (2, 2)])
    for zone in (strings, mixed, wide, empty):
        assert zone.bound_arrays() is None
    huge = ColumnZoneMap.build(np.array([2**60, 2**60 + 1, 3, 4]), ranges)
    lows, highs, null_free = huge.bound_arrays()
    assert lows.dtype == np.int64 and highs.tolist() == [2**60 + 1, 4]
    assert null_free.all()
    # A float literal past 2**53 against float bounds is still exact; an
    # int literal there is not representable and is declined.
    floats = ColumnZoneMap.build(np.array([1.0, 2.0, 3.0, 4.0]), ranges)
    declined = Comparison("<", col("t", "a"), lit(2**53 + 1))
    assert _vector_decisions(declined, "t", {"a": floats}.get) is None
