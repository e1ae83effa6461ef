"""The 20-statement star workload over ``repro.workloads.star``.

Every non-empty subset of the four dimensions with the default select
list (15 statements), plus five multi-dimension subsets re-issued with
a different select list — 20 structurally distinct shapes.  Each
dimension contributes its join clause and one parameterizable local
predicate; :func:`star_statements` fills the placeholders, so two
constant sets give two passes with identical fingerprints.
"""

from __future__ import annotations

import itertools

# Per-dimension table, join clause, and local predicate template.
_DIMENSIONS = {
    "c": ("customer c", "lo.lo_custkey = c.c_custkey", "c.c_region = '{region}'"),
    "s": ("supplier s", "lo.lo_suppkey = s.s_suppkey", "s.s_nation = '{nation}'"),
    "p": ("part p", "lo.lo_partkey = p.p_partkey", "p.p_category = '{category}'"),
    "d": (
        "date_dim d",
        "lo.lo_orderdate = d.d_datekey",
        "d.d_year BETWEEN {year_lo} AND {year_hi}",
    ),
}

COLD_CONSTANTS = {
    "region": "ASIA",
    "nation": "NATION07",
    "category": "MFGR#1",
    "year_lo": 1993,
    "year_hi": 1994,
}
WARM_CONSTANTS = {
    "region": "EUROPE",
    "nation": "NATION12",
    "category": "MFGR#2",
    "year_lo": 1992,
    "year_hi": 1995,
}


def _template(dimension_keys: str, select_list: str) -> str:
    tables = ["lineorder lo"]
    conjuncts: list[str] = []
    for key in dimension_keys:
        table, join, predicate = _DIMENSIONS[key]
        tables.append(table)
        conjuncts.append(join)
        conjuncts.append(predicate)
    return (
        f"SELECT {select_list} FROM " + ", ".join(tables)
        + " WHERE " + " AND ".join(conjuncts)
    )


def star_statements(constants: dict = COLD_CONSTANTS) -> list[str]:
    """The 20 star statements with ``constants`` substituted."""
    subsets = [
        "".join(combo)
        for size in range(1, 5)
        for combo in itertools.combinations("cspd", size)
    ]
    templates = [
        _template(keys, "COUNT(*) AS cnt, SUM(lo.lo_revenue) AS rev")
        for keys in subsets
    ]
    templates.extend(
        _template(keys, "SUM(lo.lo_quantity) AS qty")
        for keys in ("cs", "cp", "sd", "pd", "cspd")
    )
    assert len(templates) == 20
    return [template.format(**constants) for template in templates]
