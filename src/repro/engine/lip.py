"""LIP-style adaptive ordering of bitvector filter application.

Lookahead Information Passing (Zhu et al., VLDB 2017 — the paper's
closest prior work [38]) applies the bitvector filters stacked on a fact
table in order of observed selectivity, most-selective first, so the
expected number of filter checks per tuple is minimized regardless of
what the optimizer estimated.

This module implements the measurement step: given a relation batch and
the filters destined for it, probe each filter on a row sample, then
apply them in ascending pass-rate order.  The executor enables it with
``adaptive_filter_order=True``; the default (paper order: push-down
arrival order) is kept for faithful reproduction of the main results.
"""

from __future__ import annotations

import numpy as np

from repro.filters.base import BitvectorFilter
from repro.plan.nodes import BitvectorDef

_SAMPLE_ROWS = 512


def order_filters_adaptively(
    definitions: list[BitvectorDef],
    filters: dict[int, BitvectorFilter],
    column_head,
    num_rows: int,
) -> list[BitvectorDef]:
    """Return ``definitions`` sorted by sampled pass rate (ascending).

    ``column_head(alias, name, count)`` supplies the first ``count``
    rows of a relation column — matching
    :meth:`repro.engine.relation.Relation.column_head`, which gathers
    only the sampled rows rather than materializing whole columns.
    With fewer than two filters or an empty relation the input order is
    returned unchanged.  Sampling the first rows (data is generated in
    random order) keeps the measurement O(filters x sample).
    """
    if len(definitions) < 2 or num_rows == 0:
        return list(definitions)
    sample_rows = min(_SAMPLE_ROWS, num_rows)
    scored: list[tuple[float, int, BitvectorDef]] = []
    for index, definition in enumerate(definitions):
        bitvector = filters.get(definition.filter_id)
        if bitvector is None:
            # not yet created (should not happen; keep stable order)
            scored.append((1.0, index, definition))
            continue
        key_columns = [
            column_head(alias, column, sample_rows)
            for alias, column in definition.probe_keys
        ]
        passes = bitvector.contains(key_columns)
        pass_rate = float(np.mean(passes)) if len(passes) else 1.0
        scored.append((pass_rate, index, definition))
    scored.sort(key=lambda item: (item[0], item[1]))
    return [definition for _, _, definition in scored]
