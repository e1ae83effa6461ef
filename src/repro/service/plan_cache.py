"""LRU plan cache keyed by query fingerprint.

A cache entry holds everything needed to answer a structurally
identical query without touching the parser, binder, or optimizer
again: the optimized physical plan (push-down applied, aggregate
attached) and, per relation alias, the *template* local predicate whose
constants are :class:`~repro.expr.expressions.Parameter` placeholders.
On a hit the service substitutes the new query's constants into the
templates and executes the shared plan with per-execution predicate
overrides — the cached tree itself is never mutated, so hits are safe
under concurrency.

Classic plan-cache caveat (documented, by design): the join order and
filter choices were optimized for the *first-seen* constants; later
parameter values reuse that plan even if a different order would have
been marginally better for them.
"""

from __future__ import annotations

import dataclasses

from repro.expr.expressions import Expression
from repro.plan.nodes import PlanNode
from repro.util.lru import LruCache


@dataclasses.dataclass
class CachedPlan:
    """One reusable optimized plan plus its parameter template."""

    fingerprint: str
    pipeline: str
    plan: PlanNode
    template_predicates: dict[str, Expression]
    alias_tables: dict[str, str]  # the bound spec's alias -> table map
    num_parameters: int
    estimated_cout: float
    signature: str
    optimize_seconds: float  # planning cost paid once, on the miss
    hits: int = 0


class PlanCache(LruCache):
    """Bounded, thread-safe LRU mapping fingerprint keys to plans.

    Inherits the generation guard from :class:`~repro.util.lru.LruCache`:
    the service reads :attr:`generation` before an optimize and passes
    it to :meth:`put`, so a plan built while an invalidation raced by is
    used for its own request but never published.
    """

    def __init__(self, capacity: int = 128) -> None:
        super().__init__(capacity)

    def get(self, key: tuple) -> CachedPlan | None:
        entry = super().get(key)
        if entry is not None:
            entry.hits += 1
        return entry
