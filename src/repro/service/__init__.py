"""Query service layer: raw SQL end-to-end, fast on repeat traffic.

The paper treats a query as a one-shot artifact; production decision-
support workloads re-issue structurally identical queries with
different constants.  This package adds the serving substrate on top of
the reproduction's sql → optimizer → plan → executor stack:

* :class:`QueryService` — the facade: ``execute(sql)`` (one attempt),
  ``run_many(sqls)`` (a thread pool scoped to the call),
  ``explain(sql)``, ``stats()``;
* :class:`AsyncQueryService` — the admission-controlled ``asyncio``
  front door: awaitable ``execute``, bounded concurrency, and graceful
  overload shedding with typed :class:`~repro.errors.QueryShed`.  It
  and ``run_many`` run each statement through one ``QueryService``
  slot, which applies the :class:`RetryPolicy`;
* :class:`~repro.service.admission.AdmissionController` — the overload
  policies behind it: bounded priority queue, per-client token-bucket
  quotas, deadline shed-on-arrival, per-fingerprint failure-rate
  breakers;
* :class:`~repro.service.plan_cache.PlanCache` — fingerprint-keyed LRU
  of optimized plans with parameter templates;
* :class:`~repro.service.metrics.ServiceMetrics` /
  :class:`~repro.service.metrics.ServiceStats` — per-query and
  aggregate accounting (cache hits, optimize/execute time, metered
  CPU).

The companion bitvector filter cache lives in
:mod:`repro.filters.cache`, and fingerprinting in
:mod:`repro.sql.parameterize`.
"""

from repro.service.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionRequest,
    AdmissionStats,
    FailureRateBreaker,
    TokenBucket,
)
from repro.service.async_service import AsyncQueryService
from repro.service.metrics import ServiceMetrics, ServiceStats
from repro.service.plan_cache import CachedPlan, PlanCache
from repro.service.retry import RetryPolicy
from repro.service.service import QueryService, ServiceResult

__all__ = [
    "QueryService",
    "AsyncQueryService",
    "ServiceResult",
    "ServiceMetrics",
    "ServiceStats",
    "PlanCache",
    "CachedPlan",
    "RetryPolicy",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRequest",
    "AdmissionStats",
    "TokenBucket",
    "FailureRateBreaker",
]
