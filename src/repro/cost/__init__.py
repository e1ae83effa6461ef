"""Cost models.

* :mod:`repro.cost.constants` — per-tuple CPU weights shared by the
  executor's metered CPU and the optimizer's physical cost estimates.
* :mod:`repro.cost.physical` — the Section 6.3 model in one pricing
  pass: ``estimated_cpu(plan, estimator, ...)`` returns a plan's root
  rows, CPU, ``Cout`` (Section 3.3) and per-node rows, with rows
  estimated bitvector-aware, estimated blind, or observed by an
  execution (``true_cout``, which validates the theorems);
  ``OrderPricer`` prices join orders during plan search.
"""

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.physical import PlanEstimate, estimated_cpu, true_cout

__all__ = [
    "CostConstants",
    "DEFAULT_COSTS",
    "PlanEstimate",
    "estimated_cpu",
    "true_cout",
]
