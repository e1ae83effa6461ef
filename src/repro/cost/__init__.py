"""Cost models.

* :mod:`repro.cost.constants` — per-tuple CPU weights shared by the
  executor's metered CPU and the optimizer's physical cost estimates.
* :mod:`repro.cost.cout` — the paper's ``Cout`` (sum of intermediate
  result sizes, Section 3.3) over a physical plan, parameterized by a
  cardinality model (estimated or true).
* :mod:`repro.cost.truecard` — exact cardinalities obtained by actually
  executing the plan with exact filters; used to validate the theorems.
* :mod:`repro.cost.physical` — ``estimated_cpu(plan, estimator,
  bitvector_aware)``: one read-only pass pricing a *bare* plan (root
  rows, Section 6.3 CPU, ``Cout``, per-join build/probe rows) exactly
  as push-down plus :class:`EstimatedCardModel` would.
"""

from repro.cost.constants import CostConstants, DEFAULT_COSTS
from repro.cost.cout import CardinalityModel, EstimatedCardModel, cout
from repro.cost.physical import PlanEstimate, estimated_cpu

__all__ = [
    "CostConstants",
    "DEFAULT_COSTS",
    "CardinalityModel",
    "EstimatedCardModel",
    "PlanEstimate",
    "cout",
    "estimated_cpu",
]
