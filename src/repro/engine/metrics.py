"""Per-operator execution metrics.

Each executed plan node records the tuple counts of its cost-bearing
components.  Metered CPU is the dot product of those counts with the
:class:`~repro.cost.constants.CostConstants` weights — the same model
the optimizer estimates against, evaluated on actual counts.
"""

from __future__ import annotations

import dataclasses

from repro.cost.constants import CostConstants, DEFAULT_COSTS

_COMPONENTS = (
    "scan",
    "build",
    "probe",
    "output",
    "filter_check",
    "filter_insert",
    "aggregate",
    "topk",
)

# Operator classes for the Figure 9 breakdown.
OPERATOR_KIND_LEAF = "leaf"
OPERATOR_KIND_JOIN = "join"
OPERATOR_KIND_OTHER = "other"


@dataclasses.dataclass
class NodeMetrics:
    """Metrics for one plan node."""

    node_id: int
    label: str
    kind: str
    rows_out: int = 0
    components: dict[str, float] = dataclasses.field(
        default_factory=lambda: {name: 0.0 for name in _COMPONENTS}
    )
    # Inclusive wall-clock seconds spent producing this node's output
    # (children included).  Only filled while a tracer is armed — the
    # disarmed path never reads a clock per node.
    wall_seconds: float = 0.0

    def add(self, component: str, count: float) -> None:
        self.components[component] += count

    def cpu(self, constants: CostConstants = DEFAULT_COSTS) -> float:
        return (
            self.components["scan"] * constants.scan
            + self.components["build"] * constants.build
            + self.components["probe"] * constants.probe
            + self.components["output"] * constants.output
            + self.components["filter_check"] * constants.filter_check
            + self.components["filter_insert"] * constants.filter_insert
            + self.components["aggregate"] * constants.aggregate
            + self.components["topk"] * constants.topk
        )


class ExecutionMetrics:
    """Aggregated metrics for one plan execution."""

    def __init__(self) -> None:
        self._nodes: dict[int, NodeMetrics] = {}
        # Cross-query filter cache activity during this execution
        # (see repro.filters.cache); zero when no cache is attached.
        self.filter_cache_hits = 0
        self.filter_cache_misses = 0
        # Zero-copy accounting (see repro.engine.relation): how many
        # rows/bytes were actually gathered into materialized columns;
        # only columns that something reads are ever paid for.
        self.rows_copied = 0
        self.bytes_gathered = 0
        # Join-key encodings answered from table-resident dictionary
        # indexes vs. falling back to per-call joint factorization.
        self.dictionary_hits = 0
        self.dictionary_misses = 0
        # Sorted-band data skipping (the executor's scan band search,
        # their only writer): a scan predicate answered by binary search
        # on a sorted column never reads the rows outside its band.
        # rows_skipped counts those rows; morsels_pruned the morsels of
        # the table's static split holding no band row.
        self.morsels_pruned = 0
        self.rows_skipped = 0
        # Selection accounting (see repro.engine.relation): bytes of
        # int64 position vectors created by row-filter operations.
        self.selection_bytes = 0
        # Wall-clock the filter build phase cost (cache hits excluded).
        self.filter_build_seconds = 0.0
        # Per-query resilience context (repro.engine.context), attached
        # by the executor at the top of execute().  Rides on the metrics
        # object because that is the one per-execution state threaded
        # through every operator.  None (the default) keeps every
        # checkpoint a single None test.
        self.context = None
        # Optional repro.obs.Tracer, attached by the executor when the
        # caller opted into tracing.  Same pattern as context:
        # every instrumented site is guarded by `metrics.tracer is not
        # None`, so the disarmed path costs one attribute load.  Morsel
        # spans are opened by the task wrapper with an explicit parent
        # id.
        self.tracer = None

    def count_copy(self, rows: int, nbytes: int) -> None:
        """Record one column materialization (called by Relation)."""
        self.rows_copied += int(rows)
        self.bytes_gathered += int(nbytes)

    def count_selection(self, nbytes: int) -> None:
        """Record one selection vector creation (called by Relation)."""
        self.selection_bytes += int(nbytes)

    @property
    def selection_bytes_dense(self) -> int:
        """Same as :attr:`selection_bytes`: every selection is an int64
        position vector.  Kept because the benchmark's
        ``perf/perf_workloads.py`` reads this name."""
        return self.selection_bytes

    def add_wall(self, node_id: int, seconds: float) -> None:
        """Accumulate inclusive wall time on a node (tracer-armed only)."""
        record = self._nodes.get(node_id)
        if record is not None:
            record.wall_seconds += seconds

    def node(self, node_id: int, label: str, kind: str) -> NodeMetrics:
        metrics = self._nodes.get(node_id)
        if metrics is None:
            metrics = NodeMetrics(node_id=node_id, label=label, kind=kind)
            self._nodes[node_id] = metrics
        return metrics

    @property
    def nodes(self) -> list[NodeMetrics]:
        return list(self._nodes.values())

    def rows_out(self, node_id: int) -> int:
        return self._nodes[node_id].rows_out

    def metered_cpu(self, constants: CostConstants = DEFAULT_COSTS) -> float:
        """Total metered CPU across all operators."""
        return sum(node.cpu(constants) for node in self._nodes.values())

    def tuples_by_kind(self) -> dict[str, int]:
        """Total tuples output per operator class (Figure 9's quantity)."""
        totals = {
            OPERATOR_KIND_LEAF: 0,
            OPERATOR_KIND_JOIN: 0,
            OPERATOR_KIND_OTHER: 0,
        }
        for node in self._nodes.values():
            totals[node.kind] += node.rows_out
        return totals

    def total_tuples(self) -> int:
        return sum(node.rows_out for node in self._nodes.values())

    def component_totals(self) -> dict[str, float]:
        totals = {name: 0.0 for name in _COMPONENTS}
        for node in self._nodes.values():
            for name, value in node.components.items():
                totals[name] += value
        return totals

    def cardinality_annotations(self) -> dict[int, str]:
        """Node annotations for :func:`repro.plan.display.format_plan`."""
        return {
            node.node_id: f"{node.rows_out} rows / cpu {node.cpu():.0f}"
            for node in self._nodes.values()
        }
