"""Core relative-scheduling algorithms from Ku & De Micheli (DAC 1990).

This package implements the paper's primary contribution:

* :mod:`repro.core.delay` -- bounded/unbounded execution delays.
* :mod:`repro.core.graph` -- the polar weighted constraint graph
  ``G(V, E)`` with forward and backward edges (Section III).
* :mod:`repro.core.constraints` -- minimum/maximum timing constraints and
  their translation to constraint-graph edges (Table I).
* :mod:`repro.core.paths` -- longest-path machinery, positive-cycle
  detection, and ``length(a, b)``.
* :mod:`repro.core.anchors` -- anchor sets, relevant anchors, and
  irredundant anchors (Sections III-A, III-D, IV-A, IV-D).
* :mod:`repro.core.wellposed` -- feasibility, well-posedness checking,
  and the ``makeWellposed`` minimal serialization (Sections III-B, IV-B,
  IV-C).
* :mod:`repro.core.scheduler` -- iterative incremental scheduling
  (Section IV-E) producing a :class:`repro.core.schedule.RelativeSchedule`.
* :mod:`repro.core.indexed` -- the graph compiled to dense arrays; the
  production kernel behind the paths/anchors/scheduler hot loops; the
  seed's dict loops it is tested against are :mod:`repro.qa.reference`.
"""

from repro.core.delay import UNBOUNDED, Delay, is_unbounded
from repro.core.exceptions import (
    ConstraintGraphError,
    CyclicForwardGraphError,
    IllPosedError,
    InconsistentConstraintsError,
    UnfeasibleConstraintsError,
)
from repro.core.graph import ConstraintGraph, Edge, EdgeKind, Vertex
from repro.core.constraints import MaxTimingConstraint, MinTimingConstraint
from repro.core.anchors import (
    AnchorMode,
    find_anchor_sets,
    irredundant_anchors,
    relevant_anchors,
)
from repro.core.wellposed import (
    WellPosedness,
    check_well_posed,
    is_feasible,
    make_well_posed,
)
from repro.core.indexed import IndexedGraph, get_indexed
from repro.core.schedule import RelativeSchedule
from repro.core.scheduler import (
    IterativeIncrementalScheduler,
    ScheduleTrace,
    schedule_graph,
)
from repro.core.alap import (
    alap_offsets,
    critical_operations,
    relative_mobility,
)

__all__ = [
    "UNBOUNDED",
    "Delay",
    "is_unbounded",
    "ConstraintGraphError",
    "CyclicForwardGraphError",
    "IllPosedError",
    "InconsistentConstraintsError",
    "UnfeasibleConstraintsError",
    "ConstraintGraph",
    "Edge",
    "EdgeKind",
    "Vertex",
    "MinTimingConstraint",
    "MaxTimingConstraint",
    "AnchorMode",
    "find_anchor_sets",
    "relevant_anchors",
    "irredundant_anchors",
    "WellPosedness",
    "check_well_posed",
    "is_feasible",
    "make_well_posed",
    "IndexedGraph",
    "get_indexed",
    "RelativeSchedule",
    "IterativeIncrementalScheduler",
    "ScheduleTrace",
    "schedule_graph",
    "alap_offsets",
    "critical_operations",
    "relative_mobility",
]
