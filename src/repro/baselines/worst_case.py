"""Static worst-case budgeting of unbounded delays.

Before relative scheduling, a designer facing an operation of unknown
delay had to *assume a budget*: replace the unbounded delay with a fixed
``B`` and schedule traditionally.  The resulting control is a single
counter -- simple -- but the schedule is wrong in both directions:

* if the operation actually takes longer than ``B``, downstream
  operations start too early (a correctness failure for synchronization
  and a violation of data dependencies);
* if it takes less, every downstream operation waits out the full
  budget (a performance loss relative scheduling's ASAP property avoids).

The ablation benches quantify both effects against the minimum relative
schedule across delay profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

from repro.baselines.bellman_ford import bellman_ford_schedule
from repro.core.delay import validate_delay
from repro.core.graph import UNBOUNDED_TOKEN, ConstraintGraph


@dataclass(frozen=True)
class WorstCaseOutcome:
    """Evaluation of a budgeted schedule under an actual delay profile.

    Attributes:
        start_times: the static schedule computed with the budget.
        safe: True when the budget covered every actual delay (no
            operation starts before its unbounded predecessors finish).
        latency: the static sink start (paid regardless of actual
            delays).
        wasted_cycles: latency minus what an ideal (relative) schedule
            would need under the actual profile; 0 or negative means the
            budget was too small somewhere.
    """

    start_times: Dict[str, int]
    safe: bool
    latency: int
    wasted_cycles: int


def budget_graph(graph: ConstraintGraph, budget: int) -> ConstraintGraph:
    """A copy of *graph* with every unbounded delay replaced by *budget*.

    The source keeps its role (activation reference): it stays an
    anchor, and its unbounded edges keep their static weight 0.  Every
    other unbounded edge weight becomes *budget*, edge kinds unchanged.
    """
    validate_delay(budget)
    tokens = [budget if v and token == UNBOUNDED_TOKEN else token
              for v, token in enumerate(graph.packed()[0])]
    records: List[int] = []
    for t, h, weight, kind in graph.edge_records():
        if t and weight == -UNBOUNDED_TOKEN:  # vertex 0 is the source
            weight = budget
        records += (t, h, weight, kind)
    return ConstraintGraph.from_packed(graph.vertex_names(), tokens, records,
                                       graph.tags())


def worst_case_schedule(graph: ConstraintGraph, budget: int,
                        actual: Optional[Mapping[str, int]] = None
                        ) -> WorstCaseOutcome:
    """Schedule with a static *budget* per unbounded operation and judge
    the result against an *actual* delay profile.

    Args:
        graph: a constraint graph with unbounded operations.
        budget: cycles assumed for every unbounded delay.
        actual: the delays realized at run time (defaults to the budget
            itself, i.e. a perfect guess).

    Returns:
        A :class:`WorstCaseOutcome`; ``safe`` is False when any actual
        delay exceeds the budget (the static schedule would start a
        successor before its unbounded predecessor completed).
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    actual = dict(actual or {})
    # The source's unbounded edges relax at their static weight 0: the
    # activation is cycle 0 for the fixed-delay baseline.
    static = bellman_ford_schedule(budget_graph(graph, budget))

    unbounded_ops = [name for name in graph.anchors if name != graph.source]
    safe = all(actual.get(name, 0) <= budget for name in unbounded_ops)
    latency = static[graph.sink]

    # The ideal latency comes from the minimum relative schedule
    # evaluated at the actual profile.
    from repro.core.scheduler import schedule_graph

    relative = schedule_graph(graph)
    ideal = relative.start_times(actual)[graph.sink]
    return WorstCaseOutcome(start_times=static, safe=safe, latency=latency,
                            wasted_cycles=latency - ideal)
