"""Bench: incremental rescheduling versus from-scratch (Lemma 8 applied).

Adding a constraint to an already-scheduled graph can resume the
monotone relaxation from the existing offsets.  This bench measures the
speedup on large random graphs while asserting exact result equality
with the from-scratch schedule.
"""

import random

import pytest

from repro import (
    AnchorMode,
    MinTimingConstraint,
    WellPosedness,
    check_well_posed,
    schedule_graph,
)
from repro.core.incremental import add_constraint_incremental
from repro.designs.random_graphs import random_constraint_graph


def prepared(n_ops: int):
    rng = random.Random(7 + n_ops)
    graph = random_constraint_graph(
        rng, n_ops, edge_probability=min(0.2, 24 / n_ops),
        n_min_constraints=n_ops // 10, n_max_constraints=n_ops // 25)
    assert check_well_posed(graph) is WellPosedness.WELL_POSED
    schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
    order = graph.forward_topological_order()
    position = {n: i for i, n in enumerate(order)}
    pairs = [(t, h) for t in order for h in order
             if position[t] < position[h] and graph.is_forward_reachable(t, h)]
    tail, head = rng.choice(pairs)
    return schedule, MinTimingConstraint(tail, head, 5)


@pytest.mark.parametrize("n_ops", [100, 300])
def test_incremental_addition(benchmark, n_ops):
    schedule, constraint = prepared(n_ops)
    updated = benchmark(lambda: add_constraint_incremental(
        schedule, constraint))
    # exactness against from-scratch
    scratch_graph = schedule.graph.copy()
    constraint.apply(scratch_graph)
    scratch = schedule_graph(scratch_graph, anchor_mode=AnchorMode.FULL)
    assert updated.offsets == scratch.offsets


@pytest.mark.parametrize("n_ops", [100, 300])
def test_from_scratch_addition(benchmark, n_ops):
    schedule, constraint = prepared(n_ops)

    def scratch():
        graph = schedule.graph.copy()
        constraint.apply(graph)
        return schedule_graph(graph, anchor_mode=AnchorMode.FULL)

    result = benchmark(scratch)
    assert result.offsets
