"""Bench: polynomial scaling of the algorithms (Section V analysis).

The paper bounds the scheduler at O((|Eb|+1) * |A| * |E|) and the
analyses at low polynomials.  This bench sweeps random constraint
graphs far beyond the paper's design sizes and times each stage; the
growth curves (visible in the pytest-benchmark table) should stay
polynomial and gentle.
"""

import random

import pytest

from repro import (
    AnchorMode,
    IterativeIncrementalScheduler,
    WellPosedness,
    check_well_posed,
)
from repro.core.anchors import find_anchor_sets, irredundant_anchors
from repro.designs.random_graphs import random_constraint_graph

SIZES = [50, 100, 200, 400, 800, 1600]


def make(n_ops: int):
    rng = random.Random(1990 + n_ops)
    graph = random_constraint_graph(
        rng, n_ops, edge_probability=min(0.15, 20 / n_ops),
        unbounded_probability=0.1,
        n_min_constraints=n_ops // 10,
        n_max_constraints=n_ops // 20)
    assert check_well_posed(graph) is WellPosedness.WELL_POSED
    return graph


@pytest.mark.parametrize("n_ops", SIZES)
def test_scheduling_scales(benchmark, n_ops):
    graph = make(n_ops)
    schedule = benchmark(
        lambda: IterativeIncrementalScheduler(
            graph, anchor_mode=AnchorMode.FULL).run())
    assert schedule.iterations <= len(graph.backward_edges()) + 1


@pytest.mark.parametrize("n_ops", SIZES)
def test_anchor_analysis_scales(benchmark, n_ops):
    graph = make(n_ops)

    def fresh():
        # A copy starts with an empty analysis cache, so every round
        # times the kernel, not a memoised lookup.
        return (graph.copy(),), {}

    def analyse(copy):
        find_anchor_sets(copy)
        return irredundant_anchors(copy)

    minimal = benchmark.pedantic(analyse, setup=fresh, rounds=5)
    assert len(minimal) == len(graph)


@pytest.mark.parametrize("n_ops", SIZES)
def test_wellposedness_check_scales(benchmark, n_ops):
    graph = make(n_ops)
    status = benchmark(lambda: check_well_posed(graph))
    assert status is WellPosedness.WELL_POSED
