"""Bench: Table III -- full vs minimum anchor sets over the 8 designs.

Prints the paper-versus-measured comparison for every row and times the
anchor-set analysis (findAnchorSet + relevantAnchor + minimumAnchor) on
each design's hierarchy.
"""

import pytest
from conftest import emit

from repro.analysis.paper_data import PAPER_TABLE3
from repro.analysis.tables import format_table3
from repro.core.anchors import find_anchor_sets, irredundant_anchors
from repro.designs import DESIGN_NAMES
from repro.seqgraph import schedule_design


def test_table3_rows(benchmark, all_designs, all_design_stats):
    """The full Table III computation (statistics over all designs)."""
    from repro.seqgraph import design_statistics

    gcd = all_designs["gcd"]
    benchmark(lambda: design_statistics(gcd))
    emit(format_table3(all_design_stats))
    # Headline shape: minimum sets shrink totals in every design.
    for name, stats in all_design_stats.items():
        assert stats.min_total <= stats.full_total, name
    # gcd reproduces its published full average exactly.
    assert abs(all_design_stats["gcd"].full_average
               - PAPER_TABLE3["gcd"].full_average) < 0.02


@pytest.mark.parametrize("name", DESIGN_NAMES)
def test_anchor_analysis_per_design(benchmark, all_designs, name):
    """findAnchorSet + minimumAnchor on every graph of one design."""
    result = schedule_design(all_designs[name])
    graphs = list(result.constraint_graphs.values())

    def fresh():
        # Copies start with empty analysis caches, so every round times
        # the analyses, not memoised lookups.
        return ([graph.copy() for graph in graphs],), {}

    def analyse(copies):
        total_full = 0
        total_min = 0
        for graph in copies:
            full = find_anchor_sets(graph)
            minimal = irredundant_anchors(graph)
            total_full += sum(len(v) for v in full.values())
            total_min += sum(len(v) for v in minimal.values())
        return total_full, total_min

    total_full, total_min = benchmark.pedantic(analyse, setup=fresh, rounds=5)
    assert total_min <= total_full
