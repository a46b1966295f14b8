"""Differential tests: indexed kernel vs. the retained reference.

Every analysis and the full pipeline are run twice on hundreds of
seeded random graphs -- once through the production indexed kernel
(:mod:`repro.core.indexed`) and once through the original dict
implementations kept in :mod:`repro.qa.reference` -- and must
agree exactly: same anchor sets, same well-posedness verdicts, same
offsets and iteration counts, and the same exception type whenever one
side raises.

The seed pool deliberately mixes well-posed, ill-posed, and infeasible
placements.  A second pool straddles :data:`repro.core.indexed._NUMPY_MIN_N`,
the gate of the kernel's one numpy stage (the irredundant scan), in
FULL and IRREDUNDANT modes with numpy present and hidden, so both
versions of the scan are held to the reference; ``TestNumpyGate`` pins
when each version runs.
"""

import random

import pytest

from repro.core import indexed
from repro.core.anchors import (
    AnchorMode,
    anchor_sets_for_mode,
    find_anchor_sets,
    irredundant_anchors,
    relevant_anchors,
)
from repro.core.delay import UNBOUNDED
from repro.core.exceptions import (
    IllPosedError,
    InconsistentConstraintsError,
    UnfeasibleConstraintsError,
)
from repro.core.graph import ConstraintGraph
from repro.core.paths import (
    anchored_longest_paths,
    has_positive_cycle,
    longest_paths_from,
)
from repro.qa.reference import (
    anchor_sets_for_mode_reference,
    anchored_longest_paths_reference,
    check_well_posed_reference,
    find_anchor_sets_reference,
    has_positive_cycle_reference,
    irredundant_anchors_reference,
    longest_paths_from_reference,
    relevant_anchors_reference,
    schedule_graph_reference,
)
from repro.core.scheduler import schedule_graph
from repro.core.wellposed import check_well_posed
from repro.designs.random_graphs import random_constraint_graph

# ---------------------------------------------------------------------------
# the seeded graph pool: >= 200 graphs across three constraint flavors
# ---------------------------------------------------------------------------

FLAVORS = {
    # (well_posed_only, feasible_only)
    "well_posed": (True, True),
    "ill_posed_ok": (False, True),
    "infeasible_ok": (False, False),
}

CASES = []
for flavor in FLAVORS:
    for seed in range(60):
        CASES.append((flavor, seed, 8 + (seed * 5) % 40))
# A mid-size slice (72-121 vertices).
for flavor in FLAVORS:
    for seed in range(8):
        CASES.append((flavor, 1000 + seed, 70 + seed * 7))


def make_graph(flavor, seed, n_ops):
    well_posed_only, feasible_only = FLAVORS[flavor]
    rng = random.Random(seed)
    return random_constraint_graph(
        rng, n_ops,
        edge_probability=min(0.3, 12 / n_ops),
        unbounded_probability=0.2,
        n_min_constraints=max(2, n_ops // 8),
        n_max_constraints=max(2, n_ops // 8),
        well_posed_only=well_posed_only,
        feasible_only=feasible_only)


def both(indexed_fn, reference_fn):
    """Run both kernels; return (outcome, value) where outcome is the
    exception type (or None) -- both sides must fail identically."""
    try:
        indexed_value = indexed_fn()
        indexed_error = None
    except (IllPosedError, InconsistentConstraintsError,
            UnfeasibleConstraintsError) as err:
        indexed_value, indexed_error = None, type(err)
    try:
        reference_value = reference_fn()
        reference_error = None
    except (IllPosedError, InconsistentConstraintsError,
            UnfeasibleConstraintsError) as err:
        reference_value, reference_error = None, type(err)
    assert indexed_error is reference_error, (
        f"kernels disagree on failure: indexed={indexed_error} "
        f"reference={reference_error}")
    return indexed_error, indexed_value, reference_value


@pytest.mark.parametrize("flavor,seed,n_ops", CASES)
def test_kernels_agree(flavor, seed, n_ops):
    graph = make_graph(flavor, seed, n_ops)

    # -- anchor analyses -------------------------------------------------
    assert find_anchor_sets(graph) == find_anchor_sets_reference(graph)
    assert relevant_anchors(graph) == relevant_anchors_reference(graph)
    error, indexed_ir, reference_ir = both(
        lambda: irredundant_anchors(graph),
        lambda: irredundant_anchors_reference(graph))
    if error is None:
        assert indexed_ir == reference_ir
    for mode in AnchorMode:
        error, indexed_sets, reference_sets = both(
            lambda m=mode: anchor_sets_for_mode(graph, m),
            lambda m=mode: anchor_sets_for_mode_reference(graph, m))
        if error is None:
            assert indexed_sets == reference_sets

    # -- paths -----------------------------------------------------------
    assert has_positive_cycle(graph) == has_positive_cycle_reference(graph)
    error, indexed_paths, reference_paths = both(
        lambda: longest_paths_from(graph, graph.source),
        lambda: longest_paths_from_reference(graph, graph.source))
    if error is None:
        assert indexed_paths == reference_paths
    anchor_sets = find_anchor_sets(graph)
    for anchor in sorted(graph.anchors)[:3]:
        error, indexed_table, reference_table = both(
            lambda a=anchor: anchored_longest_paths(graph, a, anchor_sets),
            lambda a=anchor: anchored_longest_paths_reference(
                graph, a, anchor_sets))
        if error is None:
            assert indexed_table == reference_table

    # -- well-posedness --------------------------------------------------
    assert check_well_posed(graph) is check_well_posed_reference(graph)

    # -- full pipeline ---------------------------------------------------
    error, indexed_schedule, reference_schedule = both(
        lambda: schedule_graph(graph.copy()),
        lambda: schedule_graph_reference(graph.copy()))
    if error is None:
        assert indexed_schedule.offsets == reference_schedule.offsets
        assert indexed_schedule.iterations == reference_schedule.iterations
        assert indexed_schedule.anchor_sets == reference_schedule.anchor_sets


def test_case_pool_is_large_enough():
    """The acceptance bar: at least 200 distinct seeded graphs."""
    assert len(CASES) >= 200
    assert len(set(CASES)) == len(CASES)


# ---------------------------------------------------------------------------
# the numpy gate of the irredundant scan
# ---------------------------------------------------------------------------

#: Operation counts one vertex below, at, and above the gate (a graph
#: has its operations plus the source and the sink).
GATE_OPS = (indexed._NUMPY_MIN_N - 3, indexed._NUMPY_MIN_N - 2,
            indexed._NUMPY_MIN_N + 10)
GATE_CASES = [("well_posed", 2000 + 10 * i + j, n_ops)
              for i, n_ops in enumerate(GATE_OPS) for j in range(2)]


@pytest.mark.parametrize("hide_numpy", [False, True],
                         ids=["numpy", "no-numpy"])
@pytest.mark.parametrize("mode", [AnchorMode.FULL, AnchorMode.IRREDUNDANT],
                         ids=["full", "irredundant"])
@pytest.mark.parametrize("flavor,seed,n_ops", GATE_CASES)
def test_kernels_agree_across_the_numpy_gate(flavor, seed, n_ops, mode,
                                             hide_numpy, monkeypatch):
    if hide_numpy:
        monkeypatch.setattr(indexed, "_np", None)
    graph = make_graph(flavor, seed, n_ops)
    error, indexed_schedule, reference_schedule = both(
        lambda: schedule_graph(graph.copy(), anchor_mode=mode),
        lambda: schedule_graph_reference(graph.copy(), anchor_mode=mode))
    if error is None:
        assert indexed_schedule.offsets == reference_schedule.offsets
        assert indexed_schedule.iterations == reference_schedule.iterations
        assert indexed_schedule.anchor_sets == reference_schedule.anchor_sets


class PlantedNumpyScan(Exception):
    """Raised in place of the numpy irredundant scan."""


def chain(n_vertices):
    """A source-anchored chain of *n_vertices* vertices in all."""
    graph = ConstraintGraph(source="s", sink="t")
    previous = "s"
    for i in range(n_vertices - 2):
        graph.add_operation(f"v{i}", 1)
        graph.add_sequencing_edge(previous, f"v{i}")
        previous = f"v{i}"
    graph.add_sequencing_edge(previous, "t")
    return graph


class TestNumpyGate:
    """The irredundant scan runs on numpy exactly when numpy is present,
    the graph has at least ``_NUMPY_MIN_N`` vertices, and it has an
    anchor; every other graph takes the scalar scan."""

    @pytest.fixture(autouse=True)
    def planted(self, monkeypatch):
        def numpy_scan(graph, idx):
            raise PlantedNumpyScan

        monkeypatch.setattr(indexed, "_irredundant_numpy", numpy_scan)

    @staticmethod
    def took_numpy(graph):
        try:
            indexed.irredundant_masks(graph)
        except PlantedNumpyScan:
            return True
        return False

    def test_from_the_gate_up_with_numpy(self):
        numpy_present = indexed._np is not None
        assert self.took_numpy(chain(indexed._NUMPY_MIN_N)) is numpy_present
        assert self.took_numpy(chain(indexed._NUMPY_MIN_N + 50)) is numpy_present

    def test_below_the_gate(self):
        assert not self.took_numpy(chain(indexed._NUMPY_MIN_N - 1))
        assert not self.took_numpy(chain(3))

    def test_never_without_numpy(self, monkeypatch):
        monkeypatch.setattr(indexed, "_np", None)
        assert not self.took_numpy(chain(indexed._NUMPY_MIN_N + 50))

    def test_never_without_an_anchor(self):
        # The builders always make the source an anchor; the store can
        # hold a bounded source.
        template = chain(indexed._NUMPY_MIN_N + 50)
        tokens, records = template.packed()
        graph = ConstraintGraph.from_packed(
            template.vertex_names(), [0, *tokens[1:]], records)
        assert indexed.get_indexed(graph).n_anchors == 0
        assert not self.took_numpy(graph)

    def test_only_the_irredundant_mode_scans(self):
        graph = chain(indexed._NUMPY_MIN_N)
        graph.add_operation("a", UNBOUNDED)
        graph.add_sequencing_edges([("s", "a"), ("a", "t")])
        if indexed._np is not None:
            with pytest.raises(PlantedNumpyScan):
                schedule_graph(graph.copy(), anchor_mode=AnchorMode.IRREDUNDANT)
        schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL)
