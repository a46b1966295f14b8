"""The scheduler <-> indexed-kernel error contract and warm-start entry.

Pinned here:

* ``IterativeIncrementalScheduler`` used to swallow *every* ``KeyError``
  from the indexed kernel as "fall back to the reference loops", so a
  genuine kernel bug silently produced slow-path results.  There is no
  fallback any more: a planted ``KeyError`` propagates, and anchor sets
  the kernel cannot represent raise the dedicated
  :class:`IndexedKernelUnsupported` taxonomy error.
* ``incremental._run_from`` used to drive the scheduler's private dict
  loops directly, bypassing the indexed kernel for every warm-start
  reschedule.  The public :meth:`IterativeIncrementalScheduler.run_from`
  now runs warm starts on the same kernel as ``run``.
"""

import random

import pytest

import repro.core.indexed as indexed_module
from repro.core.anchors import AnchorMode, anchor_sets_for_mode
from repro.core.constraints import MinTimingConstraint
from repro.core.exceptions import ConstraintGraphError, IndexedKernelUnsupported
from repro.core.graph import ConstraintGraph
from repro.core.incremental import add_constraint_incremental
from repro.core.reference import schedule_offsets_reference
from repro.core.scheduler import IterativeIncrementalScheduler, schedule_graph
from repro.core.delay import UNBOUNDED
from repro.designs.random_graphs import random_constraint_graph


@pytest.fixture
def small_graph():
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("a", UNBOUNDED)
    g.add_operation("x", 2)
    g.add_operation("y", 3)
    g.add_sequencing_edges([("s", "a"), ("a", "x"), ("x", "y"), ("y", "t")])
    return g


class TestKernelErrorContract:
    def test_planted_keyerror_propagates(self, small_graph, monkeypatch):
        """A KeyError escaping the kernel is a bug, not a fallback cue."""
        def broken_kernel(*args, **kwargs):
            raise KeyError("planted kernel bug")

        monkeypatch.setattr(indexed_module, "schedule_offsets", broken_kernel)
        scheduler = IterativeIncrementalScheduler(small_graph)
        with pytest.raises(KeyError, match="planted kernel bug"):
            scheduler.run()

    def test_planted_keyerror_propagates_from_warm_start(self, small_graph,
                                                         monkeypatch):
        schedule = schedule_graph(small_graph, anchor_mode=AnchorMode.FULL)

        def broken_kernel(*args, **kwargs):
            raise KeyError("planted kernel bug")

        monkeypatch.setattr(indexed_module, "schedule_offsets", broken_kernel)
        scheduler = IterativeIncrementalScheduler(
            small_graph, anchor_mode=AnchorMode.FULL)
        with pytest.raises(KeyError, match="planted kernel bug"):
            scheduler.run_from(schedule.offsets)

    def test_non_anchor_tags_raise_from_run(self, small_graph):
        """Anchor sets naming a bounded vertex are a malformed request:
        ``run()`` raises the taxonomy error instead of falling back."""
        custom = {name: frozenset({"s"}) if name != "s" else frozenset()
                  for name in small_graph.vertex_names()}
        custom["y"] = frozenset({"s", "x"})  # "x" is bounded: not an anchor
        scheduler = IterativeIncrementalScheduler(
            small_graph, anchor_sets=custom)
        with pytest.raises(IndexedKernelUnsupported, match="'x'"):
            scheduler.run()
        assert issubclass(IndexedKernelUnsupported, ConstraintGraphError)

    def test_kernel_raises_dedicated_exception(self, small_graph):
        custom = {name: frozenset({"x"}) for name in small_graph.vertex_names()}
        with pytest.raises(IndexedKernelUnsupported):
            indexed_module.schedule_offsets(small_graph, custom)


class TestWarmStartEntryPoint:
    def test_run_from_uses_indexed_kernel(self, small_graph, monkeypatch):
        """Warm starts go through the indexed kernel, not the dict loops."""
        calls = []
        real = indexed_module.schedule_offsets

        def counting_kernel(*args, **kwargs):
            calls.append(kwargs.get("initial"))
            return real(*args, **kwargs)

        monkeypatch.setattr(indexed_module, "schedule_offsets", counting_kernel)
        schedule = schedule_graph(small_graph, anchor_mode=AnchorMode.FULL)
        scheduler = IterativeIncrementalScheduler(
            small_graph, anchor_mode=AnchorMode.FULL)
        warm = scheduler.run_from(schedule.offsets)
        assert warm.offsets == schedule.offsets
        assert calls and calls[-1] is not None  # warm offsets reached the kernel

    def test_add_constraint_incremental_uses_indexed_kernel(self, small_graph,
                                                            monkeypatch):
        calls = []
        real = indexed_module.schedule_offsets

        def counting_kernel(*args, **kwargs):
            calls.append(kwargs.get("initial"))
            return real(*args, **kwargs)

        schedule = schedule_graph(small_graph, anchor_mode=AnchorMode.FULL)
        monkeypatch.setattr(indexed_module, "schedule_offsets", counting_kernel)
        updated = add_constraint_incremental(
            schedule, MinTimingConstraint("x", "y", 7))
        assert updated.offset("y", "a") == 7
        assert calls and calls[-1] is not None

    @pytest.mark.parametrize("seed", range(25))
    def test_warm_start_matches_scratch_offsets_and_iterations(self, seed):
        """Differential: incremental rescheduling equals from-scratch
        offsets, and the indexed warm start replays the dict warm
        start's iteration accounting exactly."""
        rng = random.Random(1000 + seed)
        n = rng.choice([8, 20, 40, 70])  # straddles the numpy gate
        graph = random_constraint_graph(rng, n, n_min_constraints=3,
                                        n_max_constraints=3)
        schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)

        order = graph.forward_topological_order()
        pairs = [(t, h) for i, t in enumerate(order) for h in order[i + 1:]
                 if graph.is_forward_reachable(t, h)]
        if not pairs:
            pytest.skip("no forward-reachable pair to constrain")
        tail, head = rng.choice(pairs)
        constraint = MinTimingConstraint(tail, head, rng.randint(0, 6))

        incremental = add_constraint_incremental(schedule, constraint)
        scratch_graph = graph.copy()
        constraint.apply(scratch_graph)
        scratch = schedule_graph(scratch_graph, anchor_mode=AnchorMode.FULL)
        assert incremental.offsets == scratch.offsets

        warm_graph = graph.copy()
        constraint.apply(warm_graph)
        anchor_sets = anchor_sets_for_mode(warm_graph, AnchorMode.FULL)
        warm_indexed = IterativeIncrementalScheduler(
            warm_graph, AnchorMode.FULL,
            anchor_sets=anchor_sets).run_from(schedule.offsets)
        dict_offsets, dict_iterations = schedule_offsets_reference(
            warm_graph, anchor_sets, schedule.offsets)
        assert warm_indexed.offsets == dict_offsets
        assert warm_indexed.iterations == dict_iterations
