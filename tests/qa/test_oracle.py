"""The invariant catalogue: green on sound code, red on planted bugs."""

import pytest

import repro.qa.oracle as oracle_module
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.qa.generators import case_stream
from repro.qa.oracle import ORACLE_CHECKS, run_oracle


@pytest.fixture
def fig2_like_graph():
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("a", UNBOUNDED)
    g.add_operation("x", 2)
    g.add_operation("y", 3)
    g.add_sequencing_edges([("s", "a"), ("a", "x"), ("x", "y"), ("y", "t")])
    g.add_max_constraint("x", "y", 9)
    return g


class TestCleanRuns:
    def test_known_good_graph_passes_every_check(self, fig2_like_graph):
        assert run_oracle(fig2_like_graph, seed=0) == []

    @pytest.mark.parametrize("seed", range(14))
    def test_generated_cases_pass(self, seed):
        """Two full scenario rotations stay divergence-free."""
        for case in case_stream(seed, 1):
            divergences = run_oracle(case.graph, seed=case.seed)
            assert divergences == [], [str(d) for d in divergences]

    def test_checks_are_individually_selectable(self, fig2_like_graph):
        for name in ORACLE_CHECKS:
            assert run_oracle(fig2_like_graph, seed=3, checks=[name]) == []

    def test_check_replay_is_deterministic(self):
        case = next(iter(case_stream(5, 1)))
        first = run_oracle(case.graph, seed=case.seed)
        second = run_oracle(case.graph, seed=case.seed)
        assert [(d.check, d.message) for d in first] == \
            [(d.check, d.message) for d in second]


class TestPlantedBugs:
    def test_broken_reference_kernel_is_caught(self, fig2_like_graph,
                                               monkeypatch):
        """Perturbing the dict reference pipeline trips the differential
        check -- proof the oracle actually compares the two kernels."""
        real = oracle_module.schedule_graph_reference

        def skewed(graph, **kwargs):
            schedule = real(graph, **kwargs)
            vertex = schedule.graph.sink
            for anchor in list(schedule.offsets[vertex]):
                schedule.offsets[vertex][anchor] += 1
            return schedule

        monkeypatch.setattr(oracle_module, "schedule_graph_reference", skewed)
        divergences = run_oracle(fig2_like_graph, seed=0, checks=["pipeline"])
        assert [d.check for d in divergences] == ["pipeline"]
        assert "offsets differ" in divergences[0].message

    def test_broken_wellposed_verdict_is_caught(self, fig2_like_graph,
                                                monkeypatch):
        from repro.core.wellposed import WellPosedness

        monkeypatch.setattr(oracle_module, "check_well_posed_reference",
                            lambda graph: WellPosedness.ILL_POSED)
        divergences = run_oracle(fig2_like_graph, seed=0,
                                 checks=["wellposed_verdict"])
        assert [d.check for d in divergences] == ["wellposed_verdict"]

    def test_crashing_check_reported_not_swallowed(self, fig2_like_graph,
                                                   monkeypatch):
        def exploding(graph, rng):
            raise RuntimeError("planted oracle crash")

        monkeypatch.setitem(oracle_module.ORACLE_CHECKS, "pipeline", exploding)
        divergences = run_oracle(fig2_like_graph, seed=0, checks=["pipeline"])
        assert len(divergences) == 1
        assert "planted oracle crash" in divergences[0].message

    def test_incremental_divergence_class_is_caught(self, fig2_like_graph,
                                                    monkeypatch):
        """Re-plant the bug this PR fixed: add_constraint_incremental
        skipping the well-posedness classification."""
        from repro.core.anchors import anchor_sets_for_mode
        from repro.core.scheduler import IterativeIncrementalScheduler

        def old_behavior(schedule, constraint):
            graph = schedule.graph.copy()
            constraint.apply(graph)
            graph.forward_topological_order()
            anchor_sets = anchor_sets_for_mode(graph, schedule.anchor_mode)
            scheduler = IterativeIncrementalScheduler(
                graph, anchor_mode=schedule.anchor_mode,
                anchor_sets=anchor_sets)
            return scheduler.run_from(schedule.offsets)

        monkeypatch.setattr(oracle_module, "add_constraint_incremental",
                            old_behavior)
        # Hunt across seeds: the warm_start check draws random
        # constraints, so any one seed may pick an addition both paths
        # accept; a handful of seeds always finds a rejected one.
        found = []
        for case in case_stream(0, 40):
            found += run_oracle(case.graph, seed=case.seed,
                                checks=["warm_start"])
            if found:
                break
        assert found, "planted incremental bug never detected"
