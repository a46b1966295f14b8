"""Run budgets, kernel errors, and untrusted-input loading."""

import json

import pytest

from repro.analysis.paper_figures import fig2_graph
from repro.core.delay import UNBOUNDED
from repro.core.exceptions import (
    BudgetExceededError,
    MalformedInputError,
)
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.qa.serialize import graph_to_dict
from repro.resilience.guard import (
    RunBudget,
    guarded_schedule,
    load_untrusted_graph,
)


def backward_edge_graph():
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("x", 1)
    g.add_operation("y", 1)
    g.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
    g.add_max_constraint("x", "y", 9)
    return g


class TestRunBudget:
    def test_no_budget_schedules_normally(self):
        schedule = guarded_schedule(fig2_graph())
        reference = schedule_graph(fig2_graph())
        assert schedule.offsets == reference.offsets

    def test_vertex_cap(self):
        with pytest.raises(BudgetExceededError, match="vertices"):
            guarded_schedule(fig2_graph(), RunBudget(max_vertices=2))

    def test_edge_cap(self):
        with pytest.raises(BudgetExceededError, match="edges"):
            guarded_schedule(fig2_graph(), RunBudget(max_edges=1))

    def test_iteration_cap_uses_theorem8_bound(self):
        graph = backward_edge_graph()  # |Eb| = 1, bound = 2
        with pytest.raises(BudgetExceededError, match=r"\|Eb\|\+1 = 2"):
            guarded_schedule(graph, RunBudget(max_iterations=1))
        schedule = guarded_schedule(graph, RunBudget(max_iterations=2))
        assert schedule.iterations <= 2

    def test_expired_deadline(self):
        with pytest.raises(BudgetExceededError, match="deadline"):
            guarded_schedule(fig2_graph(), RunBudget(deadline_s=-1.0))

    def test_generous_budget_passes(self):
        schedule = guarded_schedule(
            fig2_graph(),
            RunBudget(max_vertices=100, max_edges=100, max_iterations=50,
                      deadline_s=60.0))
        assert schedule.offsets

    def test_taxonomy_rejections_propagate_unchanged(self):
        from repro.core.exceptions import UnfeasibleConstraintsError

        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 1)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
        g.add_min_constraint("x", "y", 5)
        g.add_max_constraint("x", "y", 3)
        with pytest.raises(UnfeasibleConstraintsError):
            guarded_schedule(g, RunBudget(max_vertices=100))

    def test_watchdog_bounds_thread_through(self):
        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("a", UNBOUNDED)
        g.add_sequencing_edges([("s", "a"), ("a", "t")])
        schedule = guarded_schedule(g, watchdog={"a": 7})
        assert schedule.watchdog == {"a": 7}


class TestKernelErrors:
    """A kernel bug is not retried on another kernel: it propagates."""

    @pytest.fixture
    def broken_kernel(self, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("synthetic kernel bug")

        monkeypatch.setattr("repro.core.indexed.schedule_offsets", boom)
        return calls

    def test_internal_kernel_error_propagates(self, broken_kernel):
        with pytest.raises(RuntimeError, match="synthetic kernel bug"):
            guarded_schedule(fig2_graph())
        assert len(broken_kernel) == 1  # one scheduling call, no retry

    def test_session_create_answers_500(self, broken_kernel):
        from repro.service.app import SchedulingService, ServiceConfig

        service = SchedulingService(ServiceConfig(batching=False))
        status, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(fig2_graph())})
        assert status == 500
        assert body == {"error": "internal error: RuntimeError",
                        "error_type": "InternalError"}
        assert len(broken_kernel) == 1


class TestLoadUntrustedGraph:
    def dump(self, tmp_path, data, name="g.json"):
        path = tmp_path / name
        path.write_text(json.dumps(data))
        return path

    def test_valid_file_round_trips(self, tmp_path):
        path = self.dump(tmp_path, graph_to_dict(fig2_graph()))
        graph = load_untrusted_graph(path)
        assert set(graph.vertex_names()) == set(fig2_graph().vertex_names())

    def test_json_string_mode(self):
        text = json.dumps(graph_to_dict(fig2_graph()))
        graph = load_untrusted_graph(text, is_path=False)
        assert graph.source == fig2_graph().source

    def test_missing_file(self, tmp_path):
        with pytest.raises(MalformedInputError, match="cannot read"):
            load_untrusted_graph(tmp_path / "nope.json")

    def test_unparseable_json(self):
        with pytest.raises(MalformedInputError, match="does not parse"):
            load_untrusted_graph("{not json", is_path=False)

    def test_non_object_json(self):
        with pytest.raises(MalformedInputError, match="must be an object"):
            load_untrusted_graph("[1, 2, 3]", is_path=False)

    def test_nan_weight_rejected_at_the_parser(self):
        data = graph_to_dict(fig2_graph())
        data["edges"][0]["weight"] = float("nan")  # dumps as bare NaN
        with pytest.raises(MalformedInputError, match="non-finite"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_infinity_rejected_at_the_parser(self):
        data = graph_to_dict(fig2_graph())
        data["edges"][0]["weight"] = float("inf")  # dumps as Infinity
        with pytest.raises(MalformedInputError, match="non-finite"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_missing_key_rejected(self):
        data = graph_to_dict(fig2_graph())
        del data["edges"]
        with pytest.raises(MalformedInputError, match="edges"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_self_loop_rejected(self):
        data = graph_to_dict(fig2_graph())
        name = data["vertices"][1]["name"]
        data["edges"].append({"tail": name, "head": name, "weight": 1,
                              "kind": "sequencing"})
        with pytest.raises(MalformedInputError, match="self-loop"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_duplicate_edge_rejected_in_strict_mode(self):
        data = graph_to_dict(fig2_graph())
        data["edges"].append(dict(data["edges"][0]))
        with pytest.raises(MalformedInputError, match="duplicate"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_huge_weight_rejected(self):
        data = graph_to_dict(fig2_graph())
        data["edges"][0]["weight"] = 2 ** 53 + 1
        with pytest.raises(MalformedInputError, match="magnitude"):
            load_untrusted_graph(json.dumps(data), is_path=False)

    def test_declared_size_checked_before_building(self, tmp_path):
        data = graph_to_dict(fig2_graph())
        budget = RunBudget(max_vertices=2)
        with pytest.raises(BudgetExceededError, match="declares"):
            load_untrusted_graph(json.dumps(data), budget, is_path=False)

    def test_declared_edge_count_checked(self):
        data = graph_to_dict(fig2_graph())
        budget = RunBudget(max_edges=1)
        with pytest.raises(BudgetExceededError, match="edges"):
            load_untrusted_graph(json.dumps(data), budget, is_path=False)

    def test_one_decode_validates_once(self, monkeypatch):
        import sys

        from repro.qa.serialize import validate_graph_dict
        from repro.resilience.guard import untrusted_graph_from_dict

        calls = []

        def counting(data, **options):
            calls.append(options)
            return validate_graph_dict(data, **options)

        codec = sys.modules[validate_graph_dict.__module__]
        monkeypatch.setattr(codec, "validate_graph_dict", counting)
        untrusted_graph_from_dict(graph_to_dict(fig2_graph()),
                                  RunBudget(max_vertices=100))
        assert calls == [{"strict": True}]

    def test_loaded_graph_schedules(self, tmp_path):
        path = self.dump(tmp_path, graph_to_dict(fig2_graph()))
        graph = load_untrusted_graph(path, RunBudget(max_vertices=100))
        schedule = guarded_schedule(graph)
        assert schedule.offsets
