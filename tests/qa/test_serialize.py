"""JSON graph round-trips, repro file I/O, and input validation."""

import pytest

from repro.core.delay import UNBOUNDED
from repro.core.exceptions import MalformedInputError
from repro.core.graph import ConstraintGraph, EdgeKind
from repro.qa.generators import case_stream
from repro.qa.serialize import (
    FORMAT_VERSION,
    MAX_ABS_WEIGHT,
    dump_repro,
    graph_from_dict,
    graph_to_dict,
    graphs_equal,
    load_repro,
    validate_graph_dict,
)


@pytest.fixture
def mixed_graph():
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("a", UNBOUNDED, tag="frame")
    g.add_operation("x", 2)
    g.add_operation("y", 3)
    g.add_sequencing_edges([("s", "a"), ("a", "x"), ("x", "y"), ("y", "t")])
    g.add_min_constraint("x", "y", 4)
    g.add_max_constraint("x", "y", 9)
    return g


class TestRoundTrip:
    def test_mixed_graph_round_trips_exactly(self, mixed_graph):
        rebuilt = graph_from_dict(graph_to_dict(mixed_graph))
        assert graphs_equal(mixed_graph, rebuilt)
        # the frozen Edge dataclass compares all fields, so ordered
        # equality of the edge lists is the strongest possible check
        assert rebuilt.edges() == mixed_graph.edges()
        assert [v.name for v in rebuilt.vertices()] == \
            [v.name for v in mixed_graph.vertices()]

    def test_unbounded_delay_spelled_as_string(self, mixed_graph):
        data = graph_to_dict(mixed_graph)
        by_name = {v["name"]: v for v in data["vertices"]}
        assert by_name["a"]["delay"] == "unbounded"
        assert by_name["x"]["delay"] == 2
        assert by_name["a"]["tag"] == "frame"

    def test_max_constraint_stored_as_backward_edge(self, mixed_graph):
        data = graph_to_dict(mixed_graph)
        backward = [e for e in data["edges"] if e["kind"] == "max_time"]
        assert backward == [
            {"tail": "y", "head": "x", "weight": -9, "kind": "max_time"}]
        rebuilt = graph_from_dict(data)
        edge = [e for e in rebuilt.edges() if e.kind is EdgeKind.MAX_TIME][0]
        assert (edge.tail, edge.head, edge.weight) == ("y", "x", -9)

    @pytest.mark.parametrize("seed", range(21))
    def test_generated_cases_round_trip(self, seed):
        for case in case_stream(seed, 1):
            rebuilt = graph_from_dict(graph_to_dict(case.graph))
            assert graphs_equal(case.graph, rebuilt)


class TestValidation:
    """Malformed payloads raise MalformedInputError, never KeyError."""

    def payload(self, mixed_graph):
        return graph_to_dict(mixed_graph)

    def test_non_dict_payload(self):
        with pytest.raises(MalformedInputError, match="must be an object"):
            validate_graph_dict([1, 2, 3])

    def test_missing_required_keys(self, mixed_graph):
        data = self.payload(mixed_graph)
        del data["vertices"]
        with pytest.raises(MalformedInputError, match="vertices"):
            graph_from_dict(data)

    def test_future_format_version(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["format"] = FORMAT_VERSION + 1
        with pytest.raises(MalformedInputError, match="format"):
            validate_graph_dict(data)

    def test_duplicate_vertex_name(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["vertices"].append(dict(data["vertices"][1]))
        with pytest.raises(MalformedInputError, match="duplicate vertex"):
            validate_graph_dict(data)

    def test_source_must_be_declared(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["source"] = "ghost"
        with pytest.raises(MalformedInputError, match="not in the vertex list"):
            validate_graph_dict(data)

    def test_nan_delay_rejected(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["vertices"][1]["delay"] = float("nan")
        with pytest.raises(MalformedInputError, match="integer"):
            validate_graph_dict(data)

    def test_bool_weight_rejected(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"][0]["weight"] = True
        with pytest.raises(MalformedInputError, match="integer"):
            validate_graph_dict(data)

    def test_negative_delay_rejected(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["vertices"][1]["delay"] = -3
        with pytest.raises(MalformedInputError, match="non-negative"):
            validate_graph_dict(data)

    def test_huge_weight_rejected(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"][0]["weight"] = MAX_ABS_WEIGHT + 1
        with pytest.raises(MalformedInputError, match="magnitude"):
            validate_graph_dict(data)

    def test_weight_at_the_cap_accepted(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"][0]["weight"] = MAX_ABS_WEIGHT
        validate_graph_dict(data)

    def test_self_loop_rejected(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"].append({"tail": "x", "head": "x", "weight": 1,
                              "kind": "sequencing"})
        with pytest.raises(MalformedInputError, match="self-loop"):
            validate_graph_dict(data)

    def test_undeclared_edge_endpoint(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"].append({"tail": "x", "head": "ghost", "weight": 1,
                              "kind": "sequencing"})
        with pytest.raises(MalformedInputError, match="not a declared vertex"):
            validate_graph_dict(data)

    def test_unknown_edge_kind(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"][0]["kind"] = "teleport"
        with pytest.raises(MalformedInputError, match="unknown kind"):
            validate_graph_dict(data)

    def test_unhashable_edge_kind(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"][0]["kind"] = ["sequencing"]
        with pytest.raises(MalformedInputError, match="unknown kind"):
            validate_graph_dict(data)

    def test_duplicate_edges_strict_only(self, mixed_graph):
        data = self.payload(mixed_graph)
        data["edges"].append(dict(data["edges"][0]))
        # Parallel edges are legal in the graph model: the default mode
        # must keep round-tripping them.
        validate_graph_dict(data)
        graph_from_dict(data)
        with pytest.raises(MalformedInputError, match="duplicates"):
            validate_graph_dict(data, strict=True)

    def test_taxonomy_rooted(self):
        from repro.core.exceptions import ConstraintGraphError

        assert issubclass(MalformedInputError, ConstraintGraphError)


class TestReproFiles:
    def test_dump_and_load(self, mixed_graph, tmp_path):
        path = tmp_path / "repro.json"
        dump_repro(path, mixed_graph, check="pipeline", message="offsets differ",
                   seed=42, scenario="well_posed_small")
        payload = load_repro(path)
        assert payload["check"] == "pipeline"
        assert payload["seed"] == 42
        assert payload["scenario"] == "well_posed_small"
        assert payload["graph"]["version"] == FORMAT_VERSION
        assert graphs_equal(graph_from_dict(payload["graph"]), mixed_graph)
