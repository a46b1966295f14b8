"""Round-trip tests for JSON serialization of every artifact kind."""

import io
import json
import random
from pathlib import Path

import pytest

from repro import AnchorMode, ConstraintGraph, UNBOUNDED, schedule_graph
from repro.core.exceptions import MalformedInputError
from repro.designs import build_design
from repro.designs.random_graphs import random_constraint_graph
from repro.io import (
    design_from_dict,
    design_to_dict,
    from_dict,
    graph_from_dict,
    graph_to_dict,
    load_json,
    save_json,
    schedule_from_dict,
    schedule_to_dict,
    seqgraph_from_dict,
    seqgraph_to_dict,
    to_dict,
)


def fig2():
    g = ConstraintGraph(source="v0", sink="v4")
    g.add_operation("a", UNBOUNDED)
    g.add_operation("v1", 2)
    g.add_operation("v2", 1)
    g.add_operation("v3", 5)
    g.add_sequencing_edges([("v0", "a"), ("v0", "v1"), ("v1", "v2"),
                            ("a", "v3"), ("v2", "v3"), ("v3", "v4")])
    g.add_min_constraint("v0", "v3", 3)
    g.add_max_constraint("v1", "v2", 4)
    return g


def graphs_equal(left: ConstraintGraph, right: ConstraintGraph) -> bool:
    if set(left.vertex_names()) != set(right.vertex_names()):
        return False
    for name in left.vertex_names():
        if repr(left.vertex(name).delay) != repr(right.vertex(name).delay):
            return False
    def edge_multiset(graph):
        return sorted((e.tail, e.head, e.kind.value, e.static_weight,
                       e.is_unbounded) for e in graph.edges())
    return edge_multiset(left) == edge_multiset(right)


class TestConstraintGraphRoundTrip:
    def test_fig2(self):
        graph = fig2()
        assert graphs_equal(graph, graph_from_dict(graph_to_dict(graph)))

    def test_serialization_edges_preserved(self):

        graph = fig2()
        graph.add_serialization_edge("a", "v4")
        clone = graph_from_dict(graph_to_dict(graph))
        assert graphs_equal(graph, clone)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        graph = random_constraint_graph(random.Random(seed), 12,
                                        well_posed_only=False)
        clone = graph_from_dict(graph_to_dict(graph))
        assert graphs_equal(graph, clone)

    def test_json_is_plain(self):
        text = json.dumps(graph_to_dict(fig2()))
        assert "unbounded" in text

    def test_kind_checked(self):
        with pytest.raises(MalformedInputError, match="constraint_graph"):
            graph_from_dict({"kind": "design"})


class TestScheduleRoundTrip:
    def test_offsets_survive(self):
        schedule = schedule_graph(fig2(), anchor_mode=AnchorMode.FULL)
        clone = schedule_from_dict(schedule_to_dict(schedule))
        assert clone.offsets == schedule.offsets
        assert clone.anchor_mode is AnchorMode.FULL
        assert clone.iterations == schedule.iterations

    def test_start_times_identical(self):
        schedule = schedule_graph(fig2())
        clone = schedule_from_dict(schedule_to_dict(schedule))
        for profile in ({}, {"a": 5}, {"a": 11, "v0": 2}):
            assert clone.start_times(profile) == schedule.start_times(profile)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_schedules_round_trip(self, seed):
        from repro import WellPosedness, check_well_posed

        graph = random_constraint_graph(random.Random(seed), 10)
        if check_well_posed(graph) is not WellPosedness.WELL_POSED:
            pytest.skip("sampled graph not well-posed")
        schedule = schedule_graph(graph)
        clone = schedule_from_dict(schedule_to_dict(schedule))
        profile = {a: random.Random(seed).randint(0, 9)
                   for a in graph.anchors}
        assert clone.start_times(profile) == schedule.start_times(profile)
        assert clone.sum_of_max_offsets() == schedule.sum_of_max_offsets()

    def test_corrupted_offsets_rejected(self):
        schedule = schedule_graph(fig2(), anchor_mode=AnchorMode.FULL)
        data = schedule_to_dict(schedule)
        data["offsets"]["v4"]["v0"] = 0  # breaks the edge inequality
        with pytest.raises(MalformedInputError,
                           match="violates edge .*'v3' -> 'v4'"):
            schedule_from_dict(data)

    @pytest.mark.parametrize("mode", list(AnchorMode))
    def test_every_anchor_mode_round_trips(self, mode):
        schedule = schedule_graph(fig2(), anchor_mode=mode)
        clone = schedule_from_dict(schedule_to_dict(schedule))
        assert clone.offsets == schedule.offsets
        assert clone.anchor_sets == schedule.anchor_sets
        assert clone.anchor_mode is mode

    def test_serialized_graph_round_trips(self):
        from repro import WellPosedness, check_well_posed

        graph = fig2()
        graph.add_max_constraint("v1", "v3", 6)  # A(v3) not in A(v1): ill-posed
        assert check_well_posed(graph) is WellPosedness.ILL_POSED
        schedule = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
        assert any(e.kind.value == "serialization"
                   for e in schedule.graph.edges())
        clone = schedule_from_dict(
            json.loads(json.dumps(schedule_to_dict(schedule))))
        assert clone.offsets == schedule.offsets

    def test_unpacked_schedule_many_result_round_trips(self):
        pytest.importorskip("numpy")
        from repro.core.batch import schedule_many

        graphs = [fig2(), random_constraint_graph(random.Random(4), 12)]
        for result in schedule_many(graphs):
            schedule = result.unpack()
            clone = schedule_from_dict(schedule_to_dict(schedule))
            assert clone.offsets == schedule.offsets

    @staticmethod
    def full_fig2_dict():
        return schedule_to_dict(
            schedule_graph(fig2(), anchor_mode=AnchorMode.FULL))

    @pytest.mark.parametrize("key", ["anchor_mode", "iterations", "graph",
                                     "anchor_sets", "offsets"])
    def test_missing_key_rejected(self, key):
        data = self.full_fig2_dict()
        del data[key]
        with pytest.raises(MalformedInputError, match=f"lacks '{key}'"):
            schedule_from_dict(data)

    @pytest.mark.parametrize("key, value", [
        ("anchor_mode", "bogus"), ("anchor_mode", ["full"]),
        ("iterations", -1), ("iterations", "2"), ("iterations", True)])
    def test_invalid_header_value_rejected(self, key, value):
        data = self.full_fig2_dict()
        data[key] = value
        with pytest.raises(MalformedInputError, match=key):
            schedule_from_dict(data)

    def test_offset_from_a_non_anchor_rejected(self):
        data = self.full_fig2_dict()
        data["offsets"]["v3"]["v1"] = 0  # v1 has a bounded delay
        with pytest.raises(MalformedInputError, match=r"offsets\['v3'\]"):
            schedule_from_dict(data)

    def test_offsets_for_an_unknown_vertex_rejected(self):
        data = self.full_fig2_dict()
        data["offsets"]["zz"] = {"v0": 1}
        with pytest.raises(MalformedInputError,
                           match="one entry per graph vertex"):
            schedule_from_dict(data)

    @pytest.mark.parametrize("empty_anchor_set", [False, True])
    def test_emptied_offsets_rejected(self, empty_anchor_set):
        # Loaded as is, v4 would start at 0 although v3 (delay 5)
        # starts at 3.
        data = self.full_fig2_dict()
        data["offsets"]["v4"] = {}
        if empty_anchor_set:
            data["anchor_sets"]["v4"] = []
        with pytest.raises(MalformedInputError, match="'v4'"):
            schedule_from_dict(data)

    @pytest.mark.parametrize("value", [8.9, "8", True, -1, None])
    def test_non_integer_offset_rejected(self, value):
        data = self.full_fig2_dict()
        data["offsets"]["v4"]["v0"] = value
        with pytest.raises(MalformedInputError,
                           match="non-negative integer"):
            schedule_from_dict(data)

    def test_anchor_sets_of_another_mode_rejected(self):
        graph = ConstraintGraph(source="s", sink="t")  # cascaded anchors
        graph.add_operation("a", UNBOUNDED)
        graph.add_operation("b", UNBOUNDED)
        graph.add_operation("v", 1)
        graph.add_sequencing_edges([("s", "a"), ("a", "b"), ("b", "v"),
                                    ("v", "t")])
        data = schedule_to_dict(
            schedule_graph(graph, anchor_mode=AnchorMode.FULL))
        data["anchor_mode"] = AnchorMode.IRREDUNDANT.value
        with pytest.raises(MalformedInputError, match="irredundant anchor set"):
            schedule_from_dict(data)


class TestDesignRoundTrip:
    @pytest.mark.parametrize("name", ["gcd", "traffic", "daio_decoder"])
    def test_designs_round_trip(self, name):
        from repro.seqgraph import design_statistics

        design = build_design(name)
        clone = design_from_dict(design_to_dict(design))
        assert clone.root == design.root
        assert set(clone.graphs) == set(design.graphs)
        # behavioural equivalence: identical Table III statistics
        assert design_statistics(clone) == design_statistics(design)

    def test_seqgraph_constraints_survive(self):
        design = build_design("gcd")
        graph = design.graph("gcd")
        clone = seqgraph_from_dict(seqgraph_to_dict(graph))
        assert [(type(c).__name__, c.from_op, c.to_op, c.cycles)
                for c in clone.constraints] == \
            [(type(c).__name__, c.from_op, c.to_op, c.cycles)
             for c in graph.constraints]

    def test_metadata_survives(self):
        design = build_design("gcd")
        assert design.metadata.get("loops")  # the lowerer's registry
        clone = design_from_dict(design_to_dict(design))
        assert clone.metadata == design.metadata

    def test_operation_attributes_survive(self):
        design = build_design("gcd")
        graph = design.graph("gcd")
        clone = seqgraph_from_dict(seqgraph_to_dict(graph))
        for op in graph.operations():
            other = clone.operation(op.name)
            assert other.kind == op.kind
            assert other.reads == op.reads
            assert other.writes == op.writes
            assert other.body == op.body
            assert other.branches == op.branches


class TestDispatchAndFiles:
    def test_to_from_dict_dispatch(self):
        for obj in (fig2(), schedule_graph(fig2()), build_design("traffic")):
            data = to_dict(obj)
            clone = from_dict(data)
            assert type(clone).__name__ in ("ConstraintGraph",
                                            "RelativeSchedule", "Design")

    def test_unknown_kind(self):
        with pytest.raises(MalformedInputError, match="unknown document kind"):
            from_dict({"kind": "netlist"})

    @pytest.mark.parametrize("header, message", [
        ({"kind": "relative_schedule", "version": 99}, "version 99 is newer"),
        ({"kind": "relative_schedule", "version": "2"},
         "version must be an integer, got '2'"),
        ({"kind": ["bogus"]}, "unknown document kind"),
    ], ids=["newer-version", "string-version", "unhashable-kind"])
    def test_bad_header_is_malformed(self, header, message):
        with pytest.raises(MalformedInputError, match=message):
            from_dict(header)

    def test_unserializable_type(self):
        with pytest.raises(TypeError):
            to_dict(42)

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "fig2.json")
        save_json(fig2(), path)
        clone = load_json(path)
        assert graphs_equal(fig2(), clone)

    def test_stream_round_trip(self):
        buffer = io.StringIO()
        save_json(fig2(), buffer)
        buffer.seek(0)
        clone = load_json(buffer)
        assert graphs_equal(fig2(), clone)

    def test_newer_version_rejected(self):
        data = graph_to_dict(fig2())
        data["version"] = 999
        with pytest.raises(MalformedInputError, match="version 999"):
            from_dict(data)


# ----------------------------------------------------------------------
# one codec: every graph shape ever written decodes through it
# ----------------------------------------------------------------------

REGRESSIONS = sorted((Path(__file__).parent / "qa" / "regressions").glob("*.json"))


def legacy_graph():
    graph = ConstraintGraph(source="v0", sink="v4")
    graph.add_operation("a", UNBOUNDED, tag="sync")
    graph.add_operation("v1", 2)
    graph.add_operation("v2", 1)
    graph.add_operation("v3", 5)
    graph.add_sequencing_edges([("v0", "a"), ("v0", "v1"), ("v1", "v2"),
                                ("a", "v3"), ("v2", "v3"), ("v3", "v4")])
    graph.add_min_constraint("v0", "v3", 3)
    graph.add_max_constraint("v1", "v2", 4)
    graph.add_serialization_edge("a", "v2")
    return graph


#: legacy_graph() as the retired ``repro.io`` encoder saved it:
#: ``kind``/``version``, no weight on unbounded edges.
SAVED_GRAPH = (
    '{"edges":[{"head":"a","kind":"sequencing","tail":"v0"},'
    '{"head":"v1","kind":"sequencing","tail":"v0"},'
    '{"head":"v2","kind":"sequencing","tail":"v1","weight":2},'
    '{"head":"v3","kind":"sequencing","tail":"a"},'
    '{"head":"v3","kind":"sequencing","tail":"v2","weight":1},'
    '{"head":"v4","kind":"sequencing","tail":"v3","weight":5},'
    '{"head":"v3","kind":"min_time","tail":"v0","weight":3},'
    '{"head":"v1","kind":"max_time","tail":"v2","weight":-4},'
    '{"head":"v2","kind":"serialization","tail":"a"}],'
    '"kind":"constraint_graph","sink":"v4","source":"v0","version":1,'
    '"vertices":[{"delay":"unbounded","name":"v0"},{"delay":0,"name":"v4"},'
    '{"delay":"unbounded","name":"a","tag":"sync"},{"delay":2,"name":"v1"},'
    '{"delay":1,"name":"v2"},{"delay":5,"name":"v3"}]}')

#: A session journal whose genesis record holds legacy_graph() as the
#: retired ``repro.qa.serialize`` encoder wrote it: ``format: 1`` and a
#: weight on every edge.
JOURNAL = (
    '{"type":"open","format":1,"session":"s-1","graph":{"format":1,'
    '"source":"v0","sink":"v4","vertices":[{"name":"v0","delay":"unbounded"},'
    '{"name":"v4","delay":0},{"name":"a","delay":"unbounded","tag":"sync"},'
    '{"name":"v1","delay":2},{"name":"v2","delay":1},{"name":"v3","delay":5}],'
    '"edges":[{"tail":"v0","head":"a","weight":"unbounded","kind":"sequencing"},'
    '{"tail":"v0","head":"v1","weight":"unbounded","kind":"sequencing"},'
    '{"tail":"v1","head":"v2","weight":2,"kind":"sequencing"},'
    '{"tail":"a","head":"v3","weight":"unbounded","kind":"sequencing"},'
    '{"tail":"v2","head":"v3","weight":1,"kind":"sequencing"},'
    '{"tail":"v3","head":"v4","weight":5,"kind":"sequencing"},'
    '{"tail":"v0","head":"v3","weight":3,"kind":"min_time"},'
    '{"tail":"v2","head":"v1","weight":-4,"kind":"max_time"},'
    '{"tail":"a","head":"v2","weight":"unbounded","kind":"serialization"}]},'
    '"mode":"full","watchdog":null,"source_done":0,"auto_well_pose":true}\n'
    '{"type":"events","seq":1,"events":[["a",3]]}\n')


def decoders():
    from repro.resilience.guard import untrusted_graph_from_dict

    return (from_dict, untrusted_graph_from_dict)


def spelled(value):
    return "unbounded" if value is UNBOUNDED else value


class TestLegacyGraphShapes:
    @pytest.mark.parametrize("path", REGRESSIONS, ids=lambda p: p.name)
    def test_regression_corpus_decodes(self, path):
        data = json.loads(path.read_text())["graph"]
        assert "kind" not in data and data["format"] == 1
        for decode in decoders():
            graph = decode(data)
            assert [(v.name, spelled(v.delay), v.tag)
                    for v in graph.vertices()] == \
                [(v["name"], v["delay"], v.get("tag"))
                 for v in data["vertices"]]
            assert [(e.tail, e.head, e.kind.value, spelled(e.weight))
                    for e in graph.edges()] == \
                [(e["tail"], e["head"], e["kind"], e["weight"])
                 for e in data["edges"]]

    def test_saved_graph_with_unweighted_unbounded_edges(self):
        from repro.qa.serialize import graphs_equal as ordered_equal

        assert ordered_equal(load_json(io.StringIO(SAVED_GRAPH)),
                             legacy_graph())
        for decode in decoders():
            assert ordered_equal(decode(json.loads(SAVED_GRAPH)),
                                 legacy_graph())

    def test_journal_genesis_graph(self, tmp_path):
        from repro.qa.serialize import graphs_equal as ordered_equal
        from repro.runtime.journal import read_journal, replay_journal

        record = json.loads(JOURNAL.splitlines()[0])
        for decode in decoders():
            assert ordered_equal(decode(record["graph"]), legacy_graph())
        path = tmp_path / "s-1.journal"
        path.write_text(JOURNAL)
        state = read_journal(path)
        assert state.batches == [(1, [("a", 3)])]
        _, outcomes = replay_journal(state)
        assert outcomes[1].complete and outcomes[1].done["a"] == 3

    def test_new_shape_weighs_only_constraint_edges(self):
        data = graph_to_dict(legacy_graph())
        assert (data["kind"], data["version"]) == ("constraint_graph", 1)
        assert [e.get("weight") for e in data["edges"]] == \
            [None] * 6 + [3, -4, None]
