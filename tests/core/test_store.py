"""One graph store: a ``ConstraintGraph`` keeps only its integer packs.

Vertex and Edge objects, the edge partitions, the adjacency tuples and
the topological order are per-version views of that store.  Pinned here:

* differential -- the same graph built through the ``add_*`` methods,
  decoded by ``graph_from_dict`` and copied agrees on every view, on
  ``packed()``, on its wire bytes and on its FULL and IRREDUNDANT
  schedules, before and after each mutation (``remove_edge``,
  ``bind_anchor_delay``, ``make_polar``, ``make_well_posed``); each
  mutation also does to the views what the object model says;
* freshness -- views built before a mutation never leak into the next
  version;
* hot path -- decode, schedule and encode build no Vertex or Edge on
  the two ``/schedule`` paths (``guarded_schedule``; ``schedule_many``
  then ``unpack``);
* memory -- a ceiling on the bytes of a batch corpus and of its copies.
"""

import gc
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from repro.analysis import paper_figures
from repro.core.anchors import AnchorMode, find_anchor_sets
from repro.core.batch import schedule_many
from repro.core.delay import UNBOUNDED
from repro.core.exceptions import ConstraintGraphError
from repro.core.graph import (
    KIND_IDS,
    UNBOUNDED_TOKEN,
    ConstraintGraph,
    Edge,
    EdgeKind,
    Vertex,
)
from repro.core.indexed import get_indexed
from repro.core.resultcache import ScheduleCache
from repro.core.scheduler import schedule_graph
from repro.core.wellposed import WellPosedness, check_well_posed, make_well_posed
from repro.designs import DESIGN_NAMES, build_design
from repro.designs.random_graphs import random_constraint_graph
from repro.io import (
    graph_from_dict,
    graph_to_dict,
    schedule_to_dict,
    validate_graph_dict,
)
from repro.qa.generators import SCENARIOS, batch_corpus, generate_case
from repro.resilience.guard import (
    RunBudget,
    guarded_schedule,
    untrusted_graph_from_dict,
)
from repro.seqgraph import schedule_design

REGRESSIONS = Path(__file__).resolve().parents[1] / "qa" / "regressions"


def make_random(n_ops: int) -> ConstraintGraph:
    """The benchmark suite's seeded random recipe (``make_random``)."""
    return random_constraint_graph(
        random.Random(1990 + n_ops), n_ops,
        edge_probability=min(0.15, 40 / n_ops),
        unbounded_probability=0.15,
        n_min_constraints=n_ops // 8,
        n_max_constraints=n_ops // 16)


def _corpus():
    cases = {}
    for path in sorted(REGRESSIONS.glob("*.json")):
        data = json.loads(path.read_text())["graph"]
        cases[f"regression:{path.stem}"] = lambda data=data: graph_from_dict(data)
    for figure in ("fig1", "fig2", "fig3a", "fig3b", "fig10", "fig12"):
        cases[f"paper:{figure}"] = getattr(paper_figures, f"{figure}_graph")
    for design in DESIGN_NAMES:
        cases[f"design:{design}"] = lambda design=design: sorted(
            schedule_design(build_design(design)).constraint_graphs.items()
        )[0][1]
    for scenario in SCENARIOS:
        for seed in (3, 40):
            cases[f"{scenario}:{seed}"] = (
                lambda seed=seed, scenario=scenario:
                generate_case(seed, scenario).graph)
    for n_ops in (12, 40, 70, 130):
        cases[f"make_random:{n_ops}"] = lambda n_ops=n_ops: make_random(n_ops)
    return cases


CASES = _corpus()


def rebuild(graph: ConstraintGraph):
    """*graph* replayed through the ``add_*`` methods; returns the new
    graph and the Edge objects the calls returned, in order."""
    vertices = graph.vertices()
    built = ConstraintGraph(source=graph.source, sink=graph.sink,
                            sink_delay=vertices[1].delay)
    for vertex in vertices[2:]:
        built.add_operation(vertex.name, vertex.delay, tag=vertex.tag)
    returned = []
    for edge in graph.edges():
        if edge.kind is EdgeKind.SEQUENCING:
            returned.append(built.add_sequencing_edge(edge.tail, edge.head))
        elif edge.kind is EdgeKind.MIN_TIME:
            returned.append(built.add_min_constraint(edge.tail, edge.head,
                                                     edge.weight))
        elif edge.kind is EdgeKind.MAX_TIME:
            returned.append(built.add_max_constraint(edge.head, edge.tail,
                                                     -edge.weight))
        else:
            returned.append(built.add_serialization_edge(edge.tail, edge.head))
    return built, returned


def outcome(thunk):
    """What *thunk* returns, or the type and message it raises."""
    try:
        return "ok", thunk()
    except ConstraintGraphError as error:
        return type(error).__name__, str(error)


def views(graph: ConstraintGraph):
    """Every view of *graph*, checked against each other and against
    the store, as one comparable value."""
    names = graph.vertex_names()
    vertices = graph.vertices()
    edges = graph.edges()
    tokens, records = graph.packed()
    assert [v.name for v in vertices] == names == list(graph.vertex_names())
    assert [graph.vertex(name) for name in names] == vertices
    assert [graph.delta(name) for name in names] == [v.delay for v in vertices]
    assert list(tokens) == [UNBOUNDED_TOKEN if v.is_unbounded else v.delay
                            for v in vertices]
    assert list(records) == [
        value for e in edges for value in (
            names.index(e.tail), names.index(e.head),
            -UNBOUNDED_TOKEN if e.is_unbounded else e.weight,
            KIND_IDS[e.kind])]
    assert graph.forward_edges() == [e for e in edges if e.is_forward]
    assert graph.backward_edges() == [e for e in edges if e.is_backward]
    assert graph.anchors == [v.name for v in vertices if v.is_unbounded]
    assert [graph.is_anchor(n) for n in names] == [
        v.is_unbounded for v in vertices]
    assert graph.edge_count() == len(edges)
    assert graph.edge_count(backward_only=True) == len(graph.backward_edges())
    assert graph.tags() == {v.name: v.tag for v in vertices if v.tag}
    for name in names:
        for forward_only in (False, True):
            kept = [e for e in edges if e.is_forward or not forward_only]
            assert list(graph.out_edges(name, forward_only)) == [
                e for e in kept if e.tail == name]
            assert list(graph.in_edges(name, forward_only)) == [
                e for e in kept if e.head == name]
    return {
        "vertices": vertices,
        "edges": edges,
        "packed": (list(tokens), list(records)),
        "wire": json.dumps(graph_to_dict(graph)),
        "topo": outcome(graph.forward_topological_order),
        "repr": repr(graph),
        "len": len(graph),
    }


def schedules(graph: ConstraintGraph):
    """The FULL and IRREDUNDANT pipelines on a copy of *graph*."""
    def run(mode):
        schedule = schedule_graph(graph.copy(), anchor_mode=mode)
        return json.dumps(schedule_to_dict(schedule))
    return [outcome(lambda mode=mode: run(mode))
            for mode in (AnchorMode.FULL, AnchorMode.IRREDUNDANT)]


# -- mutations, each with what it must do to the object-model views ----


def _remove_one(graph):
    edges = graph.edges()
    if not edges:
        return None
    target = next((e for e in edges if e.is_backward), edges[-1])
    graph.remove_edge(target)
    return target


def _expect_removed(before, target):
    edges = list(before["edges"])
    if target is not None:
        edges.remove(target)
    return before["vertices"], edges


def _bind(graph):
    anchor = next((a for a in graph.anchors if a != graph.source), None)
    if anchor is not None:
        graph.bind_anchor_delay(anchor, 3)
    return anchor


def _expect_bound(before, anchor):
    if anchor is None:
        return before["vertices"], before["edges"]
    vertices = [Vertex(v.name, 3, v.tag) if v.name == anchor else v
                for v in before["vertices"]]
    edges = [Edge(e.tail, e.head, 3 + e.static_weight, e.kind)
             if e.tail == anchor and e.is_forward else e
             for e in before["edges"]]
    return vertices, edges


def _polarize(graph):
    graph.add_operation("zz_orphan", 2)
    graph.make_polar()


def _expect_polar(before, _):
    vertices = list(before["vertices"]) + [Vertex("zz_orphan", 2)]
    edges = list(before["edges"])
    source, sink = vertices[0].name, vertices[1].name
    delays = {v.name: v.delay for v in vertices}

    def added(tail, head):
        edges.append(Edge(tail, head, delays[tail], EdgeKind.SEQUENCING))

    for v in vertices[1:]:
        if not any(e.head == v.name and e.is_forward for e in edges):
            added(source, v.name)
    for v in vertices:
        if v.name != sink and not any(
                e.tail == v.name and e.is_forward for e in edges):
            added(v.name, sink)
    return vertices, edges


MUTATIONS = [(_remove_one, _expect_removed), (_bind, _expect_bound),
             (_polarize, _expect_polar)]


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_construction_path_agrees(case):
    original = CASES[case]()
    built, returned = rebuild(original)
    assert built.edges() == returned == original.edges()
    decoded = graph_from_dict(graph_to_dict(original))
    graphs = [built, decoded, built.copy(), decoded.copy()]

    expected = views(built)
    assert expected["vertices"] == original.vertices()
    assert all(views(graph) == expected for graph in graphs[1:])
    assert json.dumps(graph_to_dict(original)) == expected["wire"]
    expected_schedules = schedules(built)
    assert all(schedules(graph) == expected_schedules for graph in graphs[1:])

    for mutate, model in MUTATIONS:
        before = views(built)
        results = [outcome(lambda graph=graph, mutate=mutate: mutate(graph))
                   for graph in graphs]
        assert all(result == results[0] for result in results)
        after = views(built)
        if results[0][0] == "ok":
            vertices, edges = model(before, results[0][1])
            assert (after["vertices"], after["edges"]) == (vertices, edges)
        assert all(views(graph) == after for graph in graphs[1:])

    assert all(schedules(graph) == schedules(built) for graph in graphs[1:])
    serialized = [outcome(lambda graph=graph: json.dumps(
        graph_to_dict(make_well_posed(graph)))) for graph in graphs]
    assert all(result == serialized[0] for result in serialized)


# -- freshness ---------------------------------------------------------


def _all_views(graph):
    """Build every cached view and analysis of the current version."""
    views(graph)
    graph.forward_topological_indices()
    outcome(lambda: find_anchor_sets(graph))
    get_indexed(graph)


@pytest.mark.parametrize("case", ["paper:fig2", "make_random:40",
                                  "ill_posed_chain:3", "anchor_dense:40"])
def test_views_never_leak_into_the_next_version(case):
    graph = CASES[case]()
    steps = [
        lambda g: g.add_operation("fresh_op", 4),
        lambda g: g.add_sequencing_edge(g.source, "fresh_op"),
        lambda g: g.add_sequencing_edge("fresh_op", g.sink),
        lambda g: g.add_min_constraint(g.source, "fresh_op", 2),
        lambda g: g.add_max_constraint(g.source, "fresh_op", 9),
        _remove_one,
        _bind,
        _polarize,
        _remove_one,
    ]
    for step in steps:
        _all_views(graph)
        held = graph.edges(), graph.vertices(), graph.forward_topological_order()
        kept = [list(view) for view in held]
        version = graph.version
        step(graph)
        assert graph.version > version
        assert [list(view) for view in held] == kept  # snapshots stay put
        fresh = graph_from_dict(graph_to_dict(graph))
        assert views(graph) == views(fresh)
        assert graph.forward_topological_indices() == \
            fresh.forward_topological_indices()
        assert outcome(lambda: find_anchor_sets(graph)) == \
            outcome(lambda fresh=fresh: find_anchor_sets(fresh))
        idx, fresh_idx = get_indexed(graph), get_indexed(fresh)
        assert (idx.names, idx.anchor_vertices, idx.out_all, idx.backward) \
            == (fresh_idx.names, fresh_idx.anchor_vertices, fresh_idx.out_all,
                fresh_idx.backward)


def test_bound_anchor_leaves_every_view():
    graph = paper_figures.fig2_graph()
    _all_views(graph)
    graph.bind_anchor_delay("a", 6)
    assert graph.vertex("a") == Vertex("a", 6)
    assert "a" not in graph.anchors
    assert not graph.is_anchor("a")
    assert [e.weight for e in graph.out_edges("a")] == [6]
    assert all("a" not in tags for tags in find_anchor_sets(graph).values())
    assert get_indexed(graph).anchor_names == ["v0"]


# -- the service hot path ------------------------------------------------


@pytest.fixture
def service_payloads():
    """Wire dicts of well-posed and unfeasible graphs that pass the
    service's strict decode (ill-posed ones go through
    ``make_well_posed``, which walks the Edge views)."""
    rng = random.Random(19)
    graphs = batch_corpus(7, 40, n_unique=12)
    while len(graphs) < 80:
        graphs.append(random_constraint_graph(
            rng, rng.randint(8, 48), edge_probability=rng.uniform(0.1, 0.3),
            unbounded_probability=rng.uniform(0.1, 0.35),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 3)))
    payloads = []
    for graph in graphs:
        if check_well_posed(graph.copy()) is WellPosedness.ILL_POSED:
            continue
        data = graph_to_dict(graph)
        if outcome(lambda data=data: validate_graph_dict(data, strict=True))[0] == "ok":
            payloads.append(data)
    return payloads


def test_service_paths_build_no_vertex_or_edge(service_payloads, tmp_path,
                                               monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built on the hot path")

    monkeypatch.setattr(Vertex, "__init__", refuse)
    monkeypatch.setattr(Edge, "__init__", refuse)
    budget = RunBudget(max_vertices=500, max_edges=5000, max_iterations=500)

    scheduled = 0
    for data in service_payloads:  # decode -> guarded_schedule -> encode
        graph = untrusted_graph_from_dict(data, budget)
        try:
            schedule = guarded_schedule(graph, budget,
                                        anchor_mode=AnchorMode.FULL)
        except ConstraintGraphError:
            continue
        json.dumps(schedule_to_dict(schedule))
        scheduled += 1
    assert scheduled > 30

    # decode -> schedule_many -> unpack -> encode, cold then warm cache
    cache = ScheduleCache(tmp_path / "cache.jsonl")
    for _ in range(2):
        graphs = [untrusted_graph_from_dict(data, budget)
                  for data in service_payloads]
        run = schedule_many(graphs, cache=cache, budget=budget)
        for result in run:
            if result.ok:
                json.dumps(schedule_to_dict(result.unpack()))
    assert run.stats["cache_hits"] > 0 or run.stats["fallbacks"] > 0


# -- memory ----------------------------------------------------------------

#: Bytes per graph of ``batch_corpus(3, 200)`` (18.7 vertices and 33.9
#: edges on average) and of one copy of it, under tracemalloc.  Measured
#: 3.6 KB and 2.6 KB with the integer store (Python 3.11); the object
#: graph it replaced took 14.1 KB and 7.3 KB.
CORPUS_BYTES_CEILING = 6000
COPY_BYTES_CEILING = 4000


def test_batch_corpus_bytes_stay_under_the_ceiling():
    batch_corpus(3, 20)  # imports and interned constants outside the count
    gc.collect()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        corpus = batch_corpus(3, 200)
        gc.collect()
        built = tracemalloc.get_traced_memory()[0]
        copies = [graph.copy() for graph in corpus]
        gc.collect()
        copied = tracemalloc.get_traced_memory()[0]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert len(copies) == 200
    assert (built - base) / 200 <= CORPUS_BYTES_CEILING
    assert (copied - built) / 200 <= COPY_BYTES_CEILING


def test_unbounded_token_values_are_refused():
    graph = ConstraintGraph()
    with pytest.raises(ConstraintGraphError, match="reserved"):
        graph.add_operation("x", UNBOUNDED_TOKEN)
    graph.add_operation("y", 1)
    with pytest.raises(ConstraintGraphError, match="reserved"):
        graph.add_max_constraint("y", graph.sink, UNBOUNDED_TOKEN)
    assert graph.vertex_names() == [graph.source, graph.sink, "y"]
    assert graph.edges() == []
    assert graph.vertex("y") == Vertex("y", 1)
    assert graph.delta(graph.source) is UNBOUNDED
