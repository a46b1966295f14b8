"""JSON serialization for constraint graphs, schedules, and designs.

Round-trippable dictionaries (and file helpers) for the artifacts a
synthesis flow wants to persist: lowered constraint graphs, computed
relative schedules, and hierarchical designs.  Every document carries
a ``kind`` tag and a ``version`` so :func:`load_json` can dispatch.

Constraint graphs have exactly one codec, used by the CLI, the service
wire format, session journals and the regression corpus alike:

* :func:`graph_to_dict` writes vertices and edges in insertion order,
  so the rebuilt graph iterates identically (every analysis walks
  vertices and edges in insertion order, so a graph equal only up to
  reordering could behave differently).  Unbounded delays are spelled
  ``"unbounded"``.  An edge carries a ``weight`` only when the weight is
  its own datum: minimum constraints, and maximum constraints stored as
  their backward graph edge ``(to, from)`` with weight ``-u``.
  Sequencing and serialization weights are ``delta(tail)`` by
  construction, so decoding re-derives them.
* :func:`graph_from_dict` validates first (:func:`validate_graph_dict`):
  missing keys, wrong types, NaN or astronomically large weights,
  self-loops, duplicate vertices and undeclared endpoints all raise
  :class:`~repro.core.exceptions.MalformedInputError` (a taxonomy
  error, so the CLI prints ``error: ...``) instead of leaking
  ``KeyError`` / ``TypeError`` from deep inside reconstruction.
  *Strict* mode -- for input from outside the trust boundary -- also
  rejects exact duplicate edges; the default keeps them, because
  parallel edges are legal in the graph model.  The decoder also reads
  the two older graph shapes: ``format: 1`` with a ``weight`` on every
  edge (the regression corpus, older journals), and ``kind``/``version``
  with no ``weight`` on unbounded edges.
"""

from __future__ import annotations

import json
from typing import IO, TYPE_CHECKING, Any, Dict, List, Union

from repro.core.anchors import AnchorMode, anchor_sets_for_mode
from repro.core.constraints import MaxTimingConstraint, MinTimingConstraint
from repro.core.exceptions import (
    ConstraintGraphError,
    GraphStructureError,
    MalformedInputError,
    ScheduleViolationError,
)
from repro.core.graph import KIND_IDS, UNBOUNDED_TOKEN, ConstraintGraph, EdgeKind
from repro.core.schedule import RelativeSchedule

if TYPE_CHECKING:  # the design codecs import the model on first use
    from repro.seqgraph.model import Design, Operation, SequencingGraph

FORMAT_VERSION = 1

#: Largest weight/delay magnitude accepted from serialized input.  All
#: analyses do exact integer arithmetic, so correctness is not at risk;
#: the cap stops adversarial inputs from driving longest-path sums into
#: numbers whose mere formatting is quadratic.  2**53 is far beyond any
#: cycle count that can be simulated and is exactly representable even
#: if a consumer lowers weights to doubles.
MAX_ABS_WEIGHT = 2 ** 53

_UNBOUNDED_TOKEN = "unbounded"

#: Edge kinds whose weight is ``delta(tail)``: decoding re-derives it.
_DERIVED_KINDS = frozenset({EdgeKind.SEQUENCING.value,
                            EdgeKind.SERIALIZATION.value})
_DERIVED_IDS = frozenset(KIND_IDS[EdgeKind(kind)] for kind in _DERIVED_KINDS)
_KINDS = {kind.value: kind for kind in EdgeKind}
_KIND_ID_BY_VALUE = {kind.value: KIND_IDS[kind] for kind in EdgeKind}
_KIND_VALUES = tuple(kind.value for kind in EdgeKind)


# ----------------------------------------------------------------------
# constraint graphs
# ----------------------------------------------------------------------


def graph_to_dict(graph: ConstraintGraph) -> Dict[str, Any]:
    """Serialize a constraint graph (see the module docs), reading its
    store directly."""
    names = graph.vertex_names()
    tokens, _ = graph.packed()
    tags = graph.tags()
    vertices = []
    for name, token in zip(names, tokens):
        record: Dict[str, Any] = {
            "name": name,
            "delay": _UNBOUNDED_TOKEN if token == UNBOUNDED_TOKEN else token,
        }
        if name in tags:
            record["tag"] = tags[name]
        vertices.append(record)
    edges = []
    for t, h, weight, kind in graph.edge_records():
        if kind in _DERIVED_IDS:
            edges.append({"tail": names[t], "head": names[h],
                          "kind": _KIND_VALUES[kind]})
        else:
            edges.append({"tail": names[t], "head": names[h],
                          "kind": _KIND_VALUES[kind], "weight": weight})
    return {
        "kind": "constraint_graph",
        "version": FORMAT_VERSION,
        "source": graph.source,
        "sink": graph.sink,
        "vertices": vertices,
        "edges": edges,
    }


def _check_weight(value: Any, what: str, *, allow_negative: bool) -> None:
    """One serialized delay/weight: ``"unbounded"`` or a sane integer."""
    if value == _UNBOUNDED_TOKEN:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise MalformedInputError(
            f"{what} must be an integer or \"unbounded\", got {value!r}")
    if not allow_negative and value < 0:
        raise MalformedInputError(f"{what} must be non-negative, got {value}")
    if abs(value) > MAX_ABS_WEIGHT:
        raise MalformedInputError(
            f"{what} magnitude {abs(value)} exceeds the cap 2**53")


def validate_graph_dict(data: Any, *, strict: bool = False) -> None:
    """Structurally validate a serialized graph before rebuilding it.

    Checks everything :func:`graph_from_dict` would otherwise trip over
    at an arbitrary depth: the document kind and version, required
    keys, value types, NaN / non-integer / oversized weights, duplicate
    vertex names, self-loop edges, undeclared edge endpoints, unknown
    edge kinds, a missing weight on a minimum or maximum constraint,
    and a source or sink missing from the vertex list.

    Args:
        data: the candidate payload (any JSON value).
        strict: additionally reject exact duplicate edges.  Off by
            default because parallel edges are legal in the graph model
            and every legitimate round-trip must keep succeeding.

    Raises:
        MalformedInputError: naming the first problem found.
    """
    if not isinstance(data, dict):
        raise MalformedInputError(
            f"serialized graph must be an object, got {type(data).__name__}")
    if data.get("kind", "constraint_graph") != "constraint_graph":
        raise MalformedInputError(
            f"expected a 'constraint_graph' document, got {data['kind']!r}")
    for key in ("version", "format"):
        if data.get(key, FORMAT_VERSION) != FORMAT_VERSION:
            raise MalformedInputError(
                f"serialized graph declares {key} {data[key]!r}; this "
                f"build reads {key} {FORMAT_VERSION}")
    missing = [key for key in ("source", "sink", "vertices", "edges")
               if key not in data]
    if missing:
        raise MalformedInputError(
            f"serialized graph misses required key(s) {missing}")
    source, sink = data["source"], data["sink"]
    for label, value in (("source", source), ("sink", sink)):
        if not isinstance(value, str) or not value:
            raise MalformedInputError(
                f"serialized graph {label} must be a non-empty string, "
                f"got {value!r}")
    if not isinstance(data["vertices"], list):
        raise MalformedInputError("serialized graph \"vertices\" must be a list")
    if not isinstance(data["edges"], list):
        raise MalformedInputError("serialized graph \"edges\" must be a list")

    names = set()
    for index, record in enumerate(data["vertices"]):
        if not isinstance(record, dict):
            raise MalformedInputError(
                f"vertex #{index} must be an object, got {type(record).__name__}")
        if "name" not in record or "delay" not in record:
            raise MalformedInputError(
                f"vertex #{index} misses required key(s) "
                f"{[k for k in ('name', 'delay') if k not in record]}")
        name = record["name"]
        if not isinstance(name, str) or not name:
            raise MalformedInputError(
                f"vertex #{index} name must be a non-empty string, got {name!r}")
        if name in names:
            raise MalformedInputError(f"duplicate vertex {name!r}")
        names.add(name)
        delay = record["delay"]
        if not (type(delay) is int and 0 <= delay <= MAX_ABS_WEIGHT):
            _check_weight(delay, f"delay of vertex {name!r}",
                          allow_negative=False)
        if "tag" in record and not isinstance(record["tag"], str):
            raise MalformedInputError(
                f"tag of vertex {name!r} must be a string, got {record['tag']!r}")
    for label, value in (("source", source), ("sink", sink)):
        if value not in names:
            raise MalformedInputError(
                f"{label} {value!r} is not in the vertex list")

    seen_edges = set()
    for index, record in enumerate(data["edges"]):
        if not isinstance(record, dict):
            raise MalformedInputError(
                f"edge #{index} must be an object, got {type(record).__name__}")
        kind = record.get("kind")
        known = isinstance(kind, str) and kind in _KINDS
        # Each check below tests the common valid shape first and builds
        # its message only when the shape is off.
        if not ("tail" in record and "head" in record and "kind" in record
                and (not known or kind in _DERIVED_KINDS
                     or "weight" in record)):
            missing = [k for k in ("tail", "head", "kind") if k not in record]
            if known and kind not in _DERIVED_KINDS and "weight" not in record:
                missing.append("weight")
            raise MalformedInputError(
                f"edge #{index} misses required key(s) {missing}")
        tail, head = record["tail"], record["head"]
        if not (isinstance(tail, str) and tail in names
                and isinstance(head, str) and head in names):
            for end, value in (("tail", tail), ("head", head)):
                if not isinstance(value, str):
                    raise MalformedInputError(
                        f"edge #{index} {end} must be a string, got {value!r}")
                if value not in names:
                    raise MalformedInputError(
                        f"edge #{index} {end} {value!r} is not a declared vertex")
        if tail == head:
            raise MalformedInputError(
                f"edge #{index} is a self-loop on {tail!r}")
        if not known:
            raise MalformedInputError(
                f"edge #{index} has unknown kind {kind!r} "
                f"(expected one of {sorted(_KINDS)})")
        if "weight" in record:
            weight = record["weight"]
            if not (type(weight) is int
                    and -MAX_ABS_WEIGHT <= weight <= MAX_ABS_WEIGHT):
                _check_weight(weight, f"weight of edge #{index}",
                              allow_negative=True)
        if strict:
            key = (tail, head, kind,
                   None if kind in _DERIVED_KINDS else record["weight"])
            if key in seen_edges:
                raise MalformedInputError(
                    f"edge #{index} duplicates an earlier "
                    f"{kind} edge {tail!r}->{head!r}")
            seen_edges.add(key)


def graph_from_dict(data: Any, *, strict: bool = False) -> ConstraintGraph:
    """Rebuild the graph serialized by :func:`graph_to_dict`.

    The payload is validated first (:func:`validate_graph_dict`, once),
    then bulk-loaded into the graph's store in one pass: vertices in
    the recorded order after the source and the sink, edges in the
    recorded order, sequencing and serialization weights re-derived as
    ``delta(tail)``.  The rebuilt graph is indistinguishable from the
    original.  Any problem -- structural, or one of the rules the
    graph's ``add_*`` methods enforce -- surfaces as a taxonomy error,
    never a raw ``KeyError`` / ``TypeError``.
    """
    validate_graph_dict(data, strict=strict)
    try:
        return _graph_from_valid_dict(data)
    except ConstraintGraphError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise MalformedInputError(
            f"serialized graph failed to reconstruct: "
            f"{type(error).__name__}: {error}") from error


def _graph_from_valid_dict(data: Dict[str, Any]) -> ConstraintGraph:
    """The store of a validated payload, built in one pass."""
    source, sink = data["source"], data["sink"]
    if source == sink:
        raise GraphStructureError(f"duplicate vertex {sink!r}")
    names = [source, sink]
    tokens = [UNBOUNDED_TOKEN, 0]
    tags: Dict[str, str] = {}
    for record in data["vertices"]:
        name = record["name"]
        delay = record["delay"]
        token = UNBOUNDED_TOKEN if delay == _UNBOUNDED_TOKEN else delay
        if name == sink:
            tokens[1] = token
        elif name != source:
            names.append(name)
            tokens.append(token)
            if "tag" in record:
                tags[name] = record["tag"]
    index = {name: i for i, name in enumerate(names)}
    records: List[int] = []
    for record in data["edges"]:
        kind = record["kind"]
        t = index[record["tail"]]
        if kind == "sequencing":
            weight = tokens[t]
            weight = -UNBOUNDED_TOKEN if weight == UNBOUNDED_TOKEN else weight
        elif kind == "min_time":
            weight = record["weight"]
            if weight < 0:
                raise ValueError(
                    f"minimum timing constraint must be >= 0, got {weight}")
        elif kind == "max_time":
            # Stored as the backward graph edge (to, from) with -u.
            weight = record["weight"]
            if weight > 0:
                raise ValueError(
                    f"maximum timing constraint must be >= 0, got {-weight}")
        elif tokens[t] == UNBOUNDED_TOKEN:
            weight = -UNBOUNDED_TOKEN
        else:
            raise GraphStructureError(
                f"serialization edges originate at anchors; "
                f"{record['tail']!r} is bounded")
        records += (t, index[record["head"]], weight, _KIND_ID_BY_VALUE[kind])
    return ConstraintGraph.from_packed(names, tokens, records, tags)


# ----------------------------------------------------------------------
# relative schedules
# ----------------------------------------------------------------------


def schedule_to_dict(schedule: RelativeSchedule) -> Dict[str, Any]:
    """Serialize a schedule together with its graph."""
    return {
        "kind": "relative_schedule",
        "version": FORMAT_VERSION,
        "anchor_mode": schedule.anchor_mode.value,
        "iterations": schedule.iterations,
        "graph": graph_to_dict(schedule.graph),
        "offsets": {vertex: dict(entries)
                    for vertex, entries in schedule.offsets.items()},
        "anchor_sets": {vertex: sorted(tags)
                        for vertex, tags in schedule.anchor_sets.items()},
    }


def schedule_from_dict(data: Any) -> RelativeSchedule:
    """Reconstruct a schedule with its graph, and certify it.

    The document must hold the schedule of its own graph: ``anchor_sets``
    are the sets ``anchor_mode`` derives for the graph, ``offsets`` maps
    every anchor in each vertex's set to a non-negative int, and the
    offsets pass :meth:`RelativeSchedule.validate`.

    Raises:
        MalformedInputError: naming the first way the document is not
            such a schedule (a rejected certificate keeps its witness
            message).
    """
    if not isinstance(data, dict):
        raise MalformedInputError(
            f"serialized schedule must be an object, got {type(data).__name__}")
    _expect(data, "relative_schedule")
    for key in ("anchor_mode", "iterations", "graph", "anchor_sets", "offsets"):
        if key not in data:
            raise MalformedInputError(f"schedule document lacks {key!r}")
    try:
        mode = AnchorMode(data["anchor_mode"])
    except (TypeError, ValueError):
        raise MalformedInputError(
            f"unknown anchor_mode {data['anchor_mode']!r}") from None
    if not _is_count(data["iterations"]):
        raise MalformedInputError(f"iterations must be a non-negative "
                                  f"integer, got {data['iterations']!r}")
    graph = graph_from_dict(data["graph"])
    try:
        derived = anchor_sets_for_mode(graph, mode)
    except ConstraintGraphError as error:
        raise MalformedInputError(f"schedule graph: {error}") from error
    listed, offsets = data["anchor_sets"], data["offsets"]
    if not (isinstance(listed, dict) and isinstance(offsets, dict)
            and set(listed) == set(offsets) == set(derived)):
        raise MalformedInputError(
            "anchor_sets and offsets must have one entry per graph vertex")
    for vertex, tags in derived.items():
        names = listed[vertex]
        if (not isinstance(names, list)
                or not all(isinstance(name, str) for name in names)
                or frozenset(names) != tags):
            raise MalformedInputError(
                f"anchor_sets[{vertex!r}] is not the {mode.value} anchor "
                f"set {sorted(tags)}")
        entries = offsets[vertex]
        if (not isinstance(entries, dict) or set(entries) != tags
                or not all(map(_is_count, entries.values()))):
            raise MalformedInputError(
                f"offsets[{vertex!r}] must map each anchor of "
                f"{sorted(tags)} to a non-negative integer")
    schedule = RelativeSchedule(
        graph=graph, anchor_sets=derived,
        offsets={vertex: dict(entries) for vertex, entries in offsets.items()},
        anchor_mode=mode, iterations=data["iterations"])
    try:
        schedule.validate()
    except ScheduleViolationError as error:
        raise MalformedInputError(str(error)) from error
    return schedule


def _is_count(value: Any) -> bool:
    """A non-negative int that is not a bool (JSON ``true`` is 1)."""
    return (isinstance(value, int) and not isinstance(value, bool)
            and value >= 0)


# ----------------------------------------------------------------------
# sequencing graphs and designs
# ----------------------------------------------------------------------


def _operation_to_dict(op: Operation) -> Dict[str, Any]:
    from repro.seqgraph.model import OpKind

    entry: Dict[str, Any] = {"name": op.name, "kind": op.kind.value}
    if op.kind is OpKind.OPERATION:
        entry["delay"] = op.delay
    if op.body is not None:
        entry["body"] = op.body
    if op.branches:
        entry["branches"] = list(op.branches)
    if op.iterations is not None:
        entry["iterations"] = op.iterations
    if op.reads:
        entry["reads"] = list(op.reads)
    if op.writes:
        entry["writes"] = list(op.writes)
    if op.resource_class:
        entry["resource_class"] = op.resource_class
    if op.tag:
        entry["tag"] = op.tag
    return entry


def _operation_from_dict(entry: Dict[str, Any]) -> Operation:
    from repro.seqgraph import model

    return model.Operation(
        name=entry["name"],
        kind=model.OpKind(entry["kind"]),
        delay=entry.get("delay", 0 if entry["kind"] != "operation" else 1),
        body=entry.get("body"),
        branches=tuple(entry.get("branches", ())),
        iterations=entry.get("iterations"),
        reads=tuple(entry.get("reads", ())),
        writes=tuple(entry.get("writes", ())),
        resource_class=entry.get("resource_class"),
        tag=entry.get("tag"),
    )


def seqgraph_to_dict(graph: SequencingGraph) -> Dict[str, Any]:
    """Serialize one sequencing graph."""
    from repro.seqgraph.model import OpKind

    return {
        "kind": "sequencing_graph",
        "version": FORMAT_VERSION,
        "name": graph.name,
        "operations": [_operation_to_dict(op) for op in graph.operations()
                       if op.kind not in (OpKind.SOURCE, OpKind.SINK)],
        "edges": [[tail, head] for tail, head in graph.edges()],
        "constraints": [
            {"type": "min" if isinstance(c, MinTimingConstraint) else "max",
             "from": c.from_op, "to": c.to_op, "cycles": c.cycles}
            for c in graph.constraints],
    }


def seqgraph_from_dict(data: Dict[str, Any]) -> SequencingGraph:
    """Reconstruct one sequencing graph."""
    from repro.seqgraph import model

    _expect(data, "sequencing_graph")
    graph = model.SequencingGraph(data["name"])
    for entry in data["operations"]:
        graph.add_operation(_operation_from_dict(entry))
    for tail, head in data["edges"]:
        graph.add_edge(tail, head)
    for entry in data["constraints"]:
        cls = MinTimingConstraint if entry["type"] == "min" else MaxTimingConstraint
        graph.add_constraint(cls(entry["from"], entry["to"], entry["cycles"]))
    return graph


def design_to_dict(design: Design) -> Dict[str, Any]:
    """Serialize a hierarchical design (including its metadata, e.g.
    the HDL lowerer's construct registries used by co-simulation)."""
    return {
        "kind": "design",
        "version": FORMAT_VERSION,
        "name": design.name,
        "root": design.root,
        "graphs": [seqgraph_to_dict(design.graph(name))
                   for name in design.graphs],
        "metadata": design.metadata,
    }


def design_from_dict(data: Dict[str, Any]) -> Design:
    """Reconstruct a hierarchical design (validated)."""
    from repro.seqgraph import model

    _expect(data, "design")
    design = model.Design(data["name"], root=data["root"])
    for entry in data["graphs"]:
        design.add_graph(seqgraph_from_dict(entry))
    design.root = data["root"]
    design.metadata = dict(data.get("metadata", {}))
    design.validate()
    return design


# ----------------------------------------------------------------------
# file helpers
# ----------------------------------------------------------------------

_DESERIALIZERS = {
    "constraint_graph": graph_from_dict,
    "relative_schedule": schedule_from_dict,
    "sequencing_graph": seqgraph_from_dict,
    "design": design_from_dict,
}


def to_dict(obj: Any) -> Dict[str, Any]:
    """Serialize any supported artifact to a JSON-ready dict."""
    from repro.seqgraph import model

    if isinstance(obj, ConstraintGraph):
        return graph_to_dict(obj)
    if isinstance(obj, RelativeSchedule):
        return schedule_to_dict(obj)
    if isinstance(obj, model.SequencingGraph):
        return seqgraph_to_dict(obj)
    if isinstance(obj, model.Design):
        return design_to_dict(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def from_dict(data: Any) -> Any:
    """Reconstruct any supported artifact from its dict.

    A document without a ``kind`` tag goes to the graph decoder: the
    ``format: 1`` graph shape of the regression corpus carries none,
    and anything else it rejects as malformed.
    """
    if not isinstance(data, dict) or "kind" not in data:
        return graph_from_dict(data)
    kind = data["kind"]
    deserializer = (_DESERIALIZERS.get(kind)
                    if isinstance(kind, str) else None)
    if deserializer is None:
        raise MalformedInputError(f"unknown document kind {kind!r}")
    return deserializer(data)


def save_json(obj: Any, path_or_file: Union[str, IO[str]]) -> None:
    """Serialize *obj* to a JSON file (path or open text file)."""
    data = to_dict(obj)
    if isinstance(path_or_file, str):
        with open(path_or_file, "w") as handle:
            json.dump(data, handle, indent=2, sort_keys=True)
    else:
        json.dump(data, path_or_file, indent=2, sort_keys=True)


def load_json(path_or_file: Union[str, IO[str]]) -> Any:
    """Load any supported artifact from a JSON file."""
    if isinstance(path_or_file, str):
        with open(path_or_file) as handle:
            data = json.load(handle)
    else:
        data = json.load(path_or_file)
    return from_dict(data)


def _expect(data: Dict[str, Any], kind: str) -> None:
    """Check a document header: its ``kind``, and a ``version`` this
    library reads (MalformedInputError otherwise)."""
    if data.get("kind") != kind:
        raise MalformedInputError(
            f"expected a {kind!r} document, got {data.get('kind')!r}")
    version = data.get("version", 0)
    if isinstance(version, bool) or not isinstance(version, int):
        raise MalformedInputError(
            f"document version must be an integer, got {version!r}")
    if version > FORMAT_VERSION:
        raise MalformedInputError(
            f"document version {version} is newer than this library "
            f"supports ({FORMAT_VERSION})")
