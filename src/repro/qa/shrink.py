"""Greedy shrinking of failing fuzz cases to minimal repros.

The shrinker works on the :func:`repro.io.graph_to_dict`
representation, so every candidate is by construction serializable --
whatever survives can be dumped straight into the regression corpus.
Transformations, applied greedily to fixpoint under an evaluation
budget:

* drop a vertex (with every incident edge);
* drop a single edge;
* bound an unbounded delay at zero (de-anchor);
* shrink a bounded delay toward zero;
* shrink a timing-constraint weight toward zero.

A candidate is accepted when the *same oracle check* still fails in the
same way (real divergence stays a real divergence; a crash stays a
crash) -- message wording is allowed to drift, which is what lets the
shrinker make progress past cosmetic details.  Checks replay
deterministically because :func:`repro.qa.oracle.run_oracle` derives
each check's rng from the case seed and the check name only.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.core.graph import ConstraintGraph
from repro.qa.oracle import run_oracle
from repro.qa.serialize import graph_from_dict, graph_to_dict

_CRASH_PREFIX = "oracle check crashed"


@dataclass
class ShrinkResult:
    """The minimized graph plus bookkeeping for the repro file."""

    graph: ConstraintGraph
    check: str
    message: str
    evaluations: int
    vertices_before: int
    vertices_after: int
    edges_before: int
    edges_after: int


def _failure_message(data: Dict[str, Any], check: str, seed: int,
                     want_crash: bool) -> Optional[str]:
    """The divergence message when *data* still fails *check*, else None."""
    try:
        graph = graph_from_dict(data)
    except Exception:
        return None  # candidate is not even a constructible graph
    for divergence in run_oracle(graph, seed=seed, checks=[check]):
        if divergence.message.startswith(_CRASH_PREFIX) == want_crash:
            return divergence.message
    return None


def _drop_vertex(data: Dict[str, Any], name: str) -> Dict[str, Any]:
    candidate = _copy.deepcopy(data)
    candidate["vertices"] = [v for v in candidate["vertices"]
                             if v["name"] != name]
    candidate["edges"] = [e for e in candidate["edges"]
                          if name not in (e["tail"], e["head"])]
    return candidate


def _drop_edge(data: Dict[str, Any], index: int) -> Dict[str, Any]:
    candidate = _copy.deepcopy(data)
    del candidate["edges"][index]
    return candidate


def _with_delay(data: Dict[str, Any], name: str, delay) -> Dict[str, Any]:
    candidate = _copy.deepcopy(data)
    for vertex in candidate["vertices"]:
        if vertex["name"] == name:
            vertex["delay"] = delay
    return candidate


def _with_weight(data: Dict[str, Any], index: int, weight) -> Dict[str, Any]:
    candidate = _copy.deepcopy(data)
    candidate["edges"][index]["weight"] = weight
    return candidate


def _toward_zero(value: int) -> List[int]:
    """Candidate replacements for *value*, most aggressive first."""
    out = []
    if value != 0:
        out.append(0)
    half = int(value / 2)  # truncate toward zero (negative max weights!)
    if half not in (0, value):
        out.append(half)
    return out


def shrink(graph: ConstraintGraph, check: str, seed: int,
           max_evaluations: int = 400) -> ShrinkResult:
    """Greedily minimize *graph* while oracle *check* keeps failing.

    *seed* must be the fuzz case's seed: the oracle check replays with
    the rng it had when the divergence was found.  Returns the original
    graph unchanged if it does not fail (budget counts that probe too).
    """
    data = graph_to_dict(graph)
    evaluations = 0

    def probe(candidate: Dict[str, Any], want_crash: bool) -> Optional[str]:
        nonlocal evaluations
        if evaluations >= max_evaluations:
            return None
        evaluations += 1
        return _failure_message(candidate, check, seed, want_crash)

    message = probe(data, want_crash=False)
    want_crash = False
    if message is None:
        message = probe(data, want_crash=True)
        want_crash = True
    if message is None:
        rebuilt = graph_from_dict(data)
        return ShrinkResult(rebuilt, check, "(did not reproduce)", evaluations,
                            len(data["vertices"]), len(data["vertices"]),
                            len(data["edges"]), len(data["edges"]))

    vertices_before = len(data["vertices"])
    edges_before = len(data["edges"])
    protected = {data["source"], data["sink"]}

    progress = True
    while progress and evaluations < max_evaluations:
        progress = False
        for name in [v["name"] for v in data["vertices"]]:
            if name in protected:
                continue
            found = probe(_drop_vertex(data, name), want_crash)
            if found is not None:
                data, message, progress = _drop_vertex(data, name), found, True
        for index in range(len(data["edges"]) - 1, -1, -1):
            found = probe(_drop_edge(data, index), want_crash)
            if found is not None:
                data, message, progress = _drop_edge(data, index), found, True
        for vertex in list(data["vertices"]):
            name, delay = vertex["name"], vertex["delay"]
            candidates = [0] if delay == "unbounded" else _toward_zero(delay)
            for replacement in candidates:
                found = probe(_with_delay(data, name, replacement), want_crash)
                if found is not None:
                    data = _with_delay(data, name, replacement)
                    message, progress = found, True
                    break
        for index, edge in enumerate(list(data["edges"])):
            if edge["kind"] not in ("min_time", "max_time"):
                continue  # sequencing/serialization weights are derived
            for replacement in _toward_zero(edge["weight"]):
                found = probe(_with_weight(data, index, replacement), want_crash)
                if found is not None:
                    data = _with_weight(data, index, replacement)
                    message, progress = found, True
                    break

    return ShrinkResult(graph_from_dict(data), check, message, evaluations,
                        vertices_before, len(data["vertices"]),
                        edges_before, len(data["edges"]))
