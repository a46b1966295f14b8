"""Seeded inputs and their expected answers, all made before timing.

Every workload draws from ``random.Random`` seeded with the workload
name and ``--seed``, so one seed always gives the same inputs.  The
expected answers come from the retained dict-kernel oracle
(:func:`repro.core.reference.schedule_graph_reference`, FULL anchor
mode), never from the code paths being measured.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.anchors import AnchorMode
from repro.core.canonical import canonical_key
from repro.core.exceptions import ConstraintGraphError
from repro.core.graph import ConstraintGraph
from repro.core.reference import schedule_graph_reference
from repro.designs.random_graphs import random_constraint_graph
from repro.qa.generators import (
    chain_ladder_graph,
    renamed_isomorph,
    unfeasible_chain_graph,
)
from repro.qa.serialize import graph_to_dict

#: rpc-schedule: request-sized graphs; of every two requests, one is a
#: renamed isomorph of one of ``designs`` (three of each vertex count)
#: pre-scheduled into the cache file, the other a fresh graph that
#: never repeats.
RPC_RECIPE = {"n_lo": 8, "n_hi": 48, "designs": 123}

#: sweep-many: the ``batch_corpus`` recipe of BENCH_batch.json (seed
#: replaced by ``--seed``).
SWEEP_RECIPE = {"size": 10_000, "n_unique": 360, "unfeasible_share": 1 / 6,
                "n_lo": 32, "n_hi": 64, "unbounded_probability": 0.25}

#: session-events: streaming-sized graphs; each anchor's delay is drawn
#: from [0, max_delay] and completions arrive at the static start plus
#: that delay, as in benchmarks/bench_runtime.py.
SESSION_RECIPE = {"n_lo": 24, "n_hi": 64, "max_delay": 12}


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _strata(rng: random.Random, grid: List) -> Iterator:
    """Endless draws from *grid*, each round a fresh permutation: every
    value comes up once per ``len(grid)`` draws.  Stratifying the shape
    parameters keeps the mean cost of the inputs nearly the same from
    seed to seed, so seeds differ in detail but not in load."""
    while True:
        order = list(grid)
        rng.shuffle(order)
        yield from order


class GraphShapes:
    """Random designs in the shape a synthesis frontend POSTs: every
    vertex count in [n_lo, n_hi] equally often, edge and unbounded-delay
    densities spread evenly over their ranges."""

    def __init__(self, rng: random.Random, n_lo: int, n_hi: int, *,
                 edges: Tuple[float, float] = (0.1, 0.3),
                 unbounded: Tuple[float, float] = (0.1, 0.35),
                 max_constraints: int = 3) -> None:
        k = n_hi - n_lo + 1
        self.rng = rng
        self.max_constraints = max_constraints
        self._n = _strata(rng, list(range(n_lo, n_hi + 1)))
        self._edges = _strata(rng, _grid(*edges, k))
        self._unbounded = _strata(rng, _grid(*unbounded, k))

    def graph(self) -> ConstraintGraph:
        rng = self.rng
        return random_constraint_graph(
            rng, next(self._n),
            edge_probability=next(self._edges),
            unbounded_probability=next(self._unbounded),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, self.max_constraints))


def _grid(lo: float, hi: float, k: int) -> List[float]:
    return [lo + (hi - lo) * (i + 0.5) / k for i in range(k)]


def oracle(graph: ConstraintGraph):
    """The reference FULL-mode schedule, or None when unschedulable."""
    try:
        return schedule_graph_reference(graph.copy(),
                                        anchor_mode=AnchorMode.FULL)
    except ConstraintGraphError:
        return None


def _body(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


# -- rpc-schedule ------------------------------------------------------


@dataclass
class RpcRequest:
    body: bytes
    expected: Dict[str, Dict[str, int]]  # oracle offsets
    hit: bool  # an isomorph of a cached design


def rpc_designs(seed: int, recipe: Dict = RPC_RECIPE) -> List[ConstraintGraph]:
    """The designs set-up writes into the cache file (cacheable ones)."""
    shapes = GraphShapes(_rng("rpc-schedule/designs", seed),
                         recipe["n_lo"], recipe["n_hi"])
    designs: List[ConstraintGraph] = []
    while len(designs) < recipe["designs"]:
        graph = shapes.graph()
        if canonical_key(graph) is not None and oracle(graph) is not None:
            designs.append(graph)
    return designs


def rpc_requests(seed: int, count: int, designs: List[ConstraintGraph],
                 recipe: Dict = RPC_RECIPE) -> List[RpcRequest]:
    """*count* requests; no request body of a fresh graph is sent twice."""
    rng = _rng("rpc-schedule/requests", seed)
    shapes = GraphShapes(rng, recipe["n_lo"], recipe["n_hi"])
    kinds = _strata(rng, [True, False])
    picks = _strata(rng, designs)
    seen = {_body(graph_to_dict(g)) for g in designs}
    requests: List[RpcRequest] = []
    while len(requests) < count:
        hit = next(kinds)
        schedule = None
        while schedule is None:  # keep the workload free of failing ops
            graph = renamed_isomorph(next(picks), rng) if hit \
                else shapes.graph()
            body = _body({"graph": graph_to_dict(graph)})
            if hit or body not in seen:
                schedule = oracle(graph)
        seen.add(body)
        requests.append(RpcRequest(body, schedule.offsets, hit))
    return requests


# -- sweep-many --------------------------------------------------------


def sweep_corpus(seed: int, recipe: Dict = SWEEP_RECIPE
                 ) -> Tuple[List[ConstraintGraph], List[int],
                            List[ConstraintGraph]]:
    """``repro.qa.generators.batch_corpus`` with each graph's origin.

    Draws exactly the random numbers ``batch_corpus`` draws, so the
    corpus is the same; ``origins[i]`` is the index into ``uniques`` of
    the design ``corpus[i]`` renames, which lets the verdicts be checked
    per graph.
    """
    rng = random.Random(seed)
    n_unique = recipe["n_unique"]
    n_unfeasible = int(n_unique * recipe["unfeasible_share"])
    uniques = [chain_ladder_graph(rng, recipe["n_lo"], recipe["n_hi"],
                                  recipe["unbounded_probability"])
               for _ in range(n_unique - n_unfeasible)]
    uniques += [unfeasible_chain_graph(rng, max(recipe["n_lo"], 4),
                                       max(recipe["n_hi"], 8))
                for _ in range(n_unfeasible)]
    indices = list(range(len(uniques)))
    pairs = [(graph, i) for i, graph in enumerate(uniques)]
    while len(pairs) < recipe["size"]:
        origin = rng.choice(indices)
        pairs.append((renamed_isomorph(uniques[origin], rng), origin))
    pairs = pairs[:recipe["size"]]
    rng.shuffle(pairs)
    return [g for g, _ in pairs], [o for _, o in pairs], uniques


# -- session-events ----------------------------------------------------


@dataclass
class SessionCase:
    create_body: bytes
    event_bodies: List[bytes]  # seq 1..n, one completion each
    expected_issues: Dict[str, int]  # static start_times(observed)


def session_cases(seed: int, count: int,
                  recipe: Dict = SESSION_RECIPE) -> List[SessionCase]:
    rng = _rng("session-events", seed)
    shapes = GraphShapes(rng, recipe["n_lo"], recipe["n_hi"],
                         edges=(0.08, 0.2), unbounded=(0.2, 0.4),
                         max_constraints=2)
    cases: List[SessionCase] = []
    while len(cases) < count:
        graph = shapes.graph()
        schedule = oracle(graph)
        if schedule is None:
            continue
        anchors = [a for a in schedule.graph.anchors
                   if a != schedule.graph.source]
        if not anchors:
            continue
        profile = {a: rng.randint(0, recipe["max_delay"]) for a in anchors}
        start = schedule.start_times(profile)
        # Same-cycle completions stream in topological order, so a
        # gating anchor's completion precedes a dependent's.
        order = {name: i for i, name
                 in enumerate(schedule.graph.forward_topological_order())}
        stream = sorted((start[a] + profile[a], order[a], a) for a in anchors)
        cases.append(SessionCase(
            create_body=_body({"graph": graph_to_dict(graph)}),
            event_bodies=[_body({"seq": seq, "events": [[a, cycle]]})
                          for seq, (cycle, _, a) in enumerate(stream, 1)],
            expected_issues=dict(start)))
    return cases


def offsets_match(body: Optional[dict], expected: Dict) -> bool:
    """A ``/schedule`` 200 body carries exactly the oracle's offsets."""
    try:
        return body["schedule"]["offsets"] == expected  # type: ignore[index]
    except (KeyError, TypeError):
        return False
