"""Seeded scenario generators for the metamorphic fuzzing oracle.

The differential suite of PR 1 sampled one flavor of random graph; this
module generates the *adversarial* shapes the invariant catalogue needs
(see :mod:`repro.qa.oracle`):

* ``ill_posed_chain`` -- maximum constraints racing across anchor
  frames, with chained backward edges, so ``make_well_posed`` has to
  cascade serializations (and sometimes must refuse, Lemma 3);
* ``zero_weight_cycle`` -- maximum constraints tightened to *exactly*
  the longest path between their endpoints, closing zero-weight cycles
  that sit on the feasibility boundary of Theorem 1;
* ``anchor_dense`` -- a majority of operations unbounded, stressing the
  bitmask anchor analyses and per-anchor offset bookkeeping;
* ``numpy_gate`` -- mid-size graphs of 58-74 operations; the band is
  fixed, so retuning the kernel's numpy gate never changes a seeded
  case (``tests/core/test_indexed_differential.py`` straddles the gate
  itself);
* ``well_posed_small`` / ``constrained_mix`` -- the bread-and-butter
  flavors of the PR 1 differential suite, kept in the mix so the oracle
  keeps covering the common path.

Every generator is deterministic given its seed, and every case carries
its scenario name so a shrunk repro records where it came from.

The module also builds the *batch corpora* for
:func:`repro.core.batch.schedule_many`: chain-ladder designs
(:func:`chain_ladder_graph` / :func:`unfeasible_chain_graph`), renamed
isomorphic copies (:func:`renamed_isomorph`), and the mixed dedup-heavy
:func:`batch_corpus` the consistency oracle and the throughput
benchmarks share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.delay import UNBOUNDED, is_unbounded
from repro.core.graph import ConstraintGraph
from repro.core.paths import NO_PATH, longest_paths_from
from repro.designs.random_graphs import random_constraint_graph, random_dag


@dataclass(frozen=True)
class FuzzCase:
    """One generated input: the graph plus its provenance."""

    seed: int
    scenario: str
    graph: ConstraintGraph


def _well_posed_small(rng: random.Random) -> ConstraintGraph:
    return random_constraint_graph(
        rng, rng.randint(6, 24),
        edge_probability=rng.uniform(0.15, 0.4),
        unbounded_probability=rng.uniform(0.1, 0.3),
        n_min_constraints=rng.randint(0, 4),
        n_max_constraints=rng.randint(0, 4))


def _constrained_mix(rng: random.Random) -> ConstraintGraph:
    """Anything goes: ill-posed and infeasible placements allowed."""
    return random_constraint_graph(
        rng, rng.randint(8, 40),
        edge_probability=rng.uniform(0.1, 0.35),
        unbounded_probability=rng.uniform(0.05, 0.35),
        n_min_constraints=rng.randint(0, 5),
        n_max_constraints=rng.randint(0, 5),
        well_posed_only=False,
        feasible_only=rng.random() < 0.5)


def _numpy_gate(rng: random.Random) -> ConstraintGraph:
    """Mid-size graphs: 58 to 74 operations, drawn from a fixed band."""
    n = rng.randint(58, 74)
    return random_constraint_graph(
        rng, n,
        edge_probability=rng.uniform(0.05, 0.12),
        unbounded_probability=rng.uniform(0.1, 0.25),
        n_min_constraints=rng.randint(0, 6),
        n_max_constraints=rng.randint(0, 6),
        well_posed_only=rng.random() < 0.7)


def _anchor_dense(rng: random.Random) -> ConstraintGraph:
    """Most operations unbounded: wide bitmasks, many anchor frames."""
    return random_constraint_graph(
        rng, rng.randint(8, 36),
        edge_probability=rng.uniform(0.15, 0.35),
        unbounded_probability=rng.uniform(0.5, 0.85),
        n_min_constraints=rng.randint(0, 4),
        n_max_constraints=rng.randint(0, 4),
        well_posed_only=rng.random() < 0.5)


def _zero_weight_cycle(rng: random.Random) -> ConstraintGraph:
    """Maximum constraints at exactly the longest-path bound.

    Each placed constraint closes a cycle of total weight zero -- the
    tightest consistent bound.  One unit less would make the graph
    unfeasible, so these graphs sit on the boundary the positive-cycle
    walk-length certificates and the ``|Eb| + 1`` iteration bound must
    classify exactly.
    """
    graph = random_dag(rng, rng.randint(6, 30),
                       edge_probability=rng.uniform(0.15, 0.35),
                       unbounded_probability=rng.uniform(0.0, 0.3))
    order = graph.forward_topological_order()
    pairs: List[Tuple[str, str]] = []
    for i, tail in enumerate(order):
        for head in order[i + 1:]:
            if graph.is_forward_reachable(tail, head):
                pairs.append((tail, head))
    rng.shuffle(pairs)
    placed = 0
    for tail, head in pairs:
        if placed >= rng.randint(1, 4):
            break
        span = longest_paths_from(graph, tail)[head]
        if span is NO_PATH or span < 0:
            continue
        slack = 0 if rng.random() < 0.8 else rng.randint(1, 2)
        graph.add_max_constraint(tail, head, span + slack)
        placed += 1
    return graph


def _ill_posed_chain(rng: random.Random) -> ConstraintGraph:
    """Operations hanging off separate anchors, tied by chains of
    maximum constraints -- the Fig. 3(b) pattern generalized.

    ``make_well_posed`` must cascade serializations along the backward
    chains; with probability ~0.25 an anchor is planted *between* the
    endpoints of one constraint (Fig. 3(a)), making the graph
    unrescuable so the ``IllPosedError`` paths get differential
    coverage too.
    """
    graph = ConstraintGraph(source="src", sink="snk")
    n_frames = rng.randint(2, 4)
    frames: List[List[str]] = []
    for f in range(n_frames):
        anchor = f"a{f}"
        graph.add_operation(anchor, UNBOUNDED)
        graph.add_sequencing_edge("src", anchor)
        ops = []
        previous = anchor
        for k in range(rng.randint(1, 3)):
            op = f"f{f}op{k}"
            graph.add_operation(op, rng.randint(0, 6))
            graph.add_sequencing_edge(previous, op)
            previous = op
            ops.append(op)
        frames.append(ops)
    # Backward chains across frames: each maximum constraint races the
    # head frame's unknown anchor delay against the tail frame's.
    n_links = rng.randint(1, n_frames + 1)
    for _ in range(n_links):
        f_from, f_to = rng.sample(range(n_frames), 2)
        graph.add_max_constraint(rng.choice(frames[f_from]),
                                 rng.choice(frames[f_to]),
                                 rng.randint(1, 10))
    if rng.random() < 0.25:
        # Fig. 3(a): an anchor on the path between the endpoints of a
        # maximum constraint -- no serialization can rescue this.
        mid = "amid"
        graph.add_operation(mid, UNBOUNDED)
        before = f"before_{mid}"
        after = f"after_{mid}"
        graph.add_operation(before, rng.randint(1, 4))
        graph.add_operation(after, rng.randint(1, 4))
        graph.add_sequencing_edge("src", before)
        graph.add_sequencing_edge(before, mid)
        graph.add_sequencing_edge(mid, after)
        graph.add_max_constraint(before, after, rng.randint(1, 8))
    graph.make_polar()
    return graph


def _sparse_long_chain(rng: random.Random) -> ConstraintGraph:
    """Long thin graphs: deep topological levels, few parallel edges."""
    return random_constraint_graph(
        rng, rng.randint(40, 90),
        edge_probability=rng.uniform(0.02, 0.05),
        unbounded_probability=rng.uniform(0.05, 0.2),
        n_min_constraints=rng.randint(2, 8),
        n_max_constraints=rng.randint(2, 8),
        well_posed_only=rng.random() < 0.6)


# ----------------------------------------------------------------------
# batch corpora (schedule_many consistency checks and throughput benches)
# ----------------------------------------------------------------------


def chain_ladder_graph(rng: random.Random, n_lo: int = 8, n_hi: int = 24,
                       unbounded_probability: float = 0.2) -> ConstraintGraph:
    """A well-posed chain design with max-constraint ladders.

    Operations form a sequencing chain with random forward shortcuts;
    bounded three-operation runs get a ladder of two maximum constraints
    plus a minimum constraint stretching across it, which forces several
    relaxation iterations in the scheduler (the batch kernel's dense
    sweep must reproduce the same iteration count).  Ladders never span
    an anchor, so the graph stays well-posed -- the cacheable verdict
    the batch corpus needs in volume.
    """
    n = rng.randint(n_lo, n_hi)
    graph = ConstraintGraph(source="src", sink="snk", sink_delay=0)
    names = [f"v{i}" for i in range(n)]
    delays: List[Optional[int]] = []
    for name in names:
        if rng.random() < unbounded_probability:
            graph.add_operation(name, UNBOUNDED)
            delays.append(None)
        else:
            delay = rng.randint(1, 6)
            graph.add_operation(name, delay)
            delays.append(delay)
    chain = ["src"] + names + ["snk"]
    for tail, head in zip(chain, chain[1:]):
        graph.add_sequencing_edge(tail, head)
    for _ in range(n // 3):
        a = rng.randint(0, len(chain) - 2)
        b = rng.randint(a + 1, len(chain) - 1)
        graph.add_sequencing_edge(chain[a], chain[b])
    ladders = 0
    for a in range(1, n - 2):
        if ladders >= 3:
            break
        segment = delays[a - 1:a + 2]
        if any(d is None for d in segment):
            continue
        slack = rng.randint(1, 2)
        graph.add_max_constraint(names[a - 1], names[a], delays[a - 1] + slack)
        graph.add_max_constraint(names[a], names[a + 1], delays[a] + slack)
        graph.add_min_constraint(names[a - 1], names[a + 1],
                                 delays[a - 1] + delays[a] + slack)
        ladders += 1
    for _ in range(rng.randint(1, 3)):
        a = rng.randint(1, len(chain) - 2)
        b = rng.randint(a + 1, len(chain) - 1)
        graph.add_min_constraint(chain[a], chain[b], rng.randint(1, 5))
    return graph


def unfeasible_chain_graph(rng: random.Random, n_lo: int = 24,
                           n_hi: int = 40) -> ConstraintGraph:
    """A chain design with a contradictory min/max pair: Theorem 1
    rejects it (positive cycle), exercising the batch error paths."""
    graph = chain_ladder_graph(rng, n_lo, n_hi)
    names = graph.vertex_names()[2:]  # the source and the sink come first
    delays = {name: graph.delta(name) for name in names}
    for i in range(len(names) - 3):
        segment = names[i:i + 3]
        if any(is_unbounded(delays[name]) for name in segment):
            continue
        total = sum(delays[name] for name in segment)
        for tail, head in zip(segment, segment[1:]):
            graph.add_max_constraint(tail, head, delays[tail] + 1)
        graph.add_min_constraint(segment[0], segment[-1], total + 40)
        return graph
    graph.add_min_constraint(names[0], names[-1], 10**6)
    return graph


def renamed_isomorph(graph: ConstraintGraph,
                     rng: random.Random) -> ConstraintGraph:
    """An isomorphic copy under permuted names and shuffled insertion.

    Operations get fresh names (``r<k>``) in a random permutation, and
    both vertex and edge insertion orders are shuffled, so nothing about
    the serialized form survives -- only the structure.  The canonical
    hash must map the copy to the same key as *graph*; a result cache
    keyed on it turns the copy into a hit.  The copy is built by
    permuting *graph*'s store (the source and the sink stay first).
    """
    names = graph.vertex_names()
    permutation = list(range(len(names) - 2))
    rng.shuffle(permutation)
    renamed = names[:2] + [f"r{p}" for p in permutation]
    order = list(range(2, len(names)))
    rng.shuffle(order)
    order = [0, 1] + order
    position = {v: i for i, v in enumerate(order)}
    tokens, _ = graph.packed()
    tags = graph.tags()
    edges = list(graph.edge_records())
    rng.shuffle(edges)
    records: List[int] = []
    for t, h, weight, kind in edges:
        records += (position[t], position[h], weight, kind)
    return ConstraintGraph.from_packed(
        [renamed[v] for v in order], [tokens[v] for v in order], records,
        {renamed[v]: tags[names[v]] for v in order if names[v] in tags})


def batch_corpus(seed: int, size: int, *, n_unique: int = 30,
                 unfeasible_share: float = 0.2, n_lo: int = 8,
                 n_hi: int = 24,
                 unbounded_probability: float = 0.2
                 ) -> List[ConstraintGraph]:
    """A deterministic mixed corpus for :func:`repro.core.batch.schedule_many`.

    *n_unique* base graphs (an *unfeasible_share* of them unfeasible,
    the rest well-posed chain-ladder designs) are padded to *size* with
    renamed isomorphs and shuffled -- the dedup-heavy shape of a
    production corpus, where most inputs are known designs under fresh
    names.  Every graph is independently generated from *seed*, so the
    corpus replays identically across processes.
    """
    rng = random.Random(seed)
    n_unfeasible = int(n_unique * unfeasible_share)
    uniques = [chain_ladder_graph(rng, n_lo, n_hi, unbounded_probability)
               for _ in range(n_unique - n_unfeasible)]
    uniques += [unfeasible_chain_graph(rng, max(n_lo, 4), max(n_hi, 8))
                for _ in range(n_unfeasible)]
    corpus = list(uniques)
    while len(corpus) < size:
        corpus.append(renamed_isomorph(rng.choice(uniques), rng))
    corpus = corpus[:size]
    rng.shuffle(corpus)
    return corpus


#: scenario name -> builder(rng); insertion order is the rotation order.
SCENARIOS: Dict[str, Callable[[random.Random], ConstraintGraph]] = {
    "well_posed_small": _well_posed_small,
    "constrained_mix": _constrained_mix,
    "numpy_gate": _numpy_gate,
    "anchor_dense": _anchor_dense,
    "zero_weight_cycle": _zero_weight_cycle,
    "ill_posed_chain": _ill_posed_chain,
    "sparse_long_chain": _sparse_long_chain,
}


def generate_case(seed: int, scenario: Optional[str] = None) -> FuzzCase:
    """The deterministic case for *seed*.

    Without *scenario*, seeds rotate through :data:`SCENARIOS` so any
    contiguous seed range covers every scenario evenly.
    """
    names = list(SCENARIOS)
    if scenario is None:
        scenario = names[seed % len(names)]
    builder = SCENARIOS[scenario]
    return FuzzCase(seed=seed, scenario=scenario,
                    graph=builder(random.Random(seed)))


def case_stream(start_seed: int, count: int,
                scenario: Optional[str] = None) -> Iterator[FuzzCase]:
    """*count* deterministic cases starting at *start_seed*."""
    for seed in range(start_seed, start_seed + count):
        yield generate_case(seed, scenario)
