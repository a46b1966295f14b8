"""The invariant catalogue: differential and metamorphic oracle checks.

Every check takes a pristine copy of the input graph and returns
``None`` (invariant holds) or a human-readable divergence message.  The
catalogue covers:

**Differential (indexed kernel vs. dict reference)**

* ``wellposed_verdict`` -- :func:`check_well_posed` classification;
* ``anchor_analyses`` -- full / relevant / irredundant anchor sets,
  including exception-type agreement on unfeasible graphs;
* ``pipeline`` -- end-to-end ``schedule_graph``: identical offsets,
  identical iteration counts (within the Theorem 8 bound), identical
  exception types on rejected graphs, for FULL and IRREDUNDANT modes.

**Metamorphic (paper theorems as executable properties)**

* ``warm_start`` -- ``add_constraint_incremental`` equals from-scratch
  rescheduling (Lemma 8), and the indexed warm start replays the dict
  warm start's iteration accounting;
* ``make_well_posed`` -- the serialized graph is well-posed, *edge
  minimal* (removing any serialization edge re-breaks Theorem 2) and
  idempotent (Theorem 7), and refusal agrees with the Lemma 3
  existence test;
* ``redundant_edge`` -- adding a forward edge already implied by the
  minimum schedule never changes any offset (Theorem 8 minimality);
* ``copy_cache`` -- ``graph.copy()`` and cache-version bumps are
  invisible: same offsets before/after, and ``validate()`` stays green
  once the versioned raw-row fast path is stale;
* ``anchor_modes`` -- FULL / RELEVANT / IRREDUNDANT schedules agree on
  shared offsets and on start times under random delay profiles
  (Theorems 4 and 6);
* ``observability`` -- tracing is a pure observer: a traced run
  reproduces the untraced outcome exactly; every ``scheduler.run``
  event respects the Theorem 8 iteration bound ``|Eb| + 1``; the
  roll-up counters reconcile with the returned schedule's
  ``iterations``; and a warm restart from the fixpoint of an unchanged
  graph performs **zero** relaxations (hence strictly fewer than any
  from-scratch run that did work, Lemma 8);
* ``fault_containment`` -- an injected completion fault (stall, late,
  early, dropped or spurious done) under a watchdog is either
  *detected* (timeout event, taxonomy abort, or degradation to the
  static fallback) or *masked* (the recovered execution still satisfies
  every constraint edge) -- never a silent wrong result (see
  :mod:`repro.resilience.faults`);
* ``lint_consistency`` -- the static diagnostics of :mod:`repro.lint`
  agree with the scheduler: the linter flags a graph ill-posed or
  unfeasible exactly when :func:`check_well_posed` rejects it; applying
  the Lemma 7 fix-it yields ``make_well_posed``'s minimal edge set and
  a graph that schedules cleanly; and removing a lint-flagged duplicate
  serialization edge (RS303) preserves start times under random delay
  profiles;
* ``batch_consistency`` -- :func:`repro.core.batch.schedule_many` over
  copies and renamed isomorphs of the graph, through a persistent
  result cache cold and warm, is bit-identical (offsets and exception
  types) to per-graph ``schedule_graph`` in FULL anchor mode;
* ``anomaly_freedom`` -- streaming a sampled delay profile's completion
  events through the online executor one at a time, no prefix ever
  commits an operation start later than the static relative schedule's
  start under the observed delays, the complete stream reproduces the
  static starts exactly, and the whole log matches a cycle-accurate
  control simulation of the same profile (see :mod:`repro.runtime`);
* ``crash_recovery`` -- the sampled stream is journaled through the
  write-ahead :mod:`repro.runtime.journal` path and the journal is
  killed at **every** record boundary (plus torn offsets inside
  records): recovery by replay must be bit-identical to the
  uninterrupted run at that boundary -- issues, done cycles, watchdog
  arming and order, stream clock -- and a torn final line must recover
  exactly the run without that event (the durability contract behind
  the service's ``/sessions`` streams).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.anchors import AnchorMode, find_anchor_sets, irredundant_anchors, relevant_anchors
from repro.core.constraints import MaxTimingConstraint, MinTimingConstraint
from repro.core.graph import ConstraintGraph
from repro.core.incremental import add_constraint_incremental
from repro.core.scheduler import IterativeIncrementalScheduler, schedule_graph
from repro.core.wellposed import (
    WellPosedness,
    can_be_made_well_posed,
    check_well_posed,
    containment_violations,
    make_well_posed,
    serialization_edges,
)
from repro.qa.reference import (
    check_well_posed_reference,
    find_anchor_sets_reference,
    irredundant_anchors_reference,
    relevant_anchors_reference,
    schedule_graph_reference,
    schedule_offsets_reference,
)


@dataclass(frozen=True)
class Divergence:
    """One violated invariant."""

    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


def _outcome(fn: Callable[[], object]) -> Tuple[str, object]:
    """Run *fn*; ``("ok", value)`` or ``("raise", exception type name)``.

    Exception *types* are the contract: both kernels must reject a graph
    for the same reason, but message wording is free to differ.
    """
    try:
        return "ok", fn()
    except Exception as exc:
        return "raise", type(exc).__name__


def _edge_multiset(graph: ConstraintGraph):
    from collections import Counter

    return Counter((e.tail, e.head, e.weight, e.kind) for e in graph.edges())


# ----------------------------------------------------------------------
# differential checks
# ----------------------------------------------------------------------


def check_wellposed_verdict(graph: ConstraintGraph,
                            rng: random.Random) -> Optional[str]:
    kind_i, res_i = _outcome(lambda: check_well_posed(graph.copy()))
    kind_r, res_r = _outcome(lambda: check_well_posed_reference(graph.copy()))
    if (kind_i, res_i) != (kind_r, res_r):
        return (f"indexed {kind_i}:{res_i} != reference {kind_r}:{res_r}")
    return None


def check_anchor_analyses(graph: ConstraintGraph,
                          rng: random.Random) -> Optional[str]:
    pairs = [
        ("full", find_anchor_sets, find_anchor_sets_reference),
        ("relevant", relevant_anchors, relevant_anchors_reference),
        ("irredundant", irredundant_anchors, irredundant_anchors_reference),
    ]
    for label, indexed_fn, reference_fn in pairs:
        kind_i, res_i = _outcome(lambda: indexed_fn(graph.copy()))  # noqa: B023 - invoked immediately
        kind_r, res_r = _outcome(lambda: reference_fn(graph.copy()))  # noqa: B023 - invoked immediately
        if kind_i != kind_r:
            return f"{label}: indexed {kind_i}:{res_i} != reference {kind_r}:{res_r}"
        if kind_i == "ok" and dict(res_i) != dict(res_r):
            diff = [v for v in res_i if res_i[v] != res_r.get(v)]
            return f"{label} anchor sets differ at {sorted(diff)[:5]}"
    return None


def check_pipeline(graph: ConstraintGraph, rng: random.Random) -> Optional[str]:
    for mode in (AnchorMode.FULL, AnchorMode.IRREDUNDANT):
        kind_i, res_i = _outcome(
            lambda: schedule_graph(graph.copy(), anchor_mode=mode))  # noqa: B023 - invoked immediately
        kind_r, res_r = _outcome(
            lambda: schedule_graph_reference(graph.copy(), anchor_mode=mode))  # noqa: B023 - invoked immediately
        if kind_i != kind_r:
            return (f"{mode.value}: indexed {kind_i}:{res_i} != "
                    f"reference {kind_r}:{res_r}")
        if kind_i == "raise":
            if res_i != res_r:
                return (f"{mode.value}: indexed raised {res_i}, "
                        f"reference raised {res_r}")
            continue
        if res_i.offsets != res_r.offsets:
            diff = [v for v in res_i.offsets
                    if res_i.offsets[v] != res_r.offsets.get(v)]
            return f"{mode.value}: offsets differ at {sorted(diff)[:5]}"
        if res_i.iterations != res_r.iterations:
            return (f"{mode.value}: iterations {res_i.iterations} != "
                    f"{res_r.iterations}")
        bound = len(res_i.graph.backward_edges()) + 1
        if res_i.iterations > bound:
            return (f"{mode.value}: {res_i.iterations} iterations exceeds "
                    f"the Theorem 8 bound |Eb|+1 = {bound}")
    return None


# ----------------------------------------------------------------------
# metamorphic checks
# ----------------------------------------------------------------------


def _schedulable(graph: ConstraintGraph) -> Optional[object]:
    """A FULL-mode schedule of a copy, or None when the pipeline
    (correctly or not -- other checks compare that) rejects the graph."""
    try:
        return schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL)
    except Exception:
        return None


def check_warm_start(graph: ConstraintGraph, rng: random.Random) -> Optional[str]:
    schedule = _schedulable(graph)
    if schedule is None:
        return None
    base = schedule.graph  # possibly serialized by the pipeline
    order = base.forward_topological_order()
    pairs = [(t, h) for i, t in enumerate(order) for h in order[i + 1:]]
    if not pairs:
        return None
    # Mix constraint flavors: min constraints along existing paths are
    # the cheap warm-start case; min constraints between *unrelated*
    # vertices grow anchor sets (and can break containment downstream);
    # max constraints exercise the reject paths.
    reachable = [p for p in pairs if base.is_forward_reachable(*p)]
    roll = rng.random()
    if roll < 0.5 and reachable:
        tail, head = rng.choice(reachable)
        constraint: object = MinTimingConstraint(tail, head, rng.randint(0, 8))
    elif roll < 0.75:
        tail, head = rng.choice(pairs)
        constraint = MinTimingConstraint(tail, head, rng.randint(0, 8))
    else:
        tail, head = rng.choice(reachable or pairs)
        constraint = MaxTimingConstraint(tail, head, rng.randint(1, 12))

    kind_w, warm = _outcome(lambda: add_constraint_incremental(schedule, constraint))

    def scratch_run():
        scratch_graph = base.copy()
        constraint.apply(scratch_graph)
        return schedule_graph(scratch_graph, anchor_mode=AnchorMode.FULL,
                              auto_well_pose=False)

    kind_s, scratch = _outcome(scratch_run)
    if kind_w != kind_s:
        return (f"add {constraint}: incremental {kind_w}:"
                f"{warm if kind_w == 'raise' else ''} != "
                f"scratch {kind_s}:{scratch if kind_s == 'raise' else ''}")
    if kind_w == "raise":
        if warm != scratch:
            return (f"add {constraint}: incremental raised {warm}, "
                    f"scratch raised {scratch}")
        return None
    if warm.offsets != scratch.offsets:
        diff = [v for v in warm.offsets
                if warm.offsets[v] != scratch.offsets.get(v)]
        return f"add {constraint}: warm offsets differ at {sorted(diff)[:5]}"

    # Iteration accounting: indexed warm start == dict warm start.
    warm_graph = base.copy()
    constraint.apply(warm_graph)
    anchor_sets = find_anchor_sets(warm_graph)
    scheduler = IterativeIncrementalScheduler(
        warm_graph.copy(), anchor_mode=AnchorMode.FULL,
        anchor_sets=anchor_sets)
    kind_i, res_i = _outcome(lambda: scheduler.run_from(schedule.offsets))
    kind_d, res_d = _outcome(lambda: schedule_offsets_reference(
        warm_graph.copy(), anchor_sets, schedule.offsets))
    if kind_i != kind_d:
        return f"warm kernels disagree: indexed {kind_i} != dict {kind_d}"
    if kind_i == "ok":
        offsets_d, iterations_d = res_d
        if res_i.offsets != offsets_d:
            return "warm kernels disagree on offsets"
        if res_i.iterations != iterations_d:
            return (f"warm iteration accounting: indexed {res_i.iterations} "
                    f"!= dict {iterations_d}")
    return None


def check_make_well_posed(graph: ConstraintGraph,
                          rng: random.Random) -> Optional[str]:
    try:
        status = check_well_posed(graph.copy())
    except Exception:
        return None  # cyclic forward graph etc. -- not this check's domain
    if status is not WellPosedness.ILL_POSED:
        return None
    rescuable = can_be_made_well_posed(graph.copy())
    kind, result = _outcome(lambda: make_well_posed(graph.copy()))
    if kind == "raise":
        if result != "IllPosedError":
            return f"make_well_posed raised {result}"
        if rescuable:
            return ("make_well_posed refused but can_be_made_well_posed "
                    "says a serialization exists (Lemma 3)")
        return None
    if not rescuable:
        return ("make_well_posed produced a graph but "
                "can_be_made_well_posed says none exists (Lemma 3)")
    if check_well_posed(result) is not WellPosedness.WELL_POSED:
        return "make_well_posed output is not well-posed (Theorem 2)"
    for edge in serialization_edges(result):
        probe = result.copy()
        probe.remove_edge(edge)
        if not containment_violations(probe):
            return (f"serialization edge {edge.tail}->{edge.head} is "
                    f"unnecessary: output is not edge-minimal (Theorem 7)")
    again = make_well_posed(result.copy())
    if _edge_multiset(again) != _edge_multiset(result):
        return "make_well_posed is not idempotent"
    return None


def check_redundant_edge(graph: ConstraintGraph,
                         rng: random.Random) -> Optional[str]:
    schedule = _schedulable(graph)
    if schedule is None:
        return None
    base = schedule.graph
    offsets = schedule.offsets
    anchor_sets = schedule.anchor_sets
    order = base.forward_topological_order()
    candidates: List[Tuple[str, str, int]] = []
    for i, tail in enumerate(order):
        for head in order[i + 1:]:
            if not (set(anchor_sets[tail]) <= set(anchor_sets[head])):
                continue
            slacks = [offsets[head][a] - offsets[tail][a]
                      for a in anchor_sets[tail]]
            if base.is_anchor(tail) and tail in offsets[head]:
                slacks.append(offsets[head][tail])
            if not slacks:
                continue
            slack = min(slacks)
            if slack >= 0:
                candidates.append((tail, head, slack))
    if not candidates:
        return None
    for tail, head, slack in rng.sample(candidates, min(3, len(candidates))):
        mutated = base.copy()
        mutated.add_min_constraint(tail, head, slack)
        kind, res = _outcome(lambda: schedule_graph(  # noqa: B023 - invoked immediately
            mutated, anchor_mode=AnchorMode.FULL, auto_well_pose=False))
        if kind == "raise":
            return (f"redundant edge ({tail}->{head}, l={slack}) made the "
                    f"pipeline raise {res}")
        if res.offsets != offsets:
            diff = [v for v in res.offsets if res.offsets[v] != offsets.get(v)]
            return (f"redundant edge ({tail}->{head}, l={slack}) changed "
                    f"offsets at {sorted(diff)[:5]}")
    return None


def check_copy_cache(graph: ConstraintGraph, rng: random.Random) -> Optional[str]:
    first = _schedulable(graph)
    if first is None:
        return None
    second = _schedulable(graph)
    if second is None or second.offsets != first.offsets:
        return "schedule_graph(graph.copy()) is not reproducible"

    # Cache-version bump: mutate then revert; all memoised analyses are
    # invalidated but the graph is semantically identical.
    bumped = first.graph.copy()
    schedule_before = schedule_graph(bumped, anchor_mode=AnchorMode.FULL,
                                     auto_well_pose=False)
    probe_edge = bumped.add_min_constraint(bumped.source, bumped.sink, 0)
    bumped.remove_edge(probe_edge)
    kind, after = _outcome(lambda: schedule_graph(
        bumped, anchor_mode=AnchorMode.FULL, auto_well_pose=False))
    if kind == "raise":
        return f"cache-version bump made the pipeline raise {after}"
    if after.offsets != schedule_before.offsets:
        return "cache-version bump changed offsets"
    # The stale raw-row fast path must fall back to the precise scan.
    kind, _ = _outcome(schedule_before.validate)
    if kind == "raise":
        return "validate() failed after a cache-version bump"
    return None


def check_anchor_modes(graph: ConstraintGraph,
                       rng: random.Random) -> Optional[str]:
    schedules = {}
    for mode in (AnchorMode.FULL, AnchorMode.RELEVANT, AnchorMode.IRREDUNDANT):
        kind, res = _outcome(lambda: schedule_graph(graph.copy(), anchor_mode=mode))  # noqa: B023 - invoked immediately
        schedules[mode] = (kind, res)
    kinds = {kind for kind, _ in schedules.values()}
    if len(kinds) > 1:
        detail = {m.value: k for m, (k, _) in schedules.items()}
        return f"anchor modes disagree on acceptance: {detail}"
    if kinds == {"raise"}:
        types = {res for _, res in schedules.values()}
        if len(types) > 1:
            return f"anchor modes raise different exceptions: {sorted(types)}"
        return None
    # Reduced modes may track fewer anchors, and even a shared offset
    # sigma_a(v) can legitimately shrink (propagation skips vertices
    # that stopped tracking ``a``); the contract is that *start times*
    # are unchanged for every delay profile (Theorems 4 and 6).
    full = schedules[AnchorMode.FULL][1]
    anchors = full.graph.anchors
    profiles = [{a: 0 for a in anchors}]
    profiles += [{a: rng.randint(0, 15) for a in anchors} for _ in range(4)]
    for mode in (AnchorMode.RELEVANT, AnchorMode.IRREDUNDANT):
        other = schedules[mode][1]
        for profile in profiles:
            if full.start_times(profile) != other.start_times(profile):
                return (f"{mode.value} start times differ from full mode "
                        f"under profile {profile} (Theorems 4/6)")
    return None


def check_observability(graph: ConstraintGraph,
                        rng: random.Random) -> Optional[str]:
    from repro.observability import Tracer, build_report, iteration_bound_violations, use_tracer

    kind_plain, plain = _outcome(
        lambda: schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL))
    tracer = Tracer()
    with use_tracer(tracer):
        kind_traced, traced = _outcome(
            lambda: schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL))
    report = build_report(tracer)

    if kind_plain != kind_traced:
        return (f"tracing changed the outcome: plain {kind_plain}, "
                f"traced {kind_traced}")
    bad = iteration_bound_violations(report)
    if bad:
        run = bad[0]
        return (f"scheduler.run event reports {run['iterations']} iterations "
                f"> Theorem 8 bound {run['bound']}")
    if kind_plain == "raise":
        if plain != traced:
            return (f"tracing changed the exception: plain {plain}, "
                    f"traced {traced}")
        return None
    if traced.offsets != plain.offsets:
        return "tracing changed the schedule's offsets"

    runs = report["scheduler"]["runs"]
    if len(runs) != 1:
        return f"one schedule_graph call recorded {len(runs)} scheduler.run events"
    if runs[0]["iterations"] != traced.iterations:
        return (f"scheduler.run reports {runs[0]['iterations']} iterations, "
                f"schedule says {traced.iterations}")
    if report["scheduler"]["total_iterations"] != traced.iterations:
        return (f"scheduler.iterations counter "
                f"{report['scheduler']['total_iterations']} != "
                f"schedule.iterations {traced.iterations}")
    iteration_events = report["scheduler"]["iteration_events"]
    if len(iteration_events) != traced.iterations:
        return (f"{len(iteration_events)} scheduler.iteration events for "
                f"{traced.iterations} iterations")
    kernel = report["kernel"]
    if kernel["indexed_runs"] + kernel["reference_runs"] != 1:
        return (f"kernel run counters do not sum to 1: {kernel}")

    # Warm restart from the fixpoint of the *unchanged* graph: the first
    # sweep finds every offset already at its longest-path value, so the
    # run converges in one round with zero relaxations -- strictly fewer
    # than any from-scratch run that moved an offset (Lemma 8).
    scratch_relaxations = report["scheduler"]["total_relaxations"]
    warm_tracer = Tracer()
    scheduler = IterativeIncrementalScheduler(
        traced.graph.copy(), anchor_mode=AnchorMode.FULL,
        anchor_sets=traced.anchor_sets)
    with use_tracer(warm_tracer):
        kind_warm, rerun = _outcome(lambda: scheduler.run_from(traced.offsets))
    if kind_warm != "ok":
        return f"warm restart on the unchanged graph raised {rerun}"
    if rerun.offsets != traced.offsets:
        return "warm restart on the unchanged graph moved offsets"
    warm_relaxations = warm_tracer.counter("scheduler.relaxations")
    if warm_relaxations != 0:
        return (f"warm restart on the unchanged graph performed "
                f"{warm_relaxations} relaxations (expected 0; from-scratch "
                f"did {scratch_relaxations})")
    if scratch_relaxations > 0 and warm_relaxations >= scratch_relaxations:
        return (f"warm restart did {warm_relaxations} relaxations, not "
                f"fewer than from-scratch's {scratch_relaxations}")
    return None


def check_fault_containment(graph: ConstraintGraph,
                            rng: random.Random) -> Optional[str]:
    # Imported lazily: resilience builds on sim and control, which the
    # rest of the oracle does not need.
    from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
    from repro.resilience.faults import Fault, FaultKind, FaultPlan, run_with_faults

    schedule = _schedulable(graph)
    if schedule is None:
        return None
    anchors = [a for a in schedule.graph.anchors if a != schedule.graph.source]
    if not anchors:
        return None
    bound = rng.randint(5, 15)
    target = rng.choice(anchors)
    kind = rng.choice(list(FaultKind))
    if kind in (FaultKind.LATE, FaultKind.EARLY):
        amount = rng.randint(1, 2 * bound)
    else:
        amount = rng.randint(0, 2 * bound)
    plan = FaultPlan((Fault(kind, target, amount),))
    profile = {a: rng.randint(0, 8) for a in anchors}
    policy = rng.choice(list(WatchdogPolicy))
    watchdog = WatchdogConfig(default=bound, policy=policy,
                              max_rearms=rng.randint(1, 3))
    outcome = run_with_faults(schedule, profile, plan,
                              watchdog=watchdog, max_cycles=20000)
    if not outcome.contained:
        detail = "; ".join(outcome.violations) or "unclassified"
        return (f"fault {plan} under {policy.value} watchdog (W={bound}) "
                f"was silent: {detail}")
    return None


def check_lint_consistency(graph: ConstraintGraph,
                           rng: random.Random) -> Optional[str]:
    # Imported lazily: lint sits above the core analyses and the rest
    # of the oracle does not need it.
    from repro.lint import LintEngine, apply_fixes

    engine = LintEngine()
    kind_l, report = _outcome(lambda: engine.lint_graph(graph.copy()))
    if kind_l != "ok":
        return f"lint crashed on a fuzz graph: {report}"
    codes = set(report.codes())

    kind_w, verdict = _outcome(lambda: check_well_posed(graph.copy()))
    if kind_w == "raise":
        # check_well_posed only raises on structural violations the
        # linter classifies as RS1xx.
        if verdict == "CyclicForwardGraphError" and "RS101" not in codes:
            return "check_well_posed found a forward cycle but RS101 is absent"
        return None

    if (verdict is WellPosedness.UNFEASIBLE) != ("RS201" in codes):
        return (f"feasibility disagrees: verdict {verdict.value}, "
                f"lint codes {sorted(codes)}")
    ill_posed_flagged = bool(codes & {"RS202", "RS203"})
    if (verdict is WellPosedness.ILL_POSED) != ill_posed_flagged:
        return (f"well-posedness disagrees: verdict {verdict.value}, "
                f"lint codes {sorted(codes)}")

    rescuable = report.by_code("RS202")
    if rescuable:
        if any(d.fix is None for d in rescuable):
            return "RS202 diagnostic without the Lemma 7 fix"
        fixed = graph.copy()
        kind_f, applied = _outcome(
            lambda: apply_fixes(fixed, report, select={"RS202"}))
        if kind_f != "ok":
            return f"applying the RS202 fix raised {applied}"
        reference = make_well_posed(graph.copy())
        if _edge_multiset(fixed) != _edge_multiset(reference):
            return ("the --fix'ed graph's edges differ from "
                    "make_well_posed's minimal serialization")
        if check_well_posed(fixed.copy()) is not WellPosedness.WELL_POSED:
            return "the --fix'ed graph is still not well-posed"
        if _schedulable(fixed) is None:
            return "the --fix'ed graph does not schedule cleanly"
        refix = engine.lint_graph(fixed.copy())
        if set(refix.codes()) & {"RS202", "RS203"}:
            return "the --fix'ed graph still lints as ill-posed"

    # Fix-its that drop duplicate serialization edges (RS303) must
    # preserve the schedule exactly: synthesize a duplicate, lint, fix,
    # and compare start times under a random delay profile.
    schedule = _schedulable(graph)
    if schedule is None:
        return None
    unbounded_forward = [e for e in graph.forward_edges() if e.is_unbounded]
    if not unbounded_forward:
        return None
    seed_edge = rng.choice(unbounded_forward)
    mutated = graph.copy()
    mutated.add_serialization_edge(seed_edge.tail, seed_edge.head)
    mutated_report = engine.lint_graph(mutated.copy())
    flagged = [d for d in mutated_report.by_code("RS303")
               if d.span.edge == (seed_edge.tail, seed_edge.head)]
    if not flagged:
        return (f"duplicate serialization {seed_edge.tail!r} -> "
                f"{seed_edge.head!r} not flagged RS303")
    fixed = mutated.copy()
    apply_fixes(fixed, flagged[:1])
    if _edge_multiset(fixed) != _edge_multiset(graph):
        return "the RS303 fix did not restore the original edge multiset"
    after = _schedulable(fixed)
    if after is None:
        return "the RS303-fixed graph no longer schedules"
    anchors = [a for a in schedule.graph.anchors]
    profile = {a: rng.randint(0, 9) for a in anchors}
    if schedule.start_times(profile) != after.start_times(profile):
        return ("removing a duplicate serialization edge changed start "
                "times under a random delay profile")
    return None


def check_batch_consistency(graph: ConstraintGraph,
                            rng: random.Random) -> Optional[str]:
    """``schedule_many`` must be bit-identical to the per-graph pipeline.

    The input graph is expanded into a four-graph corpus -- two verbatim
    copies plus two renamed isomorphs, so the batch deduplicator and the
    canonical hash both fire -- scheduled through a temp-dir persistent
    cache twice (cold file, then warm), and every result compared to
    ``schedule_graph(anchor_mode=FULL)`` on a pristine copy: same
    offsets, same exception *types*.  The warm pass additionally proves
    a cache hit relabeled onto a renamed graph changes nothing.
    """
    import os
    import tempfile

    from repro.core.batch import schedule_many
    from repro.qa.generators import renamed_isomorph

    corpus = [graph.copy(), renamed_isomorph(graph, rng),
              graph.copy(), renamed_isomorph(graph, rng)]
    expected = []
    for g in corpus:
        expected.append(_outcome(
            lambda g=g: schedule_graph(g.copy(), anchor_mode=AnchorMode.FULL)))
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "schedules.jsonl")
        for label in ("cold", "warm"):
            run = schedule_many([g.copy() for g in corpus], cache=cache_path)
            for i, (kind, want) in enumerate(expected):
                got_kind, got = _outcome(run[i].unpack)
                if got_kind != kind:
                    return (f"{label} #{i}: batch {got_kind}"
                            f":{got if got_kind == 'raise' else ''} != "
                            f"per-graph {kind}"
                            f":{want if kind == 'raise' else ''}")
                if kind == "raise":
                    if got != want:
                        return (f"{label} #{i}: batch raised {got}, "
                                f"per-graph raised {want}")
                elif got.offsets != want.offsets:
                    diff = [v for v in got.offsets
                            if got.offsets[v] != want.offsets.get(v)]
                    return (f"{label} #{i}: batch offsets differ from "
                            f"per-graph at {sorted(diff)[:5]}")
    return None


def check_anomaly_freedom(graph: ConstraintGraph,
                          rng: random.Random) -> Optional[str]:
    """The online executor never issues later than the static schedule.

    A complete delay profile is sampled, its completion events derived
    analytically (``start_times(profile)`` plus each anchor's delay)
    and streamed through an :class:`~repro.runtime.OnlineExecutor` one
    event at a time.  After **every** prefix, each committed start must
    not exceed the static relative schedule's start under the full
    observed profile -- issuing later would mean the executor
    manufactured a delay no completion justifies (an *anomaly*).  On
    the complete stream the starts must *equal* the static starts
    exactly, and the whole log must match a cycle-accurate control
    simulation of the same profile (the two implementations share only
    the watchdog arithmetic).
    """
    from repro.runtime.driver import replay_faults, static_completion_events
    from repro.runtime.events import CompletionEvent
    from repro.runtime.executor import OnlineExecutor

    schedule = _schedulable(graph)
    if schedule is None:
        return None
    base = schedule.graph  # possibly serialized by the pipeline
    anchors = [a for a in base.anchors if a != base.source]
    profile = {a: rng.randint(0, 12) for a in anchors}
    static = schedule.start_times(profile)
    events = static_completion_events(schedule, profile)

    executor = OnlineExecutor(schedule)
    fed = 0
    for anchor, cycle in events:
        executor.feed(CompletionEvent(anchor, cycle))
        fed += 1
        for op, issued in executor.log.issues.items():
            if issued > static[op]:
                return (f"after {fed}/{len(events)} events, {op!r} issued "
                        f"at {issued} > static start {static[op]} "
                        f"(profile {profile})")
    log = executor.close()
    if not log.complete:
        return (f"complete stream left operations unissued: "
                f"{log.unissued[:5]} (profile {profile})")
    for op, want in static.items():
        if log.issues.get(op) != want:
            return (f"final start of {op!r}: executor {log.issues.get(op)} "
                    f"!= static {want} (profile {profile})")

    replay = replay_faults(schedule, profile)
    if not replay.equivalent:
        return (f"executor vs control-sim divergence under profile "
                f"{profile}: {'; '.join(replay.mismatches[:3])}")
    return None


def check_crash_recovery(graph: ConstraintGraph,
                         rng: random.Random) -> Optional[str]:
    """Kill-at-every-event-boundary durability of the event journal.

    The same event stream ``anomaly_freedom`` derives is written
    through the real write-ahead journal path (one record per event,
    sometimes under a sampled watchdog config, mirroring the service's
    journal-then-apply ordering).  The journal is then truncated at
    every record boundary and at sampled byte offsets *inside* records,
    and recovered through the real replay path.  Every recovery must be
    bit-identical to the uninterrupted executor at that boundary --
    :meth:`~repro.runtime.executor.OnlineExecutor.state_snapshot`
    equality covers issue cycles, done cycles, armed watchdogs and
    their arming order, and the stream clock -- and a torn final line
    must equal the run without that event.  On a complete, undegraded
    run the recovered issue cycles must also equal the static
    schedule's ``start_times(observed)`` (the anomaly-freedom bridge:
    recovery preserves not just state but optimality).
    """
    import os
    import tempfile

    from repro.core.watchdog import WatchdogPolicy
    from repro.io import graph_to_dict
    from repro.resilience.recovery import journal_stream, verify_crash_points
    from repro.runtime.driver import static_completion_events

    schedule = _schedulable(graph)
    if schedule is None:
        return None
    base = schedule.graph
    anchors = [a for a in base.anchors if a != base.source]
    profile = {a: rng.randint(0, 12) for a in anchors}
    events = static_completion_events(schedule, profile)

    watchdog = None
    if anchors and rng.random() < 0.5:
        # Half the cases run monitored, so recovery is also exercised
        # across timeout firings, re-arms, aborts and degradations.
        policy = rng.choice(list(WatchdogPolicy))
        watchdog = {
            "bounds": {a: rng.randint(1, 15)
                       for a in sorted(rng.sample(
                           anchors, rng.randint(1, len(anchors))))},
            "policy": policy.value,
        }

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.journal")
        snapshots = journal_stream(path, graph_to_dict(base), events,
                                   mode="full", watchdog=watchdog)
        report = verify_crash_points(path, snapshots, rng=rng,
                                     torn_per_record=2)
    if not report.identical:
        return (f"{len(report.divergences)} recovery divergence(s) over "
                f"{report.boundary_checks} boundary + {report.torn_checks} "
                f"torn kill points (watchdog {watchdog}, profile "
                f"{profile}): {'; '.join(report.divergences[:3])}")

    final = snapshots[-1]
    if not final["pending"] and not final["degraded"] \
            and not final["closed"]:
        want = schedule.start_times(final["observed"])
        for op, start in want.items():
            if final["issues"].get(op) != start:
                return (f"journaled run's final start of {op!r}: "
                        f"{final['issues'].get(op)} != static "
                        f"start_times(observed) {start} "
                        f"(profile {profile}, watchdog {watchdog})")
    return None


#: The catalogue, in execution order.
ORACLE_CHECKS: Dict[str, Callable[[ConstraintGraph, random.Random], Optional[str]]] = {
    "wellposed_verdict": check_wellposed_verdict,
    "anchor_analyses": check_anchor_analyses,
    "pipeline": check_pipeline,
    "warm_start": check_warm_start,
    "make_well_posed": check_make_well_posed,
    "redundant_edge": check_redundant_edge,
    "copy_cache": check_copy_cache,
    "anchor_modes": check_anchor_modes,
    "observability": check_observability,
    "fault_containment": check_fault_containment,
    "lint_consistency": check_lint_consistency,
    "batch_consistency": check_batch_consistency,
    "anomaly_freedom": check_anomaly_freedom,
    "crash_recovery": check_crash_recovery,
}


def run_oracle(graph: ConstraintGraph, seed: int = 0,
               checks: Optional[List[str]] = None) -> List[Divergence]:
    """Run the catalogue (or the named *checks*) against *graph*.

    Each check gets its own deterministic rng derived from *seed* and
    the check name, so a single check replays identically whether run
    alone (the shrinker does this) or as part of the full catalogue.
    A check that crashes is itself reported as a divergence: the oracle
    never masks an unexpected exception as a pass.
    """
    divergences: List[Divergence] = []
    for name, fn in ORACLE_CHECKS.items():
        if checks is not None and name not in checks:
            continue
        rng = random.Random(seed ^ zlib.crc32(name.encode("ascii")))
        try:
            message = fn(graph, rng)
        except Exception as exc:  # noqa: BLE001 - the oracle must not die
            message = f"oracle check crashed: {type(exc).__name__}: {exc}"
        if message:
            divergences.append(Divergence(check=name, message=message))
    return divergences
