"""Seeded chaos campaigns: the runtime contract at scale, three ways.

Each case derives deterministically from its seed: a graph from the
:mod:`repro.qa.generators` scenario rotation, an honest delay profile,
a watchdog configuration (bound, policy, re-arm budget), a control
style, and a fault plan of one to three completion faults plus an
optional spurious pulse.  :func:`run_campaign` schedules each seed's
graph once under :data:`CASE_BUDGET` (an unschedulable graph -- ill-
posed beyond rescue, unfeasible -- is counted and skipped) and hands
the case to its *kind*:

* ``faults`` -- the case runs through
  :func:`repro.resilience.faults.run_with_faults` and must come back
  *contained*: detected or masked, never silent;
* ``runtime`` -- the uniform profile is swapped for one drawn from a
  bounded-delay family (:mod:`repro.runtime.profiles`), and
  :func:`repro.runtime.driver.replay_faults` runs both the control
  simulation and the event-driven executor and demands field-by-field
  equivalence.  A mismatch is a silent anomaly: one of the two runtimes
  issued an operation at a cycle the other would not have;
* ``crash`` -- the family profile's static completion stream is written
  through the write-ahead journal, the journal is killed at every
  record boundary (the fsync points) and at seeded byte offsets inside
  records, and every recovery must be bit-identical to the
  uninterrupted executor (see :mod:`repro.resilience.recovery`).

The runtime and crash kinds draw their profiles from their own seed
streams, so no kind can reshuffle another's cases.  Run from the
command line (the CI ``campaigns`` job; ``repro chaos`` takes the same
options)::

    python -m repro.resilience.chaos --seed 0 --cases 200
    python -m repro.resilience.chaos --kind runtime --seed 0 --events 200
    python -m repro.resilience.chaos --kind crash --seed 0 --cases 60

Exit status 1 means at least one silent divergence -- a runtime bug.
"""

from __future__ import annotations

import os
import random
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.exceptions import ConstraintGraphError
from repro.core.graph import ConstraintGraph
from repro.core.schedule import RelativeSchedule
from repro.core.watchdog import WatchdogConfig, WatchdogPolicy
from repro.io import graph_to_dict
from repro.qa.generators import generate_case
from repro.resilience.faults import Fault, FaultKind, FaultPlan, run_with_faults
from repro.resilience.guard import RunBudget, guarded_schedule
from repro.resilience.recovery import journal_stream, verify_crash_points
from repro.runtime.driver import replay_faults, static_completion_events
from repro.runtime.journal import watchdog_to_dict
from repro.runtime.profiles import choose_family, sample_profile

#: Cases never need more cycles than this; a case that does has hung.
CASE_MAX_CYCLES = 20000

#: Campaign-level guard rails: generated graphs stay far below these,
#: so hitting one is itself a generator bug worth failing on.
CASE_BUDGET = RunBudget(max_vertices=512, max_edges=8192, deadline_s=30.0)

#: Safety cap: no case or event target may spin past this many cases.
MAX_CAMPAIGN_CASES = 2000


@dataclass(frozen=True)
class ChaosCase:
    """One deterministic chaos case (the graph is shared, not compared)."""

    seed: int
    scenario: str
    profile: Dict[str, int]
    plan: FaultPlan
    watchdog: WatchdogConfig
    style: str
    graph: ConstraintGraph = field(compare=False, repr=False)


@dataclass
class CampaignStats:
    """Aggregate outcome of a campaign of any kind.

    Attributes:
        kind: the case kind (a key of :data:`KINDS`).
        counters: the kind's outcome counts, in summary order.
        tallies: named per-key case counts (faults injected, policies,
            profile families).
        divergences: one line per silent divergence; any fails the run.
    """

    kind: str
    counters: Dict[str, int]
    cases: int = 0
    unschedulable: int = 0
    events: int = 0
    tallies: Dict[str, Dict[str, int]] = field(default_factory=dict)
    divergences: List[str] = field(default_factory=list)

    @property
    def silent(self) -> int:
        return len(self.divergences)

    def tally(self, name: str, key: str) -> None:
        table = self.tallies.setdefault(name, {})
        table[key] = table.get(key, 0) + 1

    def summary(self) -> str:
        title = KINDS[self.kind][0]
        streamed = "" if self.kind == "faults" else f", {self.events} events"
        lines = [f"{title}: {self.cases} cases "
                 f"({self.unschedulable} unschedulable){streamed}"]
        lines += [f"  {name}: {n}" for name, n in self.counters.items()]
        lines.append(f"  silent: {self.silent}")
        for name, table in sorted(self.tallies.items()):
            entries = ", ".join(f"{k}={n}" for k, n in sorted(table.items()))
            lines.append(f"  {name}: {entries}")
        lines += [f"  SILENT {divergence}"
                  for divergence in self.divergences[:10]]
        if len(self.divergences) > 10:
            lines.append(f"  ... and {len(self.divergences) - 10} more")
        return "\n".join(lines)


def _sample_plan(rng: random.Random, anchors: List[str],
                 bound: int) -> FaultPlan:
    """One to three completion faults on distinct anchors, plus an
    occasional spurious pulse."""
    faults: List[Fault] = []
    targets = rng.sample(anchors, rng.randint(1, min(3, len(anchors))))
    for anchor in targets:
        kind = rng.choice([FaultKind.STALL, FaultKind.LATE, FaultKind.EARLY,
                           FaultKind.DROP])
        if kind is FaultKind.LATE:
            # Straddle the watchdog boundary: some late completions stay
            # inside the bound (masked), some push past it (detected).
            faults.append(Fault(kind, anchor, rng.randint(1, 2 * bound)))
        elif kind is FaultKind.EARLY:
            faults.append(Fault(kind, anchor, rng.randint(1, bound)))
        else:
            faults.append(Fault(kind, anchor))
    if rng.random() < 0.4:
        target = rng.choice(anchors)
        faults.append(Fault(FaultKind.SPURIOUS, target, rng.randint(0, 3 * bound)))
    return FaultPlan(tuple(faults))


def generate_chaos_case(seed: int,
                        policy: Optional[WatchdogPolicy] = None) -> ChaosCase:
    """The deterministic chaos case for *seed*.

    The graph itself comes from the fuzzing scenario rotation (same
    seed); this function derives the runtime environment -- profile,
    watchdog, faults -- from an independent stream so changing one
    generator does not silently reshuffle the other.
    """
    case = generate_case(seed)
    rng = random.Random(seed ^ zlib.crc32(b"chaos"))
    graph = case.graph
    anchors = [a for a in graph.anchors if a != graph.source]

    profile = {a: rng.randint(0, 10) for a in anchors}
    bound = rng.randint(6, 18)
    chosen_policy = policy or rng.choice(list(WatchdogPolicy))
    watchdog = WatchdogConfig(default=bound, policy=chosen_policy,
                              max_rearms=rng.randint(1, 3), backoff=2)
    plan = (FaultPlan() if not anchors
            else _sample_plan(rng, anchors, bound))
    style = rng.choice(["counter", "shift-register"])
    return ChaosCase(seed=seed, scenario=case.scenario, profile=profile,
                     plan=plan, watchdog=watchdog, style=style, graph=graph)


def _family_profile(case: ChaosCase, schedule: RelativeSchedule,
                    stream: bytes) -> Tuple[str, Dict[str, int], random.Random]:
    """A bounded-delay family profile for *case*, drawn from the kind's
    own seed *stream*; returns the family, the profile and the
    generator (the crash kind draws its torn offsets from it next)."""
    rng = random.Random(case.seed ^ zlib.crc32(stream))
    family = choose_family(rng)
    graph = schedule.graph
    anchors = [a for a in graph.anchors if a != graph.source]
    return family, sample_profile(family, rng, anchors,
                                  case.watchdog.budget()), rng


def faults_case(case: ChaosCase, schedule: RelativeSchedule,
                stats: CampaignStats) -> None:
    """Inject the case's fault plan: detected or masked, never silent."""
    outcome = run_with_faults(schedule, case.profile, case.plan,
                              watchdog=case.watchdog, style=case.style,
                              max_cycles=CASE_MAX_CYCLES)
    if not case.plan.faults:
        stats.counters["fault-free"] += 1
    for fault in case.plan.faults:
        stats.tally("faults injected", fault.kind.value)
    policy = case.watchdog.policy.value
    stats.tally("policies", policy)
    if outcome.detected:
        stats.counters["detected"] += 1
    elif outcome.masked:
        stats.counters["masked"] += 1
    else:
        stats.divergences.append(
            f"seed {case.seed} scenario={case.scenario} plan={case.plan} "
            f"policy={policy} style={case.style}: "
            f"{'; '.join(outcome.violations) or 'unclassified'}")


def runtime_case(case: ChaosCase, schedule: RelativeSchedule,
                 stats: CampaignStats) -> None:
    """Run a family profile through simulator and executor; any
    field-by-field mismatch is a silent anomaly."""
    family, profile, _ = _family_profile(case, schedule, b"runtime")
    replay = replay_faults(schedule, profile, case.plan,
                           watchdog=case.watchdog, style=case.style,
                           max_cycles=CASE_MAX_CYCLES)
    stats.tally("profile families", family)
    if replay.log is None:
        stats.counters["aborted"] += 1
    else:
        stats.events += replay.log.events
        stats.counters["degraded" if replay.log.degraded
                       else "completed"] += 1
    if not replay.equivalent:
        stats.divergences.append(
            f"seed {case.seed} [{family}]: {'; '.join(replay.mismatches[:3])}")


def crash_case(case: ChaosCase, schedule: RelativeSchedule,
               stats: CampaignStats) -> None:
    """Journal a family profile's static completion stream, kill it at
    every record boundary plus one seeded torn offset per record, and
    demand bit-identical recovery."""
    _, profile, rng = _family_profile(case, schedule, b"crash")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.journal")
        snapshots = journal_stream(
            path, graph_to_dict(schedule.graph),
            static_completion_events(schedule, profile), mode="full",
            watchdog=watchdog_to_dict(case.watchdog))
        report = verify_crash_points(path, snapshots, rng=rng,
                                     torn_per_record=1)
    stats.events += len(snapshots) - 1
    stats.counters["boundary kills"] += report.boundary_checks
    stats.counters["torn kills"] += report.torn_checks
    stats.divergences += [f"seed {case.seed}: {divergence}"
                          for divergence in report.divergences]


#: One case of a kind, scheduled: tallies its outcome into the stats.
CaseRunner = Callable[[ChaosCase, RelativeSchedule, CampaignStats], None]

#: kind -> (summary title, outcome counters in summary order, runner).
KINDS: Dict[str, Tuple[str, Tuple[str, ...], CaseRunner]] = {
    "faults": ("chaos campaign", ("detected", "masked", "fault-free"),
               faults_case),
    "runtime": ("runtime chaos campaign",
                ("completed", "aborted", "degraded"), runtime_case),
    "crash": ("crash-injection campaign", ("boundary kills", "torn kills"),
              crash_case),
}


def run_campaign(kind: str, start_seed: int = 0, cases: int = 0,
                 events: int = 0,
                 policy: Optional[WatchdogPolicy] = None) -> CampaignStats:
    """Run seeds ``start_seed, start_seed + 1, ...`` of one *kind* until
    *cases* cases have run and at least *events* completion events have
    streamed, bounded by :data:`MAX_CAMPAIGN_CASES`.  *policy* pins
    every case's watchdog policy (default: rotate per seed).

    Raises:
        KeyError: unknown *kind* (the valid names are :data:`KINDS`).
    """
    _, counters, run_case = KINDS[kind]
    stats = CampaignStats(kind, dict.fromkeys(counters, 0))
    while stats.cases < MAX_CAMPAIGN_CASES and (
            stats.cases < cases or stats.events < events):
        case = generate_chaos_case(start_seed + stats.cases, policy)
        stats.cases += 1
        try:
            schedule = guarded_schedule(case.graph, CASE_BUDGET)
        except ConstraintGraphError:
            stats.unschedulable += 1
            continue
        run_case(case, schedule, stats)
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.resilience.chaos [options]``: the ``repro
    chaos`` command (one parser serves both)."""
    from repro.cli import main as cli_main

    return cli_main(["chaos", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
