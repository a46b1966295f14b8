"""Seeded runtime chaos campaigns: the executor under hostile streams.

Every case reuses the resilience campaign's deterministic derivation --
same graph, watchdog, control style and fault plan for a given seed --
but swaps the uniform delay profile for one drawn from a bounded-delay
family (:mod:`repro.runtime.profiles`), sampled from an independent
seed stream so runtime campaigns and resilience campaigns cannot
reshuffle each other.  Each case then runs **both** implementations --
the cycle-accurate control simulation and the event-driven executor --
through :func:`repro.runtime.driver.replay_faults` and demands field-by-
field equivalence.  A mismatch is a *silent anomaly*: one of the two
runtimes issued an operation at a cycle the other would not have.

Run from the command line (the CI ``runtime-smoke`` job)::

    python -m repro.runtime.chaos --seed 0 --events 200

``--crash`` swaps the differential for crash injection: each case's
event stream is written through the write-ahead journal, the journal is
killed at every record boundary (the fsync points) and at seeded byte
offsets inside records, and every recovery is replayed and compared
bit-for-bit against the uninterrupted executor (see
:mod:`repro.resilience.recovery`).

Exit status 1 means at least one silent anomaly -- a runtime bug.
"""

from __future__ import annotations

import argparse
import random
import sys
import zlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from repro.resilience.recovery import CrashReport

from repro.core.exceptions import ConstraintGraphError
from repro.core.watchdog import WatchdogPolicy
from repro.qa.generators import generate_case
from repro.resilience.chaos import _CASE_BUDGET, _CASE_MAX_CYCLES, generate_chaos_case
from repro.resilience.guard import guarded_schedule
from repro.runtime.driver import RuntimeReplay, replay_faults
from repro.runtime.profiles import choose_family, sample_profile

#: Safety cap: no --events target may spin past this many cases.
MAX_CAMPAIGN_CASES = 2000


@dataclass
class RuntimeCampaignStats:
    """Aggregate outcome of a runtime chaos campaign."""

    cases: int = 0
    unschedulable: int = 0
    events: int = 0
    aborted: int = 0
    degraded: int = 0
    completed: int = 0
    anomalies: List[str] = field(default_factory=list)
    by_family: dict = field(default_factory=dict)

    @property
    def silent(self) -> int:
        return len(self.anomalies)

    def summary(self) -> str:
        lines = [
            f"runtime chaos campaign: {self.cases} cases "
            f"({self.unschedulable} unschedulable), "
            f"{self.events} events",
            f"  completed: {self.completed}",
            f"  aborted:   {self.aborted}",
            f"  degraded:  {self.degraded}",
            f"  silent anomalies: {self.silent}",
        ]
        if self.by_family:
            families = ", ".join(f"{k}={n}"
                                 for k, n in sorted(self.by_family.items()))
            lines.append(f"  profile families: {families}")
        for anomaly in self.anomalies[:10]:
            lines.append(f"  ANOMALY {anomaly}")
        if len(self.anomalies) > 10:
            lines.append(f"  ... and {len(self.anomalies) - 10} more")
        return "\n".join(lines)


def run_runtime_case(seed: int,
                     policy: Optional[WatchdogPolicy] = None
                     ) -> Optional[RuntimeReplay]:
    """Replay the deterministic runtime case for *seed*, or None when
    the seed's graph is unschedulable (rejected, ill-posed, or over the
    campaign budget)."""
    case = generate_chaos_case(seed, policy)
    rng = random.Random(seed ^ zlib.crc32(b"runtime"))
    family = choose_family(rng)
    try:
        graph = generate_case(seed).graph
        schedule = guarded_schedule(graph, _CASE_BUDGET)
    except ConstraintGraphError:
        return None
    if schedule is None:
        return None
    anchors = [a for a in graph.anchors if a != graph.source]
    bound = case.watchdog.budget()
    profile = sample_profile(family, rng, anchors, bound)
    replay = replay_faults(schedule, profile, case.plan,
                           watchdog=case.watchdog, style=case.style,
                           max_cycles=_CASE_MAX_CYCLES)
    replay.family = family  # type: ignore[attr-defined]
    return replay


def run_campaign(start_seed: int, cases: int = 0, events: int = 0,
                 policy: Optional[WatchdogPolicy] = None
                 ) -> RuntimeCampaignStats:
    """Run seeds ``start_seed, start_seed+1, ...`` until *cases* cases
    have run (when given) and at least *events* completion events have
    flowed through the executor (when given), whichever demands more --
    bounded by :data:`MAX_CAMPAIGN_CASES`."""
    stats = RuntimeCampaignStats()
    seed = start_seed
    ran = 0
    while ran < MAX_CAMPAIGN_CASES:
        if ran >= cases and stats.events >= events:
            break
        replay = run_runtime_case(seed, policy)
        seed += 1
        ran += 1
        stats.cases += 1
        if replay is None:
            stats.unschedulable += 1
            continue
        family = getattr(replay, "family", "?")
        stats.by_family[family] = stats.by_family.get(family, 0) + 1
        if replay.log is not None:
            stats.events += replay.log.events
            if replay.log.degraded:
                stats.degraded += 1
            else:
                stats.completed += 1
        else:
            stats.aborted += 1
        if not replay.equivalent:
            stats.anomalies.append(
                f"seed {seed - 1} [{family}]: {'; '.join(replay.mismatches[:3])}")
    return stats


@dataclass
class CrashCampaignStats:
    """Aggregate outcome of a crash-injection campaign."""

    cases: int = 0
    unschedulable: int = 0
    events: int = 0
    boundary_kills: int = 0
    torn_kills: int = 0
    divergences: List[str] = field(default_factory=list)

    @property
    def silent(self) -> int:
        return len(self.divergences)

    def summary(self) -> str:
        lines = [
            f"crash-injection campaign: {self.cases} cases "
            f"({self.unschedulable} unschedulable), "
            f"{self.events} journaled events",
            f"  kill points: {self.boundary_kills} boundary, "
            f"{self.torn_kills} torn",
            f"  silent divergences: {self.silent}",
        ]
        for divergence in self.divergences[:10]:
            lines.append(f"  DIVERGENCE {divergence}")
        if len(self.divergences) > 10:
            lines.append(f"  ... and {len(self.divergences) - 10} more")
        return "\n".join(lines)


def run_crash_case(seed: int,
                   policy: Optional[WatchdogPolicy] = None,
                   ) -> Optional["CrashReport"]:
    """Journal the deterministic case for *seed*, kill it at every
    record boundary plus seeded torn offsets, and verify bit-identical
    recovery.  Returns the :class:`~repro.resilience.recovery.
    CrashReport`, or None when the seed's graph is unschedulable."""
    import os
    import tempfile

    from repro.io import graph_to_dict
    from repro.resilience.recovery import journal_stream, verify_crash_points
    from repro.runtime.journal import watchdog_to_dict

    case = generate_chaos_case(seed, policy)
    rng = random.Random(seed ^ zlib.crc32(b"crash"))
    family = choose_family(rng)
    try:
        graph = generate_case(seed).graph
        schedule = guarded_schedule(graph, _CASE_BUDGET)
    except ConstraintGraphError:
        return None
    if schedule is None:
        return None
    base = schedule.graph
    anchors = [a for a in base.anchors if a != base.source]
    profile = sample_profile(family, rng, anchors, case.watchdog.budget())
    static = schedule.start_times(profile)
    order = {name: position for position, name
             in enumerate(base.forward_topological_order())}
    events = [(a, cycle) for cycle, _, a in sorted(
        (static[a] + profile[a], order[a], a) for a in anchors)]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "case.journal")
        snapshots = journal_stream(
            path, graph_to_dict(base), events, mode="full",
            watchdog=watchdog_to_dict(case.watchdog))
        report = verify_crash_points(path, snapshots, rng=rng,
                                     torn_per_record=1)
    report.events = len(snapshots) - 1  # type: ignore[attr-defined]
    return report


def run_crash_campaign(start_seed: int, cases: int = 100,
                       policy: Optional[WatchdogPolicy] = None
                       ) -> CrashCampaignStats:
    """Crash-inject seeds ``start_seed .. start_seed + cases - 1``."""
    stats = CrashCampaignStats()
    for seed in range(start_seed, start_seed + min(cases,
                                                   MAX_CAMPAIGN_CASES)):
        report = run_crash_case(seed, policy)
        stats.cases += 1
        if report is None:
            stats.unschedulable += 1
            continue
        stats.events += getattr(report, "events", 0)
        stats.boundary_kills += report.boundary_checks
        stats.torn_kills += report.torn_checks
        for divergence in report.divergences:
            stats.divergences.append(f"seed {seed}: {divergence}")
    return stats


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime.chaos",
        description="differential chaos campaign for the online executor")
    parser.add_argument("--seed", type=int, default=0,
                        help="first case seed (default 0)")
    parser.add_argument("--cases", type=int, default=0,
                        help="minimum number of cases to run")
    parser.add_argument("--events", type=int, default=0,
                        help="minimum completion events to stream")
    parser.add_argument("--policy", choices=[p.value for p in WatchdogPolicy],
                        default=None, help="pin every case's watchdog policy")
    parser.add_argument("--crash", action="store_true",
                        help="crash-injection mode: journal each case's "
                             "stream, kill it at every fsync boundary, "
                             "verify bit-identical recovery")
    args = parser.parse_args(argv)
    if args.cases <= 0 and args.events <= 0:
        args.cases = 100
    policy = WatchdogPolicy(args.policy) if args.policy else None
    if args.crash:
        crash_stats = run_crash_campaign(args.seed, cases=args.cases or 100,
                                         policy=policy)
        print(crash_stats.summary())
        return 1 if crash_stats.divergences else 0
    stats = run_campaign(args.seed, cases=args.cases, events=args.events,
                         policy=policy)
    print(stats.summary())
    return 1 if stats.anomalies else 0


if __name__ == "__main__":
    sys.exit(main())
