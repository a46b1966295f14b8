"""Bounded-delay profile families for the runtime and crash campaigns.

The ``faults`` chaos campaign samples anchor delays uniformly; the
online executor's interesting failure modes cluster elsewhere -- at the
watchdog boundary, in bursts that pile many completions onto one cycle,
and in long quiet runs where per-event cost must stay flat.  Each
*family* here is a deterministic per-anchor delay sampler parameterized
by the watchdog bound ``W``, so every sampled profile is meaningfully
positioned relative to the detection boundary:

* ``uniform`` -- delays in ``[0, W]``: always in time, the masked path;
* ``boundary`` -- delays pinned to ``{0, 1, W-1, W, W+1}``: every run
  straddles the fire/no-fire edge by at most one cycle;
* ``bursty`` -- mostly zero with occasional spikes up to ``2W``: many
  same-cycle completions plus sporadic late stragglers;
* ``quiet`` -- delays in ``[0, max(1, W//4)]``: fast completions that
  stress sustained event throughput rather than the watchdogs.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, Iterable, Mapping

#: One family: ``(rng, bound) -> delay`` for a single anchor.
FamilyFn = Callable[[random.Random, int], int]

PROFILE_FAMILIES: Mapping[str, FamilyFn] = {
    "uniform": lambda rng, bound: rng.randint(0, max(0, bound)),
    "boundary": lambda rng, bound: max(
        0, rng.choice([0, 1, bound - 1, bound, bound + 1])),
    "bursty": lambda rng, bound: (
        rng.randint(bound, 2 * bound) if rng.random() < 0.15 else 0),
    "quiet": lambda rng, bound: rng.randint(0, max(1, bound // 4)),
}


def sample_profile(family: str, rng: random.Random,
                   anchors: Iterable[str], bound: int) -> Dict[str, int]:
    """A delay profile for *anchors* drawn from the named family.

    Raises:
        KeyError: unknown family name (the valid names are the keys of
            :data:`PROFILE_FAMILIES`).
    """
    sampler = PROFILE_FAMILIES[family]
    return {anchor: sampler(rng, bound) for anchor in anchors}


def choose_family(rng: random.Random) -> str:
    """A deterministic family pick (sorted names, so insertion order of
    the registry cannot reshuffle seeded campaigns)."""
    return rng.choice(sorted(PROFILE_FAMILIES))
