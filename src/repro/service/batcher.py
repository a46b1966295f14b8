"""Request coalescing: concurrent ``/schedule`` calls -> one arena sweep.

Unused by the service since ``/schedule`` went to the per-graph kernel
(DESIGN.md section 12); kept while ``perfbench/traced_serve.py`` wraps it.

The batched kernel (:func:`repro.core.batch.schedule_many`) amortizes
its fixed numpy dispatch cost over a whole corpus, but an HTTP service
receives graphs one request at a time.  The batcher closes that gap
with a leader/follower protocol:

* the first request to arrive becomes the **leader**: it waits up to
  ``window_s`` (or until ``max_batch`` requests are pending) for
  followers, then runs the whole batch through ``schedule_many`` on its
  own thread;
* **followers** just park on their slot's event and wake up with a
  result (or that graph's own taxonomy exception -- per-graph failures
  never poison the batch, exactly as in ``schedule_many``).

Results are FULL-anchor-mode schedules -- bit-identical to
``schedule_graph(graph, anchor_mode=AnchorMode.FULL)`` by the PR-6
batch-consistency oracle invariant -- so coalescing is invisible to
clients beyond latency.  The shared :class:`ScheduleCache` (optional)
turns repeated designs into lookups across requests and processes.

The protocol is synchronous on purpose: no dedicated batcher thread to
supervise, no queue to bound separately (the worker pool already bounds
concurrency), and a batch of one degrades to a plain ``schedule_many``
call of size one.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from repro.sanitize import make_condition
from repro.core.batch import schedule_many
from repro.core.graph import ConstraintGraph
from repro.core.resultcache import ScheduleCache
from repro.core.schedule import RelativeSchedule


class _Slot:
    """One coalesced request: its graph, and later its outcome."""

    __slots__ = ("graph", "done", "schedule", "error", "cached")

    def __init__(self, graph: ConstraintGraph) -> None:
        self.graph = graph
        self.done = threading.Event()
        self.schedule: Optional[RelativeSchedule] = None
        self.error: Optional[BaseException] = None
        self.cached = False


class CoalescingBatcher:
    """Coalesce concurrent schedule requests into ``schedule_many`` runs.

    Args:
        window_s: how long a leader lingers for followers.  Zero is
            legal (coalesces only truly simultaneous arrivals).
        max_batch: flush immediately once this many requests pend.
        cache: optional shared persistent schedule cache.
        auto_well_pose: forwarded to ``schedule_many``.
    """

    def __init__(self, *, window_s: float = 0.002, max_batch: int = 64,
                 cache: Optional[ScheduleCache] = None,
                 auto_well_pose: bool = True) -> None:
        self.window_s = window_s
        self.max_batch = max_batch
        self.cache = cache
        self.auto_well_pose = auto_well_pose
        self._cond = make_condition("batcher.pending")
        self._pending: List[_Slot] = []
        self._leader_active = False
        # Telemetry (read under the condition's lock via stats()).
        self._batches = 0
        self._requests = 0
        self._coalesced = 0  # requests that shared a batch with others
        self._largest = 0

    def schedule(self, graph: ConstraintGraph) -> RelativeSchedule:
        """Schedule *graph*, possibly coalesced with concurrent callers.

        Returns the FULL-anchor-mode minimum relative schedule; raises
        exactly what ``schedule_graph`` would raise for this graph.
        """
        slot = _Slot(graph)
        with self._cond:
            self._requests += 1
            self._pending.append(slot)
            lead = not self._leader_active
            if lead:
                self._leader_active = True
            elif len(self._pending) >= self.max_batch:
                self._cond.notify_all()  # wake the lingering leader
        if lead:
            self._lead()
        slot.done.wait()
        if slot.error is not None:
            raise slot.error
        assert slot.schedule is not None
        return slot.schedule

    def _lead(self) -> None:
        """Linger for followers, then run the batch (leader thread)."""
        deadline = time.monotonic() + self.window_s
        with self._cond:
            while len(self._pending) < self.max_batch:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            batch = self._pending
            self._pending = []
            # Hand leadership to the next arrival before the (possibly
            # long) sweep below, so new requests start a fresh round
            # instead of waiting for this one.
            self._leader_active = False
            self._batches += 1
            self._largest = max(self._largest, len(batch))
            if len(batch) > 1:
                self._coalesced += len(batch)
        try:
            run = schedule_many([slot.graph for slot in batch],
                                cache=self.cache,
                                auto_well_pose=self.auto_well_pose)
            for slot, result in zip(batch, run):
                try:
                    slot.schedule = result.unpack()
                    slot.cached = result.cached
                except BaseException as error:  # noqa: B036 -- re-raised on the slot's own thread
                    slot.error = error
        except BaseException as error:  # noqa: B036 -- fanned out to every waiter, re-raised there
            # A batch-level failure (deadline, internal error) reaches
            # every waiter; nobody is left parked forever.
            for slot in batch:
                if slot.schedule is None and slot.error is None:
                    slot.error = error
        finally:
            for slot in batch:
                slot.done.set()

    def stats(self) -> Dict[str, Any]:
        """Coalescing counters (for ``/stats`` and the benchmarks)."""
        with self._cond:
            return {
                "requests": self._requests,
                "batches": self._batches,
                "coalesced_requests": self._coalesced,
                "largest_batch": self._largest,
            }
