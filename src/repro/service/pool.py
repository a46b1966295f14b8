"""The scheduling service's admission gate.

``ThreadingHTTPServer`` spawns one thread per connection, which bounds
nothing: a burst of requests would schedule graphs on hundreds of
threads at once.  The gate decouples *connections* from *work*: each
connection thread runs its own request, but only once one of
``workers`` slots is free, and at most ``queue_capacity`` more requests
may wait for a slot.  A request beyond that is refused
(:class:`PoolSaturatedError` -> HTTP 503) *before* any scheduling work
starts, mirroring the RunBudget philosophy of refusing up front rather
than aborting halfway; one that waits longer than its timeout gives up
(:class:`JobTimeoutError` -> HTTP 504) without having started.

The work runs on the thread that asked for it: no hand-off to a pool
thread and back.  It runs in a **copy of that thread's context**
(:func:`contextvars.copy_context`), so it sees the per-request tracer
the caller installed, while a context variable the job sets ends with
the job instead of leaking into the next request on the same
keep-alive connection.
"""

from __future__ import annotations

import contextvars
import threading
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.sanitize import make_condition

#: How long ``shutdown(wait=True)`` waits for admitted requests.
_DRAIN_TIMEOUT_S = 30.0


class PoolSaturatedError(RuntimeError):
    """Every slot is busy and the wait queue is full (HTTP 503)."""


class PoolShutdownError(RuntimeError):
    """The pool is draining; no new jobs are accepted."""


class JobTimeoutError(RuntimeError):
    """No slot freed within the caller's wait timeout (HTTP 504)."""


class WorkerPool:
    """At most ``workers`` jobs at once, each on its caller's thread.

    Callers that find every slot taken wait in arrival order: a
    finishing job hands its slot straight to the longest waiter.

    Args:
        workers: number of slots (the *whole* service's scheduling
            concurrency; never silently capped -- see the startup log
            in :mod:`repro.service.server`).
        queue_capacity: how many callers may wait for a slot; defaults
            to ``8 * workers``.  A caller beyond ``workers +
            queue_capacity`` admitted ones raises
            :class:`PoolSaturatedError` immediately.
    """

    def __init__(self, workers: int = 4,
                 queue_capacity: Optional[int] = None) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.queue_capacity = (queue_capacity if queue_capacity is not None
                               else 8 * workers)
        self._cond = make_condition("pool.slots")
        # Slots taken; below ``workers`` only while nobody waits.
        self._running = 0
        self._waiters: Deque[threading.Event] = deque()
        self._shutdown = False

    @property
    def running(self) -> int:
        """Jobs holding a slot now."""
        with self._cond:
            return self._running

    @property
    def waiting(self) -> int:
        """Admitted jobs still waiting for a slot."""
        with self._cond:
            return len(self._waiters)

    def run(self, fn: Callable[[], Any],
            timeout: Optional[float] = None) -> Any:
        """Run *fn* on this thread once a slot is free; its result.

        Raises:
            PoolShutdownError: the pool is shut down.
            PoolSaturatedError: ``workers + queue_capacity`` jobs are
                already admitted.
            JobTimeoutError: no slot freed within *timeout* seconds
                (*fn* never started).
        """
        turn = None
        with self._cond:
            if self._shutdown:
                raise PoolShutdownError("pool is shut down")
            if self._running < self.workers:
                self._running += 1
            elif len(self._waiters) >= self.queue_capacity:
                raise PoolSaturatedError(
                    f"all {self.workers} workers busy and "
                    f"{self.queue_capacity} requests waiting; "
                    f"try again later")
            else:
                turn = threading.Event()
                self._waiters.append(turn)
        if turn is not None and not turn.wait(timeout):
            with self._cond:
                if not turn.is_set():  # else the slot came just now
                    self._waiters.remove(turn)
                    self._cond.notify_all()
                    raise JobTimeoutError(
                        f"no worker slot freed within {timeout} s")
        try:
            return contextvars.copy_context().run(fn)
        finally:
            with self._cond:
                if self._waiters:
                    self._waiters.popleft().set()  # hand the slot over
                else:
                    self._running -= 1
                    self._cond.notify_all()

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new jobs; with *wait*, let the admitted ones finish."""
        with self._cond:
            self._shutdown = True
            if wait:
                self._cond.wait_for(
                    lambda: self._running == 0 and not self._waiters,
                    timeout=_DRAIN_TIMEOUT_S)
