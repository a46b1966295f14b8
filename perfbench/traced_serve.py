"""``repro serve`` with per-layer timers around the service's entry points.

Usage (run from the repository root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/traced_serve.py LAYERS_JSON serve --port 0 ...

Everything after LAYERS_JSON goes to ``repro.cli.main`` unchanged.  The
launcher wraps public functions and methods of the service, batcher,
guard, io, journal and scheduler layers (see :func:`install`) and counts
``os.fsync`` calls.  Signals drive the measurement window:

* ``SIGUSR1`` resets every total (the start of the timed phase);
* ``SIGUSR2`` writes the totals to LAYERS_JSON (its end);
* shutdown (``SIGTERM``) writes them again if no ``SIGUSR2`` came.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from pathlib import Path
from typing import List

from layers import LayerClock, batch_stats_recorder


def install(clock: LayerClock) -> None:
    """Wrap the layers' public entry points (module attributes the
    service looks up at call time)."""
    from repro.core.scheduler import IterativeIncrementalScheduler
    from repro.runtime import journal
    from repro.service import app, batcher
    from repro.service.batcher import CoalescingBatcher
    from repro.service.pool import WorkerPool

    service = app.SchedulingService
    WorkerPool.run = clock.wrap("service.pool.run", WorkerPool.run)
    # GETs (/healthz, /stats) skip the pool; only pooled verbs count.
    service.dispatch = clock.wrap(
        "service.app.dispatch", service.dispatch,
        when=lambda self, method, *rest, **kw: method != "GET")
    service.handle_session_create = clock.wrap(
        "service.app.session_create", service.handle_session_create)
    app.untrusted_graph_from_dict = clock.wrap(
        "resilience.guard.untrusted_graph_from_dict",
        app.untrusted_graph_from_dict)
    app.guarded_schedule = clock.wrap(
        "resilience.guard.guarded_schedule", app.guarded_schedule)
    app.schedule_to_dict = clock.wrap(
        "io.schedule_to_dict", app.schedule_to_dict)
    CoalescingBatcher.schedule = clock.wrap(
        "service.batcher.schedule", CoalescingBatcher.schedule)
    record = batch_stats_recorder(clock)
    batcher.schedule_many = clock.wrap(
        "core.batch.schedule_many", batcher.schedule_many, on_result=record)
    app.schedule_many = clock.wrap(
        "core.batch.schedule_many", app.schedule_many, on_result=record)
    # The session handler imports these from the module at call time.
    journal.validate_batch = clock.wrap(
        "runtime.journal.validate_batch", journal.validate_batch)
    journal.apply_batch = clock.wrap(
        "runtime.journal.apply_batch", journal.apply_batch)
    journal.SessionJournal.append_events = clock.wrap(
        "runtime.journal.append_events", journal.SessionJournal.append_events)
    IterativeIncrementalScheduler.run_from = clock.wrap(
        "core.scheduler.run_from", IterativeIncrementalScheduler.run_from)
    os.fsync = clock.counted("os.fsync", os.fsync)


def main(argv: List[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0])
    clock = LayerClock()
    install(clock)
    dumped = []

    def dump() -> None:
        partial = out.with_suffix(".partial")
        partial.write_text(json.dumps(clock.snapshot()))
        os.replace(partial, out)
        dumped.append(True)

    # Handlers run on the main thread, which only runs serve_forever and
    # never holds the clock's lock, so they may take it directly.
    signal.signal(signal.SIGUSR1, lambda signum, frame: clock.reset())
    signal.signal(signal.SIGUSR2, lambda signum, frame: dump())
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        if not dumped:
            dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
