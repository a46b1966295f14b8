"""Scheduling-as-a-service: the relative scheduler behind an HTTP API.

The service stack, bottom up:

* :mod:`repro.service.pool` -- the admission gate; connections are
  cheap, and each connection thread runs its own request once one of
  ``workers`` slots is free (a full wait queue -> HTTP 503);
* :mod:`repro.service.app` -- transport-agnostic dispatch: endpoints,
  budgets, the error contract; ``/schedule`` is one per-graph kernel
  call, ``/schedule_many`` one arena sweep behind the result cache;
* :mod:`repro.service.sessions` -- the bounded table of durable
  executor sessions (journaled ``/sessions`` streams with idempotent
  replay and crash recovery);
* :mod:`repro.service.server` -- the stdlib HTTP front
  (``ThreadingHTTPServer``) and :func:`serve`;
* :mod:`repro.service.client` -- the JSON client the tests, smoke
  harness and benchmark share.

Start one from the command line with ``repro serve``.
"""

from repro.service.app import (
    PROTOCOL_VERSION,
    SchedulingService,
    ServiceConfig,
    ServiceError,
)
from repro.service.client import ServiceClient
from repro.service.pool import (
    JobTimeoutError,
    PoolSaturatedError,
    PoolShutdownError,
    WorkerPool,
)
from repro.service.server import ServiceServer, serve
from repro.service.sessions import Session, SessionSealedError, SessionTable

__all__ = [
    "PROTOCOL_VERSION",
    "JobTimeoutError",
    "PoolSaturatedError",
    "PoolShutdownError",
    "SchedulingService",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceServer",
    "Session",
    "SessionSealedError",
    "SessionTable",
    "WorkerPool",
    "serve",
]
