"""Scheduling-as-a-service: the relative scheduler behind an HTTP API.

The service stack, bottom up:

* :mod:`repro.service.pool` -- the admission gate; its ``workers +
  queue_capacity`` bound the requests waiting to run (one more ->
  HTTP 503), and every request runs inside it;
* :mod:`repro.service.app` -- transport-agnostic dispatch: endpoints,
  budgets, the error contract; ``/schedule`` is one per-graph kernel
  call, ``/schedule_many`` one arena sweep behind the result cache;
* :mod:`repro.service.sessions` -- the bounded table of durable
  executor sessions (journaled ``/sessions`` streams with idempotent
  replay and crash recovery);
* :mod:`repro.service.server` -- the stdlib HTTP front (one
  ``selectors`` loop on one thread serves every HTTP/1.1 keep-alive
  connection and runs each request to the end, one send per
  response; a connection costs a socket, not a thread) and
  :func:`serve`;
* :mod:`repro.service.client` -- the JSON client the tests, smoke
  harness and benchmark share.

Start one from the command line with ``repro serve``.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.service.app import (
    PROTOCOL_VERSION,
    SchedulingService,
    ServiceConfig,
    ServiceError,
)
from repro.service.pool import (
    JobTimeoutError,
    PoolSaturatedError,
    PoolShutdownError,
    WorkerPool,
)
from repro.service.server import ServiceServer, serve
from repro.service.sessions import Session, SessionSealedError, SessionTable

if TYPE_CHECKING:
    from repro.service.client import ServiceClient


def __getattr__(name: str) -> Any:
    # The client is imported on first use (PEP 562): it pulls in
    # http.client, which ``repro serve`` never needs.
    if name != "ServiceClient":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module("repro.service.client"), name)
    globals()[name] = value
    return value


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
