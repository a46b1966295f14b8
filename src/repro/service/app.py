"""The scheduling service's request core (transport-agnostic).

:class:`SchedulingService` maps JSON request payloads to JSON response
payloads plus an HTTP status, with no socket code -- the HTTP layer
(:mod:`repro.service.server`) and the tests drive the same dispatch.

Wire format: graphs travel as :func:`repro.io.graph_to_dict` dicts (the
one constraint-graph codec the CLI, journals and regression corpus
share); schedules come back as :func:`repro.io.schedule_to_dict`
documents, whose ``graph`` is again such a dict and can be posted back
as is; lint responses are SARIF 2.1 logs; observe responses are
observability run reports.

Error contract (the CLI's ``error:`` contract, mapped onto HTTP):
every failure body is ``{"error": <message>, "error_type": <class>}``
where ``<message>`` is character-identical to what ``repro <cmd>``
would print after ``error:``.

========================  ======  =========================================
condition                 status  source
========================  ======  =========================================
malformed body / graph    400     ``MalformedInputError`` and JSON errors
over budget               429     ``BudgetExceededError`` (admission)
unschedulable graph       422     other ``ConstraintGraphError`` taxonomy
unknown endpoint          404     routing
wrong method              405     routing
body too large            413     ``max_body_bytes``
pool saturated            503     :class:`~repro.service.pool.PoolSaturatedError`
draining                  503     pool shut down, session admission closed
no slot in time           504     :class:`~repro.service.pool.JobTimeoutError`
========================  ======  =========================================

Admission control happens *before* scheduling work: the per-tenant
:class:`~repro.resilience.guard.RunBudget` (``X-Tenant`` header selects
it; ``default_budget`` otherwise) rejects oversized graphs and
over-bound iteration counts up front, exactly like ``guarded_schedule``.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.sanitize import make_lock
from repro.core.anchors import AnchorMode
from repro.core.batch import schedule_many
from repro.core.exceptions import (
    BudgetExceededError,
    ConstraintGraphError,
    MalformedInputError,
)
from repro.core.graph import ConstraintGraph
from repro.core.resultcache import ScheduleCache
from repro.io import graph_to_dict, schedule_to_dict
from repro.observability import Tracer, build_report, use_tracer
from repro.resilience.guard import (
    RunBudget,
    guarded_schedule,
    untrusted_graph_from_dict,
)
from repro.service.sessions import (
    Session,
    SessionSealedError,
    SessionTable,
)

#: Service protocol version, stamped into /healthz and /stats.
PROTOCOL_VERSION = 1

#: Endpoint ceilings that are service policy, not tenant budget: they
#: bound the *work multiplier* a single request may ask for.
MAX_OBSERVE_RUNS = 100
MAX_CHAOS_CASES = 500
MAX_BATCH_GRAPHS = 10_000
MAX_EXECUTE_EVENTS = 10_000

#: Cumulative per-session event cap: a single live stream may feed at
#: most this many completion events over its whole lifetime (each batch
#: is additionally capped at :data:`MAX_EXECUTE_EVENTS`).
MAX_SESSION_EVENTS = 100_000


class ServiceError(Exception):
    """A request-level failure with an HTTP status and a clean message.

    *body* overrides the default ``{"error", "error_type"}`` response
    body -- the session apply path uses it so a watchdog abort can
    carry the batch's partial delta (and so an idempotent replay of a
    non-200 acknowledgement reproduces the original body exactly).
    """

    def __init__(self, status: int, message: str,
                 error_type: str = "ServiceError",
                 body: Optional[Dict[str, Any]] = None) -> None:
        super().__init__(message)
        self.status = status
        self.error_type = error_type
        self.body = body


class ServiceConfig:
    """Everything a service process needs to know, in one place.

    Args:
        host/port: bind address (port 0 -> ephemeral, see server).
        workers: scheduling slots: at most this many requests run at
            once (on their own connection threads); logged at startup,
            never silently capped.
        queue_capacity: requests that may wait for a slot (None ->
            ``8 * workers``); one more answers 503.
        batching: only ``False`` is accepted.  The request-coalescing
            batcher is gone: ``/schedule`` always runs the per-graph
            kernel.
        cache_path: optional persistent schedule-cache JSONL used by
            ``/schedule_many``.
        default_budget: per-request admission budget when the tenant
            has no specific one.
        tenant_budgets: per-tenant overrides keyed by ``X-Tenant``.
        max_body_bytes: request-body cap (HTTP 413 above it).
        request_timeout_s: how long a request waits for a slot (HTTP
            504 beyond it; a running request is bounded by its budget's
            ``deadline_s`` instead).
        journal_dir: directory for per-session write-ahead journals;
            None -> sessions are in-memory only (not crash-recoverable).
        session_cap: most sessions resident at once (LRU beyond it are
            evicted; journaled ones stay lazily recoverable).
        session_ttl_s: idle seconds before a session is evicted.
        journal_fsync: ``"always"`` (durable per batch) or ``"never"``
            (OS page cache; drain still fsyncs).
        max_session_events: cumulative per-session event budget (429
            beyond it).
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 8080,
                 workers: int = 4,
                 queue_capacity: Optional[int] = None,
                 batching: bool = False,
                 cache_path: Optional[str] = None,
                 default_budget: Optional[RunBudget] = None,
                 tenant_budgets: Optional[Mapping[str, RunBudget]] = None,
                 max_body_bytes: int = 8 << 20,
                 request_timeout_s: float = 60.0,
                 journal_dir: Optional[str] = None,
                 session_cap: int = 256,
                 session_ttl_s: float = 3600.0,
                 journal_fsync: str = "always",
                 max_session_events: int = MAX_SESSION_EVENTS) -> None:
        if batching:
            raise ValueError("batching was removed: /schedule always runs "
                             "the per-graph kernel")
        self.host = host
        self.port = port
        self.workers = workers
        self.queue_capacity = queue_capacity
        self.cache_path = cache_path
        self.default_budget = default_budget
        self.tenant_budgets = dict(tenant_budgets or {})
        self.max_body_bytes = max_body_bytes
        self.request_timeout_s = request_timeout_s
        self.journal_dir = journal_dir
        self.session_cap = session_cap
        self.session_ttl_s = session_ttl_s
        self.journal_fsync = journal_fsync
        self.max_session_events = max_session_events

    def budget_for(self, tenant: Optional[str]) -> Optional[RunBudget]:
        if tenant is not None and tenant in self.tenant_budgets:
            return self.tenant_budgets[tenant]
        return self.default_budget


class ServiceStats:
    """Thread-safe request counters and a latency reservoir."""

    _RESERVOIR = 2048

    def __init__(self) -> None:
        self._lock = make_lock("service.stats")
        # Monotonic, not wall-clock: an NTP step or DST jump must never
        # make the reported uptime leap or go negative.
        self._started = time.monotonic()
        self._by_endpoint: Dict[str, Dict[str, int]] = {}
        self._latencies: List[float] = []
        self._samples = 0

    def record(self, endpoint: str, status: int, seconds: float) -> None:
        with self._lock:
            entry = self._by_endpoint.setdefault(
                endpoint, {"requests": 0, "errors": 0})
            entry["requests"] += 1
            if status >= 400:
                entry["errors"] += 1
            if len(self._latencies) < self._RESERVOIR:
                self._latencies.append(seconds)
            else:  # overwrite the oldest sample, whatever its endpoint
                self._latencies[self._samples % self._RESERVOIR] = seconds
            self._samples += 1

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            latencies = sorted(self._latencies)
            percentile = (lambda q: round(
                latencies[min(len(latencies) - 1,
                              int(q * len(latencies)))] * 1e3, 3)
                if latencies else None)
            return {
                "uptime_s": round(time.monotonic() - self._started, 3),
                "endpoints": {name: dict(entry) for name, entry
                              in self._by_endpoint.items()},
                "latency_ms": {"p50": percentile(0.50),
                               "p99": percentile(0.99)},
            }


class SchedulingService:
    """Dispatches decoded requests; owns the cache, sessions and stats."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.cache: Optional[ScheduleCache] = (
            ScheduleCache(self.config.cache_path)
            if self.config.cache_path else None)
        self.stats = ServiceStats()
        self.sessions = SessionTable(
            journal_dir=self.config.journal_dir,
            cap=self.config.session_cap,
            ttl_s=self.config.session_ttl_s,
            fsync=self.config.journal_fsync,
            budget=self.config.default_budget)
        #: Set by the SIGTERM drain path: session admission and event
        #: appends answer 503 + Retry-After while the server winds down.
        self.draining = threading.Event()
        #: Sessions resumed from journals at startup (crash recovery).
        self.recovered_sessions = (self.sessions.recover_all()
                                   if self.config.journal_dir else 0)
        self._routes: Dict[Tuple[str, str], Callable[..., Dict[str, Any]]] = {
            ("POST", "/schedule"): self.handle_schedule,
            ("POST", "/schedule_many"): self.handle_schedule_many,
            ("POST", "/lint"): self.handle_lint,
            ("POST", "/observe"): self.handle_observe,
            ("POST", "/chaos"): self.handle_chaos,
            ("POST", "/execute"): self.handle_execute,
            ("POST", "/sessions"): self.handle_session_create,
            ("GET", "/healthz"): self.handle_healthz,
            ("GET", "/stats"): self.handle_stats,
        }
        # Parameterized session routes: (method, label) -> handler
        # taking (payload, tenant, session_id).  Labels double as the
        # stats key so per-id paths cannot grow the stats table.
        self._session_routes: Dict[Tuple[str, str],
                                   Callable[..., Dict[str, Any]]] = {
            ("POST", "/sessions/{id}/events"): self.handle_session_events,
            ("GET", "/sessions/{id}"): self.handle_session_get,
            ("DELETE", "/sessions/{id}"): self.handle_session_delete,
        }

    # -- dispatch ------------------------------------------------------

    def _resolve(self, method: str, path: str) -> Tuple[
            Callable[..., Dict[str, Any]], str, Tuple[str, ...]]:
        """Route lookup -> ``(handler, stats label, extra args)``.

        Raises the 404/405 ServiceErrors of the routing contract; the
        label is still returned inside the error via attribute so the
        stats table stays bounded.
        """
        handler = self._routes.get((method, path))
        if handler is not None:
            return handler, path, ()
        label, session_id = _session_label(path)
        if label is not None:
            handler = self._session_routes.get((method, label))
            if handler is not None:
                return handler, label, (session_id,)
            methods = {m for m, lbl in self._session_routes if lbl == label}
            if methods or any(p == label for _, p in self._routes):
                raise ServiceError(405, f"{method} not allowed on {path}")
        if any(route_path == path for _, route_path in self._routes):
            raise ServiceError(405, f"{method} not allowed on {path}")
        raise ServiceError(404, f"no such endpoint {path!r}")

    def dispatch(self, method: str, path: str, payload: Any,
                 tenant: Optional[str] = None) -> Tuple[int, Dict[str, Any]]:
        """Route one decoded request; returns ``(status, body)``.

        Never raises: every failure mode maps to the error contract.
        """
        t0 = time.perf_counter()
        label = None
        try:
            handler, label, extra = self._resolve(method, path)
            status, body = 200, handler(payload, tenant, *extra)
        except ServiceError as error:
            status = error.status
            body = error.body if error.body is not None else {
                "error": str(error), "error_type": error.error_type}
        except MalformedInputError as error:
            status, body = 400, _error_body(error)
        except BudgetExceededError as error:
            status, body = 429, _error_body(error)
        except ConstraintGraphError as error:
            status, body = 422, _error_body(error)
        except Exception as error:  # internal: never leak a traceback
            status, body = 500, {"error": f"internal error: "
                                          f"{type(error).__name__}",
                                 "error_type": "InternalError"}
        # Unknown paths share one counter so path-scanning clients
        # cannot grow the stats table without bound.
        self.stats.record(label if label is not None else "(unknown)",
                          status, time.perf_counter() - t0)
        return status, body

    # -- endpoint handlers --------------------------------------------

    def handle_schedule(self, payload: Any,
                        tenant: Optional[str]) -> Dict[str, Any]:
        """One graph in, one schedule out, on the request's own thread.

        ``guarded_schedule`` admits the graph (size, iteration bound)
        before any analysis and runs it under the tenant's deadline.
        There is no result cache here: on request-sized graphs the
        canonical key costs more than the solve it would save.
        """
        payload = _object(payload)
        budget = self.config.budget_for(tenant)
        graph = untrusted_graph_from_dict(payload.get("graph"), budget)
        mode = _anchor_mode(payload.get("mode", "full"))
        auto_well_pose = _flag(payload, "auto_well_pose", True)

        tracer = Tracer() if _flag(payload, "trace", False) else None
        t0 = time.perf_counter()
        with use_tracer(tracer) if tracer is not None else nullcontext():
            schedule = guarded_schedule(graph, budget, anchor_mode=mode,
                                        auto_well_pose=auto_well_pose)
        body: Dict[str, Any] = {"schedule": schedule_to_dict(schedule)}
        if tracer is not None:
            body["telemetry"] = {
                "duration_ms": round((time.perf_counter() - t0) * 1e3, 3),
                "counters": dict(tracer.counters),
                "spans": len(tracer.spans),
            }
        return body

    def handle_schedule_many(self, payload: Any,
                             tenant: Optional[str]) -> Dict[str, Any]:
        """A whole corpus through the arena kernel; per-graph verdicts."""
        payload = _object(payload)
        raw = payload.get("graphs")
        if not isinstance(raw, list) or not raw:
            raise ServiceError(400, "\"graphs\" must be a non-empty list",
                               "MalformedInputError")
        if len(raw) > MAX_BATCH_GRAPHS:
            raise ServiceError(
                429, f"{len(raw)} graphs exceed the per-request cap "
                     f"{MAX_BATCH_GRAPHS}", "BudgetExceededError")
        budget = self.config.budget_for(tenant)
        graphs: List[ConstraintGraph] = []
        for index, data in enumerate(raw):
            try:
                graphs.append(untrusted_graph_from_dict(data, budget))
            except ConstraintGraphError as error:
                raise MalformedInputError(
                    f"graph #{index}: {error}") from error
        run = schedule_many(graphs, cache=self.cache, budget=budget,
                            auto_well_pose=_flag(payload, "auto_well_pose",
                                                 True))
        results = []
        for result in run:
            if result.ok:
                schedule = result.unpack()
                results.append({
                    "index": result.index,
                    "status": ("cached" if result.cached else
                               "fallback" if result.fallback else
                               "scheduled"),
                    "schedule": schedule_to_dict(schedule),
                })
            else:
                results.append({
                    "index": result.index, "status": "error",
                    "error_type": result.error_type,
                    "error": str(result.error),
                })
        return {"results": results, "stats": dict(run.stats)}

    def handle_lint(self, payload: Any,
                    tenant: Optional[str]) -> Dict[str, Any]:
        """Static diagnostics; the response body is a SARIF 2.1 log."""
        from repro.lint import LintConfig, LintEngine, to_sarif

        payload = _object(payload)
        budget = self.config.budget_for(tenant)
        graph = untrusted_graph_from_dict(payload.get("graph"), budget)
        select = _string_list(payload, "select")
        ignore = _string_list(payload, "ignore")
        engine = LintEngine(LintConfig(
            select=frozenset(select) if select else None,
            ignore=frozenset(ignore) if ignore else frozenset()))
        report = engine.lint_graph(graph, file="request")
        return {
            "sarif": to_sarif(report, artifact_uri="request"),
            "diagnostics": len(report.diagnostics),
            "errors": len(report.errors()),
        }

    def handle_observe(self, payload: Any,
                       tenant: Optional[str]) -> Dict[str, Any]:
        """Traced scheduling run(s) -> observability run report."""
        payload = _object(payload)
        budget = self.config.budget_for(tenant)
        graph = untrusted_graph_from_dict(payload.get("graph"), budget)
        runs = payload.get("runs", 1)
        if not isinstance(runs, int) or isinstance(runs, bool) \
                or not 1 <= runs <= MAX_OBSERVE_RUNS:
            raise ServiceError(
                400, f"\"runs\" must be an integer in "
                     f"[1, {MAX_OBSERVE_RUNS}], got {runs!r}",
                "MalformedInputError")
        mode = _anchor_mode(payload.get("mode", "irredundant"))
        tracer = Tracer()
        with use_tracer(tracer):
            for _ in range(runs):
                guarded_schedule(graph, budget, anchor_mode=mode)
        from repro.observability import iteration_bound_violations

        report = build_report(tracer)
        return {"report": report,
                "bound_violations": iteration_bound_violations(report)}

    def handle_chaos(self, payload: Any,
                     tenant: Optional[str]) -> Dict[str, Any]:
        """A seeded fault-injection campaign, sized for a request."""
        from repro.core.watchdog import WatchdogPolicy
        from repro.resilience.chaos import run_campaign

        payload = _object(payload)
        seed = payload.get("seed", 0)
        cases = payload.get("cases", 50)
        for name, value in (("seed", seed), ("cases", cases)):
            if not isinstance(value, int) or isinstance(value, bool):
                raise ServiceError(400, f"\"{name}\" must be an integer, "
                                        f"got {value!r}",
                                   "MalformedInputError")
        if not 1 <= cases <= MAX_CHAOS_CASES:
            raise ServiceError(
                429, f"chaos cases {cases} outside [1, {MAX_CHAOS_CASES}]",
                "BudgetExceededError")
        policy = payload.get("policy")
        if policy is not None:
            try:
                policy = WatchdogPolicy(policy)
            except ValueError:
                raise ServiceError(
                    400, f"unknown watchdog policy {policy!r}",
                    "MalformedInputError") from None
        stats = run_campaign("faults", seed, cases, policy=policy)
        return {
            "cases": stats.cases,
            "unschedulable": stats.unschedulable,
            "faultless": stats.counters["fault-free"],
            "detected": stats.counters["detected"],
            "masked": stats.counters["masked"],
            "silent": stats.silent,
            "divergences": list(stats.divergences),
            "summary": stats.summary(),
        }

    def handle_execute(self, payload: Any,
                       tenant: Optional[str]) -> Dict[str, Any]:
        """Online execution: graph + completion-event stream -> issue log.

        The graph is scheduled (through the guarded pipeline, honoring
        the tenant budget), then the event list is
        streamed through an :class:`~repro.runtime.OnlineExecutor`.
        Watchdog timeouts follow the error contract: an ABORT surfaces
        as 422 with ``WatchdogTimeoutError``, FALLBACK degradation comes
        back 200 with ``"degraded": true`` in the log.
        """
        from repro.core.watchdog import (
            WatchdogConfig,
            WatchdogPolicy,
            validate_watchdog_bounds,
        )
        from repro.runtime.events import CompletionEvent
        from repro.runtime.executor import OnlineExecutor

        payload = _object(payload)
        budget = self.config.budget_for(tenant)
        graph = untrusted_graph_from_dict(payload.get("graph"), budget)
        mode = _anchor_mode(payload.get("mode", "full"))
        events = _event_list(payload)
        watchdog = _watchdog_config(payload, WatchdogConfig, WatchdogPolicy)
        source_done = payload.get("source_done", 0)
        if not isinstance(source_done, int) or isinstance(source_done, bool) \
                or source_done < 0:
            raise ServiceError(
                400, f"\"source_done\" must be a non-negative integer, "
                     f"got {source_done!r}", "MalformedInputError")

        if watchdog is not None and watchdog.bounds:
            # Bounds naming a non-anchor are a graph-semantics error
            # (422), same as the schedule endpoint's watchdog knob.
            validate_watchdog_bounds(watchdog.bounds, graph.anchors,
                                     graph.source)
        schedule = guarded_schedule(graph, budget, anchor_mode=mode,
                                    auto_well_pose=_flag(payload,
                                                         "auto_well_pose",
                                                         True))
        executor = OnlineExecutor(schedule, watchdog=watchdog,
                                  source_done=source_done)
        log = executor.run(CompletionEvent(anchor, cycle)
                           for anchor, cycle in events)
        return {"log": log.to_dict()}

    # -- durable sessions ---------------------------------------------

    def _check_admission(self) -> None:
        if self.draining.is_set():
            raise ServiceError(
                503, "service is draining: session admission suspended",
                "ServiceDrainingError")

    def _session(self, session_id: str) -> Session:
        """The live session, lazily recovered; 404/410 per contract."""
        try:
            return self.sessions.get(session_id)
        except SessionSealedError:
            raise ServiceError(
                410, f"session {session_id!r} was deleted and its "
                     f"journal sealed", "SessionSealedError") from None
        except KeyError:
            raise ServiceError(
                404, f"no such session {session_id!r}",
                "SessionNotFoundError") from None

    def handle_session_create(self, payload: Any,
                              tenant: Optional[str]) -> Dict[str, Any]:
        """Open a journaled executor stream: graph + watchdog + profile
        go into the journal's genesis record, so the whole session is
        recoverable from the journal alone."""
        from repro.core.watchdog import (
            WatchdogConfig,
            WatchdogPolicy,
            validate_watchdog_bounds,
        )
        from repro.runtime.executor import OnlineExecutor
        from repro.runtime.journal import JournalWriteError, watchdog_to_dict

        self._check_admission()
        payload = _object(payload)
        budget = self.config.budget_for(tenant)
        graph = untrusted_graph_from_dict(payload.get("graph"), budget)
        mode = _anchor_mode(payload.get("mode", "full"))
        watchdog = _watchdog_config(payload, WatchdogConfig, WatchdogPolicy)
        auto_well_pose = _flag(payload, "auto_well_pose", True)
        source_done = payload.get("source_done", 0)
        if not isinstance(source_done, int) or isinstance(source_done, bool) \
                or source_done < 0:
            raise ServiceError(
                400, f"\"source_done\" must be a non-negative integer, "
                     f"got {source_done!r}", "MalformedInputError")
        if watchdog is not None and watchdog.bounds:
            validate_watchdog_bounds(watchdog.bounds, graph.anchors,
                                     graph.source)
        schedule = guarded_schedule(graph, budget, anchor_mode=mode,
                                    auto_well_pose=auto_well_pose)
        executor = OnlineExecutor(schedule, watchdog=watchdog,
                                  source_done=source_done)
        try:
            session = self.sessions.create(
                executor,
                # The canonical serialization, not the raw payload: the
                # recovery path replays exactly what the live path
                # scheduled, whatever aliases the client's dict used.
                graph_dict=graph_to_dict(graph),
                mode=mode.value,
                watchdog=watchdog_to_dict(watchdog),
                source_done=source_done,
                auto_well_pose=auto_well_pose)
        except JournalWriteError as error:
            raise ServiceError(503, f"session journal unavailable: {error}",
                               "JournalWriteError") from None
        return {
            "session": session.id,
            "state": session.state,
            "journaled": session.journal is not None,
            "issues": dict(executor.log.issues),
            "done": dict(executor.log.done),
            "complete": session.complete,
        }

    def handle_session_events(self, payload: Any, tenant: Optional[str],
                              session_id: str) -> Dict[str, Any]:
        """Append one event batch; journal first, then apply, then ack.

        The write-ahead ordering is the durability contract: by the
        time the response leaves, the batch is on disk (per the fsync
        policy), so a crash after the acknowledgement loses nothing.
        Idempotent by sequence number: a re-POSTed ``seq`` with the same
        batch returns the original acknowledgement with ``"replayed":
        true`` -- which is what makes the client's at-least-once
        503/timeout retry safe.  The same ``seq`` with a different batch
        is a client bug, answered 409 ``SequenceConflictError``.
        """
        from repro.runtime.journal import (
            JournalWriteError,
            apply_batch,
            validate_batch,
        )

        self._check_admission()
        payload = _object(payload)
        seq = payload.get("seq")
        if isinstance(seq, bool) or not isinstance(seq, int) or seq < 1:
            raise ServiceError(
                400, f"\"seq\" must be a positive integer, got {seq!r}",
                "MalformedInputError")
        events = _event_list(payload)
        if not events:
            raise ServiceError(
                400, "\"events\" must be a non-empty list (an empty "
                     "batch has no acknowledgement to replay)",
                "MalformedInputError")
        session = self._session(session_id)
        with session.lock:
            if seq <= session.last_seq:
                # Idempotent replay: the original acknowledgement, as
                # recorded (or deterministically recomputed by journal
                # replay after a crash).
                stored = session.responses.get(seq)
                if stored is None:  # pragma: no cover - defensive
                    raise ServiceError(
                        409, f"seq {seq} predates this session's "
                             f"recovered prefix", "SequenceGapError")
                batch, (status, body) = stored
                if events != batch:
                    raise ServiceError(
                        409, f"seq {seq} was acknowledged for a different "
                             f"batch; a retry must resend the same events",
                        "SequenceConflictError")
                body = dict(body)
                body["replayed"] = True
                if status == 200:
                    return body
                raise ServiceError(status, body.get("error", ""),
                                   body.get("error_type", "ServiceError"),
                                   body=body)
            if seq != session.last_seq + 1:
                raise ServiceError(
                    409, f"sequence gap: expected seq "
                         f"{session.last_seq + 1}, got {seq}",
                    "SequenceGapError")
            if session.aborted:
                raise ServiceError(
                    409, f"session {session_id!r} aborted by watchdog "
                         f"timeout; no further events accepted",
                    "SessionAbortedError")
            budget = self.config.max_session_events
            if session.events_total + len(events) > budget:
                raise ServiceError(
                    429, f"batch of {len(events)} events would exceed "
                         f"the per-session budget of {budget} "
                         f"(already acknowledged: {session.events_total})",
                    "BudgetExceededError")
            # Semantic pre-validation BEFORE journaling: a batch feed()
            # would reject must leave both the journal and the executor
            # untouched (no partially applied batches on disk).
            validate_batch(session.executor, events)
            if session.journal is not None:
                try:
                    session.journal.append_events(seq, events)
                except JournalWriteError as error:
                    # The append may have left a torn fragment; drop the
                    # session so the next request recovers (and
                    # truncates) from the trusted prefix on disk.
                    self.sessions.drop(session_id)
                    raise ServiceError(
                        503, f"session journal unavailable: {error}",
                        "JournalWriteError") from None
            outcome = apply_batch(session.executor, seq, events)
            status, body = session.record(seq, events, outcome)
            if status == 200:
                return body
            raise ServiceError(status, outcome.error_message,
                               outcome.error or "ServiceError", body=body)

    def handle_session_get(self, payload: Any, tenant: Optional[str],
                           session_id: str) -> Dict[str, Any]:
        """Executor state: the full execution log plus stream position."""
        session = self._session(session_id)
        with session.lock:
            return {
                "session": session.id,
                "state": session.state,
                "last_seq": session.last_seq,
                "events_total": session.events_total,
                "complete": session.complete,
                "journaled": session.journal is not None,
                "log": session.executor.log.to_dict(),
            }

    def handle_session_delete(self, payload: Any, tenant: Optional[str],
                              session_id: str) -> Dict[str, Any]:
        """Close the stream and seal the journal (tombstone: the id
        answers 410 afterwards, which makes DELETE retry-safe)."""
        from repro.core.exceptions import WatchdogTimeoutError
        from repro.runtime.journal import JournalWriteError

        session = self._session(session_id)
        with session.lock:
            abort_error: Optional[WatchdogTimeoutError] = None
            try:
                log = session.executor.close()
            except WatchdogTimeoutError as error:
                # End-of-stream watchdog escalation: the close still
                # succeeds; the final state reports the abort.
                abort_error = error
                session.aborted = True
                log = session.executor.log
            if session.journal is not None:
                try:
                    session.journal.append_seal(session.last_seq)
                except JournalWriteError as error:
                    # Unsealed journals stay recoverable; the client
                    # can retry the DELETE.
                    raise ServiceError(
                        503, f"session journal unavailable: {error}",
                        "JournalWriteError") from None
            self.sessions.drop(session_id)
            body: Dict[str, Any] = {
                "session": session.id,
                "sealed": session.journal is not None,
                "state": session.state,
                "last_seq": session.last_seq,
                "log": log.to_dict(),
            }
            if abort_error is not None:
                body["error"] = str(abort_error)
                body["error_type"] = type(abort_error).__name__
            return body

    def handle_healthz(self, payload: Any,
                       tenant: Optional[str]) -> Dict[str, Any]:
        return {"ok": True, "protocol": PROTOCOL_VERSION,
                "draining": self.draining.is_set()}

    def handle_stats(self, payload: Any,
                     tenant: Optional[str]) -> Dict[str, Any]:
        body = self.stats.snapshot()
        body["protocol"] = PROTOCOL_VERSION
        body["workers"] = self.config.workers
        if self.cache is not None:
            body["cache"] = {"entries": len(self.cache),
                             "hits": self.cache.hits,
                             "misses": self.cache.misses}
        body["sessions"] = {
            "resident": len(self.sessions),
            "recovered": self.recovered_sessions,
            "evictions": self.sessions.evictions,
            "journaled": self.config.journal_dir is not None,
        }
        return body

    def close(self) -> None:
        """Flush shared state at shutdown (cache staging -> disk,
        session journals fsynced -- the drain ordering's last step)."""
        if self.cache is not None:
            self.cache.flush()
        self.sessions.sync_all()


# -- payload helpers ---------------------------------------------------


def _error_body(error: Exception) -> Dict[str, Any]:
    return {"error": str(error), "error_type": type(error).__name__}


def _session_label(path: str) -> Tuple[Optional[str], Optional[str]]:
    """Normalize ``/sessions/{id}[/events]`` -> (route label, id).

    Ids are restricted to alphanumerics and dashes (the same character
    set the journal-directory scan accepts), so a crafted path cannot
    smuggle separators toward journal filenames.
    """
    parts = path.strip("/").split("/")
    if not 2 <= len(parts) <= 3 or parts[0] != "sessions":
        return None, None
    session_id = parts[1]
    if not session_id or not all(c.isalnum() or c == "-"
                                 for c in session_id):
        return None, None
    if len(parts) == 2:
        return "/sessions/{id}", session_id
    if parts[2] == "events":
        return "/sessions/{id}/events", session_id
    return None, None


def _object(payload: Any) -> Dict[str, Any]:
    if not isinstance(payload, dict):
        raise ServiceError(
            400, f"request body must be a JSON object, "
                 f"got {type(payload).__name__}", "MalformedInputError")
    return payload


def _flag(payload: Mapping[str, Any], key: str, default: bool) -> bool:
    value = payload.get(key, default)
    if not isinstance(value, bool):
        raise ServiceError(400, f"\"{key}\" must be a boolean, "
                                f"got {value!r}", "MalformedInputError")
    return value


def _string_list(payload: Mapping[str, Any], key: str) -> Optional[List[str]]:
    value = payload.get(key)
    if value is None:
        return None
    if not isinstance(value, list) \
            or not all(isinstance(item, str) for item in value):
        raise ServiceError(400, f"\"{key}\" must be a list of strings, "
                                f"got {value!r}", "MalformedInputError")
    return value


def _anchor_mode(value: Any) -> AnchorMode:
    try:
        return AnchorMode(value)
    except ValueError:
        raise ServiceError(
            400, f"unknown anchor mode {value!r} (expected one of "
                 f"{[m.value for m in AnchorMode]})",
            "MalformedInputError") from None


def _event_list(payload: Mapping[str, Any]) -> List[Tuple[str, int]]:
    """The ``"events"`` field: ``{"anchor", "cycle"}`` objects or
    ``[anchor, cycle]`` pairs, capped at :data:`MAX_EXECUTE_EVENTS`.

    Shape errors are 400s here; *semantic* errors (unknown anchor,
    stream out of order) are left for the executor, whose
    ``MalformedInputError`` maps to 400 through the error contract.
    """
    value = payload.get("events")
    if not isinstance(value, list):
        raise ServiceError(
            400, f"\"events\" must be a list of completion events, "
                 f"got {type(value).__name__}", "MalformedInputError")
    if len(value) > MAX_EXECUTE_EVENTS:
        raise ServiceError(
            429, f"{len(value)} events exceed the per-request cap of "
                 f"{MAX_EXECUTE_EVENTS}", "BudgetExceededError")
    events: List[Tuple[str, int]] = []
    for index, item in enumerate(value):
        if isinstance(item, dict):
            anchor, cycle = item.get("anchor"), item.get("cycle")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            anchor, cycle = item
        else:
            raise ServiceError(
                400, f"events[{index}] must be an "
                     f"{{\"anchor\", \"cycle\"}} object or an "
                     f"[anchor, cycle] pair, got {item!r}",
                "MalformedInputError")
        if not isinstance(anchor, str) or isinstance(cycle, bool) \
                or not isinstance(cycle, int):
            raise ServiceError(
                400, f"events[{index}] must name an anchor (string) and "
                     f"an integer cycle, got {item!r}",
                "MalformedInputError")
        events.append((anchor, cycle))
    return events


def _watchdog_config(payload: Mapping[str, Any], config_cls: type,
                     policy_cls: type) -> Optional[Any]:
    """The optional ``"watchdog"`` object: bounds, policy and re-arm
    knobs for the execute endpoint's :class:`WatchdogConfig`."""
    value = payload.get("watchdog")
    if value is None:
        return None
    if not isinstance(value, dict):
        raise ServiceError(
            400, f"\"watchdog\" must be an object, got "
                 f"{type(value).__name__}", "MalformedInputError")
    known = {"bounds", "default", "policy", "max_rearms", "backoff",
             "fallback_budget"}
    unknown = sorted(set(value) - known)
    if unknown:
        raise ServiceError(
            400, f"unknown watchdog field(s) {unknown} (expected a "
                 f"subset of {sorted(known)})", "MalformedInputError")
    kwargs = dict(value)
    policy = kwargs.get("policy")
    if policy is not None:
        try:
            kwargs["policy"] = policy_cls(policy)
        except ValueError:
            raise ServiceError(
                400, f"unknown watchdog policy {policy!r}",
                "MalformedInputError") from None
    bounds = kwargs.get("bounds", {})
    if not isinstance(bounds, dict) \
            or not all(isinstance(k, str) for k in bounds):
        raise ServiceError(
            400, f"watchdog \"bounds\" must map anchor names to integer "
                 f"windows, got {bounds!r}", "MalformedInputError")
    try:
        return config_cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise ServiceError(400, f"invalid watchdog config: {error}",
                           "MalformedInputError") from None
