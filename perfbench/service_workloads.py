"""The two service workloads: ``rpc-schedule`` and ``session-events``.

Both are closed loops: each of ``CLIENTS`` threads holds one persistent
connection and sends its next request only after the previous reply.
All request bodies are encoded before timing starts; replies are kept
as raw bytes and checked against the oracle after the timed phase, so
the client does as little as possible while the server is measured.

A run has three phases, judged per operation by its timestamps:
``warmup`` (sent in the first ``WARMUP_S`` seconds), ``timed`` (sent
after the warm-up and answered within ``--seconds``) and ``drain`` (the
rest: sessions still open when time runs out are finished so that their
results can be checked).  Only ``timed`` operations feed the metrics;
every phase feeds ``attempted`` and ``failed``.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import signal
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import inputs
import metrics
from serverproc import ServerProcess, connect

#: Load connections; never more than the machine has processors.
CLIENTS = 2
WARMUP_S = 2.0
#: Server start-ups per run for ``setup_s`` (the median is reported).
SETUP_SPAWNS = 5
SERVER_WORKERS = 2

HEADERS = {"Content-Type": "application/json"}


class LoadError(RuntimeError):
    """The load generator cannot run soundly (refused, or ran dry)."""


def check_clients(clients: int) -> None:
    available = len(os.sched_getaffinity(0))
    if clients > available:
        raise LoadError(f"refusing {clients} connections on {available} "
                        f"processor(s): the client would compete with "
                        f"the server it measures")


@dataclass
class Op:
    kind: str
    t_send: float
    t_done: float
    status: int
    raw: bytes
    ref: int  # request / session-case index


@dataclass
class Window:
    t0: float  # timed phase start
    t_end: float

    def phase(self, op: Op) -> str:
        if op.t_send < self.t0:
            return "warmup"
        return "timed" if op.t_done <= self.t_end else "drain"


@dataclass
class Phase:
    """One server lifetime under load."""
    ops: List[Op]
    window: Window
    setup_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    layers: Optional[Dict[str, Any]] = None
    reused: int = 0  # inputs handed out a second time
    stats: Tuple[Dict[str, Any], Dict[str, Any]] = ({}, {})

    def timed(self, kind: Optional[str] = None) -> List[Op]:
        return [op for op in self.ops if self.window.phase(op) == "timed"
                and (kind is None or op.kind == kind)]


class Dispenser:
    """Hands out input indices to the clients in order.

    Past the end it starts over and counts the reuse (``reused`` in the
    report): harmless for sessions, but on ``rpc-schedule`` a reused
    fresh graph is a cache hit, so the pool is sized well above the
    rate the workload was defined at.
    """

    def __init__(self, size: int) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self.size = size

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
        return index % self.size

    @property
    def reused(self) -> int:
        return max(0, self._next - self.size)


def _call(conn, method: str, path: str, body: Optional[bytes]
          ) -> Tuple[float, float, int, bytes]:
    t_send = time.perf_counter()
    conn.request(method, path, body=body, headers=HEADERS)
    response = conn.getresponse()
    raw = response.read()
    return t_send, time.perf_counter(), response.status, raw


Client = Callable[[Any, List[Op], Dispenser, Window], None]


def drive(server: ServerProcess, client: Client, dispenser: Dispenser,
          seconds: float, traced: bool) -> Phase:
    """Run ``CLIENTS`` closed-loop clients against *server*."""
    check_clients(CLIENTS)
    conns = [connect(server.port) for _ in range(CLIENTS)]
    ops: List[List[Op]] = [[] for _ in range(CLIENTS)]
    errors: List[BaseException] = []
    start = threading.Barrier(CLIENTS + 1)
    window = Window(0.0, 0.0)

    def body(i: int) -> None:
        start.wait()
        try:
            client(conns[i], ops[i], dispenser, window)
        except BaseException as error:  # noqa: B036 -- re-raised by drive()
            errors.append(error)

    threads = [threading.Thread(target=body, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    # The prepared inputs and their answers are many small objects; a
    # full collection in this (client) process would stall a connection
    # for tens of milliseconds.  Freeze them and collect nothing while
    # the load runs.
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        window.t0 = time.perf_counter() + WARMUP_S
        window.t_end = window.t0 + seconds
        start.wait()
        stats_before: Dict[str, Any] = {}
        stats_after: Dict[str, Any] = {}
        if traced:
            _sleep_until(window.t0)
            server.signal(signal.SIGUSR1)
            stats_before = server.get("/stats")[1]
            _sleep_until(window.t_end)
            server.signal(signal.SIGUSR2)
            stats_after = server.get("/stats")[1]
        for thread in threads:
            thread.join(timeout=300)
            if thread.is_alive():
                raise LoadError("a client did not finish")
    finally:
        gc.enable()
        gc.unfreeze()
    for conn in conns:
        conn.close()
    if errors:
        raise errors[0]
    phase = Phase([op for own in ops for op in own], window,
                  reused=dispenser.reused)
    phase.stats = (stats_before, stats_after)
    if traced:
        phase.layers = server.read_layers()
    phase.peak_rss_mb = server.peak_rss_mb()
    return phase


def _sleep_until(t: float) -> None:
    delay = t - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def serve_phase(root: Path, workdir: Path, serve_args: List[str],
                client: Client, dispenser: Dispenser, seconds: float, *,
                traced: bool, spawns: int, tag: str) -> Phase:
    """Start the server *spawns* times (timing each start-up), keep the
    last one, and drive the load against it."""
    setup: List[float] = []
    for i in range(spawns - 1):
        with ServerProcess(root, workdir, serve_args,
                           tag=f"{tag}-setup{i}") as probe:
            setup.append(probe.start())
    with ServerProcess(root, workdir, serve_args, traced=traced,
                       tag=tag) as server:
        setup.append(server.start())
        phase = drive(server, client, dispenser, seconds, traced)
    phase.setup_s = setup
    return phase


def common_args() -> List[str]:
    return ["--host", "127.0.0.1", "--port", "0",
            "--workers", str(SERVER_WORKERS)]


def count_phases(phase: Phase, failed: Callable[[Op], bool]
                 ) -> Dict[str, Dict[str, int]]:
    """attempted / succeeded / failed per phase."""
    table = {name: {"attempted": 0, "succeeded": 0, "failed": 0}
             for name in ("warmup", "timed", "drain")}
    for op in phase.ops:
        row = table[phase.window.phase(op)]
        row["attempted"] += 1
        row["failed" if failed(op) else "succeeded"] += 1
    return table


def end_to_end(phase: Phase, kind: str) -> Dict[str, float]:
    timed = phase.timed(kind)
    if not timed:
        raise LoadError(f"no {kind} operation completed in the timed phase")
    values = metrics.summarize_latencies([op.t_done - op.t_send
                                          for op in timed])
    # Over the span the timed operations actually cover (the window's
    # start to the last answer inside it), not the nominal --seconds.
    values["ops_per_s"] = len(timed) / (max(op.t_done for op in timed)
                                        - phase.window.t0)
    values["peak_rss_mb"] = phase.peak_rss_mb
    values["setup_s"] = metrics.median(phase.setup_s)
    return values


def slices(phase: Phase, kind: str, n: int = 10) -> List[Dict[str, float]]:
    """Rate, p50 and p99 over *n* equal slices of the timed phase."""
    width = (phase.window.t_end - phase.window.t0) / n
    buckets: List[List[float]] = [[] for _ in range(n)]
    for op in phase.timed(kind):
        index = min(n - 1, int((op.t_done - phase.window.t0) / width))
        buckets[index].append(op.t_done - op.t_send)
    return [{"ops_per_s": len(b) / width,
             **(metrics.summarize_latencies(b) if b else {})}
            for b in buckets]


def service_layers(phase: Phase, children: List[str]
                   ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The service-layer split and its reconciliation.

    ``children`` are the wrapped layers ``dispatch`` calls directly.
    Returns (metrics, reconciliation details).
    """
    assert phase.layers is not None
    timers = phase.layers["timers"]
    timed = phase.timed()
    client_ms = (sum(op.t_done - op.t_send for op in timed)
                 / len(timed) * 1e3)
    pool_ms = metrics.mean_ms(timers, "service.pool.run")
    dispatch_ms = metrics.mean_ms(timers, "service.app.dispatch")
    dispatch = timers.get("service.app.dispatch", {"count": 0})
    n_dispatch = dispatch["count"]
    self_ms = (dispatch["self_s"] / n_dispatch * 1e3) if n_dispatch else 0.0
    child_ms = {name: (timers[name]["total_s"] / n_dispatch * 1e3
                       if name in timers and n_dispatch else 0.0)
                for name in children}
    values = {
        "transport_ms": client_ms - pool_ms,
        "service.pool.queue_wait_ms": pool_ms - dispatch_ms,
        "service.app.dispatch_ms": dispatch_ms,
        "service.app.dispatch_self_ms": self_ms,
    }
    parts = (values["transport_ms"] + values["service.pool.queue_wait_ms"]
             + self_ms + sum(child_ms.values()))
    residual = abs(parts - client_ms) / client_ms
    values["trace.reconcile_residual_share"] = residual
    detail = {"client_mean_ms": client_ms, "parts_sum_ms": parts,
              "children_ms": child_ms, "client_ops": len(timed),
              "server_dispatches": n_dispatch,
              "tolerance": RECONCILE_TOLERANCE,
              "reconciled": residual <= RECONCILE_TOLERANCE}
    return values, detail


#: The parts of a request may differ from the client mean by this share
#: (requests crossing the window edges are counted on one side only).
RECONCILE_TOLERANCE = 0.05


def _stats_delta(phase: Phase, section: str, key: str) -> float:
    """Growth of a ``/stats`` counter over the timed phase."""
    before, after = phase.stats
    return (float(after.get(section, {}).get(key, 0))
            - float(before.get(section, {}).get(key, 0)))


def _decode(raw: bytes) -> Optional[dict]:
    try:
        value = json.loads(raw)
    except ValueError:
        return None
    return value if isinstance(value, dict) else None


# -- rpc-schedule ------------------------------------------------------

#: Prepared requests per second of run: 1.4x the fastest rate measured
#: when the workload was defined, 2x the typical one (input generation
#: is most of a run's untimed cost).
RPC_REQUESTS_PER_S = 400


def rpc_client(requests: List[inputs.RpcRequest]) -> Client:
    def client(conn, ops: List[Op], dispenser: Dispenser,
               window: Window) -> None:
        while time.perf_counter() < window.t_end:
            index = dispenser.take()
            t_send, t_done, status, raw = _call(
                conn, "POST", "/schedule", requests[index].body)
            ops.append(Op("schedule", t_send, t_done, status, raw, index))
    return client


def rpc_failed(requests: List[inputs.RpcRequest]) -> Callable[[Op], bool]:
    def failed(op: Op) -> bool:
        return op.status != 200 or not inputs.offsets_match(
            _decode(op.raw), requests[op.ref].expected)
    return failed


def run_rpc(root: Path, workdir: Path, seed: int, seconds: float,
            trace: bool) -> Dict[str, Any]:
    from repro.core.batch import schedule_many

    designs = inputs.rpc_designs(seed)
    count = int(RPC_REQUESTS_PER_S * (seconds + WARMUP_S)) + 100
    requests = inputs.rpc_requests(seed, count, designs)
    pristine = workdir / "designs.cache.jsonl"
    run = schedule_many(designs, cache=str(pristine))
    if run.stats["scheduled"] != len(designs):
        raise LoadError(f"set-up could not cache every design: {run.stats}")
    failed = rpc_failed(requests)

    def phase(traced: bool, spawns: int, tag: str) -> Phase:
        cache = workdir / f"{tag}.cache.jsonl"
        shutil.copyfile(pristine, cache)
        return serve_phase(root, workdir, common_args() + ["--cache", str(cache)],
                           rpc_client(requests), Dispenser(len(requests)),
                           seconds, traced=traced, spawns=spawns, tag=tag)

    plain = phase(False, 1 if trace else SETUP_SPAWNS, "plain")
    result = {"recipe": dict(inputs.RPC_RECIPE, prepared=count),
              "phases": {"plain": count_phases(plain, failed)},
              "reused": {"plain": plain.reused}}
    ops = list(plain.ops)
    if not trace:
        result["metrics"] = end_to_end(plain, "schedule")
        result["slices"] = slices(plain, "schedule")
        result["hit_requests_timed"] = sum(
            requests[op.ref].hit for op in plain.timed())
    else:
        traced = phase(True, 1, "traced")
        ops += traced.ops
        result["phases"]["traced"] = count_phases(traced, failed)
        result["reused"]["traced"] = traced.reused
        values = metrics.layer_values(traced.layers)
        split, detail = service_layers(traced, [
            "resilience.guard.untrusted_graph_from_dict",
            "service.batcher.schedule", "io.schedule_to_dict",
            "resilience.guard.guarded_schedule"])
        values.update(split)
        values["service.batcher.linger_ms"] = (
            values["service.batcher.schedule_ms"]
            - values["core.batch.schedule_many_ms"])
        values["service.batcher.batch_size_mean"] = metrics.share(
            _stats_delta(traced, "batching", "requests"),
            _stats_delta(traced, "batching", "batches"))
        hits = _stats_delta(traced, "cache", "hits")
        values["core.resultcache.hit_share"] = metrics.share(
            hits, hits + _stats_delta(traced, "cache", "misses"))
        values["trace.overhead_share"] = _overhead(plain, traced, "schedule")
        result["metrics"] = values
        result["reconciliation"] = detail
    result["attempted"] = len(ops)
    result["failed"] = sum(failed(op) for op in ops)
    return result


def _overhead(plain: Phase, traced: Phase, kind: str) -> float:
    """Throughput lost to tracing: 1 - traced / untraced timed operations
    (both phases are equally long)."""
    return 1.0 - len(traced.timed(kind)) / len(plain.timed(kind))


# -- session-events ----------------------------------------------------

#: Prepared sessions per second of run (reuse beyond them is harmless:
#: each reuse opens a new session).
SESSIONS_PER_S = 50


def session_client(cases: List[inputs.SessionCase]) -> Client:
    def client(conn, ops: List[Op], dispenser: Dispenser,
               window: Window) -> None:
        while time.perf_counter() < window.t_end:
            index = dispenser.take()
            case = cases[index]
            t_send, t_done, status, raw = _call(conn, "POST", "/sessions",
                                                case.create_body)
            ops.append(Op("create", t_send, t_done, status, raw, index))
            if status != 200:
                continue
            session = json.loads(raw)["session"]
            path = f"/sessions/{session}/events"
            for body in case.event_bodies:
                t_send, t_done, status, raw = _call(conn, "POST", path, body)
                ops.append(Op("event", t_send, t_done, status, raw, index))
            t_send, t_done, status, raw = _call(
                conn, "DELETE", f"/sessions/{session}", None)
            ops.append(Op("delete", t_send, t_done, status, raw, index))
    return client


def session_failed(cases: List[inputs.SessionCase]) -> Callable[[Op], bool]:
    """Acks must be 200; a closed session's issue cycles must equal the
    static ``start_times(observed)``."""
    def failed(op: Op) -> bool:
        if op.status != 200:
            return True
        if op.kind != "delete":
            return False
        body = _decode(op.raw)
        try:
            log = body["log"]  # type: ignore[index]
            return not (log["complete"] and log["issues"]
                        == cases[op.ref].expected_issues)
        except (KeyError, TypeError):
            return True
    return failed


def run_sessions(root: Path, workdir: Path, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    count = int(SESSIONS_PER_S * (seconds + WARMUP_S)) + 20
    cases = inputs.session_cases(seed, count)
    failed = session_failed(cases)

    def phase(traced: bool, spawns: int, tag: str) -> Phase:
        journals = workdir / f"{tag}.journals"
        journals.mkdir()
        return serve_phase(
            root, workdir,
            common_args() + ["--journal-dir", str(journals),
                             "--journal-fsync", "always"],
            session_client(cases), Dispenser(len(cases)), seconds,
            traced=traced, spawns=spawns, tag=tag)

    plain = phase(False, 1 if trace else SETUP_SPAWNS, "plain")
    result = {"recipe": dict(inputs.SESSION_RECIPE, prepared=count),
              "phases": {"plain": count_phases(plain, failed)},
              "reused": {"plain": plain.reused}}
    ops = list(plain.ops)
    if not trace:
        result["metrics"] = end_to_end(plain, "event")
        result["slices"] = slices(plain, "event")
    else:
        traced = phase(True, 1, "traced")
        ops += traced.ops
        result["phases"]["traced"] = count_phases(traced, failed)
        result["reused"]["traced"] = traced.reused
        layers = traced.layers
        values = metrics.layer_values(layers)
        split, detail = service_layers(traced, [
            "service.app.session_create", "runtime.journal.validate_batch",
            "runtime.journal.append_events", "runtime.journal.apply_batch"])
        values.update(split)
        timers = layers["timers"]
        applied = timers.get("runtime.journal.apply_batch", {}).get("count", 0)
        values["runtime.journal.fsyncs_per_event"] = metrics.share(
            layers["counters"].get("os.fsync", 0), applied)
        logs = [_decode(op.raw)["log"] for op in traced.ops
                if op.kind == "delete" and not failed(op)]
        values["runtime.executor.reschedules_per_event"] = metrics.share(
            sum(log["reschedules"] for log in logs),
            sum(log["events"] for log in logs))
        values["trace.overhead_share"] = _overhead(plain, traced, "event")
        result["metrics"] = values
        result["reconciliation"] = detail
    result["attempted"] = len(ops)
    result["failed"] = sum(failed(op) for op in ops)
    return result
