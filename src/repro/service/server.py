"""The HTTP front of the scheduling service (stdlib only).

``ServiceServer`` serves every connection from one :mod:`selectors`
loop on one thread.  The loop accepts connections, reads each into its
own buffer and parses requests there -- the request line and the
header lines into one dict keyed by lower-cased name, then exactly
``Content-Length`` body bytes -- runs each complete request to the end
itself, and answers it with one ``send`` of the status line, the
headers and the JSON body.  What the socket does not take at once is
sent when it becomes writable, so a client that reads slowly stalls
only itself.  A connection costs a socket and a buffer, not a thread,
and nothing is logged per request.

Every verb reaches :meth:`SchedulingService.dispatch`, so routing's
404/405 and the JSON error contract cover all of them.  A GET
(``/healthz``, ``/stats``) is answered as soon as it is parsed, outside
the admission bound -- the health check must answer during the
overload it reports.  Every other verb waits in one FIFO ready list
(at most one request per connection, at most ``workers +
queue_capacity`` in all) and runs inside
:meth:`~repro.service.pool.WorkerPool.run` when its turn comes.  The
loop runs one request at a time and looks at its sockets between
requests, not during one, so a long request delays every other answer
by its own length (DESIGN.md section 12).

The front's own answers follow the same contract (the table in
:mod:`repro.service.app`): a body that is not JSON -> 400; a request it
cannot frame -> 400, 411, 414, 431 or 505; a body over
``max_body_bytes`` -> 413, judged from Content-Length before reading; a
full ready list, a drained gate or a connection past
:func:`connection_cap` -> 503 with ``Retry-After: 1``; a request that
waited longer than ``request_timeout_s`` -> 504.  An answer sent before
the body was read closes the connection, because the unread bytes
would otherwise be parsed as the next request; so does
:data:`IDLE_TIMEOUT_S` of silence.

Startup logs the *actual* worker count, ready-list bound and connection
cap -- the configuration is never silently capped, per the scaling
rules.
"""

from __future__ import annotations

import heapq
import itertools
import json
import logging
import selectors
import signal
import socket
import threading
import time
from collections import deque
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.sanitize import make_lock
from repro.service.app import SchedulingService, ServiceConfig, ServiceError
from repro.service.pool import (
    JobTimeoutError,
    PoolSaturatedError,
    PoolShutdownError,
    WorkerPool,
)

try:  # pragma: no cover - platform-dependent
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

LOGGER = logging.getLogger("repro.service")

#: The stdlib's limits (``http.server``): bytes in the request line or
#: in one header line, and header lines per request.
MAX_LINE = 65536
MAX_HEADERS = 100

#: Seconds a connection may stay silent -- between requests or inside
#: one -- before the server closes it.  A keep-alive client that goes
#: quiet would otherwise hold a descriptor and a buffer forever.
IDLE_TIMEOUT_S = 30.0

#: Seconds the server keeps reading (and dropping) what a client still
#: sends after an answer that ends the connection early.
LINGER_S = 1.0

#: ``listen()`` backlog.  A backlog of 5 (socketserver's default) drops
#: the SYNs of a burst of connecting clients, and each retries a second
#: later.
LISTEN_BACKLOG = 128

#: Descriptors the connection cap leaves for everything but connections
#: and session journals: the standard streams, the listener, the
#: selector, a new session's journal before its genesis is admitted,
#: the directory sync, the schedule cache and the interpreter's own.
FD_RESERVE = 64

#: Seconds the loop stops accepting after ``accept`` fails (out of
#: descriptors, say): the pending connection keeps the listener
#: readable, and retrying at once would spin the loop.
ACCEPT_PAUSE_S = 0.1

#: Bytes asked of a socket per read.
_RECV_BYTES = 1 << 16

#: Status line plus the one content type, per status code.
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                  % (status.value, status.phrase.encode("ascii"))
    for status in HTTPStatus}

#: ``error_type`` of the front's own answers; MalformedInputError
#: for the others.
_FRAMING_TYPES = {413: "BudgetExceededError", 414: "BudgetExceededError",
                  431: "BudgetExceededError", 505: "ServiceError"}

#: A request waiting in the ready list: (connection, method, path,
#: decoded body, tenant, keep-alive, HTTP/1.1, monotonic arrival).
_Job = Tuple["_Connection", str, str, Any, Optional[str], bool, bool, float]


def _framing_error(status: int, message: str) -> ServiceError:
    return ServiceError(status, message,
                        _FRAMING_TYPES.get(status, "MalformedInputError"))


def _reject_nonfinite(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


def connection_cap(session_cap: int) -> int:
    """Most connections the loop keeps open at once.

    The process's ``RLIMIT_NOFILE`` soft limit, less one descriptor per
    resident session (a journaled session holds its journal open) and
    :data:`FD_RESERVE`, so a flood of connections cannot take the
    descriptor a new session's genesis or an evicted session's next
    append needs.
    """
    soft = (resource.getrlimit(resource.RLIMIT_NOFILE)[0]
            if resource is not None else 1024)
    if soft < 0:  # RLIM_INFINITY
        soft = 1 << 20
    return max(1, soft - session_cap - FD_RESERVE)


class ServiceServer:
    """The loop that owns every connection, the service core and the
    admission bound.

    ``serve_forever`` runs the loop on the calling thread until
    ``shutdown`` (from another thread) stops it; ``server_close`` then
    closes the sockets.
    """

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = SchedulingService(self.config)
        self.pool = WorkerPool(workers=self.config.workers,
                               queue_capacity=self.config.queue_capacity)
        #: Requests the ready list holds at most; one more answers 503.
        self.ready_bound = self.pool.workers + self.pool.queue_capacity
        #: Connections open at once at most; one more answers 503 and
        #: is closed.
        self.max_connections = connection_cap(self.config.session_cap)
        # (monotonic expiry, "Date: ...\r\n"), swapped as one tuple.
        self._date: Tuple[float, bytes] = (float("-inf"), b"")
        self.socket = socket.create_server(
            (self.config.host, self.config.port), backlog=LISTEN_BACKLOG)
        self.socket.setblocking(False)
        # Port 0 binds an ephemeral port; expose what we actually got.
        self.port = self.socket.getsockname()[1]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self.socket, selectors.EVENT_READ)
        self._conns: Set[_Connection] = set()
        self._ready: Deque[_Job] = deque()
        # (when, tiebreak, connection): idle and linger deadlines, and
        # (when, tiebreak, None) for the end of an accept pause.
        self._deadlines: List[Tuple[float, int, Optional[_Connection]]] = []
        self._tiebreak = itertools.count()
        self._stop = False
        self._stopped = threading.Event()
        LOGGER.info(
            "scheduling service on %s:%d -- %d workers, queue bound %d, "
            "at most %d connections",
            self.config.host, self.port, self.pool.workers,
            self.pool.queue_capacity, self.max_connections)
        if self.config.journal_dir is not None:
            LOGGER.info(
                "session journals in %s -- %d session(s) recovered",
                self.config.journal_dir, self.service.recovered_sessions)
        # io_ok: shutdown waits for the loop to flush its replies and
        # fsyncs every journal while held -- teardown-only, declared in
        # the sanitizer policy.
        self._down = make_lock("server.down", io_ok=True)

    def date_header(self) -> bytes:
        """The ``Date`` header line, rebuilt at most once a second."""
        now = time.monotonic()
        expires, line = self._date
        if now >= expires:
            line = b"Date: %s\r\n" % formatdate(usegmt=True).encode("ascii")
            self._date = (now + 1.0, line)
        return line

    # -- lifecycle -----------------------------------------------------

    def serve_forever(self, poll_interval: float = 0.5) -> None:
        """Run the loop until :meth:`shutdown`, which it notices within
        *poll_interval* seconds."""
        self._stopped.clear()
        select = self._selector.select
        ready = self._ready
        deadlines = self._deadlines
        try:
            while not self._stop:
                if ready:
                    timeout = 0.0
                elif deadlines:
                    timeout = min(poll_interval, max(
                        0.0, deadlines[0][0] - time.monotonic()))
                else:
                    timeout = poll_interval
                for key, mask in select(timeout):
                    conn = key.data
                    try:
                        if conn is None:
                            self._accept()
                        elif mask & selectors.EVENT_WRITE:
                            self._flush(conn)
                        else:
                            self._read(conn)
                    except Exception:
                        self._fail(conn)
                if ready:
                    conn = ready[0][0]
                    try:
                        self._run_next()
                    except Exception:
                        self._fail(conn)
                if deadlines and deadlines[0][0] <= time.monotonic():
                    self._expire()
        finally:
            self._finish()
            self._stop = False
            self._stopped.set()

    def shutdown(self) -> None:
        """Stop the loop (it runs what it admitted and flushes the
        replies first), refuse new jobs and flush shared state; from
        any thread but the loop's."""
        # Guard the teardown: the SIGTERM drain thread and serve()'s
        # finally block may both get here.
        with self._down:
            self._stop = True
            self._stopped.wait()
            self.pool.shutdown(wait=True)
            self.service.close()

    def server_close(self) -> None:
        """Close every connection, the listener and the selector."""
        for conn in list(self._conns):
            self._close(conn)
        self.socket.close()
        self._selector.close()

    def drain(self) -> None:
        """Graceful drain (the SIGTERM path): stop session admission
        (503 + Retry-After), then stop the loop -- it accepts no more
        connections, runs the requests it admitted and flushes their
        replies -- and fsync every journal, in that order, so a kill
        arriving mid-drain loses nothing acknowledged.

        Must not run on the loop's thread (``shutdown`` waits for the
        loop); the signal handler spawns a thread.
        """
        self.service.draining.set()
        self.shutdown()

    def _fail(self, conn: Optional["_Connection"]) -> None:
        """A handler raised: record the traceback and drop that one
        connection; the loop goes on serving the others."""
        LOGGER.exception("connection handler failed")
        if conn is not None:
            self._close(conn)

    def _finish(self) -> None:
        """The loop's last steps: accept no more, run what the ready
        list admitted, close the idle connections and give pending
        replies at most :data:`LINGER_S` to leave."""
        self._unwatch_listener()
        while self._ready:
            self._run_next()
        give_up = time.monotonic() + LINGER_S
        while True:
            for conn in list(self._conns):
                if conn.out is None:
                    self._close(conn)
            remaining = give_up - time.monotonic()
            if not self._conns or remaining <= 0:
                return
            for key, _ in self._selector.select(remaining):
                if key.data is not None and key.data.out is not None:
                    self._flush(key.data)

    # -- connections ---------------------------------------------------

    def _accept(self) -> None:
        for _ in range(LISTEN_BACKLOG):
            try:
                sock, _ = self.socket.accept()
            except (BlockingIOError, InterruptedError, ConnectionAbortedError):
                return
            except OSError:  # out of descriptors or buffers: pause
                self._unwatch_listener()
                self._push(time.monotonic() + ACCEPT_PAUSE_S, None)
                return
            if len(self._conns) >= self.max_connections:
                self._refuse(sock)
                continue
            sock.setblocking(False)
            # A pipelined reply must not wait for the peer's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            # Read per connection, so a test can patch the module constant.
            conn = _Connection(sock, IDLE_TIMEOUT_S)
            self._conns.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)
            self._set_deadline(conn, time.monotonic() + conn.idle)

    def _refuse(self, sock: socket.socket) -> None:
        """Answer a connection past the cap with a 503 and close it."""
        reply = self._reply(
            503, {"error": f"connection limit of {self.max_connections} "
                           f"reached; try again later",
                  "error_type": "ConnectionLimitError"},
            keep_alive=False, http11=True)
        try:
            sock.setblocking(False)
            sock.send(reply)
            # A request already here would turn the close into a reset.
            sock.recv(_RECV_BYTES)
        except OSError:
            pass
        finally:
            sock.close()

    def _unwatch_listener(self) -> None:
        try:
            self._selector.unregister(self.socket)
        except (KeyError, ValueError):
            pass  # already paused or stopped

    def _read(self, conn: "_Connection") -> None:
        if conn.queued:
            return  # its next bytes wait until the reply has left
        try:
            data = conn.sock.recv(_RECV_BYTES)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        if not data:  # the client closed
            self._close(conn)
            return
        if conn.lingering:
            return  # dropped; the linger deadline stands
        conn.buf += data
        conn.deadline = time.monotonic() + conn.idle
        self._advance(conn)

    def _advance(self, conn: "_Connection") -> None:
        """Parse and answer the requests in *conn*'s buffer until one
        waits in the ready list, a reply waits for the socket, or the
        buffer holds no whole request."""
        while not (conn.queued or conn.closed or conn.lingering
                   or conn.out is not None or self._stop):
            try:
                request = conn.parse(self.config.max_body_bytes)
            except ServiceError as error:
                self._respond(conn, error.status,
                              {"error": str(error),
                               "error_type": error.error_type},
                              keep_alive=False, http11=conn.http11,
                              linger=True)
                return
            if request is None:
                if conn.broken:
                    self._close(conn)
                elif conn.out is not None:  # a 100 Continue is waiting
                    self._watch_writes(conn)
                return
            self._on_request(conn, *request)

    def _on_request(self, conn: "_Connection", method: str, target: bytes,
                    headers: Dict[str, str], body: bytes,
                    http11: bool) -> None:
        keep_alive = http11
        connection = headers.get("connection")
        if connection is not None:
            tokens = {token.strip() for token in connection.lower().split(",")}
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
        path = target.split(b"?", 1)[0].decode("latin-1")
        if method == "GET":
            # Health and stats skip the ready list: they must answer
            # while it is full.
            status, reply = self.service.dispatch("GET", path, None)
            self._respond(conn, status, reply, keep_alive=keep_alive,
                          http11=http11)
            return
        payload: Any = None
        if method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"),
                                     parse_constant=_reject_nonfinite)
            except (ValueError, RecursionError) as error:
                self._respond(conn, 400, {
                    "error": f"request body is not valid JSON: {error}",
                    "error_type": "MalformedInputError"},
                    keep_alive=keep_alive, http11=http11)
                return
        # Bodies of other verbs are read but ignored (no endpoint takes
        # one); every non-GET verb waits its turn in the ready list.
        if len(self._ready) >= self.ready_bound:
            self._respond(conn, 503, {
                "error": f"all {self.pool.workers} workers busy and "
                         f"{self.pool.queue_capacity} requests waiting; "
                         f"try again later",
                "error_type": "PoolSaturatedError"},
                keep_alive=keep_alive, http11=http11,
                head=method == "HEAD")
            return
        conn.queued = True
        self._ready.append((conn, method, path, payload,
                            headers.get("x-tenant"), keep_alive, http11,
                            time.monotonic()))

    def _run_next(self) -> None:
        """Run the longest-waiting request to the end and answer it."""
        conn, method, path, payload, tenant, keep_alive, http11, since = (
            self._ready.popleft())
        conn.queued = False
        if conn.closed:
            return
        timeout = self.config.request_timeout_s
        if time.monotonic() - since > timeout:
            status, reply = 504, {
                "error": f"request waited over {timeout} s to run",
                "error_type": "JobTimeoutError"}
        else:
            service = self.service
            try:
                # Nothing else holds a slot in production, so the gate
                # admits at once; it never waits on the loop's thread.
                status, reply = self.pool.run(
                    lambda: service.dispatch(method, path, payload, tenant),
                    timeout=0)
            except (PoolSaturatedError, PoolShutdownError) as error:
                status, reply = 503, {"error": str(error),
                                      "error_type": type(error).__name__}
            except JobTimeoutError as error:
                status, reply = 504, {"error": str(error),
                                      "error_type": "JobTimeoutError"}
        self._respond(conn, status, reply, keep_alive=keep_alive,
                      http11=http11, head=method == "HEAD")
        self._advance(conn)

    def _reply(self, status: int, body: Any, *, keep_alive: bool,
               http11: bool, head: bool = False) -> bytes:
        """Status line, headers and body, as one bytes object."""
        payload = json.dumps(body).encode("utf-8")
        parts = [_STATUS_LINES[status],
                 b"Content-Length: %d\r\n" % len(payload),
                 self.date_header()]
        if status == 503:
            # Every 503 -- saturation, drain, journal outage, the
            # connection cap -- gives the client's bounded retry a
            # cadence.
            parts.append(b"Retry-After: 1\r\n")
        if not keep_alive:
            parts.append(b"Connection: close\r\n")
        elif not http11:
            parts.append(b"Connection: keep-alive\r\n")
        parts.append(b"\r\n")
        if not head:
            parts.append(payload)
        return b"".join(parts)

    def _respond(self, conn: "_Connection", status: int, body: Any, *,
                 keep_alive: bool, http11: bool, head: bool = False,
                 linger: bool = False) -> None:
        """Answer with one send; what the socket does not take waits
        for it to become writable."""
        conn.keep_alive = keep_alive
        conn.linger = linger
        conn.send(self._reply(status, body, keep_alive=keep_alive,
                              http11=http11, head=head))
        if conn.broken:
            self._close(conn)
        elif conn.out is not None:
            self._watch_writes(conn)
        else:
            self._settle(conn)

    def _watch_writes(self, conn: "_Connection") -> None:
        conn.deadline = time.monotonic() + conn.idle
        self._selector.modify(conn.sock, selectors.EVENT_WRITE, conn)

    def _flush(self, conn: "_Connection") -> None:
        """Send more of a pending reply (the socket is writable)."""
        out = conn.out
        try:
            sent = conn.sock.send(out)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close(conn)
            return
        conn.deadline = time.monotonic() + conn.idle
        if sent < len(out):
            conn.out = out[sent:]
            return
        conn.out = None
        self._selector.modify(conn.sock, selectors.EVENT_READ, conn)
        self._settle(conn)
        self._advance(conn)

    def _settle(self, conn: "_Connection") -> None:
        """A reply has left in full: keep the connection, close it, or
        drain what the client still sends before closing."""
        if conn.linger:
            try:
                conn.sock.shutdown(socket.SHUT_WR)
            except OSError:
                self._close(conn)
                return
            # Closing a socket with unread bytes resets the connection,
            # and the reset can destroy the answer before the client
            # has read it -- a client still uploading an oversized body
            # would see a broken pipe instead of the 413.
            conn.lingering = True
            conn.buf = bytearray()
            self._set_deadline(conn, time.monotonic() + LINGER_S)
        elif not conn.keep_alive:
            self._close(conn)
        else:
            conn.deadline = time.monotonic() + conn.idle

    def _close(self, conn: "_Connection") -> None:
        if conn.closed:
            return
        conn.closed = True
        # A deadline entry may keep the object until it falls due.
        conn.buf = bytearray()
        conn.out = None
        self._conns.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError):
            pass
        conn.sock.close()

    # -- deadlines -----------------------------------------------------

    def _push(self, when: float, conn: Optional["_Connection"]) -> None:
        heapq.heappush(self._deadlines, (when, next(self._tiebreak), conn))

    def _set_deadline(self, conn: "_Connection", when: float) -> None:
        """Move *conn*'s deadline; the heap holds one entry per
        connection, pushed again only when the deadline comes sooner."""
        conn.deadline = when
        if conn.heap_at is None or when < conn.heap_at:
            conn.heap_at = when
            self._push(when, conn)

    def _expire(self) -> None:
        """Close the connections whose deadline passed; end an accept
        pause."""
        deadlines = self._deadlines
        now = time.monotonic()
        while deadlines and deadlines[0][0] <= now:
            when, _, conn = heapq.heappop(deadlines)
            if conn is None:  # the accept pause is over
                if not self._stop:
                    self._selector.register(self.socket,
                                            selectors.EVENT_READ)
                continue
            if conn.closed or when != conn.heap_at:
                continue  # gone, or a later entry stands for it
            conn.heap_at = None
            if conn.queued:
                # Its request waits or runs: silence is the server's.
                self._set_deadline(conn, now + conn.idle)
            elif conn.deadline <= now:
                self._close(conn)
            else:
                self._set_deadline(conn, conn.deadline)


class _Connection:
    """One client connection on the loop: its socket, the bytes read
    but not parsed yet, where the parse of the current request stands,
    and the reply bytes the socket has not taken yet."""

    __slots__ = ("sock", "idle", "deadline", "heap_at", "buf", "pos", "scan",
                 "skipped", "method", "target", "http11", "headers",
                 "header_lines", "length", "out", "queued", "keep_alive",
                 "linger", "lingering", "broken", "closed")

    def __init__(self, sock: socket.socket, idle: float) -> None:
        self.sock = sock
        self.idle = idle
        self.deadline = 0.0
        # When this connection's entry in the deadline heap falls due.
        self.heap_at: Optional[float] = None
        self.buf = bytearray()
        self.out: Optional[memoryview] = None
        self.queued = False  # its request waits in the ready list
        self.keep_alive = True
        self.linger = False  # drain the socket once the reply has left
        self.lingering = False
        self.broken = False  # a send failed: the peer is gone
        self.closed = False
        self._start()

    def _start(self) -> None:
        """Expect a new request at the front of the buffer."""
        self.pos = 0  # where the next line starts
        self.scan = 0  # no newline before this offset
        self.skipped = False  # the one stray CRLF allowed before it
        self.method: Optional[str] = None
        self.target = b""
        self.http11 = True
        self.headers: Dict[str, str] = {}
        self.header_lines = 0
        self.length: Optional[int] = None  # body bytes, once declared

    def send(self, data: bytes) -> None:
        """Send *data* with one ``send``; keep what the socket does not
        take for the loop to send once it is writable."""
        if self.out is not None:  # behind an interim 100 Continue
            self.out = memoryview(self.out.tobytes() + data)
            return
        try:
            sent = self.sock.send(data)
        except (BlockingIOError, InterruptedError):
            sent = 0
        except OSError:
            self.broken = True
            return
        if sent < len(data):
            self.out = memoryview(data)[sent:]

    def parse(self, max_body: int
              ) -> Optional[Tuple[str, bytes, Dict[str, str], bytes, bool]]:
        """The next whole request in the buffer as ``(method, target,
        headers, body, http11)``; None until all of it has arrived.

        Picks up where the last call stopped.  Raises the framing
        errors as soon as the offending line is in: a bad request line
        or version, a line over :data:`MAX_LINE`, more than
        :data:`MAX_HEADERS` header lines, a malformed header line, a
        ``Transfer-Encoding`` body, a POST without ``Content-Length``,
        a malformed one, or one over *max_body*.
        """
        if self.method is None:
            line = self._line(414, "request line too long")
            if line in (b"\r\n", b"\n") and not self.skipped:
                self.skipped = True  # one stray CRLF may precede a request
                line = self._line(414, "request line too long")
            if line is None:
                return None
            words = line.split()
            if len(words) != 3:
                raise _framing_error(
                    400, f"bad request line {line[:80].decode('latin-1')!r}")
            self.http11 = _keeps_alive(words[2])
            self.method = words[0].decode("latin-1")
            self.target = words[1]
        headers = self.headers
        while self.length is None:
            line = self._line(431, "header line too long")
            if line is None:
                return None
            if line in (b"\r\n", b"\n"):
                self.length = self._body_length(max_body)
                break
            if line[0] in b" \t":
                raise _framing_error(400, "obsolete header line folding")
            name, colon, value = line.partition(b":")
            if not colon or not name or name.rstrip() != name:
                raise _framing_error(
                    400, f"bad header line {line[:80].decode('latin-1')!r}")
            key = name.decode("latin-1").lower()
            text = value.strip().decode("latin-1")
            seen = headers.get(key)
            if seen is None:
                headers[key] = text
            elif key == "content-length":
                if seen != text:
                    raise _framing_error(400, "conflicting Content-Length "
                                              "headers")
            else:
                headers[key] = f"{seen}, {text}"
            self.header_lines += 1
            if self.header_lines > MAX_HEADERS:
                raise _framing_error(
                    431, f"more than {MAX_HEADERS} header lines")
        end = self.pos + self.length
        buf = self.buf
        if len(buf) < end:
            return None
        request = (self.method, self.target, headers,
                   bytes(buf[self.pos:end]), self.http11)
        del buf[:end]
        self._start()
        return request

    def _line(self, status: int, message: str) -> Optional[bytes]:
        """The next line (newline included), None until it has arrived;
        raises *status* once :data:`MAX_LINE` bytes came without one."""
        buf = self.buf
        end = buf.find(b"\n", self.scan, self.pos + MAX_LINE)
        if end < 0:
            if len(buf) - self.pos >= MAX_LINE:
                raise _framing_error(status, message)
            self.scan = len(buf)
            return None
        line = bytes(buf[self.pos:end + 1])
        self.pos = self.scan = end + 1
        return line

    def _body_length(self, max_body: int) -> int:
        """The declared body length; sends the interim ``100 Continue``
        when the client waits for it."""
        headers = self.headers
        if "transfer-encoding" in headers:
            raise _framing_error(411, "Content-Length required "
                                      "(Transfer-Encoding is not accepted)")
        declared = headers.get("content-length")
        if declared is None:
            if self.method == "POST":
                raise _framing_error(400, "Content-Length required")
            return 0
        if not (declared.isascii() and declared.isdigit()):
            raise _framing_error(400, f"bad Content-Length {declared!r}")
        length = int(declared) if len(declared) < 20 else 1 << 64
        if length > max_body:
            raise _framing_error(
                413, f"request body of {length} bytes exceeds the "
                     f"{max_body} byte limit")
        if (length and self.http11
                and headers.get("expect", "").lower() == "100-continue"):
            self.send(b"HTTP/1.1 100 Continue\r\n\r\n")
        return length


def _keeps_alive(version: bytes) -> bool:
    """Whether a request of HTTP *version* keeps its connection open by
    default (1.1 and later 1.x do, 1.0 does not); raises 400 or 505."""
    if version == b"HTTP/1.1":
        return True
    if version == b"HTTP/1.0":
        return False
    major, dot, minor = version[5:].partition(b".")
    if not (version.startswith(b"HTTP/") and dot and major.isdigit()
            and minor.isdigit() and len(major) + len(minor) <= 10):
        raise _framing_error(
            400, f"bad HTTP version {version[:40].decode('latin-1')!r}")
    if int(major) != 1:
        raise _framing_error(505, f"HTTP/{int(major)}.{int(minor)} is not "
                                  f"supported")
    return int(minor) >= 1


def serve(config: Optional[ServiceConfig] = None, *,
          ready: Optional[threading.Event] = None) -> None:
    """Run the service until interrupted (the ``repro serve`` path).

    The loop runs on a thread of its own while this (the main) thread
    waits: signal handlers run on the main thread, and one that takes a
    lock the loop may hold at that moment -- a measurement wrapper's,
    say -- would deadlock if the loop ran there.

    Args:
        config: service configuration; defaults bind 127.0.0.1:8080.
        ready: optional event set once the socket is bound -- lets
            tests and the smoke harness start a server on port 0 in a
            thread and learn the real port race-free (via the server
            object they construct themselves; this helper is the
            blocking convenience wrapper).
    """
    server = ServiceServer(config)
    loop = threading.Thread(target=server.serve_forever,
                            kwargs={"poll_interval": 0.1}, name="serve-loop")
    loop.start()
    if ready is not None:
        ready.set()
    try:
        # SIGTERM -> graceful drain: refuse new session work with
        # 503 + Retry-After, stop the loop (it finishes what it
        # admitted), fsync every journal, exit 0.  The handler hands
        # the drain to another thread, so it returns at once.
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=server.drain, name="drain", daemon=True).start())
    except ValueError:
        pass  # not the main thread (test harnesses): no signal hook
    try:
        loop.join()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        loop.join()
