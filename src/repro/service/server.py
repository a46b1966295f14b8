"""The HTTP front of the scheduling service (stdlib only).

``ServiceServer`` is a ``socketserver.ThreadingTCPServer`` with one
daemon thread per connection, and each thread runs its own HTTP/1.1
keep-alive loop (:class:`_Connection`): it reads a request once -- the
request line and the header lines with ``rfile.readline`` into one dict
keyed by lower-cased name, then exactly ``Content-Length`` body bytes --
and answers it with one write of the status line, the headers and the
JSON body.  Nothing is logged per request.

Every verb reaches :meth:`SchedulingService.dispatch`, so routing's
404/405 and the JSON error contract cover all of them.  GET requests
(``/healthz``, ``/stats``) run outside the admission gate -- they must
answer even when every slot is taken, or the health check would report
the overload it is supposed to survive.  Every other verb runs its
dispatch on the connection thread once the gate
(:class:`~repro.service.pool.WorkerPool`) grants one of
``config.workers`` slots, so at most ``config.workers`` requests are
worked on at once no matter how many sockets are open.

The front's own answers follow the same contract (the table in
:mod:`repro.service.app`): a body that is not JSON -> 400; a request it
cannot frame -> 400, 411, 414, 431 or 505; a body over
``max_body_bytes`` -> 413, judged from Content-Length before reading; a
full or drained gate -> 503 with ``Retry-After: 1``; no slot within
``request_timeout_s`` -> 504.  An answer sent before the body was read
closes the connection, because the unread bytes would otherwise be
parsed as the next request; so does :data:`IDLE_TIMEOUT_S` of silence.

Startup logs the *actual* worker count and queue bound -- the
configuration is never silently capped, per the scaling rules.
"""

from __future__ import annotations

import json
import logging
import signal
import socket
import socketserver
import threading
import time
from email.utils import formatdate
from http import HTTPStatus
from typing import Any, BinaryIO, Dict, Optional, Tuple

from repro.sanitize import make_lock
from repro.service.app import SchedulingService, ServiceConfig, ServiceError
from repro.service.pool import (
    JobTimeoutError,
    PoolSaturatedError,
    PoolShutdownError,
    WorkerPool,
)

LOGGER = logging.getLogger("repro.service")

#: The stdlib's limits (``http.server``): bytes in the request line or
#: in one header line, and header lines per request.
MAX_LINE = 65536
MAX_HEADERS = 100

#: Seconds a connection may stay silent -- between requests or inside
#: one -- before the server closes it.  A keep-alive client that goes
#: quiet would otherwise hold a thread and a descriptor forever.
IDLE_TIMEOUT_S = 30.0

#: Seconds the server keeps reading (and dropping) what a client still
#: sends after an answer that ends the connection early.
LINGER_S = 1.0

#: Status line plus the one content type, per status code.
_STATUS_LINES = {
    status.value: b"HTTP/1.1 %d %s\r\nContent-Type: application/json\r\n"
                  % (status.value, status.phrase.encode("ascii"))
    for status in HTTPStatus}

#: ``error_type`` of the front's own answers; MalformedInputError
#: for the others.
_FRAMING_TYPES = {413: "BudgetExceededError", 414: "BudgetExceededError",
                  431: "BudgetExceededError", 505: "ServiceError"}


def _framing_error(status: int, message: str) -> ServiceError:
    return ServiceError(status, message,
                        _FRAMING_TYPES.get(status, "MalformedInputError"))


def _reject_nonfinite(token: str) -> float:
    raise ValueError(f"non-finite number {token}")


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threading TCP server that owns the service core and admission gate."""

    daemon_threads = True
    allow_reuse_address = True
    # listen() backlog.  socketserver's default of 5 drops the SYNs of
    # a burst of connecting clients, and each retries a second later.
    request_queue_size = 128

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.service = SchedulingService(self.config)
        self.pool = WorkerPool(workers=self.config.workers,
                               queue_capacity=self.config.queue_capacity)
        # (monotonic expiry, "Date: ...\r\n"), swapped as one tuple.
        self._date: Tuple[float, bytes] = (float("-inf"), b"")
        super().__init__((self.config.host, self.config.port), _Connection)
        # Port 0 binds an ephemeral port; expose what we actually got.
        self.port = self.server_address[1]
        LOGGER.info(
            "scheduling service on %s:%d -- %d workers, queue bound %d",
            self.config.host, self.port, self.pool.workers,
            self.pool.queue_capacity)
        if self.config.journal_dir is not None:
            LOGGER.info(
                "session journals in %s -- %d session(s) recovered",
                self.config.journal_dir, self.service.recovered_sessions)
        # io_ok: shutdown closes sockets and waits for admitted
        # requests while held -- teardown-only, declared in the
        # sanitizer policy.
        self._down = make_lock("server.down", io_ok=True)

    def date_header(self) -> bytes:
        """The ``Date`` header line, rebuilt at most once a second."""
        now = time.monotonic()
        expires, line = self._date
        if now >= expires:
            line = b"Date: %s\r\n" % formatdate(usegmt=True).encode("ascii")
            self._date = (now + 1.0, line)
        return line

    def shutdown(self) -> None:
        # Guard the teardown: the SIGTERM drain thread and serve()'s
        # finally block may both get here.
        with self._down:
            super().shutdown()
            self.pool.shutdown(wait=True)
            self.service.close()

    def drain(self) -> None:
        """Graceful drain (the SIGTERM path): stop session admission
        (503 + Retry-After), then stop accepting connections, finish
        admitted requests (later ones on open connections answer 503),
        and fsync every journal -- in that order, so a kill arriving
        mid-drain loses nothing acknowledged.

        Must not run on the ``serve_forever`` thread (``shutdown``
        would deadlock there); the signal handler spawns a thread.
        """
        self.service.draining.set()
        self.shutdown()


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: read a request, answer it, repeat."""

    # A pipelined reply must not wait for the peer's delayed ACK.
    disable_nagle_algorithm = True
    server: ServiceServer  # narrowed for the attribute accesses below

    def setup(self) -> None:
        super().setup()
        # Read per connection, so a test can patch the module constant.
        self.connection.settimeout(IDLE_TIMEOUT_S)

    def handle(self) -> None:
        try:
            while self._exchange():
                pass
        except OSError:  # silent past the timeout, reset or gone
            pass

    def _exchange(self) -> bool:
        """Read one request and answer it; whether to read another."""
        rfile = self.rfile
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):  # one stray CRLF may precede a request
            line = rfile.readline(MAX_LINE + 1)
        if not line:
            return False  # the client closed
        http11 = True
        try:
            if len(line) > MAX_LINE:
                raise _framing_error(414, "request line too long")
            words = line.split()
            if len(words) != 3:
                raise _framing_error(
                    400, f"bad request line {line[:80].decode('latin-1')!r}")
            method = words[0].decode("latin-1")
            http11 = _keeps_alive(words[2])
            headers = _read_headers(rfile)
            if headers is None:
                return False  # the client left mid-request
            body = self._read_body(method, headers, http11)
        except ServiceError as error:
            self._respond(error.status, {"error": str(error),
                                         "error_type": error.error_type},
                          keep_alive=False, http11=http11)
            self._linger()
            return False
        if body is None:
            return False  # the client left mid-body
        keep_alive = http11
        connection = headers.get("connection")
        if connection is not None:
            tokens = {token.strip() for token in connection.lower().split(",")}
            if "close" in tokens:
                keep_alive = False
            elif "keep-alive" in tokens:
                keep_alive = True
        path = words[1].split(b"?", 1)[0].decode("latin-1")
        status, reply = self._dispatch(method, path, body,
                                       headers.get("x-tenant"))
        self._respond(status, reply, keep_alive=keep_alive, http11=http11,
                      head=method == "HEAD")
        return keep_alive

    def _linger(self) -> None:
        """Drop what the client still sends, for at most :data:`LINGER_S`.

        Closing a socket with unread bytes resets the connection, and
        the reset can destroy the answer before the client has read it
        -- a client still uploading an oversized body would see a
        broken pipe instead of the 413.
        """
        sock = self.connection
        sock.shutdown(socket.SHUT_WR)
        sock.settimeout(LINGER_S)
        give_up = time.monotonic() + LINGER_S
        while sock.recv(1 << 16) and time.monotonic() < give_up:
            pass

    def _read_body(self, method: str, headers: Dict[str, str],
                   http11: bool) -> Optional[bytes]:
        """The request's body bytes (None: the client left first).

        Raises the framing errors: a ``Transfer-Encoding`` body, a POST
        without ``Content-Length``, a malformed one, or one over
        ``max_body_bytes``.
        """
        if "transfer-encoding" in headers:
            raise _framing_error(411, "Content-Length required "
                                      "(Transfer-Encoding is not accepted)")
        declared = headers.get("content-length")
        if declared is None:
            if method == "POST":
                raise _framing_error(400, "Content-Length required")
            return b""
        if not (declared.isascii() and declared.isdigit()):
            raise _framing_error(400, f"bad Content-Length {declared!r}")
        length = int(declared) if len(declared) < 20 else 1 << 64
        limit = self.server.config.max_body_bytes
        if length > limit:
            raise _framing_error(
                413, f"request body of {length} bytes exceeds the "
                     f"{limit} byte limit")
        if (length and http11
                and headers.get("expect", "").lower() == "100-continue"):
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.rfile.read(length)
        return body if len(body) == length else None

    def _dispatch(self, method: str, path: str, body: bytes,
                  tenant: Optional[str]) -> Tuple[int, Any]:
        service = self.server.service
        if method == "GET":
            # Health and stats skip the gate: they must answer while
            # every slot is taken.
            return service.dispatch("GET", path, None)
        payload: Any = None
        if method == "POST":
            try:
                payload = json.loads(body.decode("utf-8"),
                                     parse_constant=_reject_nonfinite)
            except (ValueError, RecursionError) as error:
                return 400, {"error": f"request body is not valid JSON: "
                                      f"{error}",
                             "error_type": "MalformedInputError"}
        # Bodies of other verbs are read but ignored (no endpoint takes
        # one); every non-GET verb goes through the gate.
        try:
            status, reply = self.server.pool.run(
                lambda: service.dispatch(method, path, payload, tenant),
                timeout=self.server.config.request_timeout_s)
        except (PoolSaturatedError, PoolShutdownError) as error:
            return 503, {"error": str(error),
                         "error_type": type(error).__name__}
        except JobTimeoutError as error:
            return 504, {"error": str(error),
                         "error_type": "JobTimeoutError"}
        return status, reply

    def _respond(self, status: int, body: Any, *, keep_alive: bool,
                 http11: bool, head: bool = False) -> None:
        """Status line, headers and body in one write."""
        payload = json.dumps(body).encode("utf-8")
        parts = [_STATUS_LINES[status],
                 b"Content-Length: %d\r\n" % len(payload),
                 self.server.date_header()]
        if status == 503:
            # Every 503 -- saturation, drain, journal outage -- gives
            # the client's bounded retry a cadence.
            parts.append(b"Retry-After: 1\r\n")
        if not keep_alive:
            parts.append(b"Connection: close\r\n")
        elif not http11:
            parts.append(b"Connection: keep-alive\r\n")
        parts.append(b"\r\n")
        if not head:
            parts.append(payload)
        self.wfile.write(b"".join(parts))


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


def _read_headers(rfile: BinaryIO) -> Optional[Dict[str, str]]:
    """Header lines up to the blank line, as one dict keyed by the
    lower-cased name (repeats joined with ``", "``); None if the client
    left first.  Raises the framing errors."""
    headers: Dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        line = rfile.readline(MAX_LINE + 1)
        if line in (b"\r\n", b"\n"):
            return headers
        if not line:
            return None
        if len(line) > MAX_LINE:
            raise _framing_error(431, "header line too long")
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
    raise _framing_error(431, f"more than {MAX_HEADERS} header lines")


def serve(config: Optional[ServiceConfig] = None, *,
          ready: Optional[threading.Event] = None) -> None:
    """Run the service until interrupted (the ``repro serve`` path).

    Args:
        config: service configuration; defaults bind 127.0.0.1:8080.
        ready: optional event set once the socket is bound -- lets
            tests and the smoke harness start a server on port 0 in a
            thread and learn the real port race-free (via the server
            object they construct themselves; this helper is the
            blocking convenience wrapper).
    """
    server = ServiceServer(config)
    if ready is not None:
        ready.set()
    try:
        # SIGTERM -> graceful drain: refuse new session work with
        # 503 + Retry-After, stop the acceptor, finish admitted requests,
        # fsync every journal, exit 0.  The handler must hand the
        # actual shutdown to another thread -- calling it from the
        # serve_forever thread would deadlock.
        signal.signal(
            signal.SIGTERM,
            lambda signum, frame: threading.Thread(
                target=server.drain, name="drain", daemon=True).start())
    except ValueError:
        pass  # not the main thread (test harnesses): no signal hook
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
