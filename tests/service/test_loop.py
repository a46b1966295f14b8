"""The loop's own bounds, over raw sockets.

One thread serves every connection, so these tests pin what that
design must keep: a connection costs no thread, connections past the
cap get a 503, a full ready list answers 503 and a request that waited
too long answers 504 without running, a client that does not read its
reply stalls only itself, and neither a failing ``accept`` nor a
failing handler stops the loop serving the others.
"""

import errno
import json
import random
import socket
import threading
import time

from repro.designs.random_graphs import random_constraint_graph
from repro.io import graph_to_dict
from repro.service import ServiceClient, ServiceConfig
from repro.service import server as server_module
from repro.service.app import SchedulingService

from tests.service.test_endpoints import make_server, stop_server
from tests.service.test_transport import (
    closed,
    connect,
    read_response,
    request,
)


def healthz(sock, reader):
    sock.sendall(request("GET", "/healthz"))
    return read_response(reader)[0]


class TestConnections:
    def test_past_the_cap_503_and_the_others_keep_working(self):
        server, thread = make_server()
        server.max_connections = 4
        socks = []
        try:
            for _ in range(4):
                sock = connect(server)
                socks.append((sock, sock.makefile("rb")))
                assert healthz(*socks[-1]) == 200
            with connect(server) as sock, sock.makefile("rb") as reader:
                sock.sendall(request("GET", "/healthz"))
                status, headers, body = read_response(reader)
                assert status == 503
                assert headers["retry-after"] == "1"
                assert headers["connection"] == "close"
                assert json.loads(body)["error_type"] == \
                    "ConnectionLimitError"
                assert closed(reader)
            for sock, reader in socks:
                assert healthz(sock, reader) == 200
        finally:
            for sock, reader in socks:
                reader.close()
                sock.close()
            stop_server(server, thread)

    def test_silent_sockets_take_no_threads(self):
        server, thread = make_server()
        before = threading.active_count()
        silent = []
        try:
            for _ in range(200):
                silent.append(socket.create_connection(
                    ("127.0.0.1", server.port), timeout=10))
            # Accepted in order, so this answer comes after all 200.
            with ServiceClient(port=server.port, timeout=10) as client:
                status, body = client.healthz()
            assert status == 200 and body["ok"] is True
            # A thread per connection would add 200; a stray thread of
            # an earlier test may end meanwhile.
            assert threading.active_count() <= before
        finally:
            for sock in silent:
                sock.close()
            stop_server(server, thread)

    def test_a_failing_accept_does_not_spin_the_loop(self):
        server, thread = make_server()
        listener = server.socket
        calls = []

        class OutOfDescriptors:
            def accept(self):
                calls.append(time.monotonic())
                raise OSError(errno.EMFILE, "Too many open files")

            def fileno(self):
                return listener.fileno()

        try:
            server.socket = OutOfDescriptors()
            with connect(server) as sock, sock.makefile("rb") as reader:
                time.sleep(0.5)
                # One try per pause (0.1 s), not one per loop turn.
                assert 1 <= len(calls) <= 10, len(calls)
                server.socket = listener
                assert healthz(sock, reader) == 200
        finally:
            server.socket = listener
            stop_server(server, thread)


    def test_a_failing_handler_drops_only_its_connection(self, caplog):
        server, thread = make_server()
        dispatch = server.service.dispatch

        def broken(method, path, payload, tenant=None):
            if path == "/boom":
                raise RuntimeError("boom")
            return dispatch(method, path, payload, tenant)

        server.service.dispatch = broken
        try:
            with connect(server) as sock, sock.makefile("rb") as reader:
                sock.sendall(request("POST", "/boom", b"{}"))
                assert closed(reader)
            with connect(server) as sock, sock.makefile("rb") as reader:
                assert healthz(sock, reader) == 200
        finally:
            stop_server(server, thread)
        assert "connection handler failed" in caplog.text


class TestReadyList:
    @staticmethod
    def slowed(server, first_release, later_s):
        """Make ``POST /slow`` take time on the loop: the first call
        waits for *first_release*, later ones sleep *later_s*.  Returns
        (started event, list of calls)."""
        dispatch = server.service.dispatch
        started = threading.Event()
        calls = []

        def slow(method, path, payload, tenant=None):
            if path == "/slow":
                calls.append(path)
                if len(calls) == 1:
                    started.set()
                    first_release.wait(10)
                else:
                    time.sleep(later_s)
            return dispatch(method, path, payload, tenant)

        server.service.dispatch = slow
        return started, calls

    @staticmethod
    def send_while_busy(server, started, release, bodies):
        """Post one request per path in *bodies* on its own connection
        while the loop runs the first ``/slow``; the statuses."""
        with connect(server) as first, first.makefile("rb") as reader:
            first.sendall(request("POST", "/slow", b"{}"))
            assert started.wait(10)
            socks = [connect(server) for _ in bodies]
            try:
                for sock, path in zip(socks, bodies):
                    sock.sendall(request("POST", path, b"{}"))
                time.sleep(0.1)  # all of them are in before the loop looks
                release.set()
                assert read_response(reader)[0] == 404
                readers = [sock.makefile("rb") for sock in socks]
                statuses = [read_response(r) for r in readers]
                for r in readers:
                    r.close()
            finally:
                for sock in socks:
                    sock.close()
        return statuses

    def test_past_the_bound_503_without_running(self):
        server, thread = make_server(workers=1, queue_capacity=1)
        release = threading.Event()
        started, calls = self.slowed(server, release, 0.0)
        try:
            replies = self.send_while_busy(server, started, release,
                                           ["/slow"] * 3)
        finally:
            release.set()
            stop_server(server, thread)
        statuses = sorted(status for status, _, _ in replies)
        assert statuses == [404, 404, 503]
        refused = [(headers, json.loads(body))
                   for status, headers, body in replies if status == 503]
        headers, body = refused[0]
        assert headers["retry-after"] == "1"
        assert body["error_type"] == "PoolSaturatedError"
        assert len(calls) == 3  # the first and the two admitted

    def test_a_request_that_waited_too_long_504_without_running(self):
        server, thread = make_server(request_timeout_s=0.2)
        release = threading.Event()
        started, calls = self.slowed(server, release, 0.4)
        try:
            replies = self.send_while_busy(server, started, release,
                                           ["/slow", "/slow"])
        finally:
            release.set()
            stop_server(server, thread)
        # Both waited behind the first; the one that ran second waited
        # another 0.4 s behind the other.
        assert sorted(status for status, _, _ in replies) == [404, 504]
        late = [json.loads(body) for status, _, body in replies
                if status == 504]
        assert late[0]["error_type"] == "JobTimeoutError"
        assert len(calls) == 2


class TestSlowReader:
    def test_a_client_that_does_not_read_stalls_only_itself(
            self, monkeypatch):
        graph = random_constraint_graph(random.Random(7), 1600,
                                        edge_probability=0.005)
        payload = {"graph": graph_to_dict(graph)}
        status, expected = SchedulingService(ServiceConfig()).dispatch(
            "POST", "/schedule", payload)
        assert status == 200
        expected = json.dumps(expected).encode()
        assert len(expected) > 1 << 20
        flushes = []
        flush = server_module.ServiceServer._flush
        init = server_module._Connection.__init__

        def counted(self, conn):
            flushes.append(conn)
            return flush(self, conn)

        def small_buffers(conn, sock, idle):
            # Hosts differ in how much a socket buffers; make the reply
            # larger than the server's send buffer on every one.
            init(conn, sock, idle)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 16)

        monkeypatch.setattr(server_module.ServiceServer, "_flush", counted)
        monkeypatch.setattr(server_module._Connection, "__init__",
                            small_buffers)
        server, thread = make_server()
        try:
            slow = socket.socket()
            slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            slow.settimeout(30)
            slow.connect(("127.0.0.1", server.port))
            with slow, connect(server) as other, \
                    other.makefile("rb") as other_reader:
                slow.sendall(request("POST", "/schedule",
                                     json.dumps(payload).encode()))
                assert healthz(other, other_reader) == 200
                time.sleep(1.0)  # the slow client still reads nothing
                assert healthz(other, other_reader) == 200
                with slow.makefile("rb") as reader:
                    status, _, body = read_response(reader)
        finally:
            stop_server(server, thread)
        assert status == 200
        assert body == expected
        assert flushes  # the reply waited for the socket to drain
