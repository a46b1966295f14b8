"""The HTTP front's own framing, over raw sockets.

The server reads each request once and answers it with one write; these
tests pin the HTTP/1.1 rules it keeps (keep-alive, pipelining,
``Expect: 100-continue``, the stdlib's line and header caps), the JSON
error contract of its own answers, and that a connection ends whenever
a request's body was left unread or the client went quiet.
"""

import http.client
import json
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.io import graph_to_dict
from repro.service import server as server_module

from tests.service.test_endpoints import (
    make_server,
    pipeline_graph,
    stop_server,
)

SCHEDULE_BODY = json.dumps({"graph": graph_to_dict(pipeline_graph())}
                           ).encode()


@pytest.fixture(scope="module")
def server():
    server, thread = make_server()
    yield server
    stop_server(server, thread)


def connect(server):
    sock = socket.create_connection(("127.0.0.1", server.port), timeout=10)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def request(method, path, body=b"", headers=(), version="HTTP/1.1"):
    lines = [f"{method} {path} {version}", "Host: test"]
    if body:
        lines.append(f"Content-Length: {len(body)}")
    lines += list(headers)
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def read_response(reader, head=False):
    """(status, lower-cased headers, body) of one response; *head*: the
    reply to a HEAD carries no body whatever its Content-Length says."""
    status_line = reader.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    headers = {}
    while True:
        line = reader.readline()
        if line == b"\r\n":
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    body = b"" if head else reader.read(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, body


def closed(reader):
    """True when the server has closed: nothing more arrives."""
    return reader.read() == b""


def answer_and_close(server, raw):
    """Send *raw*; the JSON answer, which must end the connection."""
    with connect(server) as sock, sock.makefile("rb") as reader:
        sock.sendall(raw)
        status, headers, body = read_response(reader)
        assert headers["connection"] == "close"
        assert headers["content-type"] == "application/json"
        assert closed(reader)
    return status, json.loads(body)


class TestKeepAlive:
    def test_pipelined_requests_answered_in_order(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz")
                         + request("POST", "/schedule", SCHEDULE_BODY)
                         + request("POST", "/frobnicate", b"{}")
                         + request("GET", "/stats"))
            replies = []
            for _ in range(4):
                status, headers, body = read_response(reader)
                assert "connection" not in headers
                assert headers["date"].endswith(" GMT")
                replies.append((status, json.loads(body)))
        assert [status for status, _ in replies] == [200, 200, 404, 200]
        assert replies[0][1]["ok"] is True
        assert "schedule" in replies[1][1]
        assert replies[2][1]["error_type"] == "ServiceError"
        assert "endpoints" in replies[3][1]

    def test_http10_closes_unless_asked_to_keep_alive(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz", version="HTTP/1.0"))
            status, headers, _ = read_response(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert closed(reader)
        with connect(server) as sock, sock.makefile("rb") as reader:
            keep = request("GET", "/healthz", version="HTTP/1.0",
                           headers=["Connection: keep-alive"])
            sock.sendall(keep + keep)
            for _ in range(2):
                status, headers, _ = read_response(reader)
                assert (status, headers["connection"]) == (200, "keep-alive")

    def test_connection_close_is_honoured(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz",
                                 headers=["Connection: close"])
                         + request("GET", "/healthz"))
            status, headers, _ = read_response(reader)
            assert (status, headers["connection"]) == (200, "close")
            assert closed(reader)  # the second request is not read

    def test_expect_100_continue_before_the_body(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            head = request("POST", "/schedule", SCHEDULE_BODY,
                           headers=["Expect: 100-continue"])
            sock.sendall(head[:-len(SCHEDULE_BODY)])
            assert reader.readline() == b"HTTP/1.1 100 Continue\r\n"
            assert reader.readline() == b"\r\n"
            sock.sendall(SCHEDULE_BODY)
            status, _, body = read_response(reader)
            assert status == 200 and "schedule" in json.loads(body)

    def test_expect_100_continue_refused_over_the_limit(self):
        small, thread = make_server(max_body_bytes=1024)
        try:
            status, body = answer_and_close(small, request(
                "POST", "/schedule",
                headers=["Content-Length: 4096", "Expect: 100-continue"]))
        finally:
            stop_server(small, thread)
        assert status == 413
        assert body["error_type"] == "BudgetExceededError"

    def test_body_split_across_segments(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            raw = request("POST", "/schedule", SCHEDULE_BODY)
            cut = len(raw) - len(SCHEDULE_BODY)
            pieces = [raw[:cut - 7], raw[cut - 7:cut]]
            pieces += [SCHEDULE_BODY[i:i + 97]
                       for i in range(0, len(SCHEDULE_BODY), 97)]
            for piece in pieces:
                sock.sendall(piece)
                time.sleep(0.002)
            status, _, body = read_response(reader)
            assert status == 200 and "schedule" in json.loads(body)

    def test_one_write_per_response(self, server, monkeypatch):
        # Every reply leaves through the loop's one send per response.
        writes = []
        send = server_module._Connection.send

        def counted(conn, data):
            writes.append(bytes(data))
            return send(conn, data)

        monkeypatch.setattr(server_module._Connection, "send", counted)
        batch = [request("GET", "/healthz"),
                 request("POST", "/schedule", SCHEDULE_BODY),
                 request("POST", "/schedule", b"{not json"),
                 request("DELETE", "/sessions/none"),
                 request("PUT", "/schedule", b"{}")]
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"".join(batch))
            replies = [read_response(reader) for _ in batch]
        assert [status for status, _, _ in replies] == [200, 200, 400,
                                                       404, 405]
        assert len(writes) == len(batch)
        for data, (_, _, body) in zip(writes, replies):
            assert data.startswith(b"HTTP/1.1 ") and data.endswith(body)


class TestUnreadBodyEndsTheConnection:
    # A client still uploading when the 413 leaves gets it all the same.
    @pytest.mark.parametrize("size", [4096, 4 << 20])
    def test_413_then_the_same_client_gets_healthz(self, size):
        small, thread = make_server(max_body_bytes=1024)
        conn = http.client.HTTPConnection("127.0.0.1", small.port,
                                          timeout=10)
        try:
            conn.request("POST", "/schedule", body=b"x" * size,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 413
            assert response.getheader("Connection") == "close"
            assert json.loads(response.read())["error_type"] == \
                "BudgetExceededError"
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["ok"] is True
        finally:
            conn.close()
            stop_server(small, thread)

    def test_post_without_content_length_400(self, server):
        status, body = answer_and_close(
            server, request("POST", "/schedule") + SCHEDULE_BODY)
        assert status == 400
        assert body == {"error": "Content-Length required",
                        "error_type": "MalformedInputError"}

    def test_transfer_encoding_411(self, server):
        status, body = answer_and_close(server, request(
            "POST", "/schedule", headers=["Transfer-Encoding: chunked"])
            + b"2\r\n{}\r\n0\r\n\r\n")
        assert status == 411
        assert body["error_type"] == "MalformedInputError"

    def test_conflicting_content_length_400(self, server):
        status, body = answer_and_close(server, request(
            "POST", "/schedule",
            headers=["Content-Length: 2", "Content-Length: 3"]) + b"{}")
        assert status == 400
        assert "conflicting Content-Length" in body["error"]

    def test_repeated_equal_content_length_accepted(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("POST", "/schedule", SCHEDULE_BODY,
                                 headers=[f"Content-Length: "
                                          f"{len(SCHEDULE_BODY)}"]))
            assert read_response(reader)[0] == 200

    def test_obsolete_line_folding_400(self, server):
        status, body = answer_and_close(server, request(
            "GET", "/healthz", headers=["X-Long: one", " two"]))
        assert status == 400
        assert "folding" in body["error"]


class TestFrontErrorsFollowTheContract:
    @pytest.mark.parametrize("method", ["PUT", "PATCH", "OPTIONS"])
    def test_other_verbs_405_json(self, server, method):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request(method, "/schedule", b"{}")
                         + request("GET", "/healthz"))
            status, headers, body = read_response(reader)
            assert status == 405
            assert headers["content-type"] == "application/json"
            assert json.loads(body) == {
                "error": f"{method} not allowed on /schedule",
                "error_type": "ServiceError"}
            assert read_response(reader)[0] == 200  # still open

    def test_other_verb_unknown_path_404(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("PUT", "/nowhere"))
            status, _, body = read_response(reader)
        assert status == 404
        assert json.loads(body)["error_type"] == "ServiceError"

    def test_head_reply_carries_headers_only(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("HEAD", "/healthz")
                         + request("GET", "/healthz"))
            status, headers, _ = read_response(reader, head=True)
            assert status == 405
            assert int(headers["content-length"]) > 0
            # The next bytes are the GET's reply, not a HEAD body.
            assert read_response(reader)[0] == 200

    def test_deeply_nested_body_400(self, server):
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("POST", "/schedule", b"[" * 200_000)
                         + request("GET", "/healthz"))
            status, _, body = read_response(reader)
            assert status == 400
            assert json.loads(body)["error_type"] == "MalformedInputError"
            assert read_response(reader)[0] == 200

    def test_malformed_request_line_400(self, server):
        status, body = answer_and_close(server, b"GARBAGE\r\n\r\n")
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_bad_version_400(self, server):
        status, _ = answer_and_close(
            server, request("GET", "/healthz", version="HTTX/1.1"))
        assert status == 400

    def test_http2_505(self, server):
        status, body = answer_and_close(
            server, request("GET", "/healthz", version="HTTP/2.0"))
        assert status == 505
        assert body["error"] == "HTTP/2.0 is not supported"

    def test_request_line_at_and_over_the_cap(self, server):
        fixed = len("GET / HTTP/1.1\r\n")
        at_cap = "/" + "a" * (server_module.MAX_LINE - fixed)
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", at_cap))
            assert read_response(reader)[0] == 404
        status, body = answer_and_close(
            server, request("GET", at_cap + "a"))
        assert status == 414
        assert body["error_type"] == "BudgetExceededError"

    def test_header_line_at_and_over_the_cap(self, server):
        pad = "X-Pad: " + "a" * (server_module.MAX_LINE - len("X-Pad: \r\n"))
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz", headers=[pad]))
            assert read_response(reader)[0] == 200
        status, body = answer_and_close(
            server, request("GET", "/healthz", headers=[pad + "a"]))
        assert status == 431
        assert body["error"] == "header line too long"

    def test_header_count_at_and_over_the_cap(self, server):
        # request() adds Host, so this is exactly MAX_HEADERS lines.
        lines = [f"X-H{i}: {i}" for i in range(server_module.MAX_HEADERS - 1)]
        with connect(server) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz", headers=lines))
            assert read_response(reader)[0] == 200
        status, body = answer_and_close(
            server, request("GET", "/healthz", headers=lines + ["X-Z: z"]))
        assert status == 431
        assert body["error_type"] == "BudgetExceededError"


class TestIdleConnections:
    @pytest.fixture()
    def quick(self, monkeypatch):
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_S", 0.5)
        server, thread = make_server()
        yield server
        stop_server(server, thread)

    def test_silent_connection_closed_quietly(self, quick):
        with connect(quick) as sock, sock.makefile("rb") as reader:
            t0 = time.monotonic()
            assert closed(reader)
            waited = time.monotonic() - t0
        assert 0.4 <= waited < 5

    def test_keep_alive_then_idle_closed(self, quick):
        with connect(quick) as sock, sock.makefile("rb") as reader:
            for _ in range(3):  # each pause stays under the timeout
                sock.sendall(request("GET", "/healthz"))
                assert read_response(reader)[0] == 200
                time.sleep(0.05)
            assert closed(reader)

    def test_stalled_request_closed_without_an_answer(self, quick):
        with connect(quick) as sock, sock.makefile("rb") as reader:
            sock.sendall(b"POST /schedule HTTP/1.1\r\nContent-Le")
            assert closed(reader)
        with connect(quick) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("POST", "/schedule", SCHEDULE_BODY)[:-5])
            assert closed(reader)
        # The server still answers new connections.
        with connect(quick) as sock, sock.makefile("rb") as reader:
            sock.sendall(request("GET", "/healthz"))
            assert read_response(reader)[0] == 200


def loaded_modules(statement, names):
    """Which of the modules *names* (or their submodules) a fresh
    interpreter holds after running *statement*, as a printed list."""
    src = Path(server_module.__file__).resolve().parents[2]
    probe = (f"import sys\n{statement}\n"
             f"print(sorted({{m for m in sys.modules for n in {names!r} "
             f"if m == n or m.startswith(n + '.')}}))")
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", probe],
                            env={**os.environ, "PYTHONPATH": path},
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_service_leaves_the_simulators_out():
    assert loaded_modules("import repro.service", (
        "repro.sim", "repro.hdl", "repro.resilience.faults",
        "repro.runtime.driver")) == "[]"


def test_serve_start_up_leaves_the_client_and_the_reference_out():
    # ``repro serve`` runs neither the HTTP client nor the sequencing-
    # graph codecs, and the dict reference kernel is test-only.
    assert loaded_modules(
        "import repro.cli; from repro.service import server",
        ("http.client", "repro.seqgraph", "repro.qa",
         "repro.core.reference")) == "[]"
    assert loaded_modules("import repro.core.batch", ("repro.qa",)) == "[]"
