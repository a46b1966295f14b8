"""Service/runtime bugfix pins: monotonic uptime and 503 retry.

* ``ServiceStats`` uptime is derived from ``time.monotonic()``: an NTP
  step or DST jump in the wall clock must never make it leap or go
  negative (the regression the old ``time.time()`` arithmetic had).
* Its latency reservoir holds the most recent 2048 samples across all
  endpoints.
* ``ServiceClient(retries=N)`` opts in to bounded retry on 503: the
  client honors the server's ``Retry-After`` hint (capped), falls back
  to doubling backoff without one, and gives up after N re-sends.
"""

import threading
import time

import pytest

from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.qa.serialize import graph_to_dict
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.app import ServiceStats


def make_server(**overrides):
    defaults = {"port": 0, "workers": 1, "batch_window_ms": 1.0}
    config = ServiceConfig(**{**defaults, **overrides})
    server = ServiceServer(config)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def tiny_graph():
    graph = ConstraintGraph()
    graph.add_operation("io", UNBOUNDED)
    graph.add_operation("out", 1)
    graph.add_sequencing_edge("io", "out")
    graph.make_polar()
    return graph


class Saturated:
    """A server whose single worker is blocked and whose one queue slot
    is filled: every pooled request answers 503 until released."""

    def __enter__(self):
        self.server, self.thread = make_server(workers=1, queue_capacity=1)
        self.release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            self.release.wait(30)

        self.blocker = self.server.pool.submit(block)
        assert started.wait(10)
        self.filler = self.server.pool.submit(lambda: None)
        return self

    def drain(self):
        self.release.set()
        self.blocker.wait(10)
        self.filler.wait(10)

    def __exit__(self, *exc):
        self.drain()
        stop_server(self.server, self.thread)


class TestUptimeMonotonic:
    def test_wall_clock_step_cannot_skew_uptime(self, monkeypatch):
        stats = ServiceStats()
        # An NTP step rewinds the wall clock by an hour; uptime must
        # not go negative (it is monotonic-derived, not wall-derived).
        real = time.time()
        monkeypatch.setattr(time, "time", lambda: real - 3600.0)
        snapshot = stats.snapshot()
        assert 0 <= snapshot["uptime_s"] < 60

    def test_uptime_is_non_decreasing_over_the_wire(self):
        server, thread = make_server()
        try:
            with ServiceClient(port=server.port, timeout=10) as client:
                _, first = client.stats()
                _, second = client.stats()
            assert 0 <= first["uptime_s"] <= second["uptime_s"]
        finally:
            stop_server(server, thread)


class TestLatencyReservoir:
    def test_full_reservoir_keeps_the_most_recent_samples(self):
        # The slot to overwrite is picked by one global sample counter:
        # a per-endpoint count would keep rewriting the same low slots
        # of a mixed load and let old samples elsewhere survive.
        stats = ServiceStats()
        for _ in range(2048):
            stats.record("/healthz", 200, 1.0)
        for _ in range(1500):
            stats.record("/healthz", 200, 0.001)
            stats.record("/schedule", 200, 0.001)
        latency = stats.snapshot()["latency_ms"]
        assert latency == {"p50": 1.0, "p99": 1.0}


class TestRetryDelays:
    def test_retry_after_hint_is_honored_and_capped(self):
        client = ServiceClient(retry_cap_s=2.0)
        assert client._retry_delay("1", 0) == 1.0
        assert client._retry_delay("0.25", 3) == 0.25
        assert client._retry_delay("10", 0) == 2.0  # capped

    def test_backoff_fallback_without_a_usable_hint(self):
        client = ServiceClient(retry_cap_s=2.0)
        assert client._retry_delay(None, 0) == 0.05
        assert client._retry_delay(None, 2) == 0.2
        assert client._retry_delay("soon", 1) == 0.1
        assert client._retry_delay("-3", 0) == 0.05
        assert client._retry_delay(None, 30) == 2.0  # capped


class TestRetryAgainstSaturatedPool:
    def test_default_client_surfaces_503_immediately(self):
        with Saturated() as sat:
            with ServiceClient(port=sat.server.port, timeout=10) as client:
                client._sleep = pytest.fail  # must never sleep
                status, body = client.schedule(graph_to_dict(tiny_graph()))
                assert status == 503
                assert body["error_type"] == "PoolSaturatedError"
                assert client.retries_used == 0

    def test_bounded_retry_gives_up_with_the_final_503(self):
        with Saturated() as sat:
            with ServiceClient(port=sat.server.port, timeout=10,
                               retries=2) as client:
                sleeps = []
                client._sleep = sleeps.append
                status, body = client.schedule(graph_to_dict(tiny_graph()))
                assert status == 503
                assert client.retries_used == 2
                # The server hints Retry-After: 1 on every 503.
                assert sleeps == [1.0, 1.0]

    def test_retry_succeeds_once_the_pool_drains(self):
        with Saturated() as sat:
            with ServiceClient(port=sat.server.port, timeout=10,
                               retries=5, retry_cap_s=0.02) as client:
                sleeps = []

                def sleep_then_drain(seconds):
                    sleeps.append(seconds)
                    sat.drain()
                    time.sleep(0.05)  # let the worker pick up the slack

                client._sleep = sleep_then_drain
                status, body = client.schedule(graph_to_dict(tiny_graph()))
                assert status == 200
                assert "schedule" in body
                assert client.retries_used >= 1
                assert all(s <= 0.02 for s in sleeps)  # cap beats the hint
