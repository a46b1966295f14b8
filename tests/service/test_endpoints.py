"""Endpoint round-trips over a real socket, plus the error contract.

One module-scoped server (ephemeral port, small pool) serves every test
here; each test talks to it through its own :class:`ServiceClient`.
The differential and saturation tests get their own servers with
purpose-built configurations.
"""

import random
import threading
import time

import pytest

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.designs.random_graphs import random_constraint_graph
from repro.io import schedule_to_dict
from repro.qa.serialize import graph_to_dict
from repro.resilience.guard import RunBudget
from repro.service import ServiceClient, ServiceConfig, ServiceServer


def make_server(**overrides):
    defaults = {"port": 0, "workers": 2}
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


def occupy(pool, release):
    """Take every place *pool* admits with threads parked in ``pool.run``:
    ``workers`` jobs block on *release* and ``queue_capacity`` more wait
    for a slot.  Returns the threads; they end once *release* is set."""
    started = threading.Semaphore(0)

    def block():
        started.release()
        release.wait(30)

    def park(fn):
        thread = threading.Thread(target=pool.run, args=(fn,), daemon=True)
        thread.start()
        return thread

    threads = [park(block) for _ in range(pool.workers)]
    for _ in range(pool.workers):
        assert started.acquire(timeout=10)
    threads += [park(lambda: None) for _ in range(pool.queue_capacity)]
    deadline = time.monotonic() + 10
    while pool.waiting < pool.queue_capacity:
        assert time.monotonic() < deadline, "the waiters never queued"
        time.sleep(0.001)
    return threads


class Saturated:
    """A server whose one slot and one queue place are taken: every
    pooled request answers 503 until drained."""

    def __enter__(self):
        self.server, self.thread = make_server(workers=1, queue_capacity=1)
        self.release = threading.Event()
        self.parked = occupy(self.server.pool, self.release)
        return self

    def drain(self):
        self.release.set()
        for thread in self.parked:
            thread.join(10)

    def __exit__(self, *exc):
        self.drain()
        stop_server(self.server, self.thread)


@pytest.fixture(scope="module")
def server():
    server, thread = make_server(
        default_budget=RunBudget(max_vertices=200, max_edges=2000),
        tenant_budgets={"tiny": RunBudget(max_vertices=4)})
    yield server
    stop_server(server, thread)


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port, timeout=30) as client:
        yield client


def pipeline_graph():
    graph = ConstraintGraph()
    for name, delay in [("read", 1), ("mul", 2), ("alu", 1),
                        ("io", UNBOUNDED)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("read", "mul"), ("mul", "alu"),
                                ("read", "io")])
    graph.add_min_constraint("read", "alu", 2)
    graph.add_max_constraint("read", "alu", 9)
    return graph


class TestRoundTrips:
    def test_healthz(self, client):
        status, body = client.healthz()
        assert status == 200
        assert body["ok"] is True

    def test_schedule_matches_direct_full_mode(self, client):
        graph = pipeline_graph()
        status, body = client.schedule(graph_to_dict(graph))
        assert status == 200
        expected = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
        assert body["schedule"] == schedule_to_dict(expected)

    def test_response_graph_posts_back(self, client):
        # The graph inside a /schedule response is a request graph too,
        # unbounded edges (source and anchor out-edges) included.
        graph = pipeline_graph()
        graph.make_polar()
        status, first = client.schedule(graph_to_dict(graph))
        assert status == 200
        status, second = client.schedule(first["schedule"]["graph"])
        assert status == 200
        assert second["schedule"]["offsets"] == first["schedule"]["offsets"]

    def test_schedule_explicit_mode(self, client):
        graph = pipeline_graph()
        status, body = client.schedule(graph_to_dict(graph),
                                       mode="irredundant")
        assert status == 200
        expected = schedule_graph(graph,
                                  anchor_mode=AnchorMode.IRREDUNDANT)
        assert body["schedule"] == schedule_to_dict(expected)

    def test_schedule_with_telemetry(self, client):
        status, body = client.schedule(graph_to_dict(pipeline_graph()),
                                       trace=True)
        assert status == 200
        telemetry = body["telemetry"]
        assert telemetry["duration_ms"] >= 0
        assert telemetry["spans"] > 0
        assert "scheduler.iterations" in telemetry["counters"] \
            or telemetry["counters"]

    def test_schedule_many_verdicts(self, client):
        from repro.core import batch

        # Without numpy the arena is off and every graph takes the
        # per-graph fallback.
        solved = "scheduled" if batch._np is not None else "fallback"
        good = graph_to_dict(pipeline_graph())
        infeasible = ConstraintGraph()
        infeasible.add_operation("a", 3)
        infeasible.add_operation("b", 1)
        infeasible.add_sequencing_edge("a", "b")
        infeasible.add_max_constraint("a", "b", 1)
        status, body = client.schedule_many(
            [good, graph_to_dict(infeasible), good])
        assert status == 200
        statuses = [r["status"] for r in body["results"]]
        assert statuses[0] == solved
        assert statuses[1] == "error"
        assert body["results"][1]["error_type"] == "UnfeasibleConstraintsError"
        assert statuses[2] in (solved, "cached")
        assert body["stats"]["graphs"] == 3

    def test_lint_returns_sarif(self, client):
        status, body = client.lint(graph_to_dict(pipeline_graph()))
        assert status == 200
        sarif = body["sarif"]
        assert sarif["version"] == "2.1.0"
        assert sarif["runs"][0]["tool"]["driver"]["name"]
        assert body["diagnostics"] == len(sarif["runs"][0]["results"])

    def test_lint_select_filter(self, client):
        status, body = client.lint(graph_to_dict(pipeline_graph()),
                                   select=["RS9"])
        assert status == 200
        assert body["diagnostics"] == 0

    def test_observe_report(self, client):
        status, body = client.observe(graph_to_dict(pipeline_graph()),
                                      runs=3)
        assert status == 200
        report = body["report"]
        assert report["counters"]["scheduler.runs"] == 3
        assert body["bound_violations"] == []

    def test_chaos_campaign(self, client):
        status, body = client.chaos(seed=7, cases=4)
        assert status == 200
        assert set(body) == {"cases", "unschedulable", "faultless",
                             "detected", "masked", "silent", "divergences",
                             "summary"}
        assert body["cases"] == 4
        assert body["silent"] == 0
        assert "chaos campaign" in body["summary"]

    def test_stats_reports_workers(self, client):
        client.healthz()
        status, body = client.stats()
        assert status == 200
        assert body["workers"] == 2
        assert "batching" not in body
        assert body["endpoints"]["/healthz"]["requests"] >= 1
        assert body["latency_ms"]["p50"] is not None


class TestErrorContract:
    def test_unknown_endpoint_404(self, client):
        status, body = client.request("POST", "/frobnicate", {})
        assert status == 404
        assert body["error_type"] == "ServiceError"

    def test_wrong_method_405(self, client):
        status, body = client.request("POST", "/healthz", {})
        assert status == 405

    def test_body_not_an_object_400(self, client):
        status, body = client.request("POST", "/schedule", [1, 2, 3])
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_invalid_json_400(self, client, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("POST", "/schedule", body=b"{not json",
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    def test_non_finite_numbers_rejected(self, client, server):
        import http.client

        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        conn.request("POST", "/schedule", body=b'{"graph": NaN}',
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        assert response.status == 400
        response.read()
        conn.close()

    def test_malformed_graph_400(self, client):
        status, body = client.schedule({"vertices": "nope"})
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_missing_graph_field_400(self, client):
        status, body = client.request("POST", "/schedule", {})
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_unknown_anchor_mode_400(self, client):
        status, body = client.schedule(graph_to_dict(pipeline_graph()),
                                       mode="fancy")
        assert status == 400
        assert "anchor mode" in body["error"]

    def test_unschedulable_graph_422(self, client):
        graph = ConstraintGraph()
        graph.add_operation("a", 3)
        graph.add_operation("b", 1)
        graph.add_sequencing_edge("a", "b")
        graph.add_max_constraint("a", "b", 1)
        status, body = client.schedule(graph_to_dict(graph))
        assert status == 422
        assert body["error_type"] == "UnfeasibleConstraintsError"

    def test_default_budget_429(self, client):
        rng = random.Random(11)
        big = random_constraint_graph(rng, 300, edge_probability=0.05)
        status, body = client.schedule(graph_to_dict(big))
        assert status == 429
        assert body["error_type"] == "BudgetExceededError"
        assert "over the budget" in body["error"]

    def test_tenant_budget_overrides_default(self, client, server):
        graph_dict = graph_to_dict(pipeline_graph())
        status, _ = client.schedule(graph_dict)
        assert status == 200  # fine under the default budget
        with ServiceClient(port=server.port, tenant="tiny") as tiny:
            status, body = tiny.schedule(graph_dict)
        assert status == 429
        assert body["error_type"] == "BudgetExceededError"

    def test_observe_runs_cap(self, client):
        status, body = client.observe(graph_to_dict(pipeline_graph()),
                                      runs=10**6)
        assert status == 400

    def test_chaos_cases_cap_429(self, client):
        status, body = client.chaos(seed=0, cases=10**6)
        assert status == 429

    def test_oversized_body_413(self, server):
        import http.client

        small_server, thread = make_server(max_body_bytes=1024)
        try:
            conn = http.client.HTTPConnection("127.0.0.1",
                                              small_server.port, timeout=10)
            conn.request("POST", "/schedule", body=b"x" * 4096,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            assert response.status == 413
            response.read()
            conn.close()
        finally:
            stop_server(small_server, thread)

    def test_batching_can_no_longer_be_turned_on(self):
        ServiceConfig(batching=False)
        with pytest.raises(ValueError, match="batching was removed"):
            ServiceConfig(batching=True)


class TestShutdown:
    def test_clean_shutdown_flushes_cache(self, tmp_path):
        cache_path = tmp_path / "service_cache.jsonl"
        server, thread = make_server(cache_path=str(cache_path))
        try:
            with ServiceClient(port=server.port) as client:
                status, _ = client.schedule_many(
                    [graph_to_dict(pipeline_graph())])
                assert status == 200
        finally:
            stop_server(server, thread)
        assert cache_path.exists()
        assert cache_path.read_text().strip()
