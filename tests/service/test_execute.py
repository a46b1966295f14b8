"""The ``/execute`` endpoint over a real socket: round-trips and the
error contract (400 malformed, 422 semantic, 429 over-cap)."""

import threading

import pytest

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.qa.serialize import graph_to_dict
from repro.runtime import execute_stream
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.app import MAX_EXECUTE_EVENTS


def make_server(**overrides):
    defaults = {"port": 0, "workers": 2}
    config = ServiceConfig(**{**defaults, **overrides})
    server = ServiceServer(config)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.05}, daemon=True)
    thread.start()
    return server, thread


@pytest.fixture(scope="module")
def server():
    server, thread = make_server()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port, timeout=30) as client:
        yield client


def chain_graph():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io", UNBOUNDED), ("mul", 2),
                        ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io"), ("io", "mul"),
                                ("mul", "store")])
    graph.make_polar()
    return graph


def chain_schedule():
    return schedule_graph(chain_graph(), anchor_mode=AnchorMode.FULL)


def io_start():
    return chain_schedule().start_times({})["io"]


class TestExecuteRoundTrips:
    def test_complete_stream_matches_local_executor(self, client):
        cycle = io_start() + 3
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [["io", cycle]])
        assert status == 200
        expected = execute_stream(chain_schedule(), [("io", cycle)])
        assert body["log"] == expected.to_dict()
        assert body["log"]["complete"] is True
        assert body["log"]["reschedules"] == 0  # issuing never re-solves

    def test_events_as_objects(self, client):
        cycle = io_start() + 1
        status, body = client.execute(
            graph_to_dict(chain_graph()),
            [{"anchor": "io", "cycle": cycle}])
        assert status == 200
        assert body["log"]["done"]["io"] == cycle

    def test_empty_stream_reports_stall(self, client):
        status, body = client.execute(graph_to_dict(chain_graph()), [])
        assert status == 200
        assert body["log"]["complete"] is False
        assert body["log"]["stalled"] == ["io"]

    def test_fallback_watchdog_degrades_with_200(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()),
            [["io", io_start() + 9]],
            watchdog={"bounds": {"io": 2}, "policy": "fallback"})
        assert status == 200
        assert body["log"]["degraded"] is True

    def test_retry_watchdog_records_rearms(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()),
            [["io", io_start() + 5]],
            watchdog={"bounds": {"io": 2}, "policy": "retry",
                      "max_rearms": 2, "backoff": 2})
        assert status == 200
        assert body["log"]["rearms"] == {"io": 1}
        assert body["log"]["complete"] is True

    def test_source_done_shifts_the_run(self, client):
        cycle = io_start() + 2
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [["io", cycle + 7]], source_done=7)
        assert status == 200
        assert body["log"]["done"]["io"] == cycle + 7


class TestExecuteErrorContract:
    def test_abort_timeout_is_422(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"io": 2}})
        assert status == 422
        assert body["error_type"] == "WatchdogTimeoutError"

    def test_events_must_be_a_list(self, client):
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      "io@3")
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    @pytest.mark.parametrize("event", [
        ["io"], ["io", 3, 4], [3, "io"], ["io", True], ["io", 1.5], 7,
        {"anchor": "io"}, {"anchor": 3, "cycle": 3},
    ])
    def test_malformed_events_are_400(self, client, event):
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [event])
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_unknown_anchor_is_400(self, client):
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [["ghost", 3]])
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_out_of_order_stream_is_400(self, client):
        # Semantic stream errors surface through the executor's
        # MalformedInputError, same contract as shape errors.
        status, body = client.execute(
            graph_to_dict(chain_graph()),
            [["io", io_start() + 5], ["io", 0]])
        assert status == 400
        assert body["error_type"] == "MalformedInputError"

    def test_event_cap_is_429(self, client):
        events = [["io", 0]] * (MAX_EXECUTE_EVENTS + 1)
        status, body = client.execute(graph_to_dict(chain_graph()), events)
        assert status == 429
        assert body["error_type"] == "BudgetExceededError"

    def test_unknown_watchdog_field_is_400(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"io": 2}, "frobnicate": 1})
        assert status == 400
        assert "frobnicate" in body["error"]

    def test_unknown_watchdog_policy_is_400(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"io": 2}, "policy": "shrug"})
        assert status == 400

    def test_watchdog_bound_for_non_anchor_is_422(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"load": 2}, "policy": "fallback"})
        assert status == 422
        assert body["error_type"] == "GraphStructureError"

    def test_retry_allowance_cap_is_422(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"io": 2 ** 53}, "policy": "retry",
                      "max_rearms": 2, "backoff": 2})
        assert status == 422
        assert body["error_type"] == "GraphStructureError"
        assert "2**53" in body["error"]

    def test_negative_watchdog_bound_is_422(self, client):
        status, body = client.execute(
            graph_to_dict(chain_graph()), [],
            watchdog={"bounds": {"io": -1}})
        assert status == 422
        assert body["error_type"] == "GraphStructureError"

    @pytest.mark.parametrize("value", [-1, True, "soon"])
    def test_bad_source_done_is_400(self, client, value):
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [], source_done=value)
        assert status == 400

    def test_unknown_mode_is_400(self, client):
        status, body = client.execute(graph_to_dict(chain_graph()),
                                      [], mode="bogus")
        assert status == 400

    def test_missing_graph_is_400(self, client):
        status, body = client.request("POST", "/execute", {"events": []})
        assert status == 400
