"""Durable session endpoints: lifecycle, idempotent replay, budgets,
eviction + lazy recovery, crash recovery across service instances,
drain admission control and the saturated-pool retry path.

Socket-level tests use a real server; crash-recovery tests drive two
:class:`SchedulingService` instances over one journal directory at the
dispatch level (the same code path, without pretending a SIGKILL --
the CI smoke job covers the real process kill).
"""

import threading
import time

import pytest

from repro.core.anchors import AnchorMode
from repro.core.delay import UNBOUNDED
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.qa.serialize import graph_to_dict
from repro.service import ServiceClient, ServiceConfig, ServiceServer
from repro.service.app import MAX_EXECUTE_EVENTS, SchedulingService

from tests.service.test_endpoints import Saturated


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


def chain_graph():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io", UNBOUNDED), ("mul", 2),
                        ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io"), ("io", "mul"),
                                ("mul", "store")])
    graph.make_polar()
    return graph


def two_anchor_graph():
    graph = ConstraintGraph()
    for name, delay in [("load", 1), ("io1", UNBOUNDED), ("mul", 2),
                        ("io2", UNBOUNDED), ("store", 1)]:
        graph.add_operation(name, delay)
    graph.add_sequencing_edges([("load", "io1"), ("io1", "mul"),
                                ("mul", "io2"), ("io2", "store")])
    graph.make_polar()
    return graph


def io_start():
    schedule = schedule_graph(chain_graph(), anchor_mode=AnchorMode.FULL)
    return schedule.start_times({})["io"]


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("journals")
    server, thread = make_server(journal_dir=str(journal_dir),
                                 journal_fsync="never")
    yield server
    stop_server(server, thread)


@pytest.fixture()
def client(server):
    with ServiceClient(port=server.port, timeout=30) as client:
        yield client


class TestSessionLifecycle:
    def test_create_stream_get_delete_round_trip(self, client):
        status, body = client.create_session(graph_to_dict(chain_graph()))
        assert status == 200
        assert body["journaled"] is True
        assert body["state"] == "active"
        assert "v0" in body["issues"]  # immediately issuable prefix
        sid = body["session"]

        cycle = io_start() + 3
        status, ack = client.post_events(sid, 1, [["io", cycle]])
        assert status == 200
        assert ack["seq"] == 1 and ack["session"] == sid
        assert ack["done"]["io"] == cycle
        assert {"mul", "store"} <= set(ack["issues"])  # the batch delta
        assert ack["complete"] and ack["state"] == "complete"

        status, got = client.get_session(sid)
        assert status == 200
        assert got["last_seq"] == 1 and got["events_total"] == 1
        assert got["log"]["complete"] is True

        status, sealed = client.delete_session(sid)
        assert status == 200
        assert sealed["sealed"] is True and sealed["last_seq"] == 1

        # The sealed journal is a tombstone: 410, not 404 -- which is
        # what makes DELETE safe to retry.
        status, gone = client.get_session(sid)
        assert status == 410
        assert gone["error_type"] == "SessionSealedError"
        status, _ = client.post_events(sid, 2, [["io", cycle + 1]])
        assert status == 410

    def test_incremental_stream_matches_one_shot_execute(self, client):
        graph = graph_to_dict(two_anchor_graph())
        events = [["io1", 9], ["io2", 21]]
        _, oneshot = client.execute(graph, events)

        _, body = client.create_session(graph)
        sid = body["session"]
        for seq, event in enumerate(events, start=1):
            status, _ = client.post_events(sid, seq, [event])
            assert status == 200
        status, sealed = client.delete_session(sid)
        assert status == 200
        assert sealed["log"] == oneshot["log"]

    def test_unknown_session_404(self, client):
        status, body = client.get_session("deadbeef")
        assert status == 404
        assert body["error_type"] == "SessionNotFoundError"

    def test_hostile_session_path_404(self, client):
        status, _ = client.request("GET", "/sessions/..%2Fescape")
        assert status == 404

    def test_wrong_method_405(self, client):
        status, _ = client.request("GET", "/sessions")
        assert status == 405


class TestIdempotentReplay:
    def test_reposted_seq_returns_the_original_ack(self, client):
        _, body = client.create_session(graph_to_dict(chain_graph()))
        sid = body["session"]
        cycle = io_start() + 3
        _, first = client.post_events(sid, 1, [["io", cycle]])
        status, again = client.post_events(sid, 1, [["io", cycle]])
        assert status == 200
        assert again.pop("replayed") is True
        assert again == first  # byte-identical acknowledgement

    @pytest.mark.parametrize("recovered", [False, True])
    def test_reused_seq_with_another_batch_409(self, tmp_path, recovered):
        config = ServiceConfig(journal_dir=str(tmp_path),
                               journal_fsync="never")
        service = SchedulingService(config)
        _, body = service.dispatch(
            "POST", "/sessions", {"graph": graph_to_dict(two_anchor_graph())})
        path = f"/sessions/{body['session']}/events"
        _, ack = service.dispatch("POST", path,
                                  {"seq": 1, "events": [["io1", 9]]})
        if recovered:  # a restart: the table is rebuilt from the journal
            service = SchedulingService(config)
        status, conflict = service.dispatch(
            "POST", path, {"seq": 1, "events": [["io2", 21]]})
        assert status == 409
        assert conflict["error_type"] == "SequenceConflictError"
        status, again = service.dispatch("POST", path,
                                         {"seq": 1, "events": [["io1", 9]]})
        assert status == 200
        assert again.pop("replayed") is True
        assert again == ack

    def test_sequence_gap_409(self, client):
        _, body = client.create_session(graph_to_dict(chain_graph()))
        sid = body["session"]
        status, gap = client.post_events(sid, 3, [["io", io_start() + 1]])
        assert status == 409
        assert gap["error_type"] == "SequenceGapError"

    def test_seq_and_batch_shape_400(self, client):
        _, body = client.create_session(graph_to_dict(chain_graph()))
        sid = body["session"]
        for bad_seq in (0, -1, True, "1", None):
            status, err = client.request(
                "POST", f"/sessions/{sid}/events",
                {"seq": bad_seq, "events": [["io", 1]]})
            assert status == 400, bad_seq
        status, err = client.post_events(sid, 1, [])
        assert status == 400  # an empty batch has no ack to replay
        status, err = client.post_events(sid, 1, [["ghost", 5]])
        assert status == 400  # unknown anchor: semantic 400
        assert err["error_type"] == "MalformedInputError"
        # The rejected batches journaled nothing: seq 1 is still free.
        status, _ = client.post_events(sid, 1, [["io", io_start() + 1]])
        assert status == 200


class TestWatchdogAbort:
    def make_aborting_session(self, client):
        _, body = client.create_session(
            graph_to_dict(chain_graph()),
            watchdog={"bounds": {"io": 2}, "policy": "abort"})
        return body["session"]

    def test_abort_is_422_with_the_batch_delta(self, client):
        sid = self.make_aborting_session(client)
        status, body = client.post_events(sid, 1, [["io", io_start() + 50]])
        assert status == 422
        assert body["error_type"] == "WatchdogTimeoutError"
        assert body["state"] == "aborted"
        assert body["seq"] == 1  # the full outcome, not a bare error

    def test_aborted_session_refuses_new_events_but_replays(self, client):
        sid = self.make_aborting_session(client)
        _, first = client.post_events(sid, 1, [["io", io_start() + 50]])
        status, body = client.post_events(sid, 2, [["io", io_start() + 60]])
        assert status == 409
        assert body["error_type"] == "SessionAbortedError"
        # ... but the aborting batch itself stays idempotent: the
        # original 422 acknowledgement comes back, marked replayed.
        status, again = client.post_events(sid, 1, [["io", io_start() + 50]])
        assert status == 422
        assert again.pop("replayed") is True
        assert again == first


class TestEventBudgets:
    def test_per_batch_cap_is_429(self, client):
        _, body = client.create_session(graph_to_dict(chain_graph()))
        sid = body["session"]
        start = io_start()
        oversized = [["io", start + i] for i in range(MAX_EXECUTE_EVENTS + 1)]
        status, err = client.post_events(sid, 1, oversized)
        assert status == 429
        assert err["error_type"] == "BudgetExceededError"

    def test_cumulative_budget_is_boundary_pinned(self, tmp_path):
        # Exactly the budget is acknowledged; one event past it is 429.
        service = SchedulingService(ServiceConfig(max_session_events=3))
        graph = graph_to_dict(chain_graph())
        status, body = service.dispatch("POST", "/sessions",
                                        {"graph": graph})
        assert status == 200
        sid = body["session"]
        start = io_start()
        status, _ = service.dispatch(
            "POST", f"/sessions/{sid}/events",
            {"seq": 1, "events": [["io", start + 1], ["io", start + 2],
                                  ["io", start + 3]]})
        assert status == 200  # exactly at the cap: admitted
        status, err = service.dispatch(
            "POST", f"/sessions/{sid}/events",
            {"seq": 2, "events": [["io", start + 4]]})
        assert status == 429
        assert err["error_type"] == "BudgetExceededError"
        # The refusal acknowledged nothing: seq 2 is still the next.
        status, got = service.dispatch("GET", f"/sessions/{sid}", None)
        assert got["last_seq"] == 1 and got["events_total"] == 3


class TestEvictionAndRecovery:
    def test_evicted_session_lazily_recovers_bit_identical(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path), session_cap=1,
                               journal_fsync="never")
        service = SchedulingService(config)
        graph = graph_to_dict(two_anchor_graph())
        _, a = service.dispatch("POST", "/sessions", {"graph": graph})
        _, ack = service.dispatch(
            "POST", f"/sessions/{a['session']}/events",
            {"seq": 1, "events": [["io1", 9]]})
        _, before = service.dispatch("GET", f"/sessions/{a['session']}",
                                     None)
        # A second session evicts the first (cap=1)...
        _, b = service.dispatch("POST", "/sessions", {"graph": graph})
        assert service.sessions.ids() == [b["session"]]
        assert service.sessions.evictions >= 1
        # ... but touching the first replays its journal transparently.
        status, after = service.dispatch("GET", f"/sessions/{a['session']}",
                                         None)
        assert status == 200
        assert after == before  # bit-identical state after recovery
        assert service.sessions.recoveries >= 1
        # The idempotency table survived eviction too.
        status, again = service.dispatch(
            "POST", f"/sessions/{a['session']}/events",
            {"seq": 1, "events": [["io1", 9]]})
        assert status == 200
        assert again.pop("replayed") is True
        assert again == ack

    def test_in_memory_eviction_is_loss(self):
        service = SchedulingService(ServiceConfig(session_cap=1))
        graph = graph_to_dict(chain_graph())
        _, a = service.dispatch("POST", "/sessions", {"graph": graph})
        assert a["journaled"] is False
        _, b = service.dispatch("POST", "/sessions", {"graph": graph})
        status, err = service.dispatch("GET", f"/sessions/{a['session']}",
                                       None)
        assert status == 404
        assert err["error_type"] == "SessionNotFoundError"

    def test_ttl_eviction_stays_recoverable(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path),
                               session_ttl_s=0.0, journal_fsync="never")
        service = SchedulingService(config)
        graph = graph_to_dict(chain_graph())
        _, a = service.dispatch("POST", "/sessions", {"graph": graph})
        time.sleep(0.01)
        service.sessions.evict_expired()
        assert len(service.sessions) == 0
        status, got = service.dispatch("GET", f"/sessions/{a['session']}",
                                       None)
        assert status == 200


class TestCrashRecovery:
    """A second service instance over the same journal directory is the
    restarted process: everything acknowledged must come back."""

    def test_restart_resumes_where_the_ack_prefix_ended(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path),
                               journal_fsync="never")
        first = SchedulingService(config)
        graph = graph_to_dict(two_anchor_graph())
        _, a = first.dispatch("POST", "/sessions", {"graph": graph})
        sid = a["session"]
        _, ack1 = first.dispatch("POST", f"/sessions/{sid}/events",
                                 {"seq": 1, "events": [["io1", 9]]})
        _, before = first.dispatch("GET", f"/sessions/{sid}", None)
        del first  # the crash: no close(), no seal, no sync

        second = SchedulingService(config)
        assert second.recovered_sessions == 1
        status, after = second.dispatch("GET", f"/sessions/{sid}", None)
        assert status == 200
        assert after == before
        # The idempotency table was rebuilt by replay...
        status, again = second.dispatch("POST", f"/sessions/{sid}/events",
                                        {"seq": 1,
                                         "events": [["io1", 9]]})
        assert again.pop("replayed") is True
        assert again == ack1
        # ... and the stream continues exactly where it stopped.
        status, ack2 = second.dispatch("POST", f"/sessions/{sid}/events",
                                       {"seq": 2,
                                        "events": [["io2", 21]]})
        assert status == 200
        assert ack2["complete"] is True

    def test_sealed_journal_survives_restart_as_410(self, tmp_path):
        config = ServiceConfig(journal_dir=str(tmp_path),
                               journal_fsync="never")
        first = SchedulingService(config)
        _, a = first.dispatch("POST", "/sessions",
                              {"graph": graph_to_dict(chain_graph())})
        sid = a["session"]
        status, _ = first.dispatch("DELETE", f"/sessions/{sid}", None)
        assert status == 200

        second = SchedulingService(config)
        assert second.recovered_sessions == 0
        status, err = second.dispatch("GET", f"/sessions/{sid}", None)
        assert status == 410
        assert err["error_type"] == "SessionSealedError"

    def test_torn_tail_is_truncated_on_recovery(self, tmp_path):
        from repro.runtime.journal import journal_path, read_journal

        config = ServiceConfig(journal_dir=str(tmp_path),
                               journal_fsync="never")
        first = SchedulingService(config)
        _, a = first.dispatch("POST", "/sessions",
                              {"graph": graph_to_dict(chain_graph())})
        sid = a["session"]
        start = io_start()
        first.dispatch("POST", f"/sessions/{sid}/events",
                       {"seq": 1, "events": [["io", start + 1]]})
        path = journal_path(str(tmp_path), sid)
        with open(path, "ab") as handle:  # the torn mid-append crash
            handle.write(b'{"type":"events","seq":2,"ev')

        second = SchedulingService(config)
        assert second.recovered_sessions == 1
        _, got = second.dispatch("GET", f"/sessions/{sid}", None)
        assert got["last_seq"] == 1  # the torn batch was never acked
        # Recovery truncated the fragment, so the resumed journal
        # accepts seq 2 and reads back clean.
        status, _ = second.dispatch("POST", f"/sessions/{sid}/events",
                                    {"seq": 2,
                                     "events": [["io", start + 2]]})
        assert status == 200
        state = read_journal(path)
        assert not state.torn_tail and state.rejected_lines == 0
        assert state.last_seq == 2


class TestDrain:
    def test_draining_refuses_admission_with_retry_after(self, tmp_path):
        journal_dir = tmp_path / "journals"
        server, thread = make_server(journal_dir=str(journal_dir),
                                     journal_fsync="never")
        try:
            with ServiceClient(port=server.port, timeout=10) as client:
                _, body = client.create_session(
                    graph_to_dict(chain_graph()))
                sid = body["session"]
                server.service.draining.set()
                _, health = client.healthz()
                assert health["draining"] is True
                status, err = client.create_session(
                    graph_to_dict(chain_graph()))
                assert status == 503
                assert err["error_type"] == "ServiceDrainingError"
                status, err = client.post_events(
                    sid, 1, [["io", io_start() + 1]])
                assert status == 503
                # Reads still answer while the server winds down.
                status, _ = client.get_session(sid)
                assert status == 200
        finally:
            stop_server(server, thread)

    def test_drain_stops_the_server_and_syncs_journals(self, tmp_path):
        journal_dir = tmp_path / "journals"
        server, thread = make_server(journal_dir=str(journal_dir),
                                     journal_fsync="never")
        with ServiceClient(port=server.port, timeout=10) as client:
            _, body = client.create_session(graph_to_dict(chain_graph()))
            client.post_events(body["session"], 1,
                               [["io", io_start() + 1]])
        server.drain()  # what the SIGTERM handler runs
        thread.join(timeout=10)
        assert not thread.is_alive()
        server.server_close()
        # The drained journal replays in a fresh process table.
        fresh = SchedulingService(ServiceConfig(
            journal_dir=str(journal_dir), journal_fsync="never"))
        assert fresh.recovered_sessions == 1
        _, got = fresh.dispatch("GET", f"/sessions/{body['session']}",
                                None)
        assert got["last_seq"] == 1


class TestSessionRetryAgainstSaturatedPool:
    """The satellite contract: session POSTs honor ``retries=N`` with
    the same bounded Retry-After discipline as /schedule -- safe
    end-to-end because event POSTs are idempotent by sequence number."""

    def test_create_session_retries_then_surfaces_the_503(self):
        with Saturated() as sat:
            with ServiceClient(port=sat.server.port, timeout=10,
                               retries=2) as client:
                sleeps = []
                client._sleep = sleeps.append
                status, body = client.create_session(
                    graph_to_dict(chain_graph()))
                assert status == 503
                assert body["error_type"] == "PoolSaturatedError"
                assert client.retries_used == 2
                assert sleeps == [1.0, 1.0]  # the server's hint

    def test_post_events_retries_and_succeeds_after_drain(self):
        with Saturated() as sat:
            with ServiceClient(port=sat.server.port, timeout=10,
                               retries=5, retry_cap_s=0.02) as client:
                sleeps = []

                def sleep_then_drain(seconds):
                    sleeps.append(seconds)
                    sat.drain()
                    time.sleep(0.05)

                client._sleep = sleep_then_drain
                status, body = client.create_session(
                    graph_to_dict(chain_graph()))
                assert status == 200
                status, ack = client.post_events(
                    body["session"], 1, [["io", io_start() + 1]])
                assert status == 200
                assert ack["seq"] == 1
                assert client.retries_used >= 1
                assert all(s <= 0.02 for s in sleeps)


class TestStatsSurface:
    def test_stats_report_the_session_table(self, client, server):
        _, body = client.stats()
        sessions = body["sessions"]
        assert sessions["journaled"] is True
        assert isinstance(sessions["resident"], int)
        assert isinstance(sessions["evictions"], int)
        assert isinstance(sessions["recovered"], int)
