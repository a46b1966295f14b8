"""Concurrency correctness: the service under parallel fire.

The load-bearing test is the differential one: N client threads push a
mixed corpus through a live server (few slots, cache configured) and
every response must be *bit-identical* to a serial
``schedule_graph(anchor_mode=FULL)`` run of the same graph -- the
admission gate and the contextvar tracer must be invisible to results.
"""

import contextvars
import http.client
import json
import random
import sys
import threading
import time

import pytest

from repro.core.anchors import AnchorMode
from repro.core.exceptions import ConstraintGraphError
from repro.core.scheduler import schedule_graph
from repro.designs.random_graphs import random_constraint_graph
from repro.io import schedule_to_dict
from repro.qa.serialize import graph_to_dict
from repro.service import (
    JobTimeoutError,
    PoolSaturatedError,
    SchedulingService,
    ServiceClient,
    ServiceConfig,
    WorkerPool,
)
from repro.service.batcher import CoalescingBatcher

from tests.service.test_endpoints import make_server, occupy, stop_server


def mixed_corpus(n_graphs, seed):
    rng = random.Random(seed)
    graphs = []
    for _ in range(n_graphs):
        graphs.append(random_constraint_graph(
            rng, rng.randint(6, 30),
            edge_probability=rng.uniform(0.1, 0.3),
            unbounded_probability=rng.uniform(0.1, 0.4),
            n_min_constraints=rng.randint(0, 4),
            n_max_constraints=rng.randint(0, 3)))
    return graphs


class TestDifferential:
    N_THREADS = 8
    PER_THREAD = 6

    def test_concurrent_schedule_bit_identical_to_serial(self, tmp_path):
        corpus = mixed_corpus(self.N_THREADS * self.PER_THREAD, seed=1990)
        expected = [
            schedule_to_dict(schedule_graph(g, anchor_mode=AnchorMode.FULL))
            for g in corpus]
        payloads = [graph_to_dict(g) for g in corpus]

        server, thread = make_server(
            workers=4, cache_path=str(tmp_path / "cache.jsonl"))
        failures = []
        barrier = threading.Barrier(self.N_THREADS)

        def worker(thread_index):
            with ServiceClient(port=server.port, timeout=60) as client:
                barrier.wait()
                for k in range(self.PER_THREAD):
                    index = thread_index * self.PER_THREAD + k
                    status, body = client.schedule(payloads[index])
                    if status != 200:
                        failures.append((index, status, body))
                    elif body["schedule"] != expected[index]:
                        failures.append((index, "mismatch", body["schedule"]))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(self.N_THREADS)]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            stop_server(server, thread)
        assert not failures, failures[:3]

    def test_repeat_requests_hit_shared_cache(self, tmp_path):
        graph = mixed_corpus(1, seed=7)[0]
        payload = graph_to_dict(graph)
        server, thread = make_server(
            workers=2, cache_path=str(tmp_path / "cache.jsonl"))
        try:
            with ServiceClient(port=server.port) as client:
                first = client.schedule_many([payload])
                repeats = [client.schedule_many([payload])
                           for _ in range(5)]
                _, stats = client.stats()
        finally:
            stop_server(server, thread)
        assert first[0] == 200
        assert all(status == 200 for status, _ in repeats)
        schedules = {tuple(sorted(body["results"][0]["schedule"]["offsets"]))
                     for _, body in [first] + repeats}
        assert len(schedules) == 1
        assert stats["cache"]["hits"] >= 1


class TestDirectPath:
    def test_schedule_never_reaches_schedule_many(self, monkeypatch,
                                                  tmp_path):
        def arena(*args, **kwargs):
            raise AssertionError("/schedule reached schedule_many")

        for module in ("repro.core.batch", "repro.service.app",
                       "repro.service.batcher"):
            monkeypatch.setattr(f"{module}.schedule_many", arena)
        service = SchedulingService(ServiceConfig(
            cache_path=str(tmp_path / "cache.jsonl")))
        for graph in mixed_corpus(24, seed=2020):
            payload = {"graph": graph_to_dict(graph)}
            status, body = service.dispatch("POST", "/schedule", payload)
            try:
                expected = schedule_graph(graph, anchor_mode=AnchorMode.FULL)
            except ConstraintGraphError as error:
                assert (status, body["error_type"]) == (
                    422, type(error).__name__)
                continue
            assert status == 200, body
            assert body["schedule"]["offsets"] == \
                schedule_to_dict(expected)["offsets"]


class TestAdmission:
    def test_saturated_pool_answers_503(self):
        # One worker, a one-place queue, both taken: the next request
        # must be refused, not queued without bound.
        pool = WorkerPool(workers=1, queue_capacity=1)
        release = threading.Event()
        parked = occupy(pool, release)
        with pytest.raises(PoolSaturatedError):
            pool.run(lambda: None)
        release.set()
        for thread in parked:
            thread.join(10)
        pool.shutdown()

    def test_health_answers_while_pool_is_saturated(self):
        server, thread = make_server(workers=1, queue_capacity=1)
        release = threading.Event()
        parked = occupy(server.pool, release)
        try:
            with ServiceClient(port=server.port, timeout=10) as client:
                status, body = client.healthz()
                assert status == 200  # GET bypasses the pool
                status, body = client.schedule({"vertices": []})
                assert status == 503
                assert body["error_type"] == "PoolSaturatedError"
        finally:
            release.set()
            for parked_thread in parked:
                parked_thread.join(10)
            stop_server(server, thread)

    def test_stress_admits_at_most_the_bound(self):
        workers, capacity = 3, 2
        pool = WorkerPool(workers=workers, queue_capacity=capacity)
        lock = threading.Lock()
        running = [0, 0]  # now, peak
        ran, returned, refused = [], [], []

        def job(ident):
            with lock:
                running[0] += 1
                running[1] = max(running[1], running[0])
                ran.append(ident)
            time.sleep(0.0005)
            with lock:
                running[0] -= 1
            return ident

        def hammer(ident_prefix, calls):
            for k in range(calls):
                ident = (*ident_prefix, k)
                try:
                    returned.append(pool.run(lambda ident=ident: job(ident),
                                             timeout=30))
                except PoolSaturatedError:
                    refused.append(ident)

        def phase(name, n_threads, calls):
            threads = [threading.Thread(target=hammer,
                                        args=((name, i), calls))
                       for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            return n_threads * calls

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            # At the bound nobody is refused; past it the gate refuses.
            calls = phase("at", workers + capacity, 40)
            assert refused == []
            calls += phase("past", 4 * (workers + capacity), 40)
        finally:
            sys.setswitchinterval(interval)
        assert refused
        assert running[1] <= workers
        assert len(ran) == len(set(ran))  # no admitted job ran twice
        assert sorted(ran) == sorted(returned)  # ... and every one ran
        assert len(ran) + len(refused) == calls
        assert (pool.running, pool.waiting) == (0, 0)

    def test_waiters_get_slots_in_arrival_order_or_time_out(self):
        pool = WorkerPool(workers=1, queue_capacity=3)
        release = threading.Event()
        started = threading.Event()

        def block():
            started.set()
            release.wait(30)

        parked = [threading.Thread(target=pool.run, args=(block,))]
        parked[0].start()
        assert started.wait(10)
        with pytest.raises(JobTimeoutError):
            pool.run(lambda: None, timeout=0.01)
        assert pool.waiting == 0  # the timed-out caller left the queue
        order = []
        for index in range(3):
            parked.append(threading.Thread(
                target=pool.run, args=(lambda i=index: order.append(i),)))
            parked[-1].start()
            deadline = time.monotonic() + 10
            while pool.waiting < index + 1:
                assert time.monotonic() < deadline
                time.sleep(0.001)
        release.set()
        for thread in parked:
            thread.join(10)
        assert order == [0, 1, 2]
        assert (pool.running, pool.waiting) == (0, 0)

    def test_jobs_run_on_the_caller_thread_in_a_copied_context(self):
        pool = WorkerPool(workers=1)
        tag = contextvars.ContextVar("tag", default=None)

        def first():
            seen = tag.get()
            tag.set("job")
            return seen, tag.get()

        token = tag.set("caller")
        try:
            assert pool.run(threading.get_ident) == threading.get_ident()
            assert pool.run(first) == ("caller", "job")
            # The next request on this thread starts from the caller's
            # context, not from what the previous job left behind.
            assert pool.run(tag.get) == "caller"
            assert tag.get() == "caller"
        finally:
            tag.reset(token)

    def test_a_burst_of_connections_is_accepted_at_once(self):
        server, thread = make_server()
        worst = []

        def connect(barrier, times):
            barrier.wait()
            t0 = time.perf_counter()
            with ServiceClient(port=server.port, timeout=10) as client:
                status, _ = client.healthz()
            times.append((status, time.perf_counter() - t0))

        try:
            for _ in range(3):
                barrier, times = threading.Barrier(32), []
                threads = [threading.Thread(target=connect,
                                            args=(barrier, times))
                           for _ in range(32)]
                for burst_thread in threads:
                    burst_thread.start()
                for burst_thread in threads:
                    burst_thread.join(30)
                assert [status for status, _ in times] == [200] * 32
                worst.append(max(seconds for _, seconds in times))
        finally:
            stop_server(server, thread)
        # A dropped SYN is retried after 1 s; none may be dropped.
        assert max(worst) < 0.9, worst

    def test_post_after_shutdown_answers_503_with_retry_after(self):
        server, thread = make_server()
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=10)
        try:
            conn.request("GET", "/healthz")
            assert conn.getresponse().read()
            server.pool.shutdown()  # what the drain does first
            conn.request("POST", "/schedule", body=json.dumps({"graph": {}}),
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 503
            assert response.getheader("Retry-After") == "1"
            assert body["error_type"] == "PoolShutdownError"
        finally:
            conn.close()
            stop_server(server, thread)


class TestBatcher:
    def test_coalesces_concurrent_requests(self):
        corpus = mixed_corpus(12, seed=3)
        expected = [
            schedule_to_dict(schedule_graph(g, anchor_mode=AnchorMode.FULL))
            for g in corpus]
        batcher = CoalescingBatcher(window_s=0.05, max_batch=64)
        barrier = threading.Barrier(len(corpus))
        results = [None] * len(corpus)

        def worker(index):
            barrier.wait()
            results[index] = schedule_to_dict(
                batcher.schedule(corpus[index]))

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(corpus))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == expected
        stats = batcher.stats()
        assert stats["requests"] == len(corpus)
        assert stats["coalesced_requests"] > 0
        assert stats["largest_batch"] > 1

    def test_per_graph_errors_do_not_poison_the_batch(self):
        from repro.core.exceptions import ConstraintGraphError
        from repro.core.graph import ConstraintGraph

        good = mixed_corpus(1, seed=9)[0]
        bad = ConstraintGraph()
        bad.add_operation("a", 3)
        bad.add_operation("b", 1)
        bad.add_sequencing_edge("a", "b")
        bad.add_max_constraint("a", "b", 1)

        batcher = CoalescingBatcher(window_s=0.05, max_batch=8)
        barrier = threading.Barrier(2)
        outcome = {}

        def run(name, graph):
            barrier.wait()
            try:
                outcome[name] = batcher.schedule(graph)
            except ConstraintGraphError as error:
                outcome[name] = error

        threads = [threading.Thread(target=run, args=("good", good)),
                   threading.Thread(target=run, args=("bad", bad))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert isinstance(outcome["bad"], ConstraintGraphError)
        assert schedule_to_dict(outcome["good"]) == schedule_to_dict(
            schedule_graph(good, anchor_mode=AnchorMode.FULL))

    def test_max_batch_flushes_early(self):
        import time

        # Exactly max_batch concurrent requests: the threshold (not the
        # absurdly long window) must flush the batch.
        corpus = mixed_corpus(3, seed=5)
        batcher = CoalescingBatcher(window_s=30.0, max_batch=3)
        barrier = threading.Barrier(len(corpus))
        done = [None] * len(corpus)

        def worker(index):
            barrier.wait()
            done[index] = batcher.schedule(corpus[index])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(corpus))]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        elapsed = time.monotonic() - t0
        assert all(s is not None for s in done)
        assert batcher.stats()["largest_batch"] == 3
        assert elapsed < 20, f"window, not max_batch, flushed ({elapsed=})"
