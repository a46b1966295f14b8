"""Concurrent readers of one shared graph: the versioned analysis cache
must neither double-build nor publish stale entries (the re-entrancy
contract the service relies on when worker threads share design graphs).
"""

import random
import threading
import time

from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.designs.random_graphs import random_constraint_graph


def _graph(seed=7, n=60):
    return random_constraint_graph(
        random.Random(seed), n, edge_probability=0.15,
        unbounded_probability=0.2, n_min_constraints=4,
        n_max_constraints=4)


def _hammer(n_threads, work):
    """Run *work(i)* on n_threads barrier-synchronized threads, collecting
    exceptions instead of letting them die in the thread."""
    barrier = threading.Barrier(n_threads)
    errors = []

    def run(i):
        try:
            barrier.wait(timeout=30)
            work(i)
        except Exception as error:  # pragma: no cover - failure path
            errors.append(error)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors, errors


class TestCachedUnderThreads:
    def test_builder_runs_exactly_once_per_version(self):
        """The check-then-build race: without the lock, two threads both
        miss and both build; the entry must be built once and shared."""
        graph = ConstraintGraph()
        graph.add_operation("a", 1)
        calls = []
        results = []

        def builder():
            calls.append(1)
            time.sleep(0.01)  # widen the would-be race window
            return {"built": True}

        _hammer(16, lambda i: results.append(
            graph.cached("race_probe", builder)))
        assert len(calls) == 1
        assert all(value is results[0] for value in results)

    def test_no_stale_entry_after_version_bump(self):
        """A mutation between a reader's version check and its dict read
        must not let the stale value survive into the new version."""
        graph = _graph(seed=8, n=30)
        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                probe = graph.add_min_constraint(graph.source, graph.sink, 0)
                graph.remove_edge(probe)

        mutator = threading.Thread(target=mutate)
        mutator.start()
        try:
            for _ in range(200):
                version_value = graph.cached(
                    "version_probe", lambda: graph.version)
                # The published value was built at some graph version;
                # it may already be stale *as data*, but the cache must
                # never serve an entry under a mismatched cache_version.
                assert isinstance(version_value, int)
        finally:
            stop.set()
            mutator.join()
        # Once quiescent, one more read rebuilds against the final
        # version and then stays stable.
        final = graph.cached("version_probe", lambda: graph.version)
        assert final == graph.version
        assert graph.cached("version_probe", lambda: -1) == final

    def test_concurrent_scheduling_of_a_shared_graph(self):
        """Full pipelines from N threads on one graph object: every run
        succeeds and all agree with a serial baseline bit for bit."""
        graph = _graph(seed=9, n=80)
        baseline = schedule_graph(graph.copy())
        schedules = [None] * 12

        def work(i):
            schedules[i] = schedule_graph(graph)

        _hammer(12, work)
        for schedule in schedules:
            assert schedule.offsets == baseline.offsets
            assert schedule.iterations == baseline.iterations

    def test_concurrent_view_builds_are_consistent(self):
        """Threads racing to build the edge and vertex views of a fresh
        version share one build, and it agrees with the store."""
        graph = _graph(seed=10, n=40)
        graph.add_min_constraint(graph.source, graph.sink, 0)  # fresh version
        views = [None] * 8

        def work(i):
            views[i] = (graph.edges(), graph.vertices(), graph.packed())

        _hammer(8, work)
        edges, vertices, (delays, records) = views[0]
        assert all(view == views[0] for view in views)
        assert len(records) == 4 * len(edges)
        assert len(delays) == len(vertices)
