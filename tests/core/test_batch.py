"""The batched kernel: ``schedule_many`` against the per-graph pipeline.

The contract: every :class:`BatchResult` unpacks to exactly what
``schedule_graph(anchor_mode=FULL)`` produces for that graph -- same
offsets, same exception type -- regardless of dedup, cache hits, or
fallbacks; bad graphs never poison the batch; budgets apply per graph
with a batch-wide deadline.
"""

import copy
import json
import random
import traceback

import pytest

from repro import ConstraintGraph, UNBOUNDED
from repro.core import batch
from repro.core.anchors import AnchorMode
from repro.core.batch import BatchResult, BatchRun, schedule_many
from repro.core.exceptions import (
    BudgetExceededError,
    ConstraintGraphError,
    CyclicForwardGraphError,
    UnfeasibleConstraintsError,
)
from repro.core.resultcache import ScheduleCache
from repro.core.scheduler import schedule_graph
from repro.io import schedule_to_dict
from repro.qa.generators import (
    batch_corpus,
    chain_ladder_graph,
    renamed_isomorph,
    unfeasible_chain_graph,
)

numpy = pytest.importorskip("numpy")


def outcome(fn):
    try:
        schedule = fn()
        return ("ok", schedule.offsets)
    except ConstraintGraphError as exc:
        return ("raise", type(exc).__name__)


def reference_outcomes(corpus):
    return [outcome(lambda g=g: schedule_graph(
        g.copy(), anchor_mode=AnchorMode.FULL)) for g in corpus]


def assert_matches_per_graph(schedule, graph):
    """Everything ``schedule_graph(FULL)`` returns, vertex order included.

    (A batch row dict lists its anchors in canonical-rank order, so row
    dicts compare as dicts, not as sequences.)
    """
    want = schedule_graph(graph.copy(), anchor_mode=AnchorMode.FULL)
    assert schedule.offsets == want.offsets
    assert schedule.anchor_sets == want.anchor_sets
    assert schedule.iterations == want.iterations
    assert schedule_to_dict(schedule) == schedule_to_dict(want)
    assert list(schedule.offsets) == list(want.offsets)
    assert list(schedule.anchor_sets) == list(want.anchor_sets)
    for vertex, row in schedule.offsets.items():
        assert schedule.anchor_sets[vertex] == frozenset(row)


def twins(seed):
    """A chain-ladder design and a renamed, reshuffled isomorph of it."""
    rng = random.Random(seed)
    base = chain_ladder_graph(rng)
    return base, renamed_isomorph(base, rng)


def symmetric_graph():
    """Two interchangeable anchors: WL colors never become discrete."""
    g = ConstraintGraph(source="s", sink="t")
    g.add_operation("x", UNBOUNDED)
    g.add_operation("y", UNBOUNDED)
    g.add_operation("z", 3)
    g.add_sequencing_edges([("s", "x"), ("s", "y"), ("x", "z"), ("y", "z"),
                            ("z", "t")])
    return g


class TestDifferential:
    def test_mixed_corpus_matches_per_graph(self):
        corpus = batch_corpus(21, 60, n_unique=20)
        expected = reference_outcomes(corpus)
        run = schedule_many([g.copy() for g in corpus])
        assert len(run) == len(corpus)
        for result, want, graph in zip(run, expected, corpus):
            assert outcome(result.unpack) == want
            if result.ok:
                assert_matches_per_graph(result.unpack(), graph)

    def test_error_types_match_per_graph(self):
        # A cyclic forward graph and an unfeasible graph inside an
        # otherwise healthy batch: verdicts stay per graph.
        cyclic = ConstraintGraph(source="s", sink="t")
        cyclic.add_operation("x", 1)
        cyclic.add_operation("y", 1)
        cyclic.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
        cyclic.add_sequencing_edge("y", "x")
        rng = random.Random(6)
        corpus = [chain_ladder_graph(rng), cyclic,
                  unfeasible_chain_graph(rng), chain_ladder_graph(rng)]
        run = schedule_many([g.copy() for g in corpus])
        assert run[0].ok and run[3].ok
        assert run[1].error_type == "CyclicForwardGraphError"
        assert run[2].error_type == "UnfeasibleConstraintsError"
        with pytest.raises(CyclicForwardGraphError):
            run[1].unpack()
        with pytest.raises(UnfeasibleConstraintsError):
            run[2].unpack()
        for result, want in zip(run, reference_outcomes(corpus)):
            assert outcome(result.unpack) == want

    def test_input_graphs_are_not_mutated(self):
        rng = random.Random(7)
        corpus = [chain_ladder_graph(rng) for _ in range(4)]
        before = [g.version for g in corpus]
        schedule_many(corpus)
        assert [g.version for g in corpus] == before

    def test_ambiguous_graph_in_mixed_batch(self):
        # Equal WL colors only tie inside an ambiguous graph: it gets no
        # key (so no dedup, no cache) and still schedules exactly.
        from repro.core.batch import _arena_keys, _assemble

        rng = random.Random(15)
        corpus = [chain_ladder_graph(rng), symmetric_graph(),
                  chain_ladder_graph(rng), symmetric_graph()]
        keys = _arena_keys(_assemble(corpus))[0]
        assert keys[1] is None and keys[3] is None
        assert keys[0] is not None and keys[2] is not None
        run = schedule_many([g.copy() for g in corpus])
        assert run.stats["scheduled"] == 4
        for result, graph in zip(run, corpus):
            assert_matches_per_graph(result.unpack(), graph)


class TestEverySource:
    """Each way a result can be produced matches the per-graph pipeline
    exactly: offsets, anchor sets, iterations and key order."""

    def test_dense_representative(self):
        base, _ = twins(12)
        run = schedule_many([base.copy()])
        assert not run[0].cached and not run[0].fallback
        assert_matches_per_graph(run[0].unpack(), base)

    def test_in_batch_isomorph(self):
        base, twin = twins(13)
        run = schedule_many([base.copy(), twin.copy()])
        assert run.stats["scheduled"] == 2
        assert_matches_per_graph(run[0].unpack(), base)
        assert_matches_per_graph(run[1].unpack(), twin)

    def test_persistent_cache_hit(self, tmp_path):
        base, twin = twins(14)
        path = str(tmp_path / "cache.jsonl")
        schedule_many([base.copy()], cache=path)
        run = schedule_many([twin.copy(), base.copy()], cache=path)
        assert run[0].cached and run[1].cached
        assert_matches_per_graph(run[0].unpack(), twin)
        assert_matches_per_graph(run[1].unpack(), base)

    def test_numpy_absent_path(self, monkeypatch, tmp_path):
        monkeypatch.setattr(batch, "_np", None)
        base, twin = twins(16)
        path = str(tmp_path / "cache.jsonl")
        cold = schedule_many([base.copy(), twin.copy()], cache=path)
        # Per graph in order: the twin already hits the base's entry.
        assert cold[0].fallback and cold[1].cached
        warm = schedule_many([twin.copy(), base.copy()], cache=path)
        assert warm[0].cached and warm[1].cached
        assert_matches_per_graph(cold[0].unpack(), base)
        assert_matches_per_graph(cold[1].unpack(), twin)
        assert_matches_per_graph(warm[0].unpack(), twin)
        assert_matches_per_graph(warm[1].unpack(), base)

    def test_stray_entry_field_still_unpacks_as_a_hit(self, tmp_path):
        # A line that validates but carries an extra "template" field
        # loads as the validated fields only: every unpack of a design
        # it serves is a correct hit, and unpacking writes nothing back
        # into the cache's entry.
        base, twin = twins(18)
        path = tmp_path / "cache.jsonl"
        schedule_many([base.copy()], cache=str(path))
        (line,) = path.read_text().splitlines()
        entry = json.loads(line)
        entry["template"] = 0
        path.write_text(json.dumps(entry) + "\n")
        cache = ScheduleCache(path)
        assert len(cache) == 1 and cache.rejected_lines == 0
        for _ in range(2):
            run = schedule_many([base.copy(), twin.copy()], cache=cache)
            assert run[0].cached and run[1].cached
            assert_matches_per_graph(run[0].unpack(), base)
            assert_matches_per_graph(run[1].unpack(), twin)
        assert set(cache.get(entry["key"])) == {
            "format", "key", "n", "anchor_ranks", "rows", "iterations"}

    def test_twins_never_share_mutable_rows(self, tmp_path):
        base, twin = twins(17)
        path = str(tmp_path / "cache.jsonl")
        run = schedule_many([base.copy(), twin.copy()], cache=path)
        first, second = run[0].unpack(), run[1].unpack()
        original = copy.deepcopy(first.offsets)
        expected = copy.deepcopy(second.offsets)
        vertex = next(v for v, row in first.offsets.items() if row)
        anchor = next(iter(first.offsets[vertex]))
        first.offsets[vertex][anchor] += 1000
        first.offsets[vertex]["intruder"] = 1
        assert second.offsets == expected
        # The cache entry was written from the arena, not from the
        # mutated dicts: a later hit still relabels the true offsets.
        hit = schedule_many([base.copy()], cache=path)
        assert hit[0].cached
        assert hit[0].unpack().offsets == original


class TestDedupAndCache:
    def test_duplicates_schedule_once(self):
        rng = random.Random(8)
        base = chain_ladder_graph(rng)
        corpus = [base.copy()] + [renamed_isomorph(base, rng)
                                  for _ in range(9)]
        run = schedule_many(corpus)
        expected = reference_outcomes(corpus)
        for result, want in zip(run, expected):
            assert outcome(result.unpack) == want
        # All ten are isomorphic: one arena schedule serves the rest.
        assert run.stats["errors"] == 0
        assert run.stats["fallbacks"] == 0

    def test_warm_cache_hits_and_identical_results(self, tmp_path):
        corpus = batch_corpus(31, 40, n_unique=12)
        path = str(tmp_path / "cache.jsonl")
        cold = schedule_many([g.copy() for g in corpus], cache=path)
        warm = schedule_many([g.copy() for g in corpus], cache=path)
        assert warm.stats["cache_hits"] > 0
        for a, b in zip(cold, warm):
            assert outcome(a.unpack) == outcome(b.unpack)
        for result, want, graph in zip(warm, reference_outcomes(corpus),
                                       corpus):
            assert outcome(result.unpack) == want
            if result.ok:
                assert_matches_per_graph(result.unpack(), graph)

    def test_cache_survives_across_instances(self, tmp_path):
        g = chain_ladder_graph(random.Random(9))
        path = str(tmp_path / "cache.jsonl")
        schedule_many([g.copy()], cache=path)
        rerun = schedule_many([g.copy()], cache=path)
        assert rerun.stats["cache_hits"] == 1
        assert outcome(rerun[0].unpack) == outcome(
            lambda: schedule_graph(g.copy(), anchor_mode=AnchorMode.FULL))


class TestBudget:
    def test_per_graph_size_cap_spares_the_rest(self):
        from repro.resilience.guard import RunBudget

        rng = random.Random(10)
        small = chain_ladder_graph(rng, 6, 10)
        big = chain_ladder_graph(rng, 40, 48)
        run = schedule_many([small.copy(), big.copy(), small.copy()],
                            budget=RunBudget(max_vertices=20))
        assert run[0].ok and run[2].ok
        assert run[1].error_type == "BudgetExceededError"
        assert run.stats["errors"] == 1

    def test_deadline_raises_for_the_whole_call(self):
        from repro.resilience.guard import RunBudget

        corpus = batch_corpus(41, 50, n_unique=25)
        with pytest.raises(BudgetExceededError):
            schedule_many(corpus, budget=RunBudget(deadline_s=0.0))


class TestRunShape:
    def test_results_are_ordered_and_indexed(self):
        corpus = batch_corpus(51, 10, n_unique=5)
        run = schedule_many(corpus)
        assert isinstance(run, BatchRun)
        assert [r.index for r in run] == list(range(10))
        assert all(isinstance(r, BatchResult) for r in run)
        assert run[3].index == 3

    def test_stats_partition_the_batch(self):
        corpus = batch_corpus(61, 30, n_unique=10)
        run = schedule_many(corpus)
        stats = run.stats
        assert stats["graphs"] == 30
        counted = (stats["scheduled"] + stats["cache_hits"]
                   + stats["fallbacks"] + stats["errors"])
        assert counted == 30

    def test_empty_batch(self):
        run = schedule_many([])
        assert len(run) == 0
        assert run.stats["graphs"] == 0

    def test_repeated_unpack_is_stable(self):
        rng = random.Random(11)
        g = chain_ladder_graph(rng)
        run = schedule_many([g, unfeasible_chain_graph(rng)])
        first = run[0].unpack()
        assert run[0].unpack() is first
        # The stored error is raised afresh each time: its traceback
        # must not accumulate the frames of earlier unpacks.
        depths = []
        for _ in range(4):
            with pytest.raises(UnfeasibleConstraintsError) as info:
                run[1].unpack()
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert depths == [depths[0]] * 4
        assert depths[0] <= 3


class TestIllPosedFallback:
    def test_ill_posed_graph_falls_back_and_serializes(self, fig3b_graph):
        # Fig. 3(b) is ill-posed but rescuable: schedule_many must give
        # the same serialized schedule as schedule_graph.
        run = schedule_many([fig3b_graph.copy()])
        assert run[0].fallback
        assert outcome(run[0].unpack) == outcome(
            lambda: schedule_graph(fig3b_graph.copy(),
                                   anchor_mode=AnchorMode.FULL))

    def test_auto_well_pose_off_propagates_the_error(self, fig3b_graph):
        run = schedule_many([fig3b_graph.copy()], auto_well_pose=False)
        assert run[0].error_type == "IllPosedError"
