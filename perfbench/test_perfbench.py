"""Tests of the benchmark itself: its correctness gates, inputs and contract.

Run from the repository root::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import copy
import gc
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import inputs  # noqa: E402
import metrics  # noqa: E402
import service_workloads as service  # noqa: E402
from repro.core.batch import schedule_many  # noqa: E402
from repro.qa.generators import batch_corpus  # noqa: E402
from repro.qa.serialize import graphs_equal  # noqa: E402
from repro.service.app import SchedulingService, ServiceConfig  # noqa: E402

SMALL_SWEEP = dict(inputs.SWEEP_RECIPE, size=60, n_unique=12)


def _answer(svc, method, path, body):
    payload = None if body is None else json.loads(body)
    status, reply = svc.dispatch(method, path, payload)
    return status, json.dumps(reply).encode()


def _corrupt(offsets):
    """Decrease one nonzero offset (a wrong, too-early schedule)."""
    bad = copy.deepcopy(offsets)
    for row in bad.values():
        for anchor, value in row.items():
            if value:
                row[anchor] = value - 1
                return bad
    raise AssertionError("no nonzero offset to corrupt")


@pytest.fixture(scope="module")
def rpc_requests():
    recipe = dict(inputs.RPC_RECIPE, designs=4)
    return inputs.rpc_requests(7, 6, inputs.rpc_designs(7, recipe), recipe)


def test_rpc_gate_counts_a_corrupted_expected_answer_as_failed(rpc_requests):
    svc = SchedulingService(ServiceConfig(batching=False))
    failed = service.rpc_failed(rpc_requests)
    for index, request in enumerate(rpc_requests):
        status, raw = _answer(svc, "POST", "/schedule", request.body)
        op = service.Op("schedule", 0.0, 0.0, status, raw, index)
        assert not failed(op)
        request.expected = _corrupt(request.expected)
        assert failed(op)
        assert failed(service.Op("schedule", 0.0, 0.0, 500, raw, index))


def test_rpc_requests_alternate_cached_isomorphs_and_fresh_graphs(
        rpc_requests):
    assert sum(r.hit for r in rpc_requests) == len(rpc_requests) // 2
    fresh = [r.body for r in rpc_requests if not r.hit]
    assert len(set(fresh)) == len(fresh)


def test_session_gate_checks_final_issue_cycles():
    cases = inputs.session_cases(3, 2)
    svc = SchedulingService(ServiceConfig(batching=False))
    failed = service.session_failed(cases)
    for index, case in enumerate(cases):
        status, raw = _answer(svc, "POST", "/sessions", case.create_body)
        assert status == 200
        session = json.loads(raw)["session"]
        for body in case.event_bodies:
            status, raw = _answer(svc, "POST", f"/sessions/{session}/events",
                                  body)
            assert not failed(service.Op("event", 0, 0, status, raw, index))
        status, raw = _answer(svc, "DELETE", f"/sessions/{session}", None)
        op = service.Op("delete", 0.0, 0.0, status, raw, index)
        assert not failed(op)
        vertex = next(v for v, c in case.expected_issues.items() if c)
        case.expected_issues[vertex] += 1
        assert failed(op)


def test_sweep_gate_counts_wrong_verdicts_and_wrong_schedules():
    import sweep_many

    try:
        sweep = sweep_many.Sweep(5, SMALL_SWEEP)
        run = schedule_many([g.copy() for g in sweep.template])
        assert sweep.check(run) == 0
        sweep.expected_ok[0] = not sweep.expected_ok[0]
        assert sweep.check(run) >= 1
    finally:
        gc.unfreeze()


def test_sweep_corpus_is_the_batch_corpus_recipe():
    graphs, origins, uniques = inputs.sweep_corpus(11, SMALL_SWEEP)
    expected = batch_corpus(11, **{k: v for k, v in SMALL_SWEEP.items()})
    assert len(graphs) == len(expected) == SMALL_SWEEP["size"]
    assert all(graphs_equal(a, b) for a, b in zip(graphs, expected))
    assert all(len(g) == len(uniques[o]) for g, o in zip(graphs, origins))


def test_inputs_depend_only_on_the_seed():
    first = [c.create_body for c in inputs.session_cases(9, 3)]
    assert first == [c.create_body for c in inputs.session_cases(9, 3)]
    assert first != [c.create_body for c in inputs.session_cases(10, 3)]


def test_load_generator_refuses_more_connections_than_processors():
    with pytest.raises(service.LoadError):
        service.check_clients(len(os.sched_getaffinity(0)) + 1)


def test_benchmark_json_names_the_metrics_the_workloads_report():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == metrics.PER_LAYER


def test_percentiles_are_nearest_rank():
    values = list(range(1, 101))
    assert metrics.percentile(values, 0.5) == 50
    assert metrics.percentile(values, 0.99) == 99
    assert metrics.percentile([3.0], 0.99) == 3.0
    assert metrics.median([1, 3, 2, 4]) == 2.5


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-many",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert done.returncode != 0
    assert done.stdout == b""
