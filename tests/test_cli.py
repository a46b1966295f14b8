"""End-to-end tests of the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.designs.gcd import GCD_SOURCE


@pytest.fixture
def gcd_file(tmp_path):
    path = tmp_path / "gcd.hwc"
    path.write_text(GCD_SOURCE)
    return str(path)


@pytest.fixture
def fig2_json(tmp_path):
    from repro.analysis.paper_figures import fig2_graph
    from repro.io import save_json

    path = tmp_path / "fig2.json"
    save_json(fig2_graph(), str(path))
    return str(path)


@pytest.fixture
def illposed_json(tmp_path):
    from repro.analysis.paper_figures import fig3b_graph
    from repro.io import save_json

    path = tmp_path / "fig3b.json"
    save_json(fig3b_graph(), str(path))
    return str(path)


class TestCheck:
    def test_well_posed_graph(self, fig2_json, capsys):
        assert main(["check", fig2_json]) == 0
        out = capsys.readouterr().out
        assert "well-posed" in out

    def test_ill_posed_reports_violations(self, illposed_json, capsys):
        assert main(["check", illposed_json]) == 1
        out = capsys.readouterr().out
        assert "ill-posed" in out
        assert "missing anchors" in out

    def test_fix_serializes(self, illposed_json, capsys):
        assert main(["check", illposed_json, "--fix"]) == 0
        out = capsys.readouterr().out
        assert "+ a2 -> vi" in out

    def test_hardwarec_input(self, gcd_file, capsys):
        assert main(["check", gcd_file]) == 0
        assert "well-posed" in capsys.readouterr().out

    def test_unfeasible_graph_explained(self, tmp_path, capsys):
        from repro import ConstraintGraph
        from repro.io import save_json

        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("x", 1)
        g.add_operation("y", 1)
        g.add_sequencing_edges([("s", "x"), ("x", "y"), ("y", "t")])
        g.add_min_constraint("x", "y", 5)
        g.add_max_constraint("x", "y", 3)
        path = str(tmp_path / "bad.json")
        save_json(g, path)
        assert main(["check", path]) == 1
        out = capsys.readouterr().out
        assert "unfeasible" in out
        assert "over-constrained by 2" in out


class TestSchedule:
    def test_prints_table(self, fig2_json, capsys):
        assert main(["schedule", fig2_json, "--mode", "full"]) == 0
        out = capsys.readouterr().out
        assert "sigma_v0" in out
        assert "iterations: 1" in out

    def test_writes_schedule_json(self, fig2_json, tmp_path, capsys):
        out_path = str(tmp_path / "sched.json")
        assert main(["schedule", fig2_json, "-o", out_path]) == 0
        with open(out_path) as handle:
            data = json.load(handle)
        assert data["kind"] == "relative_schedule"

    def test_mobility_report(self, fig2_json, capsys):
        assert main(["schedule", fig2_json, "--mobility"]) == 0
        assert "mobility" in capsys.readouterr().out

    def test_no_well_pose_fails_on_illposed(self, illposed_json, capsys):
        assert main(["schedule", illposed_json, "--no-well-pose"]) == 1
        assert "error" in capsys.readouterr().err

    def test_gcd_schedules(self, gcd_file, capsys):
        assert main(["schedule", gcd_file]) == 0
        out = capsys.readouterr().out
        assert "vertex" in out


class TestControl:
    def test_cost_report(self, fig2_json, capsys):
        assert main(["control", fig2_json, "--style", "counter"]) == 0
        out = capsys.readouterr().out
        assert "registers:" in out and "comparator bits:" in out

    def test_verilog_output(self, gcd_file, tmp_path, capsys):
        verilog = str(tmp_path / "ctl.v")
        assert main(["control", gcd_file, "--verilog", verilog]) == 0
        with open(verilog) as handle:
            text = handle.read()
        assert text.startswith("module gcd_control")
        assert "endmodule" in text


class TestDotSimulateTables:
    def test_dot_to_stdout(self, fig2_json, capsys):
        assert main(["dot", fig2_json]) == 0
        out = capsys.readouterr().out
        assert "digraph" in out and "doublecircle" in out

    def test_dot_to_file(self, fig2_json, tmp_path, capsys):
        path = str(tmp_path / "g.dot")
        assert main(["dot", fig2_json, "-o", path]) == 0
        assert "digraph" in open(path).read()

    def test_simulate_with_profile(self, fig2_json, capsys):
        assert main(["simulate", fig2_json, "--profile", "a=5"]) == 0
        out = capsys.readouterr().out
        assert "matches analytical start times: True" in out

    def test_simulate_bad_profile(self, fig2_json):
        with pytest.raises(SystemExit):
            main(["simulate", fig2_json, "--profile", "nonsense"])

    def test_tables_fig10(self, capsys):
        assert main(["tables", "--which", "fig10"]) == 0
        out = capsys.readouterr().out
        assert "compute1" in out

    def test_tables_table2(self, capsys):
        assert main(["tables", "--which", "2"]) == 0
        assert "Table II" in capsys.readouterr().out


class TestSimulateHostile:
    """``simulate`` with watchdogs, faults, and run budgets."""

    @pytest.fixture
    def chain_json(self, tmp_path):
        from repro import ConstraintGraph
        from repro.core.delay import UNBOUNDED
        from repro.io import save_json

        g = ConstraintGraph(source="s", sink="t")
        g.add_operation("a", UNBOUNDED)
        g.add_operation("x", 2)
        g.add_sequencing_edges([("s", "a"), ("a", "x"), ("x", "t")])
        path = tmp_path / "chain.json"
        save_json(g, str(path))
        return str(path)

    def test_watchdog_in_bounds_run(self, chain_json, capsys):
        assert main(["simulate", chain_json, "--profile", "a=3",
                     "--watchdog", "a=5"]) == 0
        out = capsys.readouterr().out
        assert "fault containment: masked" in out

    def test_stall_fault_aborts_with_watchdog(self, chain_json, capsys):
        code = main(["simulate", chain_json, "--profile", "a=2",
                     "--watchdog", "a=3", "--fault", "stall:a"])
        assert code == 1
        assert "watchdog timeout" in capsys.readouterr().err

    def test_stall_fault_fallback_is_detected(self, chain_json, capsys):
        assert main(["simulate", chain_json, "--profile", "a=2",
                     "--watchdog", "a=3", "--fault", "stall:a",
                     "--on-timeout", "fallback"]) == 0
        out = capsys.readouterr().out
        assert "degraded to the static worst-case fallback schedule" in out
        assert "fault containment: detected" in out

    def test_retry_policy_reports_timeouts(self, chain_json, capsys):
        assert main(["simulate", chain_json, "--profile", "a=1",
                     "--watchdog", "a=2", "--fault", "late:a:3",
                     "--on-timeout", "retry", "--rearms", "2"]) == 0
        out = capsys.readouterr().out
        assert "timed out at cycle" in out
        assert "fault containment: detected" in out

    def test_spurious_fault_is_masked(self, chain_json, capsys):
        assert main(["simulate", chain_json, "--profile", "a=5",
                     "--fault", "spurious:a:2"]) == 0
        assert "fault containment: masked" in capsys.readouterr().out

    def test_stalled_vertices_print_as_stalled(self, chain_json, capsys):
        main(["simulate", chain_json, "--profile", "a=2",
              "--watchdog", "a=3", "--fault", "stall:a",
              "--on-timeout", "fallback"])
        # The per-vertex table comes from the degraded static schedule.
        assert "start @" in capsys.readouterr().out

    def test_bad_fault_spec_rejected(self, chain_json):
        with pytest.raises(SystemExit):
            main(["simulate", chain_json, "--fault", "nonsense"])
        with pytest.raises(SystemExit):
            main(["simulate", chain_json, "--fault", "teleport:a"])

    def test_budget_refuses_oversized_graph(self, chain_json, capsys):
        code = main(["--budget", "vertices=2", "simulate", chain_json])
        assert code == 1
        assert "over the budget" in capsys.readouterr().err

    def test_budget_allows_sized_graph(self, chain_json, capsys):
        assert main(["--budget", "vertices=10,edges=10,iterations=8",
                     "simulate", chain_json, "--profile", "a=1"]) == 0

    def test_bad_budget_spec_rejected(self, chain_json):
        with pytest.raises(SystemExit):
            main(["--budget", "nonsense", "simulate", chain_json])
        with pytest.raises(SystemExit):
            main(["--budget", "gadgets=5", "simulate", chain_json])


class TestReportAndMonteCarlo:
    def test_report_on_hardwarec(self, gcd_file, capsys):
        assert main(["report", gcd_file]) == 0
        out = capsys.readouterr().out
        assert "latency" in out and "control" in out

    def test_report_with_resources(self, gcd_file, capsys):
        assert main(["report", gcd_file, "--resources", "port:1,alu:1"]) == 0
        assert "serializations" in capsys.readouterr().out

    def test_report_per_graph(self, gcd_file, capsys):
        assert main(["report", gcd_file, "--per-graph"]) == 0
        out = capsys.readouterr().out
        assert "[gcd]" in out

    def test_report_bad_resource_spec(self, gcd_file):
        with pytest.raises(SystemExit):
            main(["report", gcd_file, "--resources", "alu"])

    def test_report_on_design_json(self, tmp_path, capsys):
        from repro.designs import build_design
        from repro.io import save_json

        path = str(tmp_path / "traffic.json")
        save_json(build_design("traffic"), path)
        assert main(["report", path]) == 0
        assert "traffic" in capsys.readouterr().out

    def test_report_markdown_output(self, gcd_file, tmp_path, capsys):
        path = str(tmp_path / "gcd_report.md")
        assert main(["report", gcd_file, "--markdown", path]) == 0
        content = open(path).read()
        assert content.startswith("# Synthesis report")
        assert "## Control cost" in content

    def test_montecarlo(self, fig2_json, capsys):
        assert main(["montecarlo", fig2_json, "--range", "0", "5",
                     "--samples", "50"]) == 0
        out = capsys.readouterr().out
        assert "p95" in out and "latency over 50 profiles" in out


class TestCosim:
    def test_gcd_cosim(self, gcd_file, capsys):
        assert main(["cosim", gcd_file, "--set", "restart=1:1:0",
                     "--set", "xin=36", "--set", "yin=24"]) == 0
        out = capsys.readouterr().out
        assert "'result': 12" in out
        assert "violations: 0" in out

    def test_gcd_cosim_gantt(self, gcd_file, capsys):
        assert main(["cosim", gcd_file, "--set", "restart=0",
                     "--set", "xin=8", "--set", "yin=8",
                     "--gantt", "40"]) == 0
        out = capsys.readouterr().out
        assert "=" in out  # gantt bars

    def test_rejects_json_input(self, fig2_json):
        with pytest.raises(SystemExit, match="HardwareC"):
            main(["cosim", fig2_json])

    def test_bad_set_entry(self, gcd_file):
        with pytest.raises(SystemExit):
            main(["cosim", gcd_file, "--set", "nonsense"])


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_wrong_artifact_kind(self, tmp_path):
        from repro import schedule_graph
        from repro.analysis.paper_figures import fig2_graph
        from repro.io import save_json

        path = str(tmp_path / "sched.json")
        save_json(schedule_graph(fig2_graph()), path)
        with pytest.raises(SystemExit, match="expected a design"):
            main(["check", path])

    @pytest.mark.parametrize("command", ["schedule", "check", "lint"])
    def test_malformed_graph_json_is_an_error_line(self, tmp_path, capsys,
                                                   command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({  # the sink "t" is never declared
            "kind": "constraint_graph", "version": 1,
            "source": "s", "sink": "t",
            "vertices": [{"name": "s", "delay": "unbounded"},
                         {"name": "x", "delay": 1}],
            "edges": [{"tail": "s", "head": "x", "kind": "sequencing"}]}))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: sink 't' is not in the vertex list\n"
        path.write_text("[]")
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: serialized graph must be an object, got list\n"

    @pytest.mark.parametrize("command", ["schedule", "check", "lint"])
    def test_malformed_schedule_json_is_an_error_line(self, tmp_path, capsys,
                                                      command):
        from repro import AnchorMode, schedule_graph
        from repro.analysis.paper_figures import fig2_graph
        from repro.io import schedule_to_dict

        data = schedule_to_dict(
            schedule_graph(fig2_graph(), anchor_mode=AnchorMode.FULL))
        data["offsets"]["v4"]["v0"] = 0  # breaks the edge v3 -> v4
        path = tmp_path / "bad-schedule.json"
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: schedule violates edge Edge('v3' -> 'v4', w=5, "
            "sequencing) w.r.t. anchor 'v0': 0 < 3 + 5\n")
        del data["offsets"]
        path.write_text(json.dumps(data))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == \
            "error: schedule document lacks 'offsets'\n"

    @pytest.mark.parametrize("command", ["schedule", "check", "lint"])
    @pytest.mark.parametrize("header, message", [
        ({"kind": "relative_schedule", "version": 99},
         "document version 99 is newer than this library supports (1)"),
        ({"kind": "bogus"}, "unknown document kind 'bogus'"),
        ({"kind": "relative_schedule", "version": "2"},
         "document version must be an integer, got '2'"),
    ], ids=["newer-version", "unknown-kind", "string-version"])
    def test_bad_document_header_is_an_error_line(self, tmp_path, capsys,
                                                  command, header, message):
        path = tmp_path / "bad-header.json"
        path.write_text(json.dumps(header))
        assert main([command, str(path)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestScheduleMany:
    @pytest.fixture
    def corpus_jsonl(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.qa.generators import batch_corpus, unfeasible_chain_graph
        from repro.qa.serialize import graph_to_dict
        import random

        graphs = batch_corpus(3, 8, n_unique=4)
        graphs.append(unfeasible_chain_graph(random.Random(3)))
        path = tmp_path / "corpus.jsonl"
        path.write_text("".join(
            json.dumps(graph_to_dict(g)) + "\n" for g in graphs))
        return str(path)

    def test_mixed_corpus_reports_per_graph(self, corpus_jsonl, capsys):
        assert main(["schedule-many", corpus_jsonl]) == 1  # one unfeasible
        out = capsys.readouterr().out
        assert "scheduled" in out
        assert "UnfeasibleConstraintsError" in out
        assert "9 graph(s)" in out and "1 error(s)" in out

    def test_warm_cache_and_json_output(self, corpus_jsonl, tmp_path, capsys):
        cache = str(tmp_path / "cache.jsonl")
        results = str(tmp_path / "results.json")
        main(["schedule-many", corpus_jsonl, "--cache", cache])
        capsys.readouterr()
        assert main(["schedule-many", corpus_jsonl, "--cache", cache,
                     "-o", results]) == 1
        out = capsys.readouterr().out
        assert "cache hit(s)" in out
        assert "0 scheduled" in out or "cached" in out
        payload = json.loads(open(results).read())
        assert payload["stats"]["cache_hits"] > 0
        assert len(payload["results"]) == 9
        statuses = {r["status"] for r in payload["results"]}
        assert "error" in statuses
        ok = next(r for r in payload["results"] if r["status"] != "error")
        assert ok["offsets"]  # relabelled onto the graph's own names

    def test_budget_applies_per_graph(self, corpus_jsonl, capsys):
        assert main(["--budget", "vertices=5",
                     "schedule-many", corpus_jsonl]) == 1
        out = capsys.readouterr().out
        assert "BudgetExceededError" in out

    def test_bad_line_is_a_parse_error(self, tmp_path):
        pytest.importorskip("numpy")
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(SystemExit, match="not JSON"):
            main(["schedule-many", str(path)])

    def test_non_object_line_rejected(self, tmp_path):
        pytest.importorskip("numpy")
        path = tmp_path / "bad.jsonl"
        path.write_text("[1, 2, 3]\n")
        with pytest.raises(SystemExit, match="expected a serialized"):
            main(["schedule-many", str(path)])

    def test_malformed_graph_names_the_line(self, tmp_path):
        pytest.importorskip("numpy")
        path = tmp_path / "bad.jsonl"
        path.write_text('{"source": "s"}\n')
        with pytest.raises(SystemExit, match=":1:"):
            main(["schedule-many", str(path)])
