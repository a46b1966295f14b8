"""Chaos campaigns: deterministic case generation, the one runner and
its command-line contract."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.watchdog import WatchdogPolicy
from repro.resilience import chaos
from repro.resilience.chaos import (
    KINDS,
    generate_chaos_case,
    main as chaos_main,
    run_campaign,
)

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The three seeded campaigns CI runs, and the summary each prints.
#: Their cases come from the fuzz generators through the per-graph
#: kernel, so a change to either that moves a single case shows here.
CI_CAMPAIGNS = {
    "faults": (["--seed", "0", "--cases", "200"], """\
chaos campaign: 200 cases (80 unschedulable)
  detected: 103
  masked: 17
  fault-free: 5
  silent: 0
  faults injected: drop=60, early=46, late=64, spurious=45, stall=52
  policies: abort=40, fallback=30, retry=50
"""),
    "runtime": (["--kind", "runtime", "--seed", "0", "--events", "200"], """\
runtime chaos campaign: 192 cases (76 unschedulable), 207 events
  completed: 24
  aborted: 67
  degraded: 25
  silent: 0
  profile families: boundary=29, bursty=29, quiet=29, uniform=29
"""),
    "crash": (["--kind", "crash", "--seed", "0", "--cases", "60"], """\
crash-injection campaign: 60 cases (23 unschedulable), 227 events
  boundary kills: 301
  torn kills: 264
  silent: 0
"""),
}


class TestCaseGeneration:
    def test_same_seed_same_case(self):
        assert generate_chaos_case(7) == generate_chaos_case(7)

    def test_different_seeds_differ(self):
        cases = [generate_chaos_case(seed) for seed in range(20)]
        assert len({str(c.plan) for c in cases}) > 1
        assert len({c.style for c in cases}) > 1

    def test_policy_pin_overrides_rotation(self):
        case = generate_chaos_case(3, WatchdogPolicy.FALLBACK)
        assert case.watchdog.policy is WatchdogPolicy.FALLBACK

    def test_case_fields_are_consistent(self):
        for seed in range(10):
            case = generate_chaos_case(seed)
            assert case.seed == seed
            assert case.style in ("counter", "shift-register")
            assert case.watchdog.bound_for("anything") is not None
            for fault in case.plan.faults:
                assert fault.anchor in case.profile


class TestCampaign:
    def test_small_campaign_has_no_silent_divergences(self):
        stats = run_campaign("faults", start_seed=0, cases=40)
        assert stats.cases == 40
        assert stats.silent == 0
        # Every schedulable case was classified one way or the other.
        assert (stats.unschedulable + stats.counters["detected"]
                + stats.counters["masked"]) == 40

    def test_campaign_is_deterministic(self):
        first = run_campaign("faults", start_seed=5, cases=15)
        second = run_campaign("faults", start_seed=5, cases=15)
        assert (first.counters, first.tallies) == \
            (second.counters, second.tallies)

    def test_pinned_policy_campaign(self):
        stats = run_campaign("faults", start_seed=0, cases=15,
                             policy=WatchdogPolicy.ABORT)
        assert stats.silent == 0
        assert set(stats.tallies["policies"]) <= {"abort"}

    def test_unschedulable_seeds_are_counted(self):
        # The adversarial scenarios of the generator rotation guarantee
        # some unschedulable graphs among the first 30 seeds.
        stats = run_campaign("faults", start_seed=0, cases=30)
        assert 0 < stats.unschedulable < 30

    def test_crash_campaign_recovers_bit_identically(self):
        stats = run_campaign("crash", start_seed=0, cases=6)
        assert stats.silent == 0, stats.divergences
        assert stats.events > 0
        assert stats.counters["boundary kills"] > stats.cases \
            - stats.unschedulable

    def test_case_cap_bounds_every_kind(self, monkeypatch):
        monkeypatch.setattr(chaos, "MAX_CAMPAIGN_CASES", 3)
        assert run_campaign("faults", cases=10).cases == 3
        assert run_campaign("runtime", events=10**6).cases == 3

    def test_summary_mentions_counts(self):
        stats = run_campaign("faults", start_seed=0, cases=10)
        text = stats.summary()
        assert text.startswith("chaos campaign: 10 cases (")
        assert "detected:" in text and "silent:" in text

    def test_silent_divergences_are_listed(self):
        stats = chaos.CampaignStats("crash", {"torn kills": 0})
        stats.divergences += [f"seed {seed}: differs" for seed in range(12)]
        lines = stats.summary().splitlines()
        assert "  silent: 12" in lines
        assert "  SILENT seed 9: differs" in lines
        assert lines[-1] == "  ... and 2 more"


class TestCiCampaigns:
    @pytest.mark.parametrize("kind", sorted(CI_CAMPAIGNS))
    def test_summary_is_pinned(self, kind, capsys):
        argv, expected = CI_CAMPAIGNS[kind]
        assert chaos_main(argv) == 0
        assert capsys.readouterr().out == expected


class TestChaosMain:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_module_entry_point_runs_each_kind(self, kind):
        env = dict(os.environ, PYTHONPATH=SRC)
        result = subprocess.run(
            [sys.executable, "-m", "repro.resilience.chaos", "--kind", kind,
             "--seed", "0", "--cases", "3"],
            capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith(f"{KINDS[kind][0]}: 3 cases (")

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_cli_subcommand_runs_each_kind(self, kind, capsys):
        from repro.cli import main

        assert main(["chaos", "--kind", kind, "--seed", "0",
                     "--cases", "3"]) == 0
        assert capsys.readouterr().out.startswith(
            f"{KINDS[kind][0]}: 3 cases (")

    def test_clean_campaign_exits_zero(self, capsys):
        assert chaos_main(["--seed", "0", "--cases", "10"]) == 0
        assert "chaos campaign: 10 cases" in capsys.readouterr().out

    def test_events_target_without_cases(self, capsys):
        assert chaos_main(["--kind", "runtime", "--seed", "1",
                           "--events", "20"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert int(header.rsplit(", ", 1)[1].split()[0]) >= 20

    def test_events_with_faults_kind_is_a_usage_error(self, capsys):
        assert chaos_main(["--events", "5"]) == 2
        assert "--events" in capsys.readouterr().err

    def test_policy_flag(self, capsys):
        assert chaos_main(["--seed", "0", "--cases", "10",
                           "--policy", "fallback"]) == 0
        assert "fallback" in capsys.readouterr().out

    def test_silent_divergence_exits_one(self, monkeypatch, capsys):
        def diverge(case, schedule, stats):
            stats.divergences.append(f"seed {case.seed}: injected")

        title, counters, _ = KINDS["faults"]
        monkeypatch.setitem(KINDS, "faults", (title, counters, diverge))
        assert chaos_main(["--seed", "0", "--cases", "5"]) == 1
        captured = capsys.readouterr()
        assert "SILENT seed" in captured.out
        assert "FAIL" in captured.err
