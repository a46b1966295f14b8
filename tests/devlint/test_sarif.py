"""Devlint SARIF output (the one emitter of :mod:`repro.lint.sarif`
with devlint's driver) must validate against the bundled schema."""

import json

import jsonschema
import pytest

from repro.devlint import (DRIVER, RULE_CATALOGUE, SANITIZER_RULES,
                           lint_source, with_sanitizer_findings)
from repro.lint.sarif import load_trimmed_schema, sarif_json, to_sarif


def devlint_sarif(report, sanitizer=None):
    """What ``repro devlint --format sarif`` renders for *report*."""
    return to_sarif(with_sanitizer_findings(report, sanitizer), driver=DRIVER)

DIRTY = (
    "import time\n"
    "def f(tracer):\n"
    "    tracer.event('x')\n"
    "    return time.time()\n")

SANITIZER = {
    "enabled": True,
    "acquisitions": 12,
    "order_edges": {"sessions.table -> journal.append": "sessions.py:1"},
    "cycles": [{"path": "a -> b -> a", "witnesses": ["x.py:1", "y.py:2"]}],
    "io_findings": [{"kind": "fsync", "detail": "fd=3",
                     "locks": "sessions.table", "witness": "s.py:27"}],
}


@pytest.fixture(scope="module")
def schema():
    return load_trimmed_schema()


def test_clean_report_validates(schema):
    log = devlint_sarif(lint_source("X = 1\n"))
    jsonschema.validate(instance=log, schema=schema)
    assert log["runs"][0]["results"] == []
    # A successful run with no notes has nothing to say in invocations.
    assert "invocations" not in log["runs"][0]


def test_notes_ride_on_a_successful_invocation(schema):
    source = "import time\nT = time.time()  # devlint: disable=DL101\n"
    log = devlint_sarif(lint_source(source))
    jsonschema.validate(instance=log, schema=schema)
    invocation = log["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"]
    assert "waived" in invocation["toolExecutionNotifications"][0][
        "message"]["text"]


def test_dirty_report_validates(schema):
    log = devlint_sarif(lint_source(DIRTY, filename="src/repro/x.py"))
    jsonschema.validate(instance=log, schema=schema)
    results = log["runs"][0]["results"]
    assert {r["ruleId"] for r in results} == {"DL101", "DL103"}
    for result in results:
        assert result["level"] == "error"
        physical = result["locations"][0]["physicalLocation"]
        assert physical["artifactLocation"]["uri"] == "src/repro/x.py"
        assert physical["region"]["startLine"] >= 1
    assert not log["runs"][0]["invocations"][0]["executionSuccessful"]


def test_sanitizer_findings_fold_in(schema):
    log = devlint_sarif(lint_source("X = 1\n"), sanitizer=SANITIZER)
    jsonschema.validate(instance=log, schema=schema)
    by_rule = {r["ruleId"]: r for r in log["runs"][0]["results"]}
    assert set(by_rule) == {"SANLOCK", "SANIO"}
    assert "a -> b -> a" in by_rule["SANLOCK"]["message"]["text"]
    assert "sessions.table" in by_rule["SANIO"]["message"]["text"]
    assert not log["runs"][0]["invocations"][0]["executionSuccessful"]


def test_disabled_sanitizer_adds_nothing(schema):
    log = devlint_sarif(lint_source("X = 1\n"), sanitizer={"enabled": False})
    jsonschema.validate(instance=log, schema=schema)
    assert log["runs"][0]["results"] == []


def test_driver_covers_every_rule_exactly_once():
    log = devlint_sarif(lint_source("X = 1\n"))
    driver = log["runs"][0]["tool"]["driver"]
    assert driver["name"] == DRIVER.name == "repro-devlint"
    ids = [rule["id"] for rule in driver["rules"]]
    expected = ([code for code, *_ in RULE_CATALOGUE]
                + [code for code, *_ in SANITIZER_RULES])
    assert ids == expected
    assert len(set(ids)) == len(ids)


def test_rule_indices_resolve():
    log = devlint_sarif(lint_source(DIRTY, filename="x.py"),
                   sanitizer=SANITIZER)
    driver_rules = log["runs"][0]["tool"]["driver"]["rules"]
    for result in log["runs"][0]["results"]:
        index = result["ruleIndex"]
        assert driver_rules[index]["id"] == result["ruleId"]


def test_json_round_trip(schema):
    text = sarif_json(lint_source(DIRTY, filename="x.py"), driver=DRIVER)
    assert text.endswith("\n")
    jsonschema.validate(instance=json.loads(text), schema=schema)
