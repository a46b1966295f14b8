"""SARIF 2.1.0 rendering of lint and devlint reports.

Emits the subset of SARIF every mainstream consumer (GitHub code
scanning, VS Code SARIF viewer) reads: one run, a tool driver with the
full rule catalogue as ``reportingDescriptor`` entries, and one result
per diagnostic with logical locations (graph / vertex coordinates) and
physical locations (a source file and line, from HDL provenance or a
devlint finding).  Graph-mutation fixes cannot be expressed as SARIF
text replacements, so they ride in each result's property bag
(``properties.fix``) alongside the citation.

This is the one emitter of both linters: each passes its
:class:`SarifDriver` (name, rule catalogue with help texts, and whether
an error result marks the run unsuccessful).  An ``invocations`` entry
appears when there is something to say: tool notifications (the
report's notes) or an unsuccessful run.

The bundled ``sarif_schema.json`` is a trimmed JSON Schema for this
subset; ``tests/lint/test_sarif.py`` validates every emitted log
against it (and the full upstream schema accepts anything the trimmed
one does on these documents, as the trimmed schema is a restriction).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.design_rules import DESIGN_RULES, LOWERING_FAILURE
from repro.lint.diagnostics import Diagnostic, LintReport
from repro.lint.rules import GRAPH_RULES

#: Canonical URI of the full SARIF 2.1.0 schema (informational; the
#: bundled trimmed schema is what tests validate against).
SARIF_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

SARIF_VERSION = "2.1.0"

TOOL_NAME = "repro-lint"

#: Rule metadata in catalogue order: (code, name, summary, citation,
#: default severity).
RULE_CATALOGUE: Tuple[Tuple[str, str, str, str, str], ...] = tuple(
    (rule.code, rule.name, rule.summary, rule.citation, rule.severity.value)
    for rule in (
        list(GRAPH_RULES[:3]) + [LOWERING_FAILURE]
        + list(GRAPH_RULES[3:]) + list(DESIGN_RULES)
    )
)


@dataclass(frozen=True)
class SarifDriver:
    """One tool driver of the emitted log.

    Attributes:
        name: the driver name (``repro-lint``, ``repro-devlint``).
        rules: the rule catalogue in descriptor order, as (code, name,
            summary, help text, default severity) tuples.
        errors_fail: report the invocation unsuccessful when any
            result is an error (devlint's CI gate reads it).
    """

    name: str
    rules: Tuple[Tuple[str, str, str, str, str], ...]
    errors_fail: bool = False


#: The graph linter's driver: every rule's help cites its paper result.
LINT_DRIVER = SarifDriver(TOOL_NAME, tuple(
    (code, name, summary,
     f"Enforces: {citation} (Ku & De Micheli, DAC 1990). See "
     f"docs/THEORY.md and DESIGN.md section 10.", severity)
    for code, name, summary, citation, severity in RULE_CATALOGUE))


def _rule_descriptors(driver: SarifDriver) -> List[Dict[str, Any]]:
    return [{
        "id": code,
        "name": name,
        "shortDescription": {"text": summary},
        "help": {"text": help_text},
        "defaultConfiguration": {
            "level": "note" if severity == "info" else severity},
    } for code, name, summary, help_text, severity in driver.rules]


def _result(diagnostic: Diagnostic, rule_index: Optional[int],
            artifact_uri: Optional[str]) -> Dict[str, Any]:
    span = diagnostic.span
    location: Dict[str, Any] = {}
    uri = span.file if span.file is not None else artifact_uri
    if uri is not None:
        physical: Dict[str, Any] = {"artifactLocation": {"uri": uri}}
        if span.line is not None:
            physical["region"] = {"startLine": span.line}
        location["physicalLocation"] = physical
    logical: List[Dict[str, Any]] = []
    if span.graph is not None:
        logical.append({"name": span.graph, "kind": "module"})
    if span.vertex is not None:
        qualified = (f"{span.graph}::{span.vertex}" if span.graph
                     else span.vertex)
        logical.append({"name": span.vertex,
                        "fullyQualifiedName": qualified,
                        "kind": "element"})
    if span.edge is not None:
        logical.append({"name": f"{span.edge[0]}->{span.edge[1]}",
                        "kind": "element"})
    if logical:
        location["logicalLocations"] = logical

    properties: Dict[str, Any] = {"citation": diagnostic.citation}
    if diagnostic.fix is not None:
        properties["fix"] = diagnostic.fix.to_json()
    result: Dict[str, Any] = {
        "ruleId": diagnostic.code,
        "level": diagnostic.severity.sarif_level,
        "message": {"text": diagnostic.message},
        "properties": properties,
    }
    if rule_index is not None:
        result["ruleIndex"] = rule_index
    if location:
        result["locations"] = [location]
    return result


def to_sarif(report: LintReport, *,
             artifact_uri: Optional[str] = None,
             driver: SarifDriver = LINT_DRIVER) -> Dict[str, Any]:
    """The SARIF 2.1.0 log object for *report*.

    Args:
        report: the lint report to render.
        artifact_uri: URI of the linted input (used for results whose
            span has no file of its own).
        driver: the tool driver (default: the graph linter's).
    """
    rule_index = {rule[0]: position
                  for position, rule in enumerate(driver.rules)}
    run: Dict[str, Any] = {
        "tool": {"driver": {
            "name": driver.name,
            "informationUri": "https://github.com/",
            "rules": _rule_descriptors(driver),
        }},
        "results": [_result(d, rule_index.get(d.code), artifact_uri)
                    for d in report.diagnostics],
        "columnKind": "utf16CodeUnits",
    }
    successful = not (driver.errors_fail and report.errors())
    if report.notes or not successful:
        invocation: Dict[str, Any] = {"executionSuccessful": successful}
        if report.notes:
            invocation["toolExecutionNotifications"] = [
                {"level": "note", "message": {"text": note}}
                for note in report.notes]
        run["invocations"] = [invocation]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [run],
    }


def sarif_json(report: LintReport, *,
               artifact_uri: Optional[str] = None,
               driver: SarifDriver = LINT_DRIVER) -> str:
    """:func:`to_sarif` serialized with a trailing newline."""
    return json.dumps(to_sarif(report, artifact_uri=artifact_uri,
                               driver=driver), indent=2) + "\n"


def load_trimmed_schema() -> Dict[str, Any]:
    """The bundled trimmed SARIF 2.1 JSON schema (for validation)."""
    path = Path(__file__).with_name("sarif_schema.json")
    return json.loads(path.read_text())
