"""The devlint driver: file walking, waivers, report assembly.

Reuses :mod:`repro.lint.diagnostics` wholesale -- a devlint finding is
an ordinary :class:`~repro.lint.diagnostics.Diagnostic` whose span is
a source ``file:line`` instead of graph coordinates, so the text/JSON
renderings and the severity-driven exit code come for free.

Waivers: a line carrying ``# devlint: disable=DL101`` (comma-separated
codes, on the flagged line) suppresses the named rule there.  Every
suppression is counted in the report's notes -- silent waivers must
never read as "clean" -- and the acceptance bar for this repo's own
tree is *zero* waivers on error-severity rules.
"""

from __future__ import annotations

import os
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.lint.diagnostics import Diagnostic, LintReport, Severity, Span
from repro.lint.sarif import SarifDriver
from repro.devlint.rules import (
    ALL_RULES,
    ModuleContext,
    ProjectContext,
    RULE_CATALOGUE,
    SANITIZER_RULES,
)

_WAIVER = re.compile(r"#\s*devlint:\s*disable=([A-Z0-9, ]+)")

_SEVERITY_OF: Dict[str, Severity] = {
    code: Severity(severity)
    for code, _name, _summary, _citation, severity in RULE_CATALOGUE}

_CITATION_OF: Dict[str, str] = {
    code: citation
    for code, _name, _summary, citation, _severity
    in RULE_CATALOGUE + SANITIZER_RULES}

#: devlint's SARIF driver (for :func:`repro.lint.sarif.to_sarif`): the
#: AST rules plus the sanitizer finding kinds; any error result marks
#: the run unsuccessful.
DRIVER = SarifDriver("repro-devlint", tuple(
    (code, name, summary,
     f"Enforces: {citation}. See DESIGN.md section 15.", severity)
    for code, name, summary, citation, severity
    in RULE_CATALOGUE + SANITIZER_RULES), errors_fail=True)


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Every ``.py`` file under *paths* (files pass through), sorted."""
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(d for d in dirs
                             if d != "__pycache__" and not d.startswith("."))
            found.extend(os.path.join(root, name)
                         for name in sorted(files) if name.endswith(".py"))
    return sorted(set(found))


def _waived_codes(line: str) -> List[str]:
    match = _WAIVER.search(line)
    if not match:
        return []
    return [code.strip() for code in match.group(1).split(",")
            if code.strip()]


def _lint_module(ctx: ModuleContext, project: ProjectContext,
                 select: Optional[Sequence[str]] = None,
                 ) -> Tuple[List[Diagnostic], int]:
    diagnostics: List[Diagnostic] = []
    waived = 0
    for rule in ALL_RULES:
        for finding in rule(ctx, project):
            if select and finding.code not in select:
                continue
            line_text = ""
            if 0 < finding.line <= len(ctx.source_lines):
                line_text = ctx.source_lines[finding.line - 1]
            if finding.code in _waived_codes(line_text):
                waived += 1
                continue
            diagnostics.append(Diagnostic(
                code=finding.code,
                severity=_SEVERITY_OF[finding.code],
                message=finding.message,
                citation=_CITATION_OF[finding.code],
                span=Span(file=ctx.filename, line=finding.line)))
    diagnostics.sort(key=lambda d: (d.span.file or "", d.span.line or 0,
                                    d.code))
    return diagnostics, waived


def lint_source(source: str, filename: str = "<string>", *,
                select: Optional[Sequence[str]] = None,
                project: Optional[ProjectContext] = None) -> LintReport:
    """Lint one source string (the unit-test / fixture entry point)."""
    ctx = ModuleContext.parse(source, filename)
    if project is None:
        project = ProjectContext()
    project.add_module(ctx)
    diagnostics, waived = _lint_module(ctx, project, select)
    notes = ()
    if waived:
        notes = (f"{waived} finding(s) waived by devlint:disable "
                 f"comments",)
    return LintReport(tuple(diagnostics), notes)


def lint_paths(paths: Sequence[str], *,
               select: Optional[Sequence[str]] = None) -> LintReport:
    """Lint every Python file under *paths* with a shared class table.

    Two passes: the first builds the project-wide exception class
    hierarchy (so ``raise PoolSaturatedError`` in one file resolves
    through its definition in another), the second runs the rules.
    Unparseable files surface as a note, never a crash -- devlint must
    not take CI down on a syntax error some *other* gate owns.
    """
    project = ProjectContext()
    modules: List[ModuleContext] = []
    notes: List[str] = []
    for filename in iter_python_files(paths):
        try:
            with open(filename, encoding="utf-8") as handle:
                source = handle.read()
            ctx = ModuleContext.parse(source, filename)
        except (OSError, SyntaxError, UnicodeDecodeError) as error:
            notes.append(f"skipped {filename}: {error}")
            continue
        project.add_module(ctx)
        modules.append(ctx)

    diagnostics: List[Diagnostic] = []
    waived_total = 0
    for ctx in modules:
        found, waived = _lint_module(ctx, project, select)
        diagnostics.extend(found)
        waived_total += waived
    notes.append(f"{len(modules)} file(s) linted")
    if waived_total:
        notes.append(f"{waived_total} finding(s) waived by "
                     f"devlint:disable comments")
    return LintReport(tuple(diagnostics), tuple(notes))


def with_sanitizer_findings(report: LintReport,
                            sanitizer: Optional[Dict[str, Any]]
                            ) -> LintReport:
    """*report* plus an enabled :func:`repro.sanitize.report` dict's
    lock-order cycles and blocking-I/O findings, appended as SANLOCK /
    SANIO error diagnostics.  They carry no location (they are
    dynamic-order facts); the witness call chains ride in the message.
    """
    if not sanitizer or not sanitizer.get("enabled"):
        return report
    found = [Diagnostic(
        code="SANLOCK", severity=Severity.ERROR,
        citation=_CITATION_OF["SANLOCK"],
        message=f"lock acquisition-order cycle {cycle['path']} "
                f"(witnesses: {'; '.join(cycle['witnesses'])})")
        for cycle in sanitizer.get("cycles", [])]
    found.extend(Diagnostic(
        code="SANIO", severity=Severity.ERROR,
        citation=_CITATION_OF["SANIO"],
        message=f"blocking {finding['kind']} ({finding['detail']}) while "
                f"holding {finding['locks']} at {finding['witness']}")
        for finding in sanitizer.get("io_findings", []))
    return LintReport(report.diagnostics + tuple(found), report.notes)
