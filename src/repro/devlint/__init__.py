"""Self-lint for the repo: AST contract rules + the runtime sanitizer.

``repro.devlint`` turns the invariants past PRs fixed by hand --
monotonic clocks, guarded tracers, the exception taxonomy, fcntl
append discipline, lock-copy hygiene -- into mechanical checks over
the repo's **own** source (``repro devlint src/``), and pairs them
with the opt-in lock-order sanitizer of :mod:`repro.sanitize`
(``REPRO_SANITIZE=1``).  See DESIGN.md section 15.
"""

from repro.devlint.engine import (
    DRIVER,
    iter_python_files,
    lint_paths,
    lint_source,
    with_sanitizer_findings,
)
from repro.devlint.rules import (
    ALL_RULES,
    DECLARED_ROOTS,
    DECLARED_STDLIB_PASSTHROUGH,
    RULE_CATALOGUE,
    RULE_CODES,
    SANITIZER_RULES,
)

__all__ = [
    "ALL_RULES",
    "DECLARED_ROOTS",
    "DECLARED_STDLIB_PASSTHROUGH",
    "DRIVER",
    "RULE_CATALOGUE",
    "RULE_CODES",
    "SANITIZER_RULES",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "with_sanitizer_findings",
]
