"""Fault injection, watchdog anchors, and graceful degradation.

The paper's runtime model trusts its environment: every anchor's
``done`` eventually arrives, every delay profile is honest, every input
graph is well-formed.  This package drops those assumptions:

* :mod:`repro.resilience.faults` -- a seeded fault-injection harness
  perturbing delay profiles and completion signals (stalls, late/early
  completions, dropped done-pulses, spurious pulses), plus the
  *detected-or-masked* classifier: every injected fault must either be
  detected (a taxonomy error or watchdog timeout event) or masked (the
  recovered execution still satisfies every timing constraint) --
  never a silent wrong result;
* :mod:`repro.resilience.guard` -- a hardened pipeline wrapper with run
  budgets (size caps, iteration caps against the Theorem 8 bound,
  wall-clock deadlines) and a strict validating loader for untrusted
  graph JSON;
* :mod:`repro.resilience.chaos` -- the seeded campaign runner
  (``python -m repro.resilience.chaos``, ``repro chaos``): one loop
  whose ``faults``, ``runtime`` and ``crash`` case kinds run fault
  injection, the executor-vs-simulator differential and crash
  injection at scale, failing on any silent divergence;
* :mod:`repro.resilience.recovery` -- the crash-recovery harness:
  journal a stream through the real write-ahead path, kill the journal
  at every record boundary (and inside records), replay, and demand
  bit-identical executor state (shared by the qa oracle's
  ``crash_recovery`` check and the ``crash`` campaign kind).

Watchdog bounds and policies themselves live in
:mod:`repro.core.watchdog` so the simulators can honor them without
importing this package.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

from repro.core.watchdog import (
    WatchdogConfig,
    WatchdogPolicy,
    WatchdogTimeout,
    validate_watchdog_bounds,
)
from repro.resilience.guard import (
    RunBudget,
    guarded_schedule,
    load_untrusted_graph,
)

if TYPE_CHECKING:
    from repro.resilience.faults import (
        Fault,
        FaultKind,
        FaultPlan,
        FaultRun,
        observed_violations,
        run_with_faults,
    )
    from repro.resilience.recovery import (
        CrashReport,
        compare_snapshots,
        journal_stream,
        record_boundaries,
        verify_crash_points,
    )

#: Re-exports imported on first use (PEP 562): ``faults`` pulls in the
#: simulators and ``recovery`` the runtime driver, and the service,
#: which imports ``guard`` through this package, runs neither.
_LAZY = {
    **dict.fromkeys(("Fault", "FaultKind", "FaultPlan", "FaultRun",
                     "observed_violations", "run_with_faults"),
                    "repro.resilience.faults"),
    **dict.fromkeys(("CrashReport", "compare_snapshots", "journal_stream",
                     "record_boundaries", "verify_crash_points"),
                    "repro.resilience.recovery"),
}


def __getattr__(name: str) -> Any:
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(_LAZY[name]), name)
    globals()[name] = value
    return value


# NOTE: repro.resilience.chaos is deliberately not imported here -- it
# is a runnable module (``python -m repro.resilience.chaos``), and
# importing it from the package initializer would make runpy re-execute
# it under that invocation.  Import it directly.

__all__ = [
    "WatchdogConfig",
    "WatchdogPolicy",
    "WatchdogTimeout",
    "validate_watchdog_bounds",
    "Fault",
    "FaultKind",
    "FaultPlan",
    "FaultRun",
    "observed_violations",
    "run_with_faults",
    "RunBudget",
    "guarded_schedule",
    "load_untrusted_graph",
    "CrashReport",
    "compare_snapshots",
    "journal_stream",
    "record_boundaries",
    "verify_crash_points",
]
