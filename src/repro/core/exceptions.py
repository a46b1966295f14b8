"""Exception hierarchy for constraint-graph analysis and scheduling.

The paper distinguishes three failure modes:

* the forward constraint graph has a cycle -- the minimum constraints
  contradict the sequencing dependencies (Section III);
* the constraints are *unfeasible* -- unsatisfiable even with all
  unbounded delays at 0, i.e. a positive cycle exists (Theorem 1);
* the constraints are *ill-posed* -- satisfiable for some but not all
  values of the unbounded delays (Definition 7), and cannot be made
  well-posed by serialization (Lemma 3).

Scheduling itself can additionally detect inconsistency after
``|Eb| + 1`` iterations (Corollary 2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # Edge lives in repro.core.graph, which imports this
    from repro.core.graph import Edge  # module; import only for typing.


class ConstraintGraphError(Exception):
    """Base class for all constraint-graph and scheduling errors."""


class CyclicForwardGraphError(ConstraintGraphError):
    """The forward constraint graph G_f(V, E_f) contains a cycle.

    The paper assumes G_f acyclic without loss of generality: a minimum
    constraint closing a forward cycle either contradicts the sequencing
    dependencies (l_ij > 0) or should have been expressed as a maximum
    constraint (l_ij = 0).
    """


class UnfeasibleConstraintsError(ConstraintGraphError):
    """The constraint graph has a positive cycle with unbounded delays at 0.

    By Theorem 1 no schedule exists, even for the most favourable delay
    profile.
    """


class IllPosedError(ConstraintGraphError):
    """The constraints cannot be satisfied for all unbounded delay values.

    Raised by ``make_well_posed`` when serialization would close an
    unbounded-length cycle (Lemma 3), i.e. no well-posed
    serial-compatible graph exists.
    """


class InconsistentConstraintsError(ConstraintGraphError):
    """The scheduler exhausted ``|Eb| + 1`` iterations without converging.

    By Corollary 2 this certifies that the timing constraints are
    inconsistent and no (relative) schedule exists.
    """


class GraphStructureError(ConstraintGraphError):
    """The graph violates a structural invariant (polarity, unknown vertex,
    duplicate names, non-anchor tail on an unbounded edge, ...)."""


class MalformedInputError(GraphStructureError):
    """Untrusted serialized input failed strict validation.

    Raised by :func:`repro.io.validate_graph_dict` (and the loaders
    built on it) for broken graph JSON -- missing keys, wrong types, NaN
    or out-of-range weights, duplicate edges, self-loops -- and by
    :func:`repro.io.schedule_from_dict` for a schedule that is not the
    certified schedule of its graph.  A :class:`GraphStructureError`, so
    every ``error:``-line handler already covers it.
    """


class WatchdogTimeoutError(ConstraintGraphError):
    """A watchdog anchor exceeded its timeout bound ``W(a)``.

    The runtime counterpart of an unbounded delay misbehaving: the
    anchor's completion signal did not arrive within the configured
    bound (plus any re-arm windows), and the degradation policy chose to
    abort.  Carries the anchor name, the bound, the cycle at which the
    (final) timeout fired, and how many re-arms were spent.
    """

    def __init__(self, message: str, *, anchor: str = "",
                 bound: int = 0, cycle: int = 0, rearms: int = 0) -> None:
        super().__init__(message)
        self.anchor = anchor
        self.bound = bound
        self.cycle = cycle
        self.rearms = rearms


class BudgetExceededError(ConstraintGraphError):
    """A hardened entry point refused or aborted a run over its budget.

    Raised by :mod:`repro.resilience.guard` when an input exceeds the
    configured vertex/edge caps, when the Theorem 8 iteration bound
    ``|Eb| + 1`` is larger than the allowed iteration budget, or when a
    wall-clock deadline expires mid-pipeline.
    """


@dataclass(frozen=True)
class OffsetViolation:
    """The witness of one violated edge inequality of a schedule.

    Produced by the one schedule certificate
    (:func:`repro.core.indexed.offset_violation`), and named identically
    by its dict reference scan: the first edge ``(tail, head)``, in
    insertion order, with static weight ``weight`` whose inequality
    ``sigma_a(head) >= sigma_a(tail) + w`` fails, at its lowest-slot
    anchor ``anchor`` (tail anchors read at their implicit self offset
    0, per Definition 3).
    """

    edge: "Edge"
    anchor: str
    head_offset: int
    tail_offset: int
    weight: int

    def message(self) -> str:
        """The human-readable inequality, as raised by ``validate()``."""
        return (f"schedule violates edge {self.edge!r} w.r.t. anchor "
                f"{self.anchor!r}: {self.head_offset} < "
                f"{self.tail_offset} + {self.weight}")


class ScheduleViolationError(ValueError):
    """A schedule fails an edge inequality; carries the exact witness.

    Subclasses :class:`ValueError` because that is the documented (and
    long-standing) contract of :meth:`RelativeSchedule.validate`; the
    attached :class:`OffsetViolation` lets programmatic consumers (the
    lint engine, the QA oracle) read the violated edge and anchor
    without parsing the message.
    """

    def __init__(self, violation: OffsetViolation) -> None:
        super().__init__(violation.message())
        self.violation = violation


class IndexedKernelUnsupported(ConstraintGraphError):
    """The indexed array kernel cannot represent this request.

    Raised by :func:`repro.core.indexed.schedule_offsets` (and so by
    :class:`~repro.core.scheduler.IterativeIncrementalScheduler`) when
    the anchor sets name a tag that is not an anchor vertex of the
    compiled graph: the request is malformed, so it is a taxonomy
    rejection.  Deliberately distinct from :class:`KeyError`: a
    ``KeyError`` escaping the kernel is a genuine bug and must
    propagate as one.
    """
