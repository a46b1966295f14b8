"""The relative schedule: per-anchor offsets and start-time evaluation.

A *relative schedule* (Definition 5) is the set of offsets of each
vertex with respect to each anchor in its anchor set:
``Omega = { sigma_a(v) | a in A(v), for all v }``.

Given a run-time *delay profile* ``{delta(a) | a in A}`` the start time
of every operation follows recursively (Section III-A)::

    T(v) = max over a in A(v) of ( T(a) + delta(a) + sigma_a(v) )

with ``T(source) = 0``.  The minimum relative schedule minimises every
offset simultaneously, hence minimises ``T(v)`` for *every* profile --
the central optimality property of relative scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.anchors import AnchorMode, AnchorSets
from repro.core.exceptions import ScheduleViolationError
from repro.core.graph import ConstraintGraph


@dataclass
class RelativeSchedule:
    """Offsets of every vertex from the anchors in its anchor set.

    Attributes:
        graph: the constraint graph that was scheduled.
        anchor_sets: the anchor sets (full, relevant, or irredundant)
            used during scheduling; ``offsets[v]`` has exactly the keys
            ``anchor_sets[v]``.
        offsets: ``offsets[v][a] = sigma_a(v)``.
        anchor_mode: which anchor-set variant produced this schedule.
        iterations: scheduler iterations used (``<= |Eb| + 1``).
        watchdog: optional per-anchor timeout bounds ``W(a)`` attached
            by ``schedule_graph(..., watchdog=...)``; honored by the
            simulators and by :meth:`bounded_completion`.
    """

    graph: ConstraintGraph
    anchor_sets: AnchorSets
    offsets: Dict[str, Dict[str, int]]
    anchor_mode: AnchorMode = AnchorMode.FULL
    iterations: int = 0
    watchdog: Optional[Dict[str, int]] = None

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------

    def offset(self, vertex: str, anchor: str) -> int:
        """``sigma_anchor(vertex)``; KeyError if the anchor is not in the
        vertex's anchor set."""
        return self.offsets[vertex][anchor]

    def anchors_of(self, vertex: str) -> List[str]:
        """The anchors this schedule tracks for *vertex*, sorted."""
        return sorted(self.offsets[vertex])

    def max_offset(self, anchor: str) -> int:
        """``sigma_a^max`` -- the largest offset any vertex holds w.r.t.
        *anchor* (Section VI); 0 when no vertex references it."""
        values = [offsets[anchor] for offsets in self.offsets.values() if anchor in offsets]
        return max(values) if values else 0

    def max_offsets(self) -> Dict[str, int]:
        """``sigma_a^max`` for every anchor of the graph."""
        return {anchor: self.max_offset(anchor) for anchor in self.graph.anchors}

    def sum_of_max_offsets(self) -> int:
        """Sum of ``sigma_a^max`` over all anchors -- the paper's proxy for
        control implementation complexity (Table IV)."""
        return sum(self.max_offsets().values())

    # ------------------------------------------------------------------
    # start-time evaluation
    # ------------------------------------------------------------------

    def start_times(self, profile: Optional[Mapping[str, int]] = None) -> Dict[str, int]:
        """Evaluate ``T(v)`` for every vertex under a delay *profile*.

        The profile maps anchor names to observed execution delays;
        anchors missing from the profile (including the source) default
        to 0.  Evaluation follows the forward graph in topological
        order, so every anchor's start time is known before it is used.
        """
        profile = dict(profile or {})
        resolved: Dict[str, int] = {}
        for anchor in self.graph.anchors:
            value = profile.get(anchor, 0)
            if value < 0:
                raise ValueError(f"negative delay {value} for anchor {anchor!r}")
            resolved[anchor] = value

        start: Dict[str, int] = {}
        for vertex in self.graph.forward_topological_order():
            terms = [start[a] + resolved[a] + sigma
                     for a, sigma in self.offsets.get(vertex, {}).items()]
            start[vertex] = max(terms) if terms else 0
        return start

    def completion_time(self, profile: Optional[Mapping[str, int]] = None) -> int:
        """``T(sink)`` under *profile*: the latency of the whole graph."""
        return self.start_times(profile)[self.graph.sink]

    def bounded_completion(self, watchdog: Optional[Mapping[str, int]] = None) -> int:
        """The worst-case latency when every watchdog holds.

        Evaluates ``T(sink)`` at the profile that sets each anchor's
        delay to its watchdog bound ``W(a)`` -- the largest delay the
        anchor can exhibit without firing its watchdog.  With bounds on
        every anchor this converts the schedule's unbounded latency
        into a hard guarantee: *either* the sink starts by this cycle,
        *or* some watchdog has fired (a detected timeout).

        Args:
            watchdog: bounds to evaluate at; defaults to the bounds
                attached by ``schedule_graph(..., watchdog=...)``.

        Raises:
            ValueError: when no bounds are attached or given.
        """
        bounds = dict(watchdog if watchdog is not None else (self.watchdog or {}))
        if not bounds:
            raise ValueError("bounded_completion needs watchdog bounds; none "
                             "are attached to this schedule")
        return self.start_times(bounds)[self.graph.sink]

    def start_time_expression(self, vertex: str) -> str:
        """A human-readable rendering of the recursive start-time formula,
        e.g. ``max(T(v0) + d(v0) + 8, T(a) + d(a) + 5)``."""
        terms = [f"T({a}) + d({a}) + {sigma}"
                 for a, sigma in sorted(self.offsets[vertex].items())]
        if not terms:
            return "0"
        if len(terms) == 1:
            return terms[0]
        return "max(" + ", ".join(terms) + ")"

    # ------------------------------------------------------------------
    # validation and reporting
    # ------------------------------------------------------------------

    def validate(self) -> None:
        """Check every edge inequality over the shared anchors.

        For each edge ``(t, h)`` with static weight ``w`` and each anchor
        ``a`` tracked for both endpoints, require
        ``sigma_a(h) >= sigma_a(t) + w`` (a tail anchor at its implicit
        offset 0).  The offsets are packed into the kernel's int rows and
        checked by the same certificate the scheduler applies to its own
        output (:func:`repro.core.indexed.offset_violation`).

        Raises:
            ScheduleViolationError: (a :class:`ValueError`) carrying the
                :class:`~repro.core.exceptions.OffsetViolation` witness
                of the first violated edge.
            ValueError: the offsets name a vertex the graph lacks, a tag
                that is not an anchor, or a negative offset.
        """
        from repro.core.indexed import offset_rows, offset_violation

        rows, tracked = offset_rows(self.graph, self.offsets)
        violation = offset_violation(self.graph, rows, tracked)
        if violation is not None:
            raise ScheduleViolationError(violation)

    def as_table(self) -> List[Tuple[str, List[str], Dict[str, int]]]:
        """Rows in the style of Table II: (vertex, sorted anchor set,
        offsets), in topological order."""
        rows = []
        for vertex in self.graph.forward_topological_order():
            offsets = self.offsets.get(vertex, {})
            rows.append((vertex, sorted(offsets), dict(offsets)))
        return rows

    def format_table(self) -> str:
        """Pretty-print the Table II style offset table."""
        anchors = [a for a in self.graph.anchors]
        header = ["vertex", "anchor set"] + [f"sigma_{a}" for a in anchors]
        lines = ["  ".join(f"{h:>12}" for h in header)]
        for vertex, anchor_list, offsets in self.as_table():
            row = [vertex, "{" + ",".join(anchor_list) + "}"]
            row += [str(offsets[a]) if a in offsets else "-" for a in anchors]
            lines.append("  ".join(f"{c:>12}" for c in row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        total = sum(len(v) for v in self.offsets.values())
        return (f"RelativeSchedule(|V|={len(self.offsets)}, offsets={total}, "
                f"mode={self.anchor_mode.value}, iterations={self.iterations})")
