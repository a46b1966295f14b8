"""Hardened entry points: run budgets and untrusted input.

:func:`guarded_schedule` wraps :func:`repro.core.scheduler.schedule_graph`
with a :class:`RunBudget`:

* **size caps** reject oversized graphs before any analysis runs;
* an **iteration cap** is checked against the Theorem 8 bound
  ``|Eb| + 1`` up front -- the bound is known before scheduling, so a
  graph that could exceed the cap is refused, not aborted halfway;
* a **wall-clock deadline** is threaded through every pipeline stage.

An internal error in the kernel (a bug, not a taxonomy rejection) is
not retried on another kernel: it propagates, and the service answers
it with a 500.

:func:`load_untrusted_graph` parses graph JSON from outside the trust
boundary: strict structural validation
(:func:`repro.qa.serialize.validate_graph_dict`), JSON ``NaN`` /
``Infinity`` rejected at the parser, and optional size caps applied
*before* the graph is built.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from repro.core.anchors import AnchorMode
from repro.core.exceptions import BudgetExceededError, MalformedInputError
from repro.core.graph import ConstraintGraph
from repro.core.schedule import RelativeSchedule
from repro.core.scheduler import schedule_graph


@dataclass(frozen=True)
class RunBudget:
    """Resource limits for one hardened pipeline run.

    Attributes:
        max_vertices: refuse graphs with more vertices.
        max_edges: refuse graphs with more edges.
        max_iterations: refuse graphs whose Theorem 8 bound ``|Eb| + 1``
            exceeds this (the scheduler never iterates past the bound,
            so the check is exact and runs before any work).
        deadline_s: wall-clock seconds the run may take, checked between
            pipeline stages.
    """

    max_vertices: Optional[int] = None
    max_edges: Optional[int] = None
    max_iterations: Optional[int] = None
    deadline_s: Optional[float] = None

    def check_size(self, graph: ConstraintGraph) -> None:
        """Refuse an oversized graph (BudgetExceededError)."""
        n_vertices = len(graph.vertex_names())
        if self.max_vertices is not None and n_vertices > self.max_vertices:
            raise BudgetExceededError(
                f"graph has {n_vertices} vertices, over the budget of "
                f"{self.max_vertices}")
        n_edges = len(graph.edges())
        if self.max_edges is not None and n_edges > self.max_edges:
            raise BudgetExceededError(
                f"graph has {n_edges} edges, over the budget of "
                f"{self.max_edges}")

    def check_iteration_bound(self, graph: ConstraintGraph) -> None:
        """Refuse a graph whose worst-case round count is over budget."""
        if self.max_iterations is None:
            return
        bound = len(graph.backward_edges()) + 1
        if bound > self.max_iterations:
            raise BudgetExceededError(
                f"Theorem 8 iteration bound |Eb|+1 = {bound} exceeds the "
                f"iteration budget {self.max_iterations}")

    def absolute_deadline(self) -> Optional[float]:
        """The perf_counter instant this run must finish by."""
        if self.deadline_s is None:
            return None
        return time.perf_counter() + self.deadline_s

    @classmethod
    def parse(cls, spec: str) -> "RunBudget":
        """Parse the shared budget spec mini-language.

        ``"vertices=500,edges=4000,iterations=64,deadline=5.0"`` (any
        subset, ``deadline`` in seconds) -- the format the CLI's
        ``--budget`` flag and the service's configuration both use.

        Raises:
            ValueError: naming the first bad entry, key, or value.
        """
        fields: dict = {"vertices": None, "edges": None,
                        "iterations": None, "deadline": None}
        for item in spec.split(","):
            if "=" not in item:
                raise ValueError(f"bad budget entry {item!r} "
                                 f"(expected key=value)")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in fields:
                raise ValueError(f"unknown budget key {key!r} "
                                 f"(expected one of {sorted(fields)})")
            try:
                fields[key] = float(value) if key == "deadline" else int(value)
            except ValueError:
                raise ValueError(f"bad budget value {value!r}") from None
        return cls(max_vertices=fields["vertices"],
                   max_edges=fields["edges"],
                   max_iterations=fields["iterations"],
                   deadline_s=fields["deadline"])


def guarded_schedule(graph: ConstraintGraph,
                     budget: Optional[RunBudget] = None, *,
                     watchdog=None,
                     anchor_mode: AnchorMode = AnchorMode.IRREDUNDANT,
                     auto_well_pose: bool = True,
                     validate: bool = True) -> RelativeSchedule:
    """Schedule *graph* under a :class:`RunBudget`.

    Taxonomy rejections (ill-posed, unfeasible, over-budget, malformed)
    propagate unchanged -- they are correct answers -- and so does any
    other exception: a kernel bug is not masked by a retry.

    Args:
        graph: the graph to schedule (validated against the budget's
            size caps first).
        budget: resource limits; None imposes none.
        watchdog: optional per-anchor timeout bounds to validate and
            attach to the schedule (see ``schedule_graph``).
        anchor_mode: anchor-set variant, as in ``schedule_graph``.
        auto_well_pose: serialize ill-posed graphs, as in
            ``schedule_graph``.
        validate: re-check the resulting offsets, as in
            ``schedule_graph``.

    Raises:
        BudgetExceededError: a cap or the deadline was exceeded.
        ConstraintGraphError: the graph is genuinely unschedulable.
    """
    budget = budget or RunBudget()
    budget.check_size(graph)
    budget.check_iteration_bound(graph)
    return schedule_graph(
        graph, anchor_mode=anchor_mode, auto_well_pose=auto_well_pose,
        validate=validate, watchdog=watchdog,
        deadline=budget.absolute_deadline())


def load_untrusted_graph(source: Union[str, Path],
                         budget: Optional[RunBudget] = None,
                         *, is_path: Optional[bool] = None) -> ConstraintGraph:
    """Parse and validate graph JSON from outside the trust boundary.

    Args:
        source: a filesystem path or a JSON string (a ``Path`` object or
            *is_path=True* forces the former, *is_path=False* the
            latter; by default a string is treated as a path).
        budget: size caps applied to the *declared* vertex/edge lists
            before any graph object is built.

    Raises:
        MalformedInputError: the JSON is not valid, not an object, uses
            non-finite numbers, or fails structural validation (see
            :func:`repro.qa.serialize.validate_graph_dict`).
        BudgetExceededError: the declared payload is over the caps.
    """
    if is_path is None:
        is_path = True
    if isinstance(source, Path) or is_path:
        try:
            text = Path(source).read_text()
        except OSError as error:
            raise MalformedInputError(
                f"cannot read graph file {str(source)!r}: {error}") from error
    else:
        text = str(source)

    def reject_nonfinite(token: str) -> float:
        raise MalformedInputError(
            f"graph JSON uses the non-finite number {token}")

    try:
        data = json.loads(text, parse_constant=reject_nonfinite)
    except MalformedInputError:
        raise
    except ValueError as error:
        raise MalformedInputError(f"graph JSON does not parse: {error}") from error

    return untrusted_graph_from_dict(data, budget)


def untrusted_graph_from_dict(data: Any,
                              budget: Optional[RunBudget] = None
                              ) -> ConstraintGraph:
    """Validate and build a graph from an already-parsed untrusted dict.

    The tail of :func:`load_untrusted_graph`, exposed for callers that
    parse JSON themselves (the HTTP service decodes whole request
    bodies): declared-size caps *before* any graph object is built,
    then strict structural validation, then reconstruction through the
    public graph API.

    Raises:
        MalformedInputError: the payload is not an object or fails
            strict structural validation.
        BudgetExceededError: the declared payload is over the caps.
    """
    from repro.qa.serialize import graph_from_dict, validate_graph_dict

    if not isinstance(data, dict):
        raise MalformedInputError(
            f"graph JSON must be an object, got {type(data).__name__}")
    if budget is not None:
        declared_vertices = data.get("vertices")
        declared_edges = data.get("edges")
        if (budget.max_vertices is not None
                and isinstance(declared_vertices, list)
                and len(declared_vertices) > budget.max_vertices):
            raise BudgetExceededError(
                f"untrusted graph declares {len(declared_vertices)} vertices, "
                f"over the budget of {budget.max_vertices}")
        if (budget.max_edges is not None and isinstance(declared_edges, list)
                and len(declared_edges) > budget.max_edges):
            raise BudgetExceededError(
                f"untrusted graph declares {len(declared_edges)} edges, "
                f"over the budget of {budget.max_edges}")
    validate_graph_dict(data, strict=True)
    return graph_from_dict(data)
