"""Command-line interface: compile, analyze, schedule, and export.

Usage (also via ``python -m repro``)::

    repro check INPUT               well-posedness report (+ --fix)
    repro lint INPUT [options]      static diagnostics (text/JSON/SARIF)
    repro schedule INPUT [options]  relative schedule (table / JSON out)
    repro schedule-many INPUT       batched scheduling of a JSONL corpus
    repro control INPUT [options]   control generation (cost / Verilog)
    repro dot INPUT [-o FILE]       Graphviz export of the root graph
    repro tables [--which ...]      regenerate the paper's tables/figures
    repro simulate INPUT [options]  cycle-accurate control simulation
    repro cosim INPUT --set p=v     value/timing co-simulation (HDL only)
    repro report INPUT [options]    full Hebe flow report (+ --markdown)
    repro montecarlo INPUT          latency distribution over profiles
    repro observe INPUT [options]   traced scheduling run -> JSON report
    repro chaos [--kind K ...]      seeded fault/runtime/crash campaign

Global flags (before the sub-command) attach the observability layer to
any command: ``--trace`` prints the run summary to stderr, ``--profile``
adds the phase timers, ``--trace-out FILE`` writes the machine-readable
JSON run report (see :mod:`repro.observability`).  ``--budget`` imposes
run budgets (vertex/edge size caps, an iteration cap against the
Theorem 8 bound, a wall-clock deadline) on every scheduling command by
routing it through :func:`repro.resilience.guard.guarded_schedule`; an
exceeded budget follows the same ``error:`` contract as any taxonomy
rejection.

INPUT is either a HardwareC source file (anything not ending in
``.json``) or a JSON artifact produced by :mod:`repro.io` (a design or a
constraint graph, validated on load).  For hierarchical designs the
commands operate on the root graph after bottom-up scheduling.

Every sub-command reports pipeline failures uniformly: a
:class:`~repro.core.exceptions.ConstraintGraphError` (the whole taxonomy
-- unfeasible, ill-posed, inconsistent, cyclic, malformed) prints
``error: ...`` to stderr and exits 1 instead of dumping a traceback;
the handling lives in :func:`main`, so no command can drift.
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List, Optional, Tuple

from repro.core.anchors import AnchorMode
from repro.core.exceptions import ConstraintGraphError
from repro.core.graph import ConstraintGraph
from repro.core.scheduler import schedule_graph
from repro.core.wellposed import check_well_posed, containment_violations


def _load_graph(path: str) -> Tuple[ConstraintGraph, Optional[str]]:
    """Load INPUT and lower it to a single constraint graph.

    Returns (graph, design_name); design_name is None for raw graphs.
    For designs, the root graph is lowered with bottom-up child
    latencies.
    """
    if path.endswith(".json"):
        from repro.io import load_json
        from repro.seqgraph.model import Design

        artifact = load_json(path)
        if isinstance(artifact, ConstraintGraph):
            return artifact, None
        if isinstance(artifact, Design):
            return _root_graph(artifact), artifact.name
        raise SystemExit(f"error: {path} holds a "
                         f"{type(artifact).__name__}, expected a design "
                         f"or constraint graph")
    with open(path) as handle:
        source = handle.read()
    from repro.hdl import compile_source

    design = compile_source(source)
    return _root_graph(design), design.name


def _root_graph(design) -> ConstraintGraph:
    from repro.seqgraph import schedule_design

    result = schedule_design(design)
    return result.constraint_graphs[design.root]


def _parse_profile(text: Optional[str]) -> Dict[str, int]:
    if not text:
        return {}
    profile: Dict[str, int] = {}
    for item in text.split(","):
        if "=" not in item:
            raise SystemExit(f"error: bad profile entry {item!r} "
                             f"(expected name=cycles)")
        name, value = item.split("=", 1)
        try:
            profile[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"error: bad profile value {value!r}") from None
    return profile


def _parse_budget(text: Optional[str]):
    """``--budget vertices=500,edges=4000,iterations=64,deadline=5.0``
    (any subset) -> RunBudget, or None when the flag is absent."""
    if not text:
        return None
    from repro.resilience.guard import RunBudget

    try:
        return RunBudget.parse(text)
    except ValueError as error:
        raise SystemExit(f"error: {error}") from None


def _schedule(graph: ConstraintGraph, args: argparse.Namespace,
              mode: AnchorMode, auto_well_pose: bool = True):
    """Schedule honoring the global ``--budget`` flag (and, for
    ``simulate``, attaching ``--watchdog`` bounds to the schedule)."""
    watchdog = getattr(args, "_watchdog_bounds", None)
    budget = _parse_budget(getattr(args, "budget", None))
    if budget is not None:
        from repro.resilience.guard import guarded_schedule

        return guarded_schedule(graph, budget, watchdog=watchdog,
                                anchor_mode=mode,
                                auto_well_pose=auto_well_pose)
    return schedule_graph(graph, anchor_mode=mode,
                          auto_well_pose=auto_well_pose, watchdog=watchdog)


def _parse_watchdog(text: Optional[str]) -> Optional[Dict[str, int]]:
    """``--watchdog a=5,b=9`` -> per-anchor bounds; names are validated
    against the graph later (taxonomy error, not a parse error)."""
    if not text:
        return None
    return _parse_profile(text)


def _parse_faults(specs: Optional[List[str]]):
    """``--fault kind:anchor[:amount]`` (repeatable) -> FaultPlan."""
    if not specs:
        return None
    from repro.resilience.faults import Fault, FaultKind, FaultPlan

    faults = []
    for spec in specs:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            raise SystemExit(f"error: bad fault spec {spec!r} "
                             f"(expected kind:anchor[:amount])")
        try:
            kind = FaultKind(parts[0].strip())
        except ValueError:
            raise SystemExit(
                f"error: unknown fault kind {parts[0]!r} (expected one of "
                f"{[k.value for k in FaultKind]})") from None
        amount = 0
        if len(parts) == 3:
            try:
                amount = int(parts[2])
            except ValueError:
                raise SystemExit(
                    f"error: bad fault amount {parts[2]!r}") from None
        faults.append(Fault(kind, parts[1].strip(), amount))
    return FaultPlan(tuple(faults))


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------


def cmd_check(args: argparse.Namespace) -> int:
    """Well-posedness analysis (with explanations and optional repair)."""
    graph, name = _load_graph(args.input)
    status = check_well_posed(graph)
    title = name or args.input
    print(f"{title}: {graph}")
    print(f"well-posedness: {status.value}")
    if status.value == "unfeasible":
        from repro.core.explain import explain_infeasibility

        explanation = explain_infeasibility(graph)
        if explanation is not None:
            print(explanation.format())
        return 1
    if status.value == "ill-posed":
        for edge, missing in containment_violations(graph):
            print(f"  violation: backward edge {edge.tail} -> {edge.head} "
                  f"missing anchors {sorted(missing)}")
        if args.fix:
            from repro.core.wellposed import make_well_posed, serialization_edges

            try:
                fixed = make_well_posed(graph)
            except ConstraintGraphError as error:
                print(f"cannot repair: {error}")
                return 1
            print("repaired by minimal serialization:")
            for edge in serialization_edges(fixed):
                print(f"  + {edge.tail} -> {edge.head}")
            return 0
        return 1
    return 0 if status.value == "well-posed" else 1


def cmd_lint(args: argparse.Namespace) -> int:
    """Static analysis: rule-based diagnostics without scheduling.

    Exit-code contract: 0 when no error-severity diagnostics remain
    (after fixes, when ``--fix`` is given), 1 when errors remain;
    taxonomy errors while loading follow the shared ``error:`` contract.
    """
    import json as _json

    from repro.lint import LintConfig, LintEngine, apply_fixes, sarif_json
    from repro.seqgraph.model import Design

    select = (frozenset(p.strip() for p in args.select.split(",") if p.strip())
              if args.select else None)
    ignore = (frozenset(p.strip() for p in args.ignore.split(",") if p.strip())
              if args.ignore else frozenset())
    engine = LintEngine(LintConfig(select=select, ignore=ignore))

    if args.input.endswith(".json"):
        from repro.io import load_json

        artifact = load_json(args.input)
    else:
        with open(args.input) as handle:
            source = handle.read()
        from repro.hdl import compile_source

        artifact = compile_source(source)

    if isinstance(artifact, ConstraintGraph):
        report = engine.lint_graph(artifact, file=args.input)
    elif isinstance(artifact, Design):
        if args.fix:
            raise SystemExit("error: --fix requires a constraint-graph "
                             "JSON input (design fix-its are graph "
                             "mutations and cannot be written back to "
                             "HDL source)")
        report = engine.lint_design(artifact, file=args.input)
    else:
        raise SystemExit(f"error: {args.input} holds a "
                         f"{type(artifact).__name__}, expected a design "
                         f"or constraint graph")

    applied: List[str] = []
    if args.fix and isinstance(artifact, ConstraintGraph):
        applied = apply_fixes(artifact, report)
        if applied:
            from repro.io import save_json

            destination = args.fix_output or args.input
            save_json(artifact, destination)
            report = engine.lint_graph(artifact, file=args.input)

    if args.format == "sarif":
        rendered = sarif_json(report, artifact_uri=args.input)
    elif args.format == "json":
        payload = report.to_json()
        payload["input"] = args.input
        if args.fix:
            payload["applied_fixes"] = applied
        rendered = _json.dumps(payload, indent=2) + "\n"
    else:
        rendered = report.format() + "\n"
        if applied:
            rendered += ("applied {} fix(es): {}\n"
                         .format(len(applied), ", ".join(applied)))

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"lint report written to {args.output}")
    else:
        print(rendered, end="")
    return 1 if report.errors() else 0


def cmd_devlint(args: argparse.Namespace) -> int:
    """Self-lint: the DLxxx contract rules over this repo's own source.

    Exit-code contract: 0 when no error-severity findings, 1 otherwise.
    With ``--sanitizer-report FILE`` a saved :func:`repro.sanitize.report`
    JSON is folded into the SARIF output as SANLOCK/SANIO results (and
    counted against the exit code).
    """
    import json as _json

    from repro.devlint import DRIVER, lint_paths, with_sanitizer_findings
    from repro.lint.sarif import sarif_json

    select = [code.strip() for code in args.select.split(",")
              if code.strip()] if args.select else None
    report = lint_paths(args.paths, select=select)

    sanitizer = None
    if args.sanitizer_report:
        with open(args.sanitizer_report) as handle:
            sanitizer = _json.load(handle)
    folded = with_sanitizer_findings(report, sanitizer)

    if args.format == "sarif":
        rendered = sarif_json(folded, driver=DRIVER)
    elif args.format == "json":
        payload = report.to_json()
        payload["paths"] = list(args.paths)
        if sanitizer is not None:
            payload["sanitizer"] = sanitizer
        rendered = _json.dumps(payload, indent=2) + "\n"
    else:
        rendered = report.format() + "\n"
        if sanitizer and sanitizer.get("enabled"):
            rendered += ("sanitizer: {} cycle(s), {} blocking-I/O "
                         "finding(s) over {} acquisition(s)\n".format(
                             len(sanitizer.get("cycles", [])),
                             len(sanitizer.get("io_findings", [])),
                             sanitizer.get("acquisitions", 0)))

    if args.output:
        with open(args.output, "w") as handle:
            handle.write(rendered)
        print(f"devlint report written to {args.output}")
    else:
        print(rendered, end="")
    return 1 if folded.errors() else 0


def cmd_schedule(args: argparse.Namespace) -> int:
    """Compute and print the minimum relative schedule."""
    graph, _ = _load_graph(args.input)
    mode = AnchorMode(args.mode)
    schedule = _schedule(graph, args, mode,
                         auto_well_pose=not args.no_well_pose)
    print(schedule.format_table())
    print(f"\niterations: {schedule.iterations}   "
          f"anchors: {len(schedule.graph.anchors)}   "
          f"sum of max offsets: {schedule.sum_of_max_offsets()}")
    if args.mobility:
        from repro.core.alap import format_mobility

        print("\nmobility (ASAP vs ALAP at the achieved latency):")
        print(format_mobility(schedule))
    if args.output:
        from repro.io import save_json

        save_json(schedule, args.output)
        print(f"\nschedule written to {args.output}")
    return 0


def cmd_schedule_many(args: argparse.Namespace) -> int:
    """Batched scheduling of a JSONL corpus of serialized graphs.

    INPUT holds one :func:`repro.io.graph_to_dict` graph dict per line
    (the service's wire format).  The whole corpus goes through
    :func:`repro.core.batch.schedule_many` -- shared arena, isomorphism
    dedup, optional persistent cache -- and each graph reports its own
    verdict; the exit code is 1 iff any graph failed.  The global
    ``--budget`` flag applies per graph (size and iteration caps) with
    the deadline covering the whole call.
    """
    import json as _json

    from repro.core.batch import schedule_many
    from repro.io import graph_from_dict

    graphs = []
    with open(args.input) as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = _json.loads(line)
            except ValueError as error:
                raise SystemExit(f"error: {args.input}:{lineno}: "
                                 f"not JSON ({error})") from None
            if not isinstance(data, dict):
                raise SystemExit(f"error: {args.input}:{lineno}: expected "
                                 f"a serialized graph object")
            try:
                graphs.append(graph_from_dict(data))
            except ConstraintGraphError as error:
                raise SystemExit(
                    f"error: {args.input}:{lineno}: {error}") from None

    run = schedule_many(graphs, cache=args.cache,
                        budget=_parse_budget(getattr(args, "budget", None)),
                        auto_well_pose=not args.no_well_pose)

    records = []
    for result in run:
        if result.ok:
            schedule = result.unpack()
            status = ("cached" if result.cached else
                      "fallback" if result.fallback else "scheduled")
            print(f"#{result.index:<5} {status:<10} "
                  f"iterations={schedule.iterations}  "
                  f"sum of max offsets={schedule.sum_of_max_offsets()}")
            records.append({
                "index": result.index, "status": status,
                "iterations": schedule.iterations,
                "offsets": {v: dict(row)
                            for v, row in schedule.offsets.items()},
            })
        else:
            print(f"#{result.index:<5} {'error':<10} "
                  f"{result.error_type}: {result.error}")
            records.append({"index": result.index, "status": "error",
                            "error_type": result.error_type,
                            "message": str(result.error)})
    stats = run.stats
    print(f"{stats['graphs']} graph(s): {stats['scheduled']} scheduled, "
          f"{stats['cache_hits']} cache hit(s), "
          f"{stats['fallbacks']} fallback(s), {stats['errors']} error(s)")
    if args.output:
        with open(args.output, "w") as handle:
            _json.dump({"stats": dict(stats), "results": records},
                       handle, indent=2)
            handle.write("\n")
        print(f"results written to {args.output}")
    return 1 if stats["errors"] else 0


def cmd_control(args: argparse.Namespace) -> int:
    """Synthesize control logic; report costs, optionally emit Verilog."""
    graph, name = _load_graph(args.input)
    schedule = _schedule(graph, args, AnchorMode(args.mode))
    if args.style == "counter":
        from repro.control import synthesize_counter_control as synthesize
    else:
        from repro.control import synthesize_shift_register_control as synthesize
    unit = synthesize(schedule)
    cost = unit.cost()
    print(f"{unit}")
    print(f"registers:       {cost.registers}")
    print(f"comparator bits: {cost.comparator_bits}")
    print(f"gate inputs:     {cost.gate_inputs}")
    print(f"weighted area:   {cost.total():.1f}")
    if args.verilog:
        from repro.control.verilog import to_verilog, _sanitize

        module = _sanitize(name or "relative") + "_control"
        text = to_verilog(unit, module)
        with open(args.verilog, "w") as handle:
            handle.write(text + "\n")
        print(f"verilog written to {args.verilog} (module {module})")
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    """Graphviz export of the (root) constraint graph."""
    graph, _ = _load_graph(args.input)
    text = graph.to_dot()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"dot written to {args.output}")
    else:
        print(text)
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    """Cycle-accurate control simulation under a delay profile.

    With ``--watchdog`` / ``--fault`` the simulation runs the hostile
    environment: injected faults must be *detected* (watchdog timeout,
    abort, degradation) or *masked* (observed times still satisfy every
    constraint edge); a silent wrong result exits 1.
    """
    graph, _ = _load_graph(args.input)
    from repro.core.delay import validate_profile

    profile = _parse_profile(args.profile)
    # An explicit profile must be complete (the source is exempt) and
    # sane; omitting the flag keeps the all-zeros default.
    validate_profile(profile, graph.anchors, graph.source,
                     complete=args.profile is not None)
    bounds = _parse_watchdog(args.watchdog)
    args._watchdog_bounds = bounds
    schedule = _schedule(graph, args, AnchorMode(args.mode))
    if args.style == "counter":
        from repro.control import synthesize_counter_control as synthesize
    else:
        from repro.control import synthesize_shift_register_control as synthesize
    from repro.sim import simulate_control

    plan = _parse_faults(args.fault)
    watchdog = None
    if bounds is not None:
        from repro.core.watchdog import WatchdogConfig, WatchdogPolicy

        watchdog = WatchdogConfig(bounds=schedule.watchdog or bounds,
                                  policy=WatchdogPolicy(args.on_timeout),
                                  max_rearms=args.rearms)
    result = simulate_control(
        synthesize(schedule), schedule, profile,
        watchdog=watchdog,
        completion=plan.completion_override() if plan else None,
        spurious=plan.spurious_pulses() if plan else None)

    print(f"simulated {result.cycles} cycles under profile {profile}")
    for vertex in schedule.graph.forward_topological_order():
        start = result.start_times.get(vertex)
        done = result.done_times.get(vertex)
        print(f"  {vertex:>12}: start @ {start if start is not None else '-':>4}  "
              f"done @ {done if done is not None else 'stalled':>7}")
    for timeout in result.timeouts:
        print(f"  watchdog: {timeout.anchor} timed out at cycle "
              f"{timeout.cycle} (window {timeout.bound}, "
              f"re-arm {timeout.rearm})")
    if result.degraded:
        print("degraded to the static worst-case fallback schedule")
    if result.spurious_rejections:
        print(f"rejected {result.spurious_rejections} spurious done pulse(s)")

    if plan is None and watchdog is None:
        ok = result.matches_schedule(schedule, profile)
        print(f"matches analytical start times: {ok}")
        return 0 if ok else 1
    if result.degraded or result.timeouts:
        print("fault containment: detected")
        return 0
    from repro.resilience.faults import observed_violations

    violations = observed_violations(schedule.graph, result.start_times,
                                     result.done_times)
    if violations:
        for violation in violations:
            print(f"  VIOLATION: {violation}")
        print("fault containment: SILENT DIVERGENCE")
        return 1
    print("fault containment: masked")
    return 0


def _load_design(path: str):
    """Load INPUT as a hierarchical design (HardwareC or design JSON)."""
    if path.endswith(".json"):
        from repro.io import load_json
        from repro.seqgraph.model import Design

        artifact = load_json(path)
        if not isinstance(artifact, Design):
            raise SystemExit(f"error: {path} holds a "
                             f"{type(artifact).__name__}, expected a design")
        return artifact
    with open(path) as handle:
        source = handle.read()
    from repro.hdl import compile_source

    return compile_source(source)


def cmd_report(args: argparse.Namespace) -> int:
    """Full Hebe synthesis report: binding, scheduling, control."""
    from repro.binding.resources import ResourceLibrary, ResourceType
    from repro.flows import synthesize

    design = _load_design(args.input)
    library = None
    if args.resources:
        types = []
        for item in args.resources.split(","):
            if ":" not in item:
                raise SystemExit(f"error: bad resource spec {item!r} "
                                 f"(expected class:count)")
            rclass, count = item.split(":", 1)
            try:
                types.append(ResourceType(rclass.strip(), count=int(count)))
            except ValueError as error:
                raise SystemExit(f"error: {error}") from None
        library = ResourceLibrary(types)
    result = synthesize(design, library=library,
                        anchor_mode=AnchorMode(args.mode),
                        control_style=args.style,
                        exact_conflicts=args.exact)
    print(result.report())
    if args.markdown:
        from repro.analysis.report import write_report

        write_report(result.schedule, args.markdown)
        print(f"markdown report written to {args.markdown}")
    if args.per_graph:
        print("\nper-graph schedules:")
        for name in design.hierarchy_order():
            schedule = result.schedule.schedules[name]
            print(f"\n[{name}]  latency "
                  f"{result.schedule.latencies[name]!r}")
            print(schedule.format_table())
    return 0


def cmd_montecarlo(args: argparse.Namespace) -> int:
    """Monte Carlo latency analysis of the root graph."""
    from repro.analysis.montecarlo import monte_carlo

    graph, _ = _load_graph(args.input)
    schedule = _schedule(graph, args, AnchorMode(args.mode))
    low, high = args.range
    specs = {a: (low, high) for a in graph.anchors if a != graph.source}
    result = monte_carlo(schedule, specs, samples=args.samples,
                         seed=args.seed)
    print(f"anchor delays uniform in [{low}, {high}]:")
    print(result.format_report(
        vertices=[v for v in graph.forward_topological_order()
                  if v != graph.source]))
    return 0


def cmd_cosim(args: argparse.Namespace) -> int:
    """Value/timing co-simulation of a HardwareC design."""
    from repro.sim import PortStream
    from repro.sim.cosim import cosimulate

    if args.input.endswith(".json"):
        raise SystemExit("error: cosim needs HardwareC source (the "
                         "functional pass interprets the AST)")
    with open(args.input) as handle:
        source = handle.read()

    inputs: Dict[str, object] = {}
    for item in (args.set or []):
        if "=" not in item:
            raise SystemExit(f"error: bad --set entry {item!r} "
                             f"(expected port=value)")
        name, value = item.split("=", 1)
        try:
            if ":" in value:
                inputs[name.strip()] = PortStream(
                    [int(v) for v in value.split(":")])
            else:
                inputs[name.strip()] = int(value)
        except ValueError:
            raise SystemExit(f"error: bad --set value {value!r}") from None

    result = cosimulate(source, inputs, process=args.process,
                        wait_delays=args.wait_delay)
    print(f"outputs:    {result.outputs}")
    print(f"completion: cycle {result.completion}")
    print(f"violations: {len(result.violations)}")
    for violation in result.violations:
        print(f"  {violation}")
    if args.gantt:
        from repro.sim import render_gantt

        print()
        print(render_gantt(result.timed, width=args.gantt))
    return 0 if not result.violations else 1


def cmd_observe(args: argparse.Namespace) -> int:
    """Run the scheduling pipeline under a recording tracer and emit the
    observability run report (human summary + optional JSON)."""
    from repro.observability import (build_report, format_summary,
                                    iteration_bound_violations, trace_run,
                                    write_report)

    graph, _ = _load_graph(args.input)
    with trace_run() as tracer:
        for _ in range(args.runs):
            _schedule(graph, args, AnchorMode(args.mode))
    report = build_report(tracer)
    print(format_summary(report))
    if args.output:
        write_report(report, args.output)
        print(f"report written to {args.output}")
    violations = iteration_bound_violations(report)
    if violations:
        print(f"iteration bound |Eb|+1 violated in {len(violations)} "
              f"run(s) -- scheduler bug", file=sys.stderr)
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seeded chaos campaign of one kind (see repro.resilience.chaos)."""
    from repro.core.watchdog import WatchdogPolicy
    from repro.resilience.chaos import run_campaign

    if args.events and args.kind == "faults":
        print("error: --events needs --kind runtime or crash (the faults "
              "kind streams no events)", file=sys.stderr)
        return 2
    cases = args.cases if args.cases is not None else (
        0 if args.events else 200)
    policy = WatchdogPolicy(args.policy) if args.policy else None
    stats = run_campaign(args.kind, args.seed, cases, args.events, policy)
    print(stats.summary())
    if stats.silent:
        print(f"FAIL: {stats.silent} silent divergence(s)", file=sys.stderr)
        return 1
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the scheduling service (see repro.service)."""
    import logging

    from repro.resilience.guard import RunBudget
    from repro.service import ServiceConfig, serve

    tenant_budgets = {}
    for spec in args.tenant_budget or []:
        if "=" not in spec:
            raise SystemExit(f"error: bad tenant budget {spec!r} "
                             f"(expected NAME=BUDGETSPEC)")
        name, budget_spec = spec.split("=", 1)
        try:
            tenant_budgets[name.strip()] = RunBudget.parse(budget_spec)
        except ValueError as error:
            raise SystemExit(f"error: {error}") from None
    config = ServiceConfig(
        host=args.host, port=args.port, workers=args.workers,
        queue_capacity=args.queue_capacity,
        cache_path=args.cache,
        default_budget=_parse_budget(getattr(args, "budget", None)),
        tenant_budgets=tenant_budgets,
        journal_dir=args.journal_dir,
        session_cap=args.session_cap,
        session_ttl_s=args.session_ttl,
        journal_fsync=args.journal_fsync)
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(name)s %(message)s")
    serve(config)
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    """Regenerate the paper's tables and figures."""
    which = args.which
    if which in ("2", "all"):
        from repro.analysis.tables import format_table2

        print(format_table2())
        print()
    if which in ("fig10", "all"):
        from repro.analysis.figures import format_fig10

        print(format_fig10())
        print()
    if which in ("fig14", "all"):
        from repro.analysis.figures import fig14_simulation

        result = fig14_simulation()
        print("Fig. 14 (gcd simulation):")
        print(result.waveform)
        print(f"y @ {result.y_sampled_at}, x @ {result.x_sampled_at}, "
              f"separation ok: {result.separation_ok}")
        print()
    if which in ("3", "4", "all"):
        from repro.analysis.tables import format_table3, format_table4
        from repro.designs import DESIGN_NAMES, build_design
        from repro.seqgraph import design_statistics

        stats = {name: design_statistics(build_design(name))
                 for name in DESIGN_NAMES}
        if which in ("3", "all"):
            print(format_table3(stats))
            print()
        if which in ("4", "all"):
            print(format_table4(stats))
    return 0


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (one sub-command per task)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Relative scheduling under timing constraints "
                    "(Ku & De Micheli, DAC 1990)")
    parser.add_argument("--trace", action="store_true",
                        help="record a pipeline trace; print the run "
                             "summary to stderr when done")
    parser.add_argument("--profile", dest="obs_profile", action="store_true",
                        help="like --trace, with per-phase wall-clock "
                             "timers in the summary")
    parser.add_argument("--trace-out", metavar="FILE",
                        help="write the machine-readable JSON run report")
    parser.add_argument("--budget", metavar="SPEC",
                        help="run budgets for scheduling commands, e.g. "
                             "vertices=500,edges=4000,iterations=64,"
                             "deadline=5.0 (seconds); an exceeded budget "
                             "follows the error: contract")
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="well-posedness analysis")
    check.add_argument("input")
    check.add_argument("--fix", action="store_true",
                       help="attempt minimal serialization when ill-posed")
    check.set_defaults(handler=cmd_check)

    lint = sub.add_parser("lint", help="static analysis (rule-based "
                                       "diagnostics, no scheduling)")
    lint.add_argument("input")
    lint.add_argument("--format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (default text)")
    lint.add_argument("--fix", action="store_true",
                      help="apply machine-applicable fix-its (graph JSON "
                           "inputs only) and re-lint")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="only run these rule codes/prefixes, "
                           "comma-separated (e.g. RS2,RS404)")
    lint.add_argument("--ignore", default=None, metavar="CODES",
                      help="skip these rule codes/prefixes")
    lint.add_argument("-o", "--output", help="write the report here "
                                             "instead of stdout")
    lint.add_argument("--fix-output", metavar="FILE",
                      help="write the fixed graph here (default: "
                           "overwrite the input)")
    lint.set_defaults(handler=cmd_lint)

    devlint = sub.add_parser("devlint", help="self-lint: DLxxx contract "
                                        "rules over this repo's source")
    devlint.add_argument("paths", nargs="*", default=["src/repro"],
                         help="files or directories (default src/repro)")
    devlint.add_argument("--format", default="text",
                         choices=["text", "json", "sarif"],
                         help="report format (default text)")
    devlint.add_argument("--select", default=None, metavar="CODES",
                         help="only run these DLxxx codes, comma-separated")
    devlint.add_argument("--sanitizer-report", metavar="FILE",
                         help="fold a saved repro.sanitize report JSON "
                              "into the output (SANLOCK/SANIO results)")
    devlint.add_argument("-o", "--output", help="write the report here "
                                                "instead of stdout")
    devlint.set_defaults(handler=cmd_devlint)

    schedule = sub.add_parser("schedule", help="compute the minimum "
                                               "relative schedule")
    schedule.add_argument("input")
    schedule.add_argument("--mode", default="irredundant",
                          choices=[m.value for m in AnchorMode])
    schedule.add_argument("--no-well-pose", action="store_true",
                          help="fail on ill-posed graphs instead of "
                               "serializing")
    schedule.add_argument("--mobility", action="store_true",
                          help="also print the ASAP/ALAP mobility report")
    schedule.add_argument("-o", "--output", help="write the schedule JSON")
    schedule.set_defaults(handler=cmd_schedule)

    many = sub.add_parser("schedule-many",
                          help="batched scheduling of a JSONL corpus of "
                               "serialized graphs")
    many.add_argument("input", help="JSONL file, one serialized graph "
                                    "dict per line")
    many.add_argument("--cache", metavar="FILE",
                      help="persistent schedule cache (append-only JSONL, "
                           "created if missing; damaged entries degrade "
                           "to misses)")
    many.add_argument("--no-well-pose", action="store_true",
                      help="report ill-posed graphs as errors instead of "
                           "serializing them")
    many.add_argument("-o", "--output",
                      help="write per-graph JSON results here")
    many.set_defaults(handler=cmd_schedule_many)

    control = sub.add_parser("control", help="generate control logic")
    control.add_argument("input")
    control.add_argument("--style", default="shift-register",
                         choices=["counter", "shift-register"])
    control.add_argument("--mode", default="irredundant",
                         choices=[m.value for m in AnchorMode])
    control.add_argument("--verilog", help="write a Verilog module here")
    control.set_defaults(handler=cmd_control)

    dot = sub.add_parser("dot", help="Graphviz export")
    dot.add_argument("input")
    dot.add_argument("-o", "--output")
    dot.set_defaults(handler=cmd_dot)

    simulate = sub.add_parser("simulate", help="cycle-accurate control "
                                               "simulation")
    simulate.add_argument("input")
    simulate.add_argument("--profile", help="anchor delays, e.g. a=3,b=7")
    simulate.add_argument("--style", default="shift-register",
                          choices=["counter", "shift-register"])
    simulate.add_argument("--mode", default="irredundant",
                          choices=[m.value for m in AnchorMode])
    simulate.add_argument("--watchdog", metavar="SPEC",
                          help="per-anchor timeout bounds, e.g. a=5,b=9; "
                               "a monitored anchor overrunning its bound "
                               "fires a detected timeout instead of hanging")
    simulate.add_argument("--on-timeout", default="abort",
                          choices=["abort", "retry", "fallback"],
                          help="degradation policy when a watchdog fires "
                               "(default: abort with a taxonomy error)")
    simulate.add_argument("--rearms", type=int, default=2,
                          help="retry policy: extra watchdog windows "
                               "before escalating (default 2)")
    simulate.add_argument("--fault", action="append", metavar="SPEC",
                          help="inject a fault, kind:anchor[:amount]; kinds: "
                               "stall, late, early, drop, spurious "
                               "(repeatable)")
    simulate.set_defaults(handler=cmd_simulate)

    tables = sub.add_parser("tables", help="regenerate the paper's "
                                           "tables and figures")
    tables.add_argument("--which", default="all",
                        choices=["2", "3", "4", "fig10", "fig14", "all"])
    tables.set_defaults(handler=cmd_tables)

    report = sub.add_parser("report", help="full synthesis report "
                                           "(bind + schedule + control)")
    report.add_argument("input")
    report.add_argument("--resources",
                        help="resource pool, e.g. alu:1,mul:2")
    report.add_argument("--mode", default="irredundant",
                        choices=[m.value for m in AnchorMode])
    report.add_argument("--style", default="shift-register",
                        choices=["counter", "shift-register"])
    report.add_argument("--exact", action="store_true",
                        help="exact branch-and-bound conflict resolution")
    report.add_argument("--per-graph", action="store_true",
                        help="print each graph's offset table")
    report.add_argument("--markdown",
                        help="also write a full markdown report here")
    report.set_defaults(handler=cmd_report)

    montecarlo = sub.add_parser("montecarlo", help="latency distribution "
                                                   "under random profiles")
    montecarlo.add_argument("input")
    montecarlo.add_argument("--range", nargs=2, type=int, default=(0, 10),
                            metavar=("LO", "HI"),
                            help="uniform anchor-delay range")
    montecarlo.add_argument("--samples", type=int, default=1000)
    montecarlo.add_argument("--seed", type=int, default=0)
    montecarlo.add_argument("--mode", default="irredundant",
                            choices=[m.value for m in AnchorMode])
    montecarlo.set_defaults(handler=cmd_montecarlo)

    observe = sub.add_parser("observe", help="traced scheduling run with "
                                             "an observability report")
    observe.add_argument("input")
    observe.add_argument("--mode", default="irredundant",
                         choices=[m.value for m in AnchorMode])
    observe.add_argument("--runs", type=int, default=1,
                         help="schedule the graph this many times "
                              "(repeats exercise the analysis cache)")
    observe.add_argument("-o", "--output", help="write the JSON report here")
    observe.set_defaults(handler=cmd_observe)

    cosim = sub.add_parser("cosim", help="value/timing co-simulation of "
                                         "HardwareC source")
    cosim.add_argument("input")
    cosim.add_argument("--set", action="append", metavar="PORT=VALUE",
                       help="port stimulus; colon-separated values make "
                            "a stream (e.g. restart=1:1:0)")
    cosim.add_argument("--process", help="process to simulate")
    cosim.add_argument("--wait-delay", type=int, default=0,
                       help="blocking cycles for wait operations")
    cosim.add_argument("--gantt", type=int, metavar="WIDTH",
                       help="render a Gantt chart clipped to WIDTH cycles")
    cosim.set_defaults(handler=cmd_cosim)

    # The one campaign parser: ``python -m repro.resilience.chaos``
    # forwards its arguments here.
    chaos = sub.add_parser("chaos", help="seeded chaos campaign: fault "
                                         "injection, executor vs simulator, "
                                         "or crash injection")
    chaos.add_argument("--kind", default="faults",
                       choices=["faults", "runtime", "crash"],
                       help="case kind: fault containment, executor vs "
                            "simulator, or journal crash recovery "
                            "(default faults)")
    chaos.add_argument("--seed", type=int, default=0,
                       help="first seed of the campaign (default 0)")
    chaos.add_argument("--cases", type=int, default=None,
                       help="seeded cases to run at least (default 200, "
                            "or 0 with --events)")
    chaos.add_argument("--events", type=int, default=0,
                       help="completion events to stream at least "
                            "(runtime and crash kinds)")
    chaos.add_argument("--policy", default=None,
                       choices=["abort", "retry", "fallback"],
                       help="pin every case to one degradation policy "
                            "(default: rotate per seed)")
    chaos.set_defaults(handler=cmd_chaos)

    srv = sub.add_parser("serve", help="run the JSON-over-HTTP scheduling "
                                       "service")
    srv.add_argument("--host", default="127.0.0.1",
                     help="bind address (default 127.0.0.1)")
    srv.add_argument("--port", type=int, default=8080,
                     help="bind port; 0 picks an ephemeral port "
                          "(default 8080)")
    srv.add_argument("--workers", type=int, default=4,
                     help="admission slots; with --queue-capacity, the "
                          "bound of the requests waiting to run on the "
                          "server's one loop thread, logged at startup "
                          "(default 4)")
    srv.add_argument("--queue-capacity", type=int, default=None,
                     help="requests that may wait beyond --workers; "
                          "one more answers 503 (default 8x workers)")
    srv.add_argument("--cache", metavar="FILE",
                     help="persistent schedule cache for /schedule_many "
                          "(/schedule always solves)")
    srv.add_argument("--tenant-budget", action="append", metavar="NAME=SPEC",
                     help="per-tenant budget override, e.g. "
                          "ci=vertices=500,edges=4000 (repeatable; "
                          "selected by the X-Tenant header)")
    srv.add_argument("--journal-dir", metavar="DIR",
                     help="write-ahead journals for /sessions streams; "
                          "startup replays every unsealed journal so "
                          "crashed sessions resume bit-identically")
    srv.add_argument("--session-cap", type=int, default=256,
                     help="most sessions resident in memory; LRU beyond "
                          "it are evicted to their journals (default 256)")
    srv.add_argument("--session-ttl", type=float, default=3600.0,
                     help="idle seconds before a session is evicted "
                          "(default 3600)")
    srv.add_argument("--journal-fsync", choices=["always", "never"],
                     default="always",
                     help="fsync each journal append (always, the "
                          "durable default) or leave it to the page "
                          "cache (never; drain still fsyncs)")
    srv.set_defaults(handler=cmd_serve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    All sub-commands share this frame's error contract: any
    :class:`ConstraintGraphError` becomes ``error: ...`` on stderr and
    exit code 1 (previously only ``schedule`` translated the taxonomy;
    ``control``/``simulate``/``montecarlo`` dumped tracebacks).  The
    global ``--trace``/``--profile``/``--trace-out`` flags install a
    recording tracer around the command and emit the run report even
    when the command fails.
    """
    parser = build_parser()
    args = parser.parse_args(argv)

    tracing = (args.trace or args.obs_profile
               or args.trace_out is not None)
    tracer = None
    if tracing:
        from repro.observability import Tracer, set_tracer

        tracer = Tracer()
        previous = set_tracer(tracer)
    try:
        code = args.handler(args)
    except ConstraintGraphError as error:
        print(f"error: {error}", file=sys.stderr)
        code = 1
    finally:
        if tracing:
            set_tracer(previous)
    if tracing:
        from repro.observability import build_report, format_summary, write_report

        report = build_report(tracer)
        if args.trace_out:
            write_report(report, args.trace_out)
            print(f"trace report written to {args.trace_out}",
                  file=sys.stderr)
        if args.trace or args.obs_profile:
            print(format_summary(report), file=sys.stderr)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
