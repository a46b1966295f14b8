"""The ``DLxxx`` rule catalogue: invariants past PRs fixed by hand.

Each rule encodes one concurrency or contract bug this repo actually
shipped (the *citation* on every diagnostic names the incident), and
checks it mechanically over the repo's own AST.  Rules are pure
functions from a parsed module (plus a project-wide class table for
the exception taxonomy) to findings; the engine owns file walking,
waivers and severity mapping.

========  ==========================================================
``DL101``  ``time.time()`` used for durations/TTLs (PR-8 ``/stats``
           uptime skew -- wall clock steps under NTP/DST)
``DL102``  naive ``datetime.now()/utcnow()`` (same family)
``DL103``  tracer emission not under ``if tracer.enabled`` (PR-3's
           zero-overhead-when-disabled contract)
``DL104``  exception outside the ``ConstraintGraphError`` taxonomy
           or the declared passthrough list (PR-3 runtime audit,
           made static)
``DL105``  ``os.write`` append without flock + memoryview
           short-write loop (PR-7 ``ScheduleCache`` torn-line bug)
``DL106``  copy method of a lock-holding class that does not
           re-create the lock (PR-7 ``budget_graph`` clone rule)
``DL107``  bare ``except:`` (masks ``SystemExit``/``KeyboardInterrupt``)
``DL108``  swallowed ``KeyError``/``IndexError`` on kernel paths
           (raise ``IndexedKernelUnsupported`` or re-raise, don't
           mask)
``DL109``  ``lock.acquire()`` statement without try/finally release
``DL110``  ``time.sleep`` while holding a lock
========  ==========================================================
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

#: (code, name, summary, citation, severity) -- the devlint analogue of
#: ``repro.lint.sarif.RULE_CATALOGUE`` (kept separate: that catalogue
#: describes graph rules with paper citations, this one describes
#: source rules with incident citations).
RULE_CATALOGUE: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("DL101", "wall-clock-duration",
     "time.time() used where a duration/TTL needs time.monotonic()",
     "PR-8 /stats uptime skew", "error"),
    ("DL102", "naive-datetime",
     "datetime.now()/utcnow() in library code",
     "PR-8 /stats uptime skew", "error"),
    ("DL103", "unguarded-tracer",
     "tracer emission call not under an `if tracer.enabled` guard",
     "PR-3 zero-overhead tracer contract", "error"),
    ("DL104", "exception-taxonomy",
     "exception outside the ConstraintGraphError taxonomy or the "
     "declared passthrough list",
     "PR-3 exception-contract audit", "error"),
    ("DL105", "append-discipline",
     "os.write append without flock guard and memoryview "
     "short-write loop",
     "PR-7 ScheduleCache atomic appends", "error"),
    ("DL106", "lock-copy",
     "copy method of a lock-holding class must re-create the lock",
     "PR-7 budget_graph clone rule", "error"),
    ("DL107", "bare-except",
     "bare `except:` masks SystemExit/KeyboardInterrupt",
     "PR-2 fallback-signal rule", "error"),
    ("DL108", "swallowed-lookup",
     "KeyError/IndexError silently swallowed on a kernel path",
     "PR-2 fallback-signal rule", "error"),
    ("DL109", "manual-acquire",
     "lock.acquire() statement without a try/finally release",
     "PR-7 service concurrency fixes", "error"),
    ("DL110", "sleep-under-lock",
     "time.sleep while holding a lock stalls every waiter",
     "PR-7 request coalescing windows", "error"),
)

RULE_CODES: Tuple[str, ...] = tuple(code for code, *_ in RULE_CATALOGUE)

#: The two runtime-sanitizer finding kinds, appended to the AST rule
#: catalogue so sanitizer results resolve to SARIF descriptors too.
SANITIZER_RULES: Tuple[Tuple[str, str, str, str, str], ...] = (
    ("SANLOCK", "lock-order-cycle",
     "a cycle in the global lock acquisition-order graph "
     "(potential deadlock)",
     "REPRO_SANITIZE lock-order sanitizer", "error"),
    ("SANIO", "blocking-io-under-lock",
     "blocking I/O (fsync/flock/socket/sleep) while holding an "
     "in-process lock not declared io_ok",
     "REPRO_SANITIZE lock-order sanitizer", "error"),
)

#: Tracer methods that *record* (vs. query methods like ``counter``).
TRACER_EMIT_METHODS = frozenset(
    {"span", "event", "count", "add_time", "begin_span", "end_span"})

#: Stdlib exceptions ``src/repro`` may raise directly.  ``Exception``
#: and ``BaseException`` are deliberately absent: raising them is
#: always a taxonomy violation.
DECLARED_STDLIB_PASSTHROUGH = frozenset({
    "ValueError", "TypeError", "KeyError", "IndexError", "LookupError",
    "RuntimeError", "OSError", "IOError", "NotImplementedError",
    "ZeroDivisionError", "ArithmeticError", "OverflowError",
    "AttributeError", "UnicodeDecodeError", "AssertionError",
    "StopIteration", "SystemExit", "KeyboardInterrupt",
})

#: Repo-defined roots that may subclass ``Exception`` directly.  The
#: HDL frontend errors predate the taxonomy and are caught wholesale
#: at the CLI boundary; ``ServiceError`` is the HTTP status envelope
#: (its payload is a response, not a graph condition).  Everything
#: else must root in ``ConstraintGraphError`` or a stdlib passthrough.
DECLARED_ROOTS = frozenset({"ConstraintGraphError", "HdlError",
                            "ServiceError"})

#: Names a lock attribute may be constructed from (``threading``
#: primitives or the sanitizer factories of :mod:`repro.sanitize`).
_LOCK_CONSTRUCTORS = frozenset({"Lock", "RLock", "Condition",
                                "make_lock", "make_rlock",
                                "make_condition"})

_COPY_METHODS = frozenset({"copy", "__copy__", "__deepcopy__", "clone"})


@dataclass
class Finding:
    """One raw rule hit; the engine turns these into Diagnostics."""

    code: str
    line: int
    message: str


@dataclass
class ModuleContext:
    """One parsed file plus the lookaside tables rules share."""

    filename: str
    tree: ast.Module
    source_lines: List[str]
    parents: Dict[int, ast.AST] = field(default_factory=dict)
    enabled_aliases: Set[str] = field(default_factory=set)
    is_kernel_path: bool = False

    @classmethod
    def parse(cls, source: str, filename: str) -> "ModuleContext":
        tree = ast.parse(source, filename=filename)
        ctx = cls(filename=filename, tree=tree,
                  source_lines=source.splitlines(),
                  is_kernel_path="/core/" in filename.replace("\\", "/"))
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                ctx.parents[id(child)] = node
            if (isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Attribute)
                    and node.value.attr == "enabled"):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        ctx.enabled_aliases.add(target.id)
        return ctx

    def ancestors(self, node: ast.AST) -> Iterator[Tuple[ast.AST, ast.AST]]:
        """(ancestor, the direct child on the path to *node*) pairs."""
        child: ast.AST = node
        parent = self.parents.get(id(child))
        while parent is not None:
            yield parent, child
            child = parent
            parent = self.parents.get(id(child))


@dataclass
class ProjectContext:
    """Cross-file state: every exception class definition in the run."""

    #: class name -> base expression names (``Name`` ids / ``Attribute``
    #: tails) as written at the def site.
    class_bases: Dict[str, List[str]] = field(default_factory=dict)

    def add_module(self, ctx: ModuleContext) -> None:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                bases = []
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.append(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.append(base.attr)
                self.class_bases[node.name] = bases

    def roots_in_taxonomy(self, name: str,
                          _seen: Optional[Set[str]] = None) -> Optional[bool]:
        """True/False when resolvable; None when *name* is unknown."""
        if name in DECLARED_ROOTS or name in DECLARED_STDLIB_PASSTHROUGH:
            return True
        if _is_builtin_exception(name):
            # A builtin exception outside the passthrough list
            # (Exception, BaseException, GeneratorExit...) is never a
            # legal root.
            return False
        seen = _seen or set()
        if name in seen:
            return False
        bases = self.class_bases.get(name)
        if bases is None:
            return None
        seen.add(name)
        verdicts = [self.roots_in_taxonomy(base, seen) for base in bases]
        if any(v is True for v in verdicts):
            return True
        if any(v is None for v in verdicts):
            return None
        return False


def _is_builtin_exception(name: str) -> bool:
    obj = getattr(builtins, name, None)
    return isinstance(obj, type) and issubclass(obj, BaseException)


def _is_call_to(node: ast.AST, owner: str, attr: str) -> bool:
    """Matches ``owner.attr(...)`` exactly (``time.time()`` etc.)."""
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == attr
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == owner)


def _contains_call(tree: ast.AST, attr: str) -> bool:
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and ((isinstance(node.func, ast.Attribute)
                      and node.func.attr == attr)
                     or (isinstance(node.func, ast.Name)
                         and node.func.id == attr))):
            return True
    return False


# ----------------------------------------------------------------------
# DL101 / DL102 -- clock discipline
# ----------------------------------------------------------------------

def rule_wall_clock(ctx: ModuleContext,
                    project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if _is_call_to(node, "time", "time"):
            yield Finding(
                "DL101", node.lineno,
                "time.time() steps under NTP/DST; durations, TTLs and "
                "uptime must use time.monotonic() or "
                "time.perf_counter()")


def rule_naive_datetime(ctx: ModuleContext,
                        project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute)
                and func.attr in ("now", "utcnow", "today")):
            receiver = func.value
            name = (receiver.id if isinstance(receiver, ast.Name)
                    else receiver.attr if isinstance(receiver, ast.Attribute)
                    else None)
            if name in ("datetime", "date"):
                yield Finding(
                    "DL102", node.lineno,
                    f"datetime.{func.attr}() is wall-clock and "
                    f"timezone-naive; library code must not read it")


# ----------------------------------------------------------------------
# DL103 -- tracer guard idiom
# ----------------------------------------------------------------------

def _test_mentions_enabled(expr: ast.AST, aliases: Set[str]) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Attribute) and node.attr == "enabled":
            return True
        if isinstance(node, ast.Name) and node.id in aliases:
            return True
    return False


def _receiver_is_tracer(func: ast.Attribute) -> bool:
    receiver = func.value
    if isinstance(receiver, ast.Name):
        return "tracer" in receiver.id
    if isinstance(receiver, ast.Attribute):
        return "tracer" in receiver.attr
    return False


def _is_guarded(ctx: ModuleContext, node: ast.AST) -> bool:
    for ancestor, child in ctx.ancestors(node):
        if isinstance(ancestor, ast.If):
            if (child in ancestor.body
                    and _test_mentions_enabled(ancestor.test,
                                               ctx.enabled_aliases)):
                return True
        elif isinstance(ancestor, ast.IfExp):
            if (child is ancestor.body
                    and _test_mentions_enabled(ancestor.test,
                                               ctx.enabled_aliases)):
                return True
    return False


def rule_unguarded_tracer(ctx: ModuleContext,
                          project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in TRACER_EMIT_METHODS
                and _receiver_is_tracer(node.func)):
            continue
        if not _is_guarded(ctx, node):
            yield Finding(
                "DL103", node.lineno,
                f"tracer.{node.func.attr}(...) on a library path must "
                f"sit under `if tracer.enabled:` (the NullTracer keeps "
                f"it *correct* unguarded, but not free -- PR 3 pinned "
                f"disabled-mode overhead at zero)")


# ----------------------------------------------------------------------
# DL104 -- exception taxonomy
# ----------------------------------------------------------------------

def rule_exception_taxonomy(ctx: ModuleContext,
                            project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ClassDef):
            verdict = project.roots_in_taxonomy(node.name)
            if verdict is False and _defines_exception(node, project):
                yield Finding(
                    "DL104", node.lineno,
                    f"exception class {node.name} roots in "
                    f"Exception/BaseException directly; derive from "
                    f"ConstraintGraphError or a declared passthrough "
                    f"(see DESIGN.md section 15)")
        elif isinstance(node, ast.Raise) and node.exc is not None:
            name = None
            if isinstance(node.exc, ast.Call) and isinstance(
                    node.exc.func, ast.Name):
                name = node.exc.func.id
            elif isinstance(node.exc, ast.Name):
                name = node.exc.id
            if name is None or not name[:1].isupper():
                continue  # re-raise of a variable / dynamic raise
            if project.roots_in_taxonomy(name) is False:
                yield Finding(
                    "DL104", node.lineno,
                    f"raise {name}: not rooted in ConstraintGraphError "
                    f"and not on the declared passthrough list")


def _defines_exception(node: ast.ClassDef, project: ProjectContext) -> bool:
    """Whether the class transitively subclasses BaseException at all
    (plain classes whose bases we cannot resolve are not exceptions)."""
    todo = [b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases if isinstance(b, (ast.Name, ast.Attribute))]
    seen: Set[str] = set()
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        if _is_builtin_exception(name) or name in DECLARED_ROOTS:
            return True
        todo.extend(project.class_bases.get(name, []))
    return False


# ----------------------------------------------------------------------
# DL105 -- fcntl append discipline
# ----------------------------------------------------------------------

def rule_append_discipline(ctx: ModuleContext,
                           project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        writes = [call for call in ast.walk(node)
                  if _is_call_to(call, "os", "write")]
        if not writes:
            continue
        has_flock = _contains_call(node, "flock")
        has_view = _contains_call(node, "memoryview")
        has_loop = any(isinstance(n, ast.While) for n in ast.walk(node))
        if has_flock and has_view and has_loop:
            continue
        missing = [label for ok, label in (
            (has_flock, "fcntl.flock guard"),
            (has_view, "memoryview"),
            (has_loop, "short-write while loop"),
        ) if not ok]
        for call in writes:
            yield Finding(
                "DL105", call.lineno,
                f"os.write append in {node.name}() lacks the atomic-"
                f"append discipline (missing: {', '.join(missing)}); "
                f"concurrent writers would interleave torn lines")


# ----------------------------------------------------------------------
# DL106 -- lock-copy hazard
# ----------------------------------------------------------------------

def _lock_attrs_of(cls: ast.ClassDef) -> Set[str]:
    attrs: Set[str] = set()
    for method in cls.body:
        if not (isinstance(method, ast.FunctionDef)
                and method.name == "__init__"):
            continue
        for node in ast.walk(method):
            if (isinstance(node, ast.Assign)
                    and _is_lock_constructor(node.value)):
                for target in node.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        attrs.add(target.attr)
    return attrs


def _is_lock_constructor(value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    name = (func.attr if isinstance(func, ast.Attribute)
            else func.id if isinstance(func, ast.Name) else None)
    return name in _LOCK_CONSTRUCTORS


def rule_lock_copy(ctx: ModuleContext,
                   project: ProjectContext) -> Iterator[Finding]:
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        lock_attrs = _lock_attrs_of(cls)
        if not lock_attrs:
            continue
        for method in cls.body:
            if not (isinstance(method, ast.FunctionDef)
                    and method.name in _COPY_METHODS):
                continue
            recreated = {
                node.targets[0].attr
                for node in ast.walk(method)
                if isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Attribute)
                and _is_lock_constructor(node.value)}
            stale = sorted(lock_attrs - recreated)
            if stale:
                yield Finding(
                    "DL106", method.lineno,
                    f"{cls.name}.{method.name}() does not re-create "
                    f"lock attribute(s) {', '.join(stale)}; a copied "
                    f"lock shares (or pickles) the original's state")


# ----------------------------------------------------------------------
# DL107 / DL108 -- exception handling hygiene
# ----------------------------------------------------------------------

_LOOKUP_ERRORS = frozenset({"KeyError", "IndexError"})


def rule_bare_except(ctx: ModuleContext,
                     project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield Finding(
                "DL107", node.lineno,
                "bare `except:` also catches SystemExit and "
                "KeyboardInterrupt; name the exceptions")


def _swallows(body: List[ast.stmt]) -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue, ast.Break)):
            continue
        if isinstance(stmt, ast.Return) and (
                stmt.value is None
                or (isinstance(stmt.value, ast.Constant)
                    and stmt.value.value is None)):
            continue
        return False
    return True


def rule_swallowed_lookup(ctx: ModuleContext,
                          project: ProjectContext) -> Iterator[Finding]:
    if not ctx.is_kernel_path:
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        caught = []
        types = (node.type.elts if isinstance(node.type, ast.Tuple)
                 else [node.type])
        for expr in types:
            if isinstance(expr, ast.Name):
                caught.append(expr.id)
        if (caught and all(c in _LOOKUP_ERRORS for c in caught)
                and _swallows(node.body)):
            yield Finding(
                "DL108", node.lineno,
                f"except {'/'.join(caught)} silently swallowed on a "
                f"kernel path; raise IndexedKernelUnsupported (or "
                f"re-raise) so the caller sees the error")


# ----------------------------------------------------------------------
# DL109 / DL110 -- lock usage hygiene
# ----------------------------------------------------------------------

def rule_manual_acquire(ctx: ModuleContext,
                        project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        # Only statement-position acquires (unconditional): trylock
        # results feeding an `if` are a different protocol.
        if not (isinstance(node, ast.Expr)
                and isinstance(node.value, ast.Call)
                and isinstance(node.value.func, ast.Attribute)
                and node.value.func.attr == "acquire"):
            continue
        if _released_in_finally(ctx, node):
            continue
        yield Finding(
            "DL109", node.lineno,
            "lock.acquire() without a try/finally release leaks the "
            "lock on any exception; use `with lock:` or pair with "
            "finally: lock.release()")


def _released_in_finally(ctx: ModuleContext, stmt: ast.Expr) -> bool:
    for ancestor, _child in ctx.ancestors(stmt):
        if isinstance(ancestor, ast.Try) and any(
                _contains_call(final, "release")
                for final in ancestor.finalbody):
            return True
        # `lock.acquire()` immediately followed by try/finally release.
        body = getattr(ancestor, "body", None)
        if isinstance(body, list) and stmt in body:
            index = body.index(stmt)
            if index + 1 < len(body):
                nxt = body[index + 1]
                if isinstance(nxt, ast.Try) and any(
                        _contains_call(final, "release")
                        for final in nxt.finalbody):
                    return True
            return False
    return False


_LOCKISH = ("lock", "cond", "mutex")


def _names_a_lock(expr: ast.AST) -> bool:
    name = (expr.id if isinstance(expr, ast.Name)
            else expr.attr if isinstance(expr, ast.Attribute) else "")
    lowered = name.lower()
    return any(token in lowered for token in _LOCKISH)


def rule_sleep_under_lock(ctx: ModuleContext,
                          project: ProjectContext) -> Iterator[Finding]:
    for node in ast.walk(ctx.tree):
        if not _is_call_to(node, "time", "sleep"):
            continue
        for ancestor, _child in ctx.ancestors(node):
            if isinstance(ancestor, ast.With) and any(
                    _names_a_lock(item.context_expr)
                    for item in ancestor.items):
                yield Finding(
                    "DL110", node.lineno,
                    "time.sleep while holding a lock stalls every "
                    "waiter for the full sleep; sleep outside the "
                    "critical section or use Condition.wait")
                break


ALL_RULES = (
    rule_wall_clock,
    rule_naive_datetime,
    rule_unguarded_tracer,
    rule_exception_taxonomy,
    rule_append_discipline,
    rule_lock_copy,
    rule_bare_except,
    rule_swallowed_lookup,
    rule_manual_acquire,
    rule_sleep_under_lock,
)
