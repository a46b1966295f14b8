"""Per-layer timers wrapped around a layer's public entry points.

The benchmark measures layers from its own files: it replaces a public
function or method with a wrapper that times the call, and changes no
code of the program.  Each thread keeps a stack of open calls, so a
call's *self* time is its duration minus the wrapped calls it made on
the same thread (its children).

    clock = LayerClock()
    module.fn = clock.wrap("layer.fn", module.fn)
    ...
    clock.snapshot()  # {"timers": {name: {count, total_s, self_s}}, "counters": {...}}
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class LayerClock:
    """Thread-safe call counts, total and self time per layer name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._timers: Dict[str, Dict[str, float]] = {}
        self._counters: Dict[str, float] = {}

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any], *,
             when: Optional[Callable[..., bool]] = None,
             on_result: Optional[Callable[[Any], None]] = None
             ) -> Callable[..., Any]:
        """*fn* timed under *name*.

        Args:
            when: ``when(*args, **kwargs)`` decides per call whether the
                call is measured at all (unmeasured calls run bare).
            on_result: called with each measured call's return value.
        """

        @functools.wraps(fn)
        def timed(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            stack = self._stack()
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self.add(name, elapsed, elapsed - children[0])
            if on_result is not None:
                on_result(result)
            return result

        return timed

    def counted(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """*fn* with a call counter only (no timer, not a child)."""

        @functools.wraps(fn)
        def counting(*args: Any, **kwargs: Any) -> Any:
            self.count(name)
            return fn(*args, **kwargs)

        return counting

    def add(self, name: str, seconds: float, self_seconds: float) -> None:
        with self._lock:
            timer = self._timers.get(name)
            if timer is None:
                timer = self._timers[name] = {
                    "count": 0, "total_s": 0.0, "self_s": 0.0}
            timer["count"] += 1
            timer["total_s"] += seconds
            timer["self_s"] += self_seconds

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def reset(self) -> None:
        with self._lock:
            self._timers = {}
            self._counters = {}

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {"timers": {k: dict(v) for k, v in self._timers.items()},
                    "counters": dict(self._counters)}


def batch_stats_recorder(clock: LayerClock) -> Callable[[Any], None]:
    """``on_result`` hook summing ``BatchRun.stats`` into counters."""

    def record(run: Any) -> None:
        for key, value in run.stats.items():
            clock.count(f"core.batch.{key}", value)

    return record
