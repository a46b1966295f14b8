"""Persistent on-disk schedule cache keyed by canonical graph hashes.

The cache file is JSON Lines: one self-contained entry per line, so the
file can be appended to without rewriting and a torn write (power loss,
full disk, concurrent truncation) damages at most the lines it touched.
The file sits outside the trust boundary -- a user can hand the CLI any
path -- so loading follows the PR-4 untrusted-input rules: every line is
parsed defensively, structurally validated, and *dropped* on any
problem.  A corrupted or truncated entry is indistinguishable from a
miss; it can never crash the loader and never produce a wrong schedule
(keys are SHA-256 certificates of the full canonical structure, see
:mod:`repro.core.canonical`).

Concurrency: one cache file may be appended to by many service workers
in many processes.  Two layers keep it sound:

* **in-process**: every public method takes the instance's lock, so
  worker threads sharing one :class:`ScheduleCache` cannot interleave
  ``put``/``flush`` state;
* **cross-process**: :meth:`flush` holds an exclusive ``fcntl`` file
  lock (where the platform has one) around a **single** ``os.write`` of
  the whole staged payload onto an ``O_APPEND`` descriptor, so lines
  from concurrent writers land whole, never spliced.  On platforms
  without ``fcntl`` the single ``O_APPEND`` write is still the unit of
  interleaving, and the defensive loader remains the backstop: a torn
  line is just a miss.

An entry stores the FULL-mode minimum offsets of one well-posed graph in
*canonical coordinates*: ``rows[r][j]`` is the offset of the rank-``r``
vertex with respect to the ``j``-th anchor (anchors in canonical-rank
order, per ``anchor_ranks``), with ``-1`` for untracked pairs -- the
same sentinel the indexed kernel uses.  Only well-posed graphs are
cached: their offsets are a structural fixpoint, so relabelling a hit
onto an isomorphic graph is exact.  Ill-posed graphs are *not* cached --
``make_well_posed`` breaks serialization ties by vertex name, so its
output (and hence the serialized schedule) is not guaranteed stable
under renaming -- and neither are unfeasible/cyclic verdicts, which the
batch classifier re-derives faster than a lookup would load.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.sanitize import make_lock

try:  # pragma: no cover - platform-dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

#: Entry schema version; bump to orphan (ignore) all persisted entries.
CACHE_FORMAT = 1

#: Hard per-entry caps, mirroring the untrusted-input limits: a hostile
#: cache file must not balloon memory by declaring huge rows.
_MAX_VERTICES = 1 << 20
_MAX_ANCHORS = 1 << 16
_MAX_OFFSET = 1 << 53  # matches qa.serialize.MAX_ABS_WEIGHT


class ScheduleCache:
    """A persistent map ``canonical key -> schedule entry`` (JSONL file).

    Args:
        path: cache file location; a missing file is an empty cache.

    Attributes:
        hits / misses: lookup counters for this process.
        rejected_lines: lines of the backing file that failed parsing or
            validation at load and were treated as absent.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._entries: Dict[str, Dict[str, Any]] = {}
        self._pending: List[str] = []
        self._lock = make_lock("resultcache.entries")
        self.hits = 0
        self.misses = 0
        self.rejected_lines = 0
        self._load()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    # ------------------------------------------------------------------

    def _load(self) -> None:
        try:
            text = self.path.read_text()
        except (OSError, UnicodeDecodeError):
            return
        for line in text.splitlines():
            if not line.strip():
                continue
            entry = _validated_entry(line)
            if entry is None:
                self.rejected_lines += 1
                continue
            # Later lines win: an append-only file may legitimately
            # carry a re-written entry for the same key.
            self._entries[entry["key"]] = entry

    def get(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        """The entry stored under *key*, or None (counted as hit/miss)."""
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
            return entry

    def put(self, key: str, n_vertices: int, anchor_ranks: List[int],
            rows: List[List[int]], iterations: int) -> None:
        """Stage an entry for the next :meth:`flush` (and serve it now).

        Ownership of *anchor_ranks* and *rows* passes to the cache --
        callers must not mutate them afterwards (the batch kernel hands
        over freshly built lists, so no defensive copy is taken).
        """
        entry = {
            "format": CACHE_FORMAT,
            "key": key,
            "n": n_vertices,
            "anchor_ranks": anchor_ranks,
            "rows": rows,
            "iterations": iterations,
        }
        with self._lock:
            if key not in self._entries:
                # repr() of nested int lists is valid JSON and much cheaper
                # than json.dumps on the batch hot path; the key is 64 hex
                # chars, so no field needs escaping.
                self._pending.append(
                    '{"format":%d,"key":"%s","n":%d,"anchor_ranks":%r,'
                    '"rows":%r,"iterations":%d}'
                    % (CACHE_FORMAT, key, n_vertices, anchor_ranks, rows,
                       iterations))
            self._entries[key] = entry

    def flush(self) -> int:
        """Append staged entries to the backing file; returns how many.

        The staged lines go out as **one** ``os.write`` on an
        ``O_APPEND`` descriptor under an exclusive ``fcntl`` lock (where
        available), so concurrent flushes -- other threads, other
        processes, other machines on a shared filesystem honoring POSIX
        locks -- append whole lines, never interleaved fragments.

        Failures to write (read-only location, full disk) are swallowed:
        a cache that cannot persist degrades to an in-memory one.
        """
        with self._lock:
            if not self._pending:
                return 0
            written = len(self._pending)
            payload = ("\n".join(self._pending) + "\n").encode("utf-8")
            self._pending = []
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fd = os.open(self.path,
                         os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
            try:
                if fcntl is not None:
                    fcntl.flock(fd, fcntl.LOCK_EX)
                try:
                    view = memoryview(payload)
                    while view:  # a short write would tear a line
                        view = view[os.write(fd, view):]
                    os.fsync(fd)
                finally:
                    if fcntl is not None:
                        fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)
        except OSError:
            return 0
        return written

    def __enter__(self) -> "ScheduleCache":
        return self

    def __exit__(self, *exc_info) -> None:
        self.flush()


def _validated_entry(line: str) -> Optional[Dict[str, Any]]:
    """Parse and structurally validate one cache line; None to drop it.

    Returns only the validated fields: anything else the line carries
    is dropped, so an unvalidated value can never reach a reader.
    """
    try:
        entry = json.loads(line)
    except ValueError:
        return None
    if not isinstance(entry, dict):
        return None
    if entry.get("format") != CACHE_FORMAT:
        return None
    key = entry.get("key")
    if not isinstance(key, str) or len(key) != 64 \
            or any(c not in "0123456789abcdef" for c in key):
        return None
    n = entry.get("n")
    if not isinstance(n, int) or isinstance(n, bool) \
            or not 2 <= n <= _MAX_VERTICES:
        return None
    anchor_ranks = entry.get("anchor_ranks")
    if not isinstance(anchor_ranks, list) or len(anchor_ranks) > _MAX_ANCHORS:
        return None
    for rank in anchor_ranks:
        if not isinstance(rank, int) or isinstance(rank, bool) \
                or not 0 <= rank < n:
            return None
    if len(set(anchor_ranks)) != len(anchor_ranks):
        return None
    rows = entry.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        return None
    width = len(anchor_ranks)
    for row in rows:
        if not isinstance(row, list) or len(row) != width:
            return None
        for value in row:
            if not isinstance(value, int) or isinstance(value, bool) \
                    or not -1 <= value <= _MAX_OFFSET:
                return None
    iterations = entry.get("iterations")
    if not isinstance(iterations, int) or isinstance(iterations, bool) \
            or iterations < 0:
        return None
    return {"format": CACHE_FORMAT, "key": key, "n": n,
            "anchor_ranks": anchor_ranks, "rows": rows,
            "iterations": iterations}
