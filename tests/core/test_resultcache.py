"""The persistent schedule cache under untrusted input.

The backing file sits outside the trust boundary (any path can be
handed to the CLI), so loading must follow the PR-4 rules: a corrupted,
truncated, or hostile line is *dropped* -- indistinguishable from a
miss -- and can never crash the loader or change a scheduling result.
"""

import json
import random

import pytest

from repro.core.resultcache import CACHE_FORMAT, ScheduleCache


def valid_entry(key: str = "ab" * 32) -> dict:
    return {
        "format": CACHE_FORMAT,
        "key": key,
        "n": 3,
        "anchor_ranks": [0],
        "rows": [[-1], [0], [4]],
        "iterations": 1,
    }


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestRoundTrip:
    def test_put_flush_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ScheduleCache(path)
        cache.put("cd" * 32, 3, [0], [[-1], [0], [4]], 1)
        assert cache.flush() == 1
        reloaded = ScheduleCache(path)
        assert len(reloaded) == 1
        entry = reloaded.get("cd" * 32)
        assert entry is not None
        assert entry["rows"] == [[-1], [0], [4]]
        assert reloaded.hits == 1
        assert reloaded.get("ef" * 32) is None
        assert reloaded.misses == 1

    def test_missing_file_is_empty_cache(self, tmp_path):
        cache = ScheduleCache(tmp_path / "nope" / "cache.jsonl")
        assert len(cache) == 0

    def test_later_lines_win(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        first = valid_entry()
        second = dict(valid_entry(), iterations=7)
        write_lines(path, [json.dumps(first), json.dumps(second)])
        cache = ScheduleCache(path)
        assert cache.get(first["key"])["iterations"] == 7

    def test_directory_is_made_once(self, tmp_path, monkeypatch):
        """Flushes make the backing file's directory on the first write
        only; a directory removed later is a swallowed write error."""
        from pathlib import Path

        made = []
        real_mkdir = Path.mkdir

        def counting_mkdir(self, *args, **kwargs):
            made.append(self)
            return real_mkdir(self, *args, **kwargs)

        monkeypatch.setattr(Path, "mkdir", counting_mkdir)
        path = tmp_path / "nested" / "cache.jsonl"
        cache = ScheduleCache(path)
        for i in range(3):
            cache.put(f"{i:02d}" * 32, 3, [0], [[-1], [0], [4]], 1)
            assert cache.flush() == 1
        assert made == [path.parent]
        assert len(ScheduleCache(path)) == 3
        path.unlink()
        path.parent.rmdir()
        cache.put("ff" * 32, 3, [0], [[-1], [0], [4]], 1)
        assert cache.flush() == 0
        assert made == [path.parent]
        assert cache.get("ff" * 32) is not None

    def test_flush_failure_degrades_to_memory(self, tmp_path):
        # A directory at the file path makes the append fail; the entry
        # must still be served from memory and flush must report 0.
        path = tmp_path / "cache.jsonl"
        path.mkdir()
        cache = ScheduleCache(path)
        cache.put("aa" * 32, 3, [0], [[-1], [0], [1]], 1)
        assert cache.flush() == 0
        assert cache.get("aa" * 32) is not None


class TestUntrustedInput:
    def test_garbage_lines_are_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        write_lines(path, [
            "not json at all",
            "{\"format\":",                      # truncated JSON
            "[1, 2, 3]",                          # not an object
            "null",
            json.dumps(valid_entry()),            # one good line
        ])
        cache = ScheduleCache(path)
        assert len(cache) == 1
        assert cache.rejected_lines == 4
        assert cache.get(valid_entry()["key"]) is not None

    def test_torn_write_is_a_miss(self, tmp_path):
        # Simulate a torn append: a valid line followed by the first
        # half of another entry.
        path = tmp_path / "cache.jsonl"
        good = json.dumps(valid_entry())
        torn = json.dumps(valid_entry("ef" * 32))[:25]
        path.write_text(good + "\n" + torn)
        cache = ScheduleCache(path)
        assert len(cache) == 1
        assert cache.rejected_lines == 1
        assert cache.get("ef" * 32) is None

    def test_binary_garbage_file(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        path.write_bytes(bytes(range(256)) * 16)
        cache = ScheduleCache(path)  # UnicodeDecodeError path
        assert len(cache) == 0

    @pytest.mark.parametrize("mutate", [
        lambda e: e.update(format=CACHE_FORMAT + 1),
        lambda e: e.update(key="Z" * 64),            # non-hex
        lambda e: e.update(key="ab" * 31),           # short key
        lambda e: e.update(n="3"),                   # stringly n
        lambda e: e.update(n=True),                  # bool masquerade
        lambda e: e.update(n=1),                     # below polar minimum
        lambda e: e.update(n=1 << 21),               # over the cap
        lambda e: e.update(anchor_ranks=[0, 0]),     # duplicate ranks
        lambda e: e.update(anchor_ranks=[5]),        # rank out of range
        lambda e: e.update(anchor_ranks=7),          # not a list
        lambda e: e.update(rows=[[-1], [0]]),        # wrong row count
        lambda e: e.update(rows=[[-1], [0, 1], [2]]),  # ragged width
        lambda e: e.update(rows=[[-2], [0], [1]]),   # offset below -1
        lambda e: e.update(rows=[[-1], [0.5], [1]]),  # float offset
        lambda e: e.update(rows=[[-1], [1 << 60], [1]]),  # oversized
        lambda e: e.update(iterations=-1),
        lambda e: e.update(iterations=None),
        lambda e: e.pop("rows"),
    ])
    def test_structural_violations_are_rejected(self, tmp_path, mutate):
        entry = valid_entry()
        mutate(entry)
        path = tmp_path / "cache.jsonl"
        write_lines(path, [json.dumps(entry)])
        cache = ScheduleCache(path)
        assert len(cache) == 0
        assert cache.rejected_lines == 1

    def test_corrupted_cache_never_changes_results(self, tmp_path):
        # End to end: schedule a corpus cold, corrupt the cache file in
        # assorted ways, re-run warm -- every schedule must be identical
        # to a cache-less run (a damaged entry degrades to a miss and a
        # recompute, never to a wrong schedule).
        from repro.core.batch import schedule_many
        from repro.qa.generators import batch_corpus

        corpus = batch_corpus(13, 24, n_unique=8)
        baseline = [
            (r.error_type, None if not r.ok else r.unpack().offsets)
            for r in schedule_many([g.copy() for g in corpus])]

        path = tmp_path / "cache.jsonl"
        schedule_many([g.copy() for g in corpus], cache=str(path))
        assert path.exists()
        lines = path.read_text().splitlines()
        rng = random.Random(5)
        damaged = []
        for i, line in enumerate(lines):
            roll = i % 4
            if roll == 0:
                damaged.append(line)                     # intact
            elif roll == 1:
                damaged.append(line[:rng.randrange(1, len(line))])
            elif roll == 2:
                cut = rng.randrange(len(line))
                damaged.append(line[:cut] + "\x00garbage" + line[cut:])
            # roll == 3: line lost entirely
        path.write_text("\n".join(damaged) + "\n")

        warm = schedule_many([g.copy() for g in corpus], cache=str(path))
        got = [(r.error_type, None if not r.ok else r.unpack().offsets)
               for r in warm]
        assert got == baseline


class TestConcurrentWriters:
    """The fcntl + single-write append discipline: concurrent flushes
    from threads and from separate processes must never tear a line."""

    def test_threaded_put_flush_on_a_shared_cache(self, tmp_path):
        import threading

        path = tmp_path / "cache.jsonl"
        cache = ScheduleCache(path)
        n_threads, per_thread = 8, 25
        barrier = threading.Barrier(n_threads)
        errors = []

        def work(t):
            try:
                barrier.wait(timeout=30)
                for i in range(per_thread):
                    key = "%016x" % (t * per_thread + i)
                    key = (key * 4)[:64]
                    cache.put(key, 3, [0], [[-1], [0], [t + i]], 1)
                    cache.flush()
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=work, args=(t,))
                   for t in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        reloaded = ScheduleCache(path)
        assert reloaded.rejected_lines == 0
        assert len(reloaded) == n_threads * per_thread

    def test_multiprocess_appends_never_interleave(self, tmp_path):
        """Four processes hammering one cache file with per-entry
        flushes: every line must survive whole (0 rejected on reload)."""
        import subprocess
        import sys
        import os

        path = tmp_path / "cache.jsonl"
        script = r"""
import sys
from repro.core.resultcache import ScheduleCache

path, worker = sys.argv[1], int(sys.argv[2])
cache = ScheduleCache(path)
for i in range(40):
    key = ("%08x%08x" % (worker, i)) * 4
    # wide rows make lines long enough that an unlocked interleave
    # would almost surely tear them
    cache.put(key[:64], 3, [0], [[-1], [0], [worker * 1000 + i]] , 1)
    assert cache.flush() == 1
"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                           "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + \
            env.get("PYTHONPATH", "")
        procs = [subprocess.Popen(
                    [sys.executable, "-c", script, str(path), str(worker)],
                    env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
                 for worker in range(4)]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        reloaded = ScheduleCache(path)
        assert reloaded.rejected_lines == 0
        assert len(reloaded) == 4 * 40
        # and a deliberately torn tail still degrades to a miss, not
        # a crash, with every whole line intact
        with open(path, "a") as handle:
            handle.write('{"format":1,"key":"' + "f" * 30)
        damaged = ScheduleCache(path)
        assert damaged.rejected_lines == 1
        assert len(damaged) == 4 * 40
