"""A ``repro serve`` subprocess: spawn, wait until healthy, measure, stop.

The server always runs in its own process -- a client in the same
process would share its interpreter lock and slow it.  Set-up time is
measured from spawning the process to the first ``/healthz`` 200, which
covers interpreter start, imports, loading the cache file and scanning
the journal directory.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

_PORT_LINE = re.compile(rb"scheduling service on [^ ]+:(\d+) --")

#: Upper bound on start-up before the benchmark gives up.
START_TIMEOUT_S = 60.0


class ServerError(RuntimeError):
    """The server did not start, answer or stop as expected."""


class ServerProcess:
    """One server process.

    Args:
        root: repository root (``src`` goes on the child's path).
        workdir: scratch directory for the log and layer totals.
        serve_args: arguments after ``serve``.
        traced: run under ``perfbench/traced_serve.py`` (per-layer
            timers) instead of ``python -m repro``.
        tag: distinguishes the files of several servers in *workdir*.
    """

    def __init__(self, root: Path, workdir: Path, serve_args: List[str], *,
                 traced: bool = False, tag: str = "server") -> None:
        self.root = root
        self.log_path = workdir / f"{tag}.log"
        self.layers_path = workdir / f"{tag}.layers.json"
        if traced:
            argv = [sys.executable, str(root / "perfbench" / "traced_serve.py"),
                    str(self.layers_path), "serve"]
        else:
            argv = [sys.executable, "-m", "repro", "serve"]
        self.argv = argv + serve_args
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for the first healthy answer; returns seconds."""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        env.pop("PYTHONSTARTUP", None)
        with open(self.log_path, "wb") as log:
            t0 = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, cwd=self.root, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=log)
        deadline = t0 + START_TIMEOUT_S
        while not self.port:
            self._check_alive(deadline)
            match = _PORT_LINE.search(self.log_path.read_bytes())
            if match:
                self.port = int(match.group(1))
            else:
                time.sleep(0.002)
        while True:
            self._check_alive(deadline)
            try:
                status, _ = self.get("/healthz")
            except (OSError, http.client.HTTPException):
                status = 0
            if status == 200:
                return time.perf_counter() - t0
            time.sleep(0.002)

    def _check_alive(self, deadline: float) -> None:
        assert self.process is not None
        if self.process.poll() is not None:
            raise ServerError(f"server exited with {self.process.returncode}:"
                              f" {self.log_tail()}")
        if time.perf_counter() > deadline:
            raise ServerError(f"server not healthy after {START_TIMEOUT_S} s")

    def get(self, path: str) -> tuple:
        """One GET on a fresh connection -> (status, decoded body)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, json.loads(response.read() or b"null")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MiB."""
        assert self.process is not None
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise ServerError("no VmHWM in /proc status")

    def signal(self, signum: int) -> None:
        assert self.process is not None
        self.process.send_signal(signum)

    def read_layers(self, timeout: float = 10.0) -> Dict[str, Any]:
        """Totals written by the traced launcher after ``SIGUSR2``."""
        deadline = time.perf_counter() + timeout
        while not self.layers_path.exists():
            if time.perf_counter() > deadline:
                raise ServerError("traced server wrote no layer totals")
            time.sleep(0.005)
        return json.loads(self.layers_path.read_text())

    def stop(self) -> None:
        """Graceful drain (SIGTERM); kill if it does not end in time."""
        process = self.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()

    def log_tail(self) -> str:
        try:
            return self.log_path.read_bytes()[-2000:].decode(errors="replace")
        except OSError:
            return ""

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def connect(port: int) -> http.client.HTTPConnection:
    """A persistent keep-alive connection with Nagle off (the service
    writes headers and body as separate segments)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    conn.connect()
    conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return conn
