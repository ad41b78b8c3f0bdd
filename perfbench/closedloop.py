"""Launch the unmodified server and drive it over one connection.

Each set-up starts a fresh ``python -m repro serve --port 0`` (default
flags) and talks to it through one keep-alive ``http.client``
connection with the library's default socket options, in a closed loop:
the next request goes out only after the previous response was read.
The timed loop only writes prepared bytes and reads responses; nothing
is parsed until it ends.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from plan import INGEST_PATH, PUBLICATION, Plan, Request

#: Seconds a single request may take before it counts as failed.
REQUEST_TIMEOUT_S = 60.0
#: Seconds the server may take to bind its port.
LAUNCH_TIMEOUT_S = 60.0
JSON_HEADERS = {"Content-Type": "application/json"}


class BenchError(RuntimeError):
    """The run cannot produce a result (set-up failed, tail too thin)."""


class Server:
    """A fresh server subprocess on a free port."""

    def __init__(self, root: Path) -> None:
        self.stderr = ""
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [],
                                    LAUNCH_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("serving on "):
            self.stop()
            raise BenchError(f"server did not start: {line!r} "
                             f"{self.stderr!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        """The server's ``VmHWM`` (peak resident set) in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Terminate the server and wait until it has exited."""
        if self.proc.poll() is None:
            self.proc.terminate()
        try:
            _, self.stderr = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            _, self.stderr = self.proc.communicate()


class Client:
    """One keep-alive connection; a broken one is reopened lazily."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def send(self, request: Request) -> tuple[int | None, bytes]:
        """``(status, body)``; status ``None`` on a socket error or
        timeout."""
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
        try:
            self._conn.request(
                request.method, request.path, body=request.body,
                headers=JSON_HEADERS if request.body is not None else {})
            response = self._conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return None, b""

    def get_json(self, path: str) -> dict:
        status, body = self.send(Request("GET", path))
        if status != 200:
            raise BenchError(f"GET {path} answered {status}: {body[:200]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def ok(status: int | None) -> bool:
    return status is not None and 200 <= status < 300


@dataclass
class Exchange:
    """One timed operation: its requests' ``(status, body, seconds)``
    and the whole operation's latency."""

    replies: list[tuple[int | None, bytes, float]]
    seconds: float


@dataclass
class HttpResult:
    setup_s: list[float] = field(default_factory=list)
    #: Latencies of the set-up's ingest (load) requests, every set-up.
    load_ack_s: list[float] = field(default_factory=list)
    exchanges: list[Exchange] = field(default_factory=list)
    timed_wall_s: float = 0.0
    before: dict = field(default_factory=dict)
    after: dict = field(default_factory=dict)
    publication: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0


def _set_up(root: Path, plan: Plan,
            result: HttpResult) -> tuple[Server, Client]:
    start = time.perf_counter()
    server = Server(root)
    client = Client(server.port)
    try:
        for request in plan.setup:
            sent = time.perf_counter()
            status, body = client.send(request)
            if not ok(status):
                raise BenchError(f"set-up {request.method} {request.path} "
                                 f"answered {status}: {body[:200]!r}")
            if request.path == INGEST_PATH:
                result.load_ack_s.append(time.perf_counter() - sent)
    except BaseException:
        client.close()
        server.stop()
        raise
    result.setup_s.append(time.perf_counter() - start)
    return server, client


def _scrape(client: Client) -> dict:
    return {"stats": client.get_json("/stats"),
            "metrics": client.get_json("/metrics?format=json")}


def run_http(root: Path, plan: Plan, setups: int) -> HttpResult:
    """Set up ``setups`` fresh servers (all but the last are stopped at
    once), then warm up and time the plan on the last one."""
    result = HttpResult()
    for _ in range(setups - 1):
        server, client = _set_up(root, plan, result)
        client.close()
        server.stop()
    server, client = _set_up(root, plan, result)
    try:
        for op in plan.warmup:
            for request in op:
                status, body = client.send(request)
                if not ok(status):
                    raise BenchError(f"warm-up {request.path} answered "
                                     f"{status}: {body[:200]!r}")
        result.before = _scrape(client)
        clock = time.perf_counter
        exchanges = result.exchanges
        start = clock()
        for op in plan.timed:
            op_start = clock()
            replies = []
            for request in op:
                sent = clock()
                status, body = client.send(request)
                replies.append((status, body, clock() - sent))
            exchanges.append(Exchange(replies, clock() - op_start))
        result.timed_wall_s = clock() - start
        result.after = _scrape(client)
        result.publication = client.get_json(f"/publications/{PUBLICATION}")
        result.peak_rss_mb = server.peak_rss_mb()
    finally:
        client.close()
        server.stop()
    return result
