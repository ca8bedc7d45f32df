"""Server lifecycle and the HTTP load generator for the ``serve_http`` workload.

One generator process (the benchmark itself) drives a ``repro serve`` process
over ``CONNECTIONS`` keep-alive connections:

* closed loop: each connection sends its next request when the previous
  answer arrives, for a fixed time; gives throughput;
* open loop: requests fall due on a seeded Poisson schedule at a fixed rate
  well under capacity and go out on whichever connection is free, in order.
  A request that falls due while every connection is busy waits in the
  generator; its latency still counts from its due time, and the wait is
  reported as generator lag.
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

#: keep-alive connections of the generator.  An open loop stands for
#: independent users, so a Poisson burst must not queue behind the generator's
#: own connections: with 2 (one per core of a 2-core host) the generator ran
#: 5-14 ms late at p99 and the tail measured that queue; with 4 it runs ~2.5 ms
#: late and the tail is the server's
CONNECTIONS = 4

_BOUND = re.compile(rb"on http://([0-9.]+):([0-9]+)")

#: plain HTTP to localhost, never through a proxy named in the environment
_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def readline_within(process: subprocess.Popen, timeout: float) -> bytes:
    """The next line ``process`` writes to its stdout pipe, or ``b""``.

    Empty when the process closed its stdout; a process that stays silent
    past ``timeout`` is killed, which ends the read.
    """
    line: list[bytes] = []
    reader = threading.Thread(target=lambda: line.append(process.stdout.readline()))
    reader.start()
    reader.join(timeout)
    if reader.is_alive():
        process.kill()
        reader.join()
    return line[0] if line else b""


def _server_preexec(cpus: set[int]) -> None:
    """Pin the server and give it the default SIGINT handling.

    A benchmark started in the background inherits SIGINT ignored; the server
    would inherit that too and never drain on :meth:`ServerProcess.stop`.
    """
    os.sched_setaffinity(0, cpus)
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class ServerProcess:
    """A ``repro serve`` process on an ephemeral port, default ``ServeConfig``, on ``cpus``.

    With ``spans_out`` the server runs under ``traced_server.py``, which wraps
    the same layer calls as the in-process traced runs and writes its spans to
    that file on shutdown.
    """

    def __init__(self, root: Path, artifact: Path, cpus: set[int],
                 spans_out: Path | None = None):
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        serve_args = ["serve", "--model", str(artifact), "--port", "0"]
        if spans_out is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            here = Path(__file__).resolve().parent
            command = [sys.executable, str(here / "traced_server.py"), str(spans_out), *serve_args]
        self.process = subprocess.Popen(
            command, stdout=subprocess.PIPE, env=env, cwd=root,
            preexec_fn=lambda: _server_preexec(cpus),
        )
        self.port = self._read_port(timeout=60.0)

    def _read_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        while (line := readline_within(self.process, deadline - time.monotonic())):
            match = _BOUND.search(line)
            if match:
                return int(match.group(2))
        self.stop()
        raise RuntimeError("server did not report its port")

    def wait_healthy(self, timeout: float = 30.0) -> None:
        """Poll ``GET /healthz`` until it answers 200."""
        deadline = time.monotonic() + timeout
        url = f"http://127.0.0.1:{self.port}/healthz"
        while time.monotonic() < deadline:
            try:
                with _OPENER.open(url, timeout=2.0) as response:
                    if response.status == 200:
                        return
            except (urllib.error.URLError, ConnectionError):
                pass
            time.sleep(0.005)
        raise RuntimeError("server never answered /healthz with 200")

    def metrics(self) -> dict:
        url = f"http://127.0.0.1:{self.port}/metrics"
        with _OPENER.open(url, timeout=10.0) as response:
            return json.loads(response.read())

    def peak_rss_mb(self) -> float:
        """The server's peak resident set (``VmHWM``), in MB (MiB)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kib = int(re.search(r"VmHWM:\s+([0-9]+) kB", status).group(1))
        return kib / 1024

    def stop(self) -> None:
        """SIGINT (graceful drain), then wait; kill only if it does not exit."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
        try:
            self.process.communicate(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()


class Connection:
    """One HTTP/1.1 keep-alive connection speaking just what ``POST /classify`` needs."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        return cls(reader, writer)

    async def classify(self, text: str) -> tuple[int, str | None, dict]:
        body = json.dumps({"text": text}).encode("utf-8")
        self.writer.write(
            b"POST /classify HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
            b"Content-Length: %d\r\n\r\n%s" % (len(body), body)
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        headers = {}
        for line in lines[1:]:
            name, _sep, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        payload = await self.reader.readexactly(int(headers.get("content-length", "0")))
        return status, headers.get("x-request-id"), json.loads(payload)

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


async def _with_connections(port: int, body):
    connections = [await Connection.open(port) for _ in range(CONNECTIONS)]
    try:
        return await body(connections)
    finally:
        for connection in connections:
            await connection.close()


def closed_loop(port: int, sequence: list, seconds: float, start: int = 0) -> dict:
    """Every connection re-sends as soon as it is answered, until ``seconds`` pass.

    The sequence is consumed in order across connections from ``start`` and
    wraps around if exhausted; ``next`` is where a following slice resumes.  Each answer is ``(index, status, payload, due, sent, done,
    request_id)``; in a closed loop a request is due when it is sent.
    """

    async def body(connections):
        answers: list = []
        cursor = [start]
        began = time.perf_counter()
        deadline = began + seconds

        async def drive(connection):
            while time.perf_counter() < deadline:
                index = cursor[0] % len(sequence)
                cursor[0] += 1
                sent = time.perf_counter()
                status, request_id, payload = await connection.classify(sequence[index][1])
                answers.append((index, status, payload, sent, sent, time.perf_counter(),
                                request_id))

        await asyncio.gather(*(drive(c) for c in connections))
        return answers, began, cursor[0]

    answers, began, following = asyncio.run(_with_connections(port, body))
    return {"answers": answers, "began": began, "seconds": seconds, "next": following}


def open_loop(port: int, sequence: list, due_s: list[float]) -> dict:
    """Send request ``i`` at ``due_s[i]`` (or as soon as a connection frees up).

    Answers have the :func:`closed_loop` shape; ``lags_s`` holds how late
    each request went out after it fell due.
    """

    async def body(connections):
        answers: list = []
        lags: list[float] = []
        cursor = [0]
        began = time.perf_counter() + 0.05

        async def drive(connection):
            while cursor[0] < len(sequence):
                index = cursor[0]
                cursor[0] += 1
                due = began + due_s[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                sent = time.perf_counter()
                lags.append(sent - due)
                status, request_id, payload = await connection.classify(sequence[index][1])
                answers.append((index, status, payload, due, sent, time.perf_counter(),
                                request_id))

        await asyncio.gather(*(drive(c) for c in connections))
        return answers, lags, began, time.perf_counter()

    answers, lags, began, ended = asyncio.run(_with_connections(port, body))
    return {"answers": answers, "lags_s": lags, "began": began, "ended": ended}


def interleaved(server: ServerProcess, closed_seq: list, open_seq: list, due_s: list[float],
                closed_seconds: float, cycles: int) -> tuple[list[dict], list[dict]]:
    """``cycles`` rounds of a closed-loop slice followed by an open-loop slice.

    Spreading both phases over the whole run keeps a slow spell of a shared
    host from landing on one phase only.  The closed loop resumes where the
    previous slice stopped; the open-loop schedule is cut into ``cycles``
    consecutive parts, each re-based to start due at once.  Every open slice
    carries the server's ``/metrics`` snapshots taken just before and after it.
    """
    closed_slices: list[dict] = []
    open_slices: list[dict] = []
    cuts = [round(len(open_seq) * c / cycles) for c in range(cycles + 1)]
    cursor = 0
    for cycle in range(cycles):
        closed = closed_loop(server.port, closed_seq, closed_seconds / cycles, start=cursor)
        cursor = closed["next"]
        closed_slices.append(closed)
        lo, hi = cuts[cycle], cuts[cycle + 1]
        before = server.metrics()
        opened = open_loop(server.port, open_seq[lo:hi], [d - due_s[lo] for d in due_s[lo:hi]])
        opened["metrics"] = (before, server.metrics())
        opened["answers"] = [(index + lo, *rest) for index, *rest in opened["answers"]]
        open_slices.append(opened)
    return closed_slices, open_slices
