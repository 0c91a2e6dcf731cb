"""Load generation over raw keep-alive HTTP/1.1 connections.

The generator sends pre-encoded request bytes and reads only the
status line and ``Content-Length`` while timing; each stream parses and
checks its JSON bodies once it has ended, so the generator's own cost
per request stays small next to the server's and never delays the next
request.  Each stream owns one
connection and runs on its own thread; all streams live in the
benchmark's single generator process.
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from dataclasses import dataclass, field

HEALTHZ = b"GET /healthz?tenant=default HTTP/1.1\r\nHost: bench\r\n\r\n"
REFINALIZE = (b"POST /refinalize HTTP/1.1\r\nHost: bench\r\n"
              b"Content-Length: 0\r\n\r\n")
SOCKET_TIMEOUT = 60.0
#: Closed loops send during the first BURST_S of every CYCLE_S and then
#: leave the server idle, so the host-speed probe beside it (hostspeed.py)
#: runs between bursts as well as between requests.
CYCLE_S = 0.25
BURST_S = 0.2


class Connection:
    """One keep-alive connection to the server under test."""

    def __init__(self, port: int):
        self.port = port
        self._sock = None
        self._buffer = b""

    def _connect(self) -> None:
        self._sock = socket.create_connection(("127.0.0.1", self.port),
                                              timeout=SOCKET_TIMEOUT)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def _fill(self) -> None:
        chunk = self._sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buffer += chunk

    def call(self, request: bytes) -> tuple[int, bytes]:
        """Send one request; return (status, body)."""
        if self._sock is None:
            self._connect()
        try:
            self._sock.sendall(request)
            while b"\r\n\r\n" not in self._buffer:
                self._fill()
            head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
            status = int(head[9:12])
            length = 0
            close = False
            for line in head.split(b"\r\n")[1:]:
                name, _, value = line.partition(b":")
                name = name.strip().lower()
                if name == b"content-length":
                    length = int(value)
                elif name == b"connection":
                    close = value.strip().lower() == b"close"
            while len(self._buffer) < length:
                self._fill()
            body = self._buffer[:length]
            self._buffer = self._buffer[length:]
        except BaseException:
            self.close()
            raise
        if close:
            self.close()
        return status, body

    def json(self, request: bytes) -> dict:
        """Send one request that must answer 200; return its JSON body."""
        status, body = self.call(request)
        if status != 200:
            raise RuntimeError(f"HTTP {status}: {body[:300]!r}")
        return json.loads(body)

    def close(self) -> None:
        if self._sock is not None:
            self._sock.close()
            self._sock = None
        self._buffer = b""


# ----------------------------------------------------------------------
# Response checks: each returns the number of queries answered, or
# raises ValueError when the response is wrong.
# ----------------------------------------------------------------------
def _finite(value) -> float:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"non-finite answer {value!r}")
    return value


def check_scalars(expected: int):
    """A range/point/count workload of ``expected`` queries."""
    def check(document: dict) -> int:
        results = document["results"]
        if document["count"] != expected or len(results) != expected:
            raise ValueError(f"expected {expected} results, got "
                             f"{document['count']}/{len(results)}")
        for result in results:
            _finite(result["value"])
        return expected
    return check


def check_table(document: dict) -> int:
    """One marginal (c x c table) or top-k (k items) result."""
    if document["count"] != 1:
        raise ValueError(f"expected 1 result, got {document['count']}")
    result = document["results"][0]
    if result["type"] == "marginal":
        rows = result["values"]
        if len(rows) != 64 or any(len(row) != 64 for row in rows):
            raise ValueError("marginal table is not 64 x 64")
        for row in rows:
            for value in row:
                _finite(value)
    else:
        items = result["items"]
        if len(items) != result["k"]:
            raise ValueError(f"top-k returned {len(items)} items")
        for item in items:
            _finite(item["value"])
    return 1


def check_ingest(rows: int):
    def check(document: dict) -> int:
        if document["ingested"] != rows:
            raise ValueError(f"ingested {document['ingested']} of {rows}")
        return 0
    return check


@dataclass
class Op:
    """One sent request: kind, due/sent/done times (perf_counter s).

    ``ok`` is set by ``verify``, which checks the response kept in
    ``body`` with ``check`` and then drops it.
    """

    kind: str
    index: int
    due: float
    sent: float
    done: float = 0.0
    ok: bool = False
    queries: int = 0
    error: str = ""
    status: int = 0
    body: bytes = b""
    check: object = None

    def verify(self) -> None:
        body, self.body = self.body, b""
        if self.error:
            return
        try:
            if self.status != 200:
                raise ValueError(f"HTTP {self.status}: {body[:200]!r}")
            self.queries = self.check(json.loads(body))
            self.ok = True
        except (ValueError, KeyError, TypeError) as error:
            self.error = f"{type(error).__name__}: {error}"


def _run_one(connection: Connection, op: Op, request: bytes, check) -> None:
    op.check = check
    try:
        op.status, op.body = connection.call(request)
        op.done = time.perf_counter()
    except (OSError, ValueError) as error:
        op.done = time.perf_counter()
        op.error = f"{type(error).__name__}: {error}"
        connection.close()


@dataclass
class Stream:
    """A request stream on its own connection.

    ``items`` yields ``(kind, index, request, check)``.  Closed loop:
    from ``start``, each request is sent when the previous one completes,
    in bursts (``BURST_S`` of every ``CYCLE_S``), until ``stop_at``.
    Open loop: item ``i`` is due at ``start + (i + phase) / rate`` and
    its latency counts from that moment.
    """

    port: int
    items: object
    rate: float | None = None
    phase: float = 0.0
    stop_at: float = math.inf
    ops: list = field(default_factory=list)

    def run(self, start: float) -> None:
        connection = Connection(self.port)
        try:
            for position, (kind, index, request, check) in enumerate(
                    self.items):
                if self.rate is None:
                    now = time.perf_counter()
                    if now < start:
                        time.sleep(start - now)
                    elif (now - start) % CYCLE_S >= BURST_S:
                        time.sleep(CYCLE_S - (now - start) % CYCLE_S)
                    due = time.perf_counter()
                else:
                    due = start + (position + self.phase) / self.rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                if time.perf_counter() >= self.stop_at:
                    if self.rate is not None:
                        # Past the schedule's grace: the rest is not sent.
                        self.ops.append(Op(kind, index, due, due, due,
                                           error="not sent in time"))
                        continue
                    break
                op = Op(kind, index, due, time.perf_counter())
                self.ops.append(op)
                _run_one(connection, op, request, check)
        finally:
            connection.close()

    def verify(self) -> None:
        """Check every response; run once the stream has ended."""
        for op in self.ops:
            op.verify()


def bursts(ops: list[Op], start: float) -> list[tuple[float, float]]:
    """(first send, last completion) of each burst of closed-loop
    ``ops`` run from ``start``: the stretches the server worked."""
    spans: dict[int, tuple[float, float]] = {}
    for op in ops:
        burst = int((op.sent - start) // CYCLE_S)
        first, last = spans.get(burst, (op.sent, op.done))
        spans[burst] = (min(first, op.sent), max(last, op.done))
    return [spans[burst] for burst in sorted(spans)]


def run_streams(streams: list[Stream], start: float) -> None:
    """Run every stream on its own thread from ``start``; join them all."""
    threads = [threading.Thread(target=stream.run, args=(start,),
                                daemon=True) for stream in streams]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
