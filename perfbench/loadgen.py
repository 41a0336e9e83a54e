"""HTTP/1.1 load from one thread over a few keep-alive connections.

Open loop: request *i* is due at ``t0 + i / rate`` and is written at
its due time whatever the server is doing (requests pipeline on their
connection), so a stall delays every later request.  Latency runs from
the due time to the last response byte, and the generator's own
lateness (send time minus due time) is recorded to show whether it
kept the schedule.  Closed loop: each connection sends its next
request when the previous response is complete.
"""

from __future__ import annotations

import json
import math
import selectors
import socket
import time
from collections import deque

perf = time.perf_counter

#: A request that got no 200 response "misses every limit".
FAILED = math.inf
#: Give up on responses this long after the last request was due.
DRAIN_TIMEOUT_S = 30.0


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = (f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n")
    return head.encode("ascii") + body


class _Connection:
    def __init__(self, addr: tuple[str, int]):
        self.sock = socket.create_connection(addr, timeout=DRAIN_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.pending: deque[int] = deque()
        self.alive = True

    def responses(self, data: bytes):
        """Complete ``(status, body)`` responses in *data* plus what was
        buffered (every response carries a Content-Length)."""
        self.buffer += data
        while True:
            end = self.buffer.find(b"\r\n\r\n")
            if end < 0:
                return
            head = bytes(self.buffer[:end]).decode("latin-1")
            length = 0
            for line in head.split("\r\n")[1:]:
                key, _, value = line.partition(":")
                if key.strip().lower() == "content-length":
                    length = int(value)
            total = end + 4 + length
            if len(self.buffer) < total:
                return
            status = int(head.split(" ", 2)[1])
            body = bytes(self.buffer[end + 4:total])
            del self.buffer[:total]
            yield status, body

    def close(self) -> None:
        self.sock.close()


class Outcome:
    """Per-request results of one load phase, indexed like the bodies."""

    def __init__(self, n: int):
        self.status = [0] * n
        self.body: list[bytes | None] = [None] * n
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.done = [FAILED] * n
        self.started = 0.0
        self.finished = 0.0
        self.sent_count = n

    def completed(self) -> list[int]:
        return [i for i, s in enumerate(self.status) if s == 200]


def _pump(selector, outcome: Outcome, on_response, timeout: float) -> None:
    """Wait up to *timeout* for data; account finished responses."""
    for key, _ in selector.select(timeout):
        conn = key.data
        try:
            data = conn.sock.recv(1 << 18)
        except OSError:
            data = b""
        if not data:
            conn.alive = False
            selector.unregister(conn.sock)
            conn.pending.clear()  # status stays 0: counted failed
            continue
        for status, body in conn.responses(data):
            index = conn.pending.popleft()
            outcome.done[index] = perf()
            outcome.status[index] = status
            outcome.body[index] = body
            on_response(conn, index)


def _connect(addr, n: int):
    conns = [_Connection(addr) for _ in range(n)]
    selector = selectors.DefaultSelector()
    for conn in conns:
        selector.register(conn.sock, selectors.EVENT_READ, conn)
    return conns, selector


def _send(conn: _Connection, outcome: Outcome, index: int, payload: bytes) -> None:
    outcome.sent[index] = perf()
    if not conn.alive:
        return
    try:
        conn.sock.sendall(payload)
    except OSError:
        return
    conn.pending.append(index)


def open_loop(addr, bodies: list[bytes], rate: float, connections: int) -> Outcome:
    """Send ``bodies[i]`` to ``/v1/estimate`` at ``t0 + i / rate``."""
    n = len(bodies)
    outcome = Outcome(n)
    requests = [_request("POST", "/v1/estimate", b) for b in bodies]
    conns, selector = _connect(addr, connections)
    try:
        t0 = perf() + 0.01
        outcome.due = [t0 + i / rate for i in range(n)]
        outcome.started = t0
        sent = 0
        give_up = outcome.due[-1] + DRAIN_TIMEOUT_S
        while any(c.pending for c in conns) or sent < n:
            now = perf()
            while sent < n and outcome.due[sent] <= now:
                _send(conns[sent % connections], outcome, sent, requests[sent])
                sent += 1
            if now > give_up:
                break
            # Wait for responses, but never past the next due time.
            timeout = max(0.0, outcome.due[sent] - perf()) if sent < n else 0.05
            _pump(selector, outcome, lambda _c, _i: None, timeout)
        outcome.finished = perf()
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    return outcome


def closed_loop(addr, bodies: list[bytes], seconds: float, connections: int) -> Outcome:
    """Each connection sends its next body when the last one is
    answered, until *seconds* have passed or the bodies run out."""
    n = len(bodies)
    outcome = Outcome(n)
    conns, selector = _connect(addr, connections)
    next_body = 0

    def send_next(conn: _Connection) -> None:
        nonlocal next_body
        if next_body < n and perf() < stop:
            index = next_body
            next_body += 1
            outcome.due[index] = perf()
            _send(conn, outcome, index, _request("POST", "/v1/estimate", bodies[index]))

    try:
        outcome.started = perf()
        stop = outcome.started + seconds
        for conn in conns:
            send_next(conn)
        give_up = stop + DRAIN_TIMEOUT_S
        while any(c.pending for c in conns) and perf() < give_up:
            _pump(selector, outcome, lambda conn, _i: send_next(conn), 0.05)
        outcome.finished = perf()
    finally:
        for conn in conns:
            conn.close()
        selector.close()
    outcome.sent_count = next_body
    return outcome


def get_json(addr, path: str) -> dict:
    """One GET on a fresh connection (for ``/metrics``)."""
    conn = _Connection(addr)
    try:
        conn.sock.sendall(_request("GET", path))
        while True:
            data = conn.sock.recv(1 << 16)
            if not data:
                raise ConnectionError(f"GET {path}: connection closed")
            for status, body in conn.responses(data):
                if status != 200:
                    raise ConnectionError(f"GET {path}: HTTP {status}")
                return json.loads(body)
    finally:
        conn.close()
