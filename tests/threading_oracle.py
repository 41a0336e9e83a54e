"""The seed thread-per-connection HTTP server: the wire-format oracle.

This is the original ``ThreadingHTTPServer``-based serving tier the
event-loop server (:mod:`repro.service.server`) replaced.  It lives
under ``tests/`` for one reason: the server-matrix parity suite
(``tests/test_service_http.py``) runs every endpoint and every
error-envelope case against **both** implementations and asserts the
responses are byte-identical — the threading server defines the wire
contract, the event loop must reproduce it exactly.

It is fully functional (same :class:`ServiceState`, same handlers,
same resilience), just slower under concurrency: one OS thread per
connection, all of them serialized by the GIL, with stdlib
``http.server`` parsing overhead per request.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro import __version__
from repro.service.errors import (
    InvalidJSONError,
    PayloadTooLargeError,
    ServiceError,
    ValidationError,
)
from repro.service.handlers import dispatch
from repro.service.state import ServiceConfig, ServiceState

log = logging.getLogger("repro.service")


class _RequestHandler(BaseHTTPRequestHandler):
    """Per-connection handler; all logic lives in ``handlers.dispatch``."""

    protocol_version = "HTTP/1.1"
    server_version = f"repro-serve/{__version__}"
    # Buffer the response stream so status line, headers and body
    # leave in ONE socket send (handle_one_request flushes after each
    # request).  Unbuffered (the stdlib default) the body goes out as
    # a second TCP segment, and Nagle + delayed ACK stall every
    # keep-alive response ~40 ms.  Nagle is disabled as well so a
    # response larger than the buffer cannot reintroduce the stall.
    wbufsize = 64 * 1024
    disable_nagle_algorithm = True

    # Set by ThreadingNutritionService on the handler subclass.
    state: ServiceState

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._handle("POST")

    def _handle(self, method: str) -> None:
        try:
            payload = self._read_payload()
        except ServiceError as exc:
            self._write(
                exc.status,
                json.dumps(exc.to_body()).encode(),
                headers=exc.headers(),
            )
            return
        response = dispatch(self.state, method, self.path, payload)
        self._write(
            response.status,
            response.body,
            response.cache_hit,
            headers=response.headers,
        )

    def _read_payload(self):
        """Decode the request body (``None`` for bodyless requests)."""
        raw_length = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            # Non-numeric or negative: reject before touching rfile —
            # int() must not escape as a 500, and rfile.read(-1) would
            # block the handler thread until client EOF.
            self.close_connection = True
            raise ValidationError(
                f"invalid Content-Length header: {raw_length!r}",
                field="Content-Length",
            )
        if length > self.state.config.max_body_bytes:
            # Read nothing; close after responding so the unread body
            # cannot desynchronize the connection.
            self.close_connection = True
            raise PayloadTooLargeError(
                f"request body of {length} bytes exceeds the "
                f"{self.state.config.max_body_bytes} byte limit"
            )
        if length == 0:
            return None
        raw = self.rfile.read(length)
        try:
            return json.loads(raw)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidJSONError(f"request body is not valid JSON: {exc}")

    def _write(
        self,
        status: int,
        body: bytes,
        cache_hit: bool = False,
        headers: tuple[tuple[str, str], ...] = (),
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if cache_hit:
            self.send_header("X-Cache", "hit")
        for name, value in headers:
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        # Route access logs through logging instead of bare stderr so
        # embedding applications (and the tests) control verbosity.
        log.debug("%s - %s", self.address_string(), format % args)


class ThreadingNutritionService:
    """The seed serving tier: thread per connection, one process.

    API-compatible with :class:`repro.service.server.NutritionService`
    (``start``/``shutdown``/context manager/``url``) so the parity
    suite can drive both through one code path.
    """

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config or ServiceConfig()
        self.state = ServiceState(self.config)

        # Subclass per service instance so concurrent services (tests)
        # each bind their own state.
        handler = type(
            "_BoundRequestHandler", (_RequestHandler,), {"state": self.state}
        )
        self._server = ThreadingHTTPServer(
            (self.config.host, self.config.port), handler
        )
        self._server.daemon_threads = True
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        """The actually-bound port (useful with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # lifecycle

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._server.serve_forever(poll_interval=0.1)

    def start(self) -> "ThreadingNutritionService":
        """Serve on a daemon background thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("service already started")
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve", daemon=True
        )
        self._thread.start()
        return self

    #: How long shutdown waits for in-flight estimation requests.
    DRAIN_TIMEOUT_S = 5.0

    def shutdown(self) -> None:
        """Graceful stop: drain in-flight requests, close the socket.

        Ordering matters.  ``/readyz`` flips to 503 first (a load
        balancer stops routing here), then the accept loop stops, then
        we *wait for the admission controller to drain*: handler
        threads are daemons — ``ThreadingHTTPServer`` never joins them
        — so without this wait, process exit right after ``shutdown()``
        would kill responses mid-write.  Requests still running after
        :attr:`DRAIN_TIMEOUT_S` are abandoned (they hold the process
        open only if it waits; a drain deadline keeps shutdown
        bounded).
        """
        self.state.draining = True
        self._server.shutdown()
        drain_until = time.monotonic() + self.DRAIN_TIMEOUT_S
        while not self.state.admission.drained():
            if time.monotonic() >= drain_until:
                log.warning(
                    "drain timeout: %d request(s) still in flight at "
                    "shutdown",
                    self.state.admission.active,
                )
                break
            time.sleep(0.02)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()

    def __enter__(self) -> "ThreadingNutritionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
