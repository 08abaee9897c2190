"""The daemon's HTTP/JSON control surface (stdlib ``http.server`` only).

Deliberately tiny: a threading HTTP server bound to loopback by
default, speaking JSON over five routes --

========  ======================  ==========================================
method    path                    meaning
========  ======================  ==========================================
GET       ``/health``             liveness probe; pid + queue snapshot
GET       ``/jobs``               recent jobs (``?state=`` filters)
POST      ``/jobs``               submit a job ``{kind, spec, params}``
GET       ``/jobs/<key>``         one job's state, detail and results
POST      ``/shutdown``           drain and stop (the signal path's twin)
========  ======================  ==========================================

Submissions are validated at the door (:func:`repro.service.queue
.validate_submission`): a bad kind, spec or parameter is a 400 with the
reason in the body, never a job that dies later.  The server binds an
ephemeral port when asked for port 0 and reports the bound port via
``server_port``, which the daemon persists next to its pidfile so
``repro serve status`` and tests can find it.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from repro.errors import ServiceError

#: Cap on request bodies; a protocol spec plus params is tiny.
MAX_BODY_BYTES = 1 << 20

#: How much of a refused oversized body is read and discarded before
#: the 400 goes out, and for how long.  Unread bytes left in the socket
#: when it closes make the kernel reset the connection, and the client
#: then sees a broken pipe instead of the refusal; the time bound keeps
#: a client that stalls mid-body from holding the handler thread.
MAX_DRAIN_BYTES = 8 * MAX_BODY_BYTES
DRAIN_TIMEOUT_S = 5.0


class ServiceHandler(BaseHTTPRequestHandler):
    """Routes requests to the owning :class:`ServiceServer`'s queue."""

    server: "ServiceServer"
    protocol_version = "HTTP/1.1"

    # Quiet by default: the daemon logs to its own files, not stderr.
    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    # -- plumbing -------------------------------------------------------------
    def _send(self, status: int, payload: Dict[str, Any]) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _body(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > MAX_BODY_BYTES:
            self._discard_body(length)
            raise ServiceError(f"request body over {MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length) if length else b"{}"
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServiceError(f"request body is not JSON: {exc}")

    def _discard_body(self, length: int) -> None:
        """Drain a refused body (up to a bound) and end the connection.

        The reply then carries ``Connection: close``: whatever the
        client sent past the drained part must never be parsed as its
        next request on this kept-alive connection.
        """
        self.close_connection = True
        remaining = min(length, MAX_DRAIN_BYTES)
        self.connection.settimeout(DRAIN_TIMEOUT_S)
        try:
            while remaining > 0:
                chunk = self.rfile.read(min(remaining, 1 << 16))
                if not chunk:
                    break
                remaining -= len(chunk)
        except OSError:
            pass  # stalled or gone: answer (if still possible) and close

    # -- routes ---------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        try:
            if path == "/health":
                self._send(200, self.server.health())
            elif path == "/jobs":
                state = _query_param(query, "state")
                self._send(
                    200, {"jobs": self.server.queue.ledger.jobs(state=state)}
                )
            elif path.startswith("/jobs/"):
                key = path[len("/jobs/"):]
                job = self.server.queue.ledger.job(key)
                if job is None:
                    self._send(404, {"error": f"no job {key!r}"})
                    return
                job["results"] = self.server.queue.ledger.results(
                    job_key=key
                )
                self._send(200, job)
            else:
                self._send(404, {"error": f"no route {path!r}"})
        except ServiceError as exc:
            self._send(400, {"error": str(exc)})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        try:
            if self.path == "/jobs":
                key = self.server.queue.submit(self._body())
                self._send(202, {"job_key": key, "state": "queued"})
            elif self.path == "/shutdown":
                self._send(202, {"state": "draining"})
                self.server.request_shutdown()
            else:
                self._send(404, {"error": f"no route {self.path!r}"})
        except ServiceError as exc:
            self._send(400, {"error": str(exc)})


def _query_param(query: str, name: str) -> Optional[str]:
    for pair in query.split("&"):
        key, _, value = pair.partition("=")
        if key == name and value:
            return value
    return None


class ServiceServer(ThreadingHTTPServer):
    """The daemon's HTTP front end, owning nothing but the socket.

    The job queue and ledger are injected; shutdown is signalled via an
    event the daemon's main loop waits on, so the HTTP ``/shutdown``
    route and SIGTERM converge on the same drain path.
    """

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], queue) -> None:
        super().__init__(address, ServiceHandler)
        self.queue = queue
        self.shutdown_requested = threading.Event()

    def health(self) -> Dict[str, Any]:
        import os

        return {
            "ok": True,
            "pid": os.getpid(),
            "port": self.server_port,
            "queue": self.queue.snapshot(),
        }

    def request_shutdown(self) -> None:
        self.shutdown_requested.set()

    def serve_in_thread(self) -> threading.Thread:
        thread = threading.Thread(
            target=self.serve_forever, name="repro-httpd", daemon=True
        )
        thread.start()
        return thread
