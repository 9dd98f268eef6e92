"""HTTP/JSON front end for the sweep service (stdlib only).

A thin, threaded transport over :class:`~.queue.SweepService` — every
route maps 1:1 onto a service method, the handler owns nothing but
parsing and status codes:

===========  ==============================  =================================
Method       Path                            Meaning
===========  ==============================  =================================
``POST``     ``/jobs``                       submit a JobSpec document
``GET``      ``/jobs``                       list jobs (``?state=dead`` etc.)
``GET``      ``/jobs/<id>``                  one job snapshot
``GET``      ``/jobs/<id>?wait=S``           same, held <= S s until terminal
``GET``      ``/jobs/<id>/result``           the result document (raw bytes)
``GET``      ``/jobs/<id>/events``           NDJSON progress (``?since=N``)
``DELETE``   ``/jobs/<id>``                  cancel
``GET``      ``/healthz``                    liveness probe (detail payload)
``GET``      ``/stats``                      service + store counters
===========  ==============================  =================================

Status codes: 200/202 on success, 400 for malformed specs, 404 for
unknown jobs, 409 for a result that is not ready (with a
``Retry-After`` hint so pollers pace themselves), 503 when job
persistence hit a storage fault (also with ``Retry-After`` — resubmit
is idempotent by content-derived job id). Error bodies are always
``{"error": "<message>"}``. ``/healthz`` answers 200 with a detail
payload (dispatcher liveness, queue depth, store writability) when
healthy and 503 with the same payload when not, so monitors can tell
*hung* from *busy*.

``ThreadingHTTPServer`` gives one thread per connection, and a
connection stays open between requests (HTTP/1.1 keep-alive; a
:class:`~.client.ServiceClient` keeps one per thread);
:class:`~.queue.SweepService` is thread-safe, so concurrent clients
need no extra coordination. Closing the server shuts its open
connections down, so a client kept alive across a restart reconnects
to the new daemon instead of talking to the stopped one. Bind port 0
to get an ephemeral port (tests read it back from
``server.server_address``).

Chaos: constructed with a :class:`~.chaos.ChaosPolicy`, every request
first consults the ``http.*`` fault sites — injected delay, dropped
connection, 5xx, or a truncated body — before normal routing. That is
how the retry behavior of :class:`~.client.ServiceClient` is tested
against a deterministic adversary (``repro serve --chaos SPEC.json``).
"""

from __future__ import annotations

import json
import math
import socket
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Set, Tuple
from urllib.parse import parse_qs, urlparse

from ..errors import ServiceError
from .chaos import ChaosPolicy
from .jobs import DONE, FAILED, STATES, JobSpec
from .queue import SweepService

#: Largest request body the server will read (a JobSpec with a large
#: template scenario fits easily; anything bigger is abuse).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Retry-After hint (seconds) on "result not ready" and storage-fault
#: responses — short, because the condition usually clears at the next
#: point boundary.
RETRY_AFTER_S = 1.0

#: Longest one ``GET /jobs/<id>?wait=S`` is held open, in seconds — below
#: ServiceClient's default 30 s socket timeout, so a held request is
#: answered (200, still non-terminal) before the client gives up on it.
MAX_WAIT_S = 20.0


class ServiceRequestHandler(BaseHTTPRequestHandler):
    """Routes requests onto ``self.server.service``."""

    server_version = "repro-sweepd/1"
    protocol_version = "HTTP/1.1"
    #: TCP_NODELAY: a response goes out as two writes (headers, body),
    #: and on a kept-alive connection Nagle would hold the second
    #: until the client's delayed ACK, ~40 ms later.
    disable_nagle_algorithm = True

    # -- helpers -------------------------------------------------------

    @property
    def service(self) -> SweepService:
        return self.server.service  # type: ignore[attr-defined]

    def log_message(self, format: str, *args: Any) -> None:
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)

    def _send(self, status: int, body: bytes,
              content_type: str = "application/json",
              retry_after: Optional[float] = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if retry_after is not None:
            self.send_header("Retry-After", f"{retry_after:g}")
        self.end_headers()
        if getattr(self, "_chaos_truncate", False):
            # The advertised Content-Length stands but only half the
            # body goes out: the client's read raises IncompleteRead.
            body = body[:len(body) // 2]
            self.close_connection = True
        try:
            self.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; nothing to clean up

    def _send_json(self, status: int, doc: Any,
                   retry_after: Optional[float] = None) -> None:
        body = (json.dumps(doc, indent=1, sort_keys=True) + "\n") \
            .encode("utf-8")
        self._send(status, body, retry_after=retry_after)

    def _send_error(self, status: int, message: str,
                    retry_after: Optional[float] = None) -> None:
        self._send_json(status, {"error": message},
                        retry_after=retry_after)

    def _chaos_intercept(self) -> bool:
        """Consult the http.* fault sites; True = request consumed.

        Ordering is fixed (delay, drop, error, truncate) so a seeded
        policy replays identically. Truncation only arms a flag — the
        damage happens in :meth:`_send`, whatever the response is.
        """
        self._chaos_truncate = False  # keep-alive: reset per request
        policy: Optional[ChaosPolicy] = getattr(self.server, "chaos",
                                                None)
        if policy is None:
            return False
        site = policy.fires("http.delay")
        if site is not None:
            time.sleep(site.delay_s)
        if policy.fires("http.drop") is not None:
            # Close without any response bytes: the client sees a
            # reset/remote-disconnect, the ambiguous failure shape.
            self.close_connection = True
            return True
        site = policy.fires("http.error")
        if site is not None:
            self._send_error(site.status, "chaos: injected server error",
                             retry_after=site.retry_after)
            return True
        if policy.fires("http.truncate") is not None:
            self._chaos_truncate = True
        return False

    def _read_body(self) -> Optional[bytes]:
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self._send_error(400, "bad Content-Length")
            return None
        if length <= 0:
            self._send_error(400, "request body required")
            return None
        if length > MAX_BODY_BYTES:
            self._send_error(413, f"body exceeds {MAX_BODY_BYTES} bytes")
            return None
        return self.rfile.read(length)

    def _route(self) -> Tuple[str, Dict[str, Any]]:
        parsed = urlparse(self.path)
        return parsed.path.rstrip("/") or "/", parse_qs(parsed.query)

    # -- methods -------------------------------------------------------

    def do_POST(self) -> None:
        if self._chaos_intercept():
            return
        path, _ = self._route()
        if path != "/jobs":
            self._send_error(404, f"no such route: POST {path}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            doc = json.loads(body)
        except json.JSONDecodeError as exc:
            self._send_error(400, f"request body is not JSON: {exc}")
            return
        try:
            spec = JobSpec.from_json(doc)
            job = self.service.submit(spec)
        except ServiceError as exc:
            self._send_error(400, str(exc))
            return
        except OSError as exc:
            # Job persistence failed (full disk, chaos): the submit
            # was not durably acknowledged. Retryable — job ids are
            # content-derived, so a resubmit coalesces, never forks.
            self._send_error(503, f"job store write failed: {exc}",
                             retry_after=RETRY_AFTER_S)
            return
        self._send_json(202, self.service.snapshot(job.id))

    def do_GET(self) -> None:
        if self._chaos_intercept():
            return
        path, query = self._route()
        if path == "/healthz":
            health = self.service.health()
            self._send_json(200 if health.get("ok") else 503, health)
            return
        if path == "/stats":
            self._send_json(200, self.service.stats())
            return
        if path == "/jobs":
            state = query.get("state", [None])[0]
            if state is not None and state not in STATES:
                self._send_error(
                    400, f"state must be one of {STATES}, got {state!r}")
                return
            self._send_json(200, {"jobs": self.service.snapshots(state)})
            return
        parts = path.strip("/").split("/")
        if parts[0] != "jobs" or len(parts) not in (2, 3):
            self._send_error(404, f"no such route: GET {path}")
            return
        jid = parts[1]
        hold = self._wait_seconds(query) if len(parts) == 2 else 0.0
        if hold is None:
            return
        job = self.service.wait_terminal(jid, hold)
        if job is None:
            self._send_error(404, f"no such job: {jid}")
            return
        if len(parts) == 2:
            self._send_json(200, job)
        elif parts[2] == "result":
            self._send_result(jid, job)
        elif parts[2] == "events":
            self._send_events(jid, query)
        else:
            self._send_error(404, f"no such route: GET {path}")

    def do_DELETE(self) -> None:
        if self._chaos_intercept():
            return
        path, _ = self._route()
        parts = path.strip("/").split("/")
        if parts[0] != "jobs" or len(parts) != 2:
            self._send_error(404, f"no such route: DELETE {path}")
            return
        if self.service.cancel(parts[1]) is None:
            self._send_error(404, f"no such job: {parts[1]}")
            return
        self._send_json(200, self.service.snapshot(parts[1]))

    # -- sub-resources -------------------------------------------------

    def _wait_seconds(self, query: Dict[str, Any]) -> Optional[float]:
        """``?wait=S`` capped at MAX_WAIT_S (absent = 0); None = 400 sent."""
        raw = query.get("wait", ["0"])[0]
        try:
            hold = float(raw)
        except ValueError:
            hold = math.nan
        if not 0 <= hold < math.inf:  # NaN fails every comparison
            self._send_error(
                400, f"wait must be a finite number >= 0, got {raw!r}")
            return None
        return min(hold, MAX_WAIT_S)

    def _send_result(self, jid: str, job: Dict[str, Any]) -> None:
        if job["state"] == FAILED:
            self._send_error(409, f"job {jid} failed: {job['error']}")
            return
        if job["state"] != DONE:
            # Not ready yet: hint the polling cadence so raw HTTP
            # clients don't hammer the daemon (ServiceClient honors
            # Retry-After in its retry layer).
            self._send_error(409,
                             f"job {jid} is {job['state']}, not done",
                             retry_after=RETRY_AFTER_S)
            return
        body = self.service.result_bytes(jid)
        if body is None:  # done but file missing: crashed mid-write
            self._send_error(409, f"job {jid} has no result document",
                             retry_after=RETRY_AFTER_S)
            return
        self._send(200, body)

    def _send_events(self, jid: str, query: Dict[str, Any]) -> None:
        try:
            since = int(query.get("since", ["0"])[0])
        except ValueError:
            self._send_error(400, "since must be an integer")
            return
        lines = [json.dumps(event, sort_keys=True)
                 for event in self.service.events(jid, since=since)]
        body = ("\n".join(lines) + ("\n" if lines else "")) \
            .encode("utf-8")
        self._send(200, body, content_type="application/x-ndjson")


class ReproServer(ThreadingHTTPServer):
    """The sweep-service HTTP daemon.

    Owns a :class:`~.queue.SweepService`, which the caller starts
    first so that a refused job directory never binds a port;
    :meth:`serve` blocks until :meth:`shutdown`. Tests typically run
    ``serve_background()`` on port 0 instead.
    """

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], service: SweepService,
                 verbose: bool = False,
                 chaos: Optional[ChaosPolicy] = None) -> None:
        super().__init__(address, ServiceRequestHandler)
        self.service = service
        self.verbose = verbose
        #: Armed fault schedule; every request consults the ``http.*``
        #: sites before routing (None = no injection).
        self.chaos = chaos
        #: Accepted connections not yet closed, shut down by
        #: :meth:`server_close` (a kept-alive one would outlive it).
        self._open: Set[socket.socket] = set()
        self._open_lock = threading.Lock()

    @property
    def port(self) -> int:
        return self.server_address[1]

    def process_request(self, request: Any, client_address: Any) -> None:
        with self._open_lock:
            self._open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request: Any) -> None:
        with self._open_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def server_close(self) -> None:
        """Close the listening socket and every open connection."""
        super().server_close()
        with self._open_lock:
            for request in self._open:
                try:
                    request.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass  # already gone

    def serve(self) -> None:
        """Run the HTTP loop until shutdown, then stop the service."""
        try:
            self.serve_forever(poll_interval=0.2)
        finally:
            self.service.stop()

    def close(self) -> None:
        """Stop serving and flush the service (idempotent)."""
        self.shutdown()
        self.server_close()
        self.service.stop()


def serve_background(service: SweepService, host: str = "127.0.0.1",
                     port: int = 0,
                     chaos: Optional[ChaosPolicy] = None) -> ReproServer:
    """Start a server on a daemon thread; returns the live server.

    The caller owns shutdown (``server.close()``). Used by tests and
    the benchmark harness; the CLI runs :meth:`ReproServer.serve` in
    the foreground instead.
    """
    service.start()
    server = ReproServer((host, port), service, chaos=chaos)
    thread = threading.Thread(target=server.serve_forever,
                              kwargs={"poll_interval": 0.2},
                              name="sweep-service-http", daemon=True)
    thread.start()
    return server
