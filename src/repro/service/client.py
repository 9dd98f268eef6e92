"""HTTP/1.1 client for the sweep-service HTTP API.

:class:`ServiceClient` is the programmatic face of a running daemon —
the CLI's ``repro submit`` / ``repro jobs`` verbs, the examples, and
the service tests all speak through it. Pure stdlib
(:mod:`http.client`), synchronous, one kept-alive connection per
thread: a warm submit → wait → result is three requests on one socket
and one daemon handler thread, not three connects. ``http.client``
sets ``TCP_NODELAY`` on the socket and the daemon's handler does the
same, so a request on a kept-alive connection does not wait out Nagle
against a delayed ACK. The service is a lab tool on localhost, not a
hyperscale RPC layer, and boring transport keeps it debuggable with
``curl``. Job completion is not polled for: :meth:`ServiceClient.wait`
long-polls ``GET /jobs/<id>?wait=S``, a request the daemon holds and
answers the moment the job turns terminal.

All failures — connection refused, non-2xx statuses, malformed bodies —
surface as :class:`~repro.errors.ServiceError` with the HTTP status
attached (0 when no response arrived).

Retry policy (the chaos-hardening contract):

* Transport failures (connection refused/reset, timeouts, truncated
  bodies) close the thread's connection, so the next attempt connects
  afresh; ``http.client`` closes it itself after a response that says
  it will close.
* Transport failures and server-fault statuses (429 and 5xx) are
  retried up to ``retries`` times with capped exponential backoff and
  **full jitter** — ``uniform(0, min(cap, base * 2^attempt))`` — the
  AWS-style schedule that avoids synchronized retry storms when many
  clients hit one recovering daemon.
* A server ``Retry-After`` hint takes precedence over the jittered
  delay (capped at ``backoff_cap`` so a confused server cannot park
  the client).
* Other 4xx are never retried: the request itself is wrong.

Retrying ``POST /jobs`` after an ambiguous failure (the response was
lost but the daemon may have acted) is *safe by construction*: job ids
are content-derived from the normalized spec
(:func:`~repro.service.jobs.job_id`), so a resubmit coalesces onto the
already-queued job instead of duplicating work — the service-side
idempotency that makes at-least-once delivery correct. Asserted in
``tests/test_chaos_service.py``.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional
from urllib.parse import urlsplit

from ..errors import ServiceError
from .jobs import TERMINAL, JobSpec

#: Statuses worth retrying: the server (or something in front of it)
#: failed, not the request.
RETRYABLE_STATUSES = frozenset({429, 500, 502, 503, 504})

#: Seconds :meth:`ServiceClient.wait` asks the daemon to hold one
#: long-poll — under the server's hold cap, so the answer is never early.
LONG_POLL_S = 10.0


def _parse_retry_after(headers: Any) -> Optional[float]:
    """Seconds from a Retry-After header (delta form only), or None."""
    try:
        value = headers.get("Retry-After") if headers else None
        if value is None:
            return None
        seconds = float(value)
        return seconds if seconds >= 0 else None
    except (TypeError, ValueError):
        return None


class ServiceClient:
    """Talk to one sweep-service daemon.

    Args:
        base_url: daemon root, e.g. ``"http://127.0.0.1:8642"``.
        timeout: per-request socket timeout in seconds.
        retries: transport/5xx retries per request (0 = fail fast).
        backoff: base backoff delay in seconds (doubles per attempt).
        backoff_cap: upper bound on any single retry delay.
        seed: seed for the jitter RNG (None = entropy; tests pin it).
        sleep: injectable sleep function (tests assert the schedule
            without actually waiting).
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 4, backoff: float = 0.1,
                 backoff_cap: float = 2.0,
                 seed: Optional[int] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        self.base_url = base_url.rstrip("/")
        parts = urlsplit(self.base_url)
        try:
            self._host, self._port = parts.hostname, parts.port
        except ValueError:  # a port that is not a number
            self._host = None
        if parts.scheme != "http" or not self._host:
            raise ServiceError(f"daemon URL must be http://HOST[:PORT], "
                               f"got {base_url!r}")
        self._prefix = parts.path
        #: One kept-alive connection per calling thread: a connection
        #: carries one request at a time.
        self._local = threading.local()
        self.timeout = timeout
        self.retries = max(0, int(retries))
        self.backoff = float(backoff)
        self.backoff_cap = float(backoff_cap)
        self._rng = random.Random(seed)
        self._sleep = sleep

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = self._local.conn = http.client.HTTPConnection(
                self._host, self._port, timeout=self.timeout)
        return conn

    def _request_once(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None) -> bytes:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode("utf-8")
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        try:
            conn.request(method, self._prefix + path, body=data,
                         headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        except (http.client.HTTPException, OSError) as exc:
            # Refused, reset, timed out, dropped mid-response
            # (RemoteDisconnected) or a truncated body (IncompleteRead):
            # no usable reply, and the socket is in an unknown state.
            conn.close()
            raise ServiceError(
                f"{method} {path} failed: "
                f"{type(exc).__name__}: {exc}") from None
        if 200 <= resp.status < 300:
            return raw
        detail = ""
        try:
            detail = json.loads(raw.decode("utf-8")).get("error", "")
        except (ValueError, AttributeError):
            pass
        message = detail or f"{resp.status} {resp.reason}"
        raise ServiceError(
            f"{method} {path} failed: {message}", status=resp.status,
            retry_after=_parse_retry_after(resp.headers))

    def _request(self, method: str, path: str,
                 body: Optional[Dict[str, Any]] = None) -> bytes:
        """One API call with the retry/backoff policy applied.

        Every route is safe to retry: GET/DELETE are naturally
        idempotent and POST /jobs coalesces on the content-derived job
        id (see the module docstring), so the loop needs no per-method
        carve-outs.
        """
        attempt = 0
        while True:
            try:
                return self._request_once(method, path, body)
            except ServiceError as exc:
                retryable = (exc.status == 0
                             or exc.status in RETRYABLE_STATUSES)
                if not retryable or attempt >= self.retries:
                    raise
                self._sleep(self._retry_delay(attempt, exc.retry_after))
                attempt += 1

    def _retry_delay(self, attempt: int,
                     retry_after: Optional[float]) -> float:
        """Full-jitter exponential backoff, overridden by Retry-After."""
        if retry_after is not None:
            return min(retry_after, self.backoff_cap)
        cap = min(self.backoff_cap, self.backoff * (2.0 ** attempt))
        return self._rng.uniform(0.0, cap)

    def _request_json(self, method: str, path: str,
                      body: Optional[Dict[str, Any]] = None
                      ) -> Dict[str, Any]:
        raw = self._request(method, path, body)
        try:
            return json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServiceError(
                f"{method} {path} returned malformed JSON: {exc}")

    # ------------------------------------------------------------------
    # API surface
    # ------------------------------------------------------------------

    def healthz(self) -> bool:
        """True when the daemon answers its liveness probe healthy."""
        try:
            return bool(self._request_json("GET", "/healthz").get("ok"))
        except ServiceError:
            return False

    def health(self) -> Dict[str, Any]:
        """The detailed /healthz payload (raises when unreachable).

        An unhealthy daemon answers 503 with the same payload in the
        error body; that surfaces here as a :class:`ServiceError` —
        use :meth:`healthz` for a boolean, this for the detail.
        """
        return self._request_json("GET", "/healthz")

    def stats(self) -> Dict[str, Any]:
        return self._request_json("GET", "/stats")

    def submit(self, spec: JobSpec) -> Dict[str, Any]:
        """Submit a spec; returns the job snapshot (maybe coalesced)."""
        return self._request_json("POST", "/jobs", body=spec.to_json())

    def jobs(self, state: Optional[str] = None) -> List[Dict[str, Any]]:
        path = "/jobs" if state is None else f"/jobs?state={state}"
        return self._request_json("GET", path).get("jobs", [])

    def job(self, jid: str,
            wait: Optional[float] = None) -> Dict[str, Any]:
        """One job snapshot; ``wait=S`` long-polls — the daemon holds
        the request until the job is terminal or S seconds pass."""
        query = "" if wait is None else f"?wait={wait}"
        return self._request_json("GET", f"/jobs/{jid}{query}")

    def cancel(self, jid: str) -> Dict[str, Any]:
        return self._request_json("DELETE", f"/jobs/{jid}")

    def result_bytes(self, jid: str) -> bytes:
        """The raw result document — byte-identical to a local run."""
        return self._request("GET", f"/jobs/{jid}/result")

    def result(self, jid: str) -> Dict[str, Any]:
        return json.loads(self.result_bytes(jid))

    def events(self, jid: str, since: int = 0
               ) -> Iterator[Dict[str, Any]]:
        """Parsed NDJSON progress events with ``seq >= since``."""
        raw = self._request("GET", f"/jobs/{jid}/events?since={since}")
        for line in raw.decode("utf-8").splitlines():
            line = line.strip()
            if line:
                yield json.loads(line)

    # ------------------------------------------------------------------
    # Conveniences
    # ------------------------------------------------------------------

    def wait(self, jid: str, timeout: float = 600.0) -> Dict[str, Any]:
        """Long-poll until the job reaches a terminal state.

        Each request asks the daemon to hold it until the job finishes
        (at most ``LONG_POLL_S``, and under half the socket timeout),
        so the answer arrives with the ``done`` transition and nothing
        sleeps on the way. Only a non-terminal answer that comes back
        *sooner* than the hold asked for — daemon stopping, a proxy
        that dropped ``wait`` — sleeps out the remainder before asking
        again, so the loop cannot spin.

        Returns the final snapshot; raises :class:`ServiceError` when
        ``timeout`` elapses first (the job keeps running server-side).
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            hold = min(LONG_POLL_S, self.timeout / 2,
                       max(deadline - asked, 0.0))
            snapshot = self.job(jid, wait=hold)
            if snapshot.get("state") in TERMINAL:
                return snapshot
            now = time.monotonic()
            if now >= deadline:
                raise ServiceError(
                    f"job {jid} still {snapshot.get('state')} after "
                    f"{timeout:g}s")
            if now < asked + hold:
                self._sleep(asked + hold - now)

    def submit_and_wait(self, spec: JobSpec,
                        timeout: float = 600.0) -> bytes:
        """Submit, wait for completion, fetch the result bytes.

        The one-call equivalent of a local ``repro sweep --json``:
        raises :class:`ServiceError` if the job fails or is cancelled,
        otherwise returns bytes identical to the local run's file.
        """
        job = self.submit(spec)
        snapshot = self.wait(job["id"], timeout=timeout)
        if snapshot["state"] != "done":
            raise ServiceError(
                f"job {job['id']} ended {snapshot['state']}: "
                f"{snapshot.get('error')}")
        return self.result_bytes(job["id"])

    def __repr__(self) -> str:
        return f"ServiceClient({self.base_url!r})"
