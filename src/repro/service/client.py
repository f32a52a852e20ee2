"""Thin Python client of the experiment server (stdlib ``http.client``).

:class:`ExperimentClient` speaks the JSON protocol of
:mod:`repro.service.server` and is what the CLI's ``repro submit`` verb
drives::

    from repro.service import ExperimentClient

    with ExperimentClient("http://127.0.0.1:8765") as client:
        result = client.run("examples/specs/smoke.json")          # a ResultSet
        csv_text = client.run_text("examples/specs/smoke.json", fmt="csv")

:meth:`~ExperimentClient.run` is one HTTP exchange: ``POST
/v1/experiments?wait=S`` submits the spec and the server answers with the
rendered result as soon as the job is done.  A job still computing when
the wait budget ``S`` runs out answers ``202`` with its status, and the
client falls back to polling ``GET /v1/experiments/<id>`` and fetching
``.../result``.  ``S`` stays below the socket timeout, so a long job
never looks like a dead server.  The lower-level calls (``submit``,
``status``, ``wait``, ``result_text``) remain for fire-and-forget use.

Each client keeps one persistent HTTP/1.1 connection per thread and
reuses it across calls; :meth:`~ExperimentClient.close` (or leaving a
``with`` block) closes the calling thread's.  A connection the server
has closed while idle is noticed before the next request and reopened.

Transport failures (connection refused, HTTP error statuses) surface as
:class:`ServiceError` with the server's one-line ``error`` message when
one was sent, so CLI callers can turn them into clean exit-2 messages.

Connection-level failures — refused/reset connections, a server that
died mid-response, socket timeouts — are retried ``max_retries`` times
with capped exponential backoff before giving up, each on a fresh
connection.  Every protocol call is idempotent from the server's point
of view (submission is content-addressed: re-POSTing a spec coalesces
onto the in-flight computation or hits the cache), so blind retry is
safe.  HTTP *error responses* are never retried: the server answered,
and the answer would not change.
"""

from __future__ import annotations

import http.client
import json
import select
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from ..api import ResultSet, SpecSource, load_spec

__all__ = ["ExperimentClient", "ServiceError"]

#: Default address of ``repro serve`` (and ``repro submit``).
DEFAULT_URL = "http://127.0.0.1:8765"


class ServiceError(RuntimeError):
    """A transport or protocol failure talking to the experiment server."""

    def __init__(self, message: str, status: Optional[int] = None) -> None:
        super().__init__(message)
        self.status = status


#: Failures worth retrying: the connection itself broke, so the server
#: either never saw the request or never finished answering it
#: (``ConnectionError`` and socket timeouts are ``OSError`` subclasses).
_RETRYABLE_ERRORS = (http.client.HTTPException, OSError)


def _closed_by_peer(connection: http.client.HTTPConnection) -> bool:
    """Whether an idle kept-alive socket was closed by the server.

    Between requests nothing may arrive on the socket, so readability
    means end-of-file (or junk): either way the connection is unusable.
    """
    if connection.sock is None:
        return False
    try:
        readable, _, _ = select.select([connection.sock], [], [], 0)
    except (OSError, ValueError):
        return True
    return bool(readable)


class ExperimentClient:
    """Submit, poll and fetch experiments over HTTP.

    ``timeout_s`` bounds each request on the socket; ``max_retries``
    extra attempts (with ``backoff_s`` doubling per attempt, capped at
    2 s) absorb transient connection failures.  ``max_retries=0``
    restores single-shot behaviour.
    """

    def __init__(
        self,
        base_url: str = DEFAULT_URL,
        timeout_s: float = 30.0,
        max_retries: int = 2,
        backoff_s: float = 0.1,
    ) -> None:
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if backoff_s < 0.0:
            raise ValueError("backoff_s must be non-negative")
        self.base_url = base_url.rstrip("/")
        self.timeout_s = float(timeout_s)
        self.max_retries = int(max_retries)
        self.backoff_s = float(backoff_s)
        parts = urlsplit(self.base_url)
        if parts.scheme != "http" or not parts.hostname:
            raise ServiceError(f"expected an http://host[:port] server URL, got {base_url!r}")
        self._address = (parts.hostname, parts.port or 80)
        self._prefix = parts.path
        self._local = threading.local()

    # -- transport ----------------------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's kept-alive connection (opened on first use)."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = http.client.HTTPConnection(
                *self._address, timeout=self.timeout_s
            )
            self._local.connection = connection
        elif _closed_by_peer(connection):
            connection.close()  # the next request reconnects
        return connection

    def close(self) -> None:
        """Close this thread's connection (the next call reopens one)."""
        connection = getattr(self._local, "connection", None)
        if connection is not None:
            connection.close()

    def __enter__(self) -> "ExperimentClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _exchange(
        self,
        path: str,
        method: str = "GET",
        body: Optional[str] = None,
    ) -> Tuple[int, str]:
        """One request/response: (status, text) for any HTTP answer."""
        attempts = 1 + self.max_retries
        last_reason = "unknown error"
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(self.backoff_s * 2 ** (attempt - 1), 2.0))
            connection = self._connection()
            try:
                connection.request(
                    method,
                    f"{self._prefix}{path}",
                    body=None if body is None else body.encode("utf-8"),
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                text = response.read().decode("utf-8", errors="replace")
            except _RETRYABLE_ERRORS as exc:
                connection.close()
                last_reason = str(exc) or type(exc).__name__
                continue
            return response.status, text
        raise ServiceError(
            f"cannot reach the experiment server at {self.base_url} "
            f"after {attempts} attempt{'s' if attempts != 1 else ''}: {last_reason}"
        )

    def _request(
        self,
        path: str,
        method: str = "GET",
        body: Optional[str] = None,
    ) -> Tuple[int, str]:
        status, text = self._exchange(path, method=method, body=body)
        if status >= 400:
            # The server responded; retrying would only repeat the same
            # answer.  Surface its error message immediately.
            raise _http_error(status, method, path, text)
        return status, text

    def _request_json(self, path: str, method: str = "GET", body: Optional[str] = None) -> Dict[str, Any]:
        status, text = self._request(path, method=method, body=body)
        return _parse_json(text, method, path, status)

    # -- protocol -----------------------------------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request_json("/v1/healthz")

    def submit(self, spec: SpecSource) -> Dict[str, Any]:
        """Submit any spec source; returns the job ticket (id, state, cached)."""
        document = load_spec(spec).to_json(indent=None)
        return self._request_json("/v1/experiments", method="POST", body=document)

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request_json(f"/v1/experiments/{job_id}")

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request_json(f"/v1/experiments/{job_id}", method="DELETE")

    def wait(
        self,
        job_id: str,
        timeout_s: float = 300.0,
        poll_s: float = 0.1,
    ) -> Dict[str, Any]:
        """Poll until the job reaches a terminal state; returns the status.

        Raises :class:`ServiceError` on timeout or a failed/cancelled job.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            status = self.status(job_id)
            if status["state"] == "done":
                return status
            if status["state"] in ("failed", "cancelled"):
                raise _job_error(status)
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"timed out after {timeout_s:g}s waiting for job {job_id} "
                    f"(state: {status['state']})"
                )
            time.sleep(poll_s)

    def result_text(self, job_id: str, fmt: str = "json") -> str:
        """The finished job's rendered result (json, csv or text) verbatim."""
        status, text = self._request(f"/v1/experiments/{job_id}/result?format={fmt}")
        if status != 200:
            raise ServiceError(
                f"job {job_id} has no result yet (HTTP {status})", status=status
            )
        return text

    def result_set(self, job_id: str) -> ResultSet:
        """The finished job's result deserialised back into a ResultSet."""
        return ResultSet.from_json(self.result_text(job_id, fmt="json"))

    def run_text(
        self,
        spec: SpecSource,
        fmt: str = "json",
        timeout_s: float = 300.0,
        poll_s: float = 0.1,
    ) -> str:
        """Submit and return the rendered result, in one exchange when it can.

        The server waits for the job inside the ``POST`` for up to half
        the socket timeout (or ``timeout_s``, if shorter); a job still
        pending after that is polled to completion and then fetched.
        Raises :class:`ServiceError` for a failed or cancelled job and
        when ``timeout_s`` runs out.
        """
        deadline = time.monotonic() + timeout_s
        document = load_spec(spec).to_json(indent=None)
        wait_s = max(0.0, min(timeout_s, self.timeout_s / 2.0))
        path = f"/v1/experiments?wait={wait_s:.3f}&format={fmt}"
        code, text = self._exchange(path, method="POST", body=document)
        if code == 200:
            return text
        if code == 202:
            # The job outlived the inline wait: poll it to the end, then fetch.
            job_id = _parse_json(text, "POST", path, code)["id"]
            self.wait(job_id, timeout_s=max(0.0, deadline - time.monotonic()), poll_s=poll_s)
            return self.result_text(job_id, fmt=fmt)
        if code in (409, 500):
            status = _parse_json(text, "POST", path, code)
            if "state" in status:  # the job was cancelled / failed
                raise _job_error(status)
        raise _http_error(code, "POST", path, text)

    def run(
        self,
        spec: SpecSource,
        timeout_s: float = 300.0,
        poll_s: float = 0.1,
    ) -> ResultSet:
        """Submit, wait and fetch in one call (the remote twin of ``api.run``)."""
        return ResultSet.from_json(
            self.run_text(spec, fmt="json", timeout_s=timeout_s, poll_s=poll_s)
        )


def _parse_json(text: str, method: str, path: str, status: int) -> Dict[str, Any]:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ServiceError(
            f"server sent invalid JSON for {method} {path}: {exc}", status=status
        ) from None


def _http_error(status: int, method: str, path: str, text: str) -> ServiceError:
    """An HTTP error answer, carrying the server's ``error`` message if sent."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    message = payload.get("error", text) if isinstance(payload, dict) else text
    return ServiceError(
        f"server returned {status} for {method} {path}: {message}", status=status
    )


def _job_error(status: Dict[str, Any]) -> ServiceError:
    return ServiceError(
        f"job {status['id']} {status['state']}: {status.get('error') or ''}".rstrip(": ")
    )
