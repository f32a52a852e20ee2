"""HTTP experiment server (stdlib only).

:class:`ExperimentServer` exposes the declarative API over a JSON HTTP
interface built on :class:`http.server.ThreadingHTTPServer` — no new
dependencies:

================================================  =========================================
route                                             behaviour
================================================  =========================================
``POST /v1/experiments``                          body = ExperimentSpec JSON; submits to the
                                                  queue, returns the job ticket (``201``, or
                                                  ``200`` when served straight from cache)
``POST /v1/experiments?wait=S[&format=F]``        submits, then waits up to ``S`` seconds:
                                                  a ``done`` job answers ``200`` with the
                                                  ``GET .../result`` body and an
                                                  ``X-Repro-Job: <id>`` header; otherwise the
                                                  status JSON (``202`` pending, ``500``
                                                  failed, ``409`` cancelled)
``GET /v1/experiments/<id>``                      job status (``404`` for unknown ids)
``GET /v1/experiments/<id>/result``               the ResultSet; ``?format=json|csv|text``
                                                  (``202`` while pending, ``500`` on failure,
                                                  ``409`` when cancelled)
``DELETE /v1/experiments/<id>``                   cancel a queued job
``GET /v1/experiments``                           every known job, newest first
``GET /v1/healthz``                               liveness + cumulative cache/queue
                                                  statistics (restart-surviving, via the
                                                  stats sidecar)
``GET /v1/metrics``                               Prometheus text exposition of the process
                                                  metrics registry (solver, cache, queue,
                                                  failure counters, latency histograms)
================================================  =========================================

Connections are HTTP/1.1 keep-alive, so a client submits and receives
its result in one exchange on a socket it reuses; an idle connection
closes after :attr:`_ExperimentHandler.timeout` seconds.

``GET .../result`` and the inline ``?wait=`` answer always serve the
serialised twin of the ResultSet (records + metadata, no typed payload),
so responses are byte-identical whether the job computed or hit the
cache.  The trade-off: campaign CSV/text use the generic record layout
of the serialised form rather than ``repro run``'s typed table
rendering — the records themselves are identical (the parity suite pins
them at ``rtol <= 1e-12``).

Errors are JSON objects with an ``error`` key; invalid specs come back
as ``400`` with the one-line :class:`~repro.core.spec.SpecError` text.
The server binds to port 0 for an ephemeral port (the test suite's
mode); ``repro serve`` is the CLI front end.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union
from urllib.parse import parse_qs, urlparse

from .. import __version__
from ..api import ResultSet, load_spec
from ..core.spec import SpecError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from ..obs.trace import active_tracer
from ..testing import faults
from .cache import ResultCache
from .journal import JobJournal
from .queue import ExperimentQueue, Job, JobError, JobState
from .sidecar import StatsSidecar, sidecar_path_for

__all__ = ["ExperimentServer", "RESULT_FORMATS"]

#: Renderings of ``GET /v1/experiments/<id>/result`` and their MIME types.
RESULT_FORMATS: Dict[str, Tuple[str, str]] = {
    "json": ("to_json", "application/json"),
    "csv": ("to_csv", "text/csv"),
    "text": ("to_text", "text/plain"),
}


def render_result(result: ResultSet, fmt: str) -> Tuple[str, str]:
    """The (body, content-type) of a ResultSet in one of the wire formats."""
    try:
        method, content_type = RESULT_FORMATS[fmt]
    except KeyError:
        raise SpecError(
            f"unknown result format {fmt!r}; available: {sorted(RESULT_FORMATS)}"
        ) from None
    return getattr(result, method)(), content_type


def _wait_seconds(query: Dict[str, str]) -> Optional[float]:
    """The ``?wait=`` budget in seconds (None without one); ValueError if bad."""
    raw = query.get("wait")
    if raw is None:
        return None
    try:
        seconds = float(raw)
    except ValueError:
        raise ValueError(f"wait must be a number of seconds, got {raw!r}") from None
    if not math.isfinite(seconds) or seconds < 0.0:
        raise ValueError(f"wait must be a finite, non-negative number, got {raw!r}")
    return seconds


class _ExperimentHandler(BaseHTTPRequestHandler):
    """One connection's requests; the queue and cache hang off the server."""

    server: "_HTTPServer"
    protocol_version = "HTTP/1.1"
    #: Headers and body go out as two writes; with Nagle's algorithm on,
    #: the second waits for the peer's delayed ACK (~40 ms per response
    #: on a keep-alive connection).
    disable_nagle_algorithm = True
    #: Seconds an idle keep-alive connection (or a stalled read) may
    #: hold its handler thread before the server closes it.
    timeout = 60.0

    # -- plumbing -----------------------------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:
            # Suffix the access-log line with the active trace/span ids
            # so a slow request can be looked up in the span trace
            # recorded by ``serve --trace``.
            ids = obs_trace.current_trace_ids()
            if ids is not None:
                trace_id, span_id = ids
                suffix = f" trace={trace_id}"
                if span_id is not None:
                    suffix += f" span={span_id}"
                format += suffix.replace("%", "%%")
            super().log_message(format, *args)

    def _send(
        self,
        status: int,
        body: str,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        payload = body.encode("utf-8")
        obs_metrics.registry().inc(
            "repro_http_requests_total", method=self.command, status=status
        )
        self.send_response(status)
        self.send_header("Content-Type", f"{content_type}; charset=utf-8")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(payload)

    def _send_json(
        self,
        status: int,
        payload: Dict[str, Any],
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        self._send(status, json.dumps(payload, indent=2), "application/json", headers)

    def _send_error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _route(self) -> Tuple[str, Dict[str, str]]:
        parsed = urlparse(self.path)
        query = {
            key: values[-1]
            for key, values in parse_qs(parsed.query, keep_blank_values=True).items()
        }
        return parsed.path.rstrip("/"), query

    def _injected_drop(self) -> bool:
        """Fault hook: drop the connection without responding when told to.

        Inactive (one dict lookup on an unset env var) outside the fault
        harness.  Exercises the client's connection-error retry path
        exactly the way a mid-request crash would.
        """
        if faults.http_fault() == "drop":
            self.close_connection = True
            return True
        return False

    # -- verbs --------------------------------------------------------------------------

    def do_POST(self) -> None:  # noqa: N802
        if self._injected_drop():
            return
        path, query = self._route()
        try:
            length = int(self.headers.get("Content-Length", 0))
            if length < 0:
                raise ValueError(length)
        except ValueError:
            self.close_connection = True
            self._send_error(400, "invalid Content-Length header")
            return
        # Read the body even for a request about to be refused, so the
        # keep-alive connection stays framed for the next request.
        body = self.rfile.read(length)
        if path != "/v1/experiments":
            self._send_error(404, f"no POST route {path!r}")
            return
        try:
            text = body.decode("utf-8")
            spec = load_spec(json.loads(text) if text else {})
        except (SpecError, ValueError, UnicodeDecodeError) as exc:
            self._send_error(400, f"invalid experiment spec: {exc}")
            return
        fmt = query.get("format", "json")
        try:
            wait_s = _wait_seconds(query)
        except ValueError as exc:
            self._send_error(400, str(exc))
            return
        if wait_s is not None and fmt not in RESULT_FORMATS:
            self._send_error(
                400, f"unknown result format {fmt!r}; available: {sorted(RESULT_FORMATS)}"
            )
            return
        queue = self.server.queue
        job = queue.submit(spec)
        if wait_s is None:
            self._send_json(200 if job.cached else 201, job.to_status())
            return
        # The inline answer: the same bytes GET .../result would send,
        # once the job is terminal or the wait budget is spent.
        self._send_outcome(queue.wait(job.id, wait_s), fmt, {"X-Repro-Job": job.id})

    def do_GET(self) -> None:  # noqa: N802
        if self._injected_drop():
            return
        path, query = self._route()
        if path == "/v1/healthz":
            self._send_json(200, self.server.health())
            return
        if path == "/v1/metrics":
            self._send(
                200, self.server.metrics_text(), "text/plain; version=0.0.4"
            )
            return
        if path == "/v1/experiments":
            self._send_json(200, {"jobs": self.server.queue.jobs()})
            return
        parts = path.split("/")
        # /v1/experiments/<id> and /v1/experiments/<id>/result
        if len(parts) >= 4 and parts[1] == "v1" and parts[2] == "experiments":
            job_id = parts[3]
            if len(parts) == 4:
                self._job_status(job_id)
                return
            if len(parts) == 5 and parts[4] == "result":
                self._job_result(job_id, query.get("format", "json"))
                return
        self._send_error(404, f"no GET route {path!r}")

    def do_DELETE(self) -> None:  # noqa: N802
        if self._injected_drop():
            return
        path, _ = self._route()
        parts = path.split("/")
        if len(parts) == 4 and parts[1] == "v1" and parts[2] == "experiments":
            try:
                cancelled = self.server.queue.cancel(parts[3])
            except JobError as exc:
                self._send_error(404, str(exc))
                return
            status = self.server.queue.status(parts[3])
            status["cancelled"] = cancelled
            self._send_json(200 if cancelled else 409, status)
            return
        self._send_error(404, f"no DELETE route {path!r}")

    # -- job views ----------------------------------------------------------------------

    def _job_status(self, job_id: str) -> None:
        try:
            self._send_json(200, self.server.queue.status(job_id))
        except JobError as exc:
            self._send_error(404, str(exc))

    def _job_result(self, job_id: str, fmt: str) -> None:
        try:
            job = self.server.queue.wait(job_id, timeout=0)
        except JobError as exc:
            self._send_error(404, str(exc))
            return
        self._send_outcome(job, fmt)

    def _send_outcome(
        self, job: Job, fmt: str, headers: Optional[Dict[str, str]] = None
    ) -> None:
        """A done job's rendered result, else its status with the state's code."""
        if job.state != JobState.DONE:
            status = {
                JobState.FAILED: 500,
                JobState.CANCELLED: 409,
            }.get(job.state, 202)
            self._send_json(status, job.to_status(), headers)
            return
        result = job.result
        # Serve the serialised twin whether the job computed or hit the
        # cache, so identical experiments return identical bytes in every
        # format regardless of cache state.
        if result.payload is not None:
            result = ResultSet.from_dict(result.to_dict())
        try:
            body, content_type = render_result(result, fmt)
        except SpecError as exc:
            self._send_error(400, str(exc))
            return
        self._send(200, body, content_type, headers)


class _HTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    queue: ExperimentQueue
    verbose: bool
    sidecar: Optional[StatsSidecar] = None
    started_at: float = 0.0

    def _cumulative_stats(
        self,
    ) -> Tuple[Optional[Dict[str, Any]], Dict[str, Any]]:
        """(cache, queue) stats with the persisted baseline layered in."""
        cache = self.queue.cache
        cache_stats = None if cache is None else cache.stats_dict()
        queue_stats = self.queue.stats()
        if self.sidecar is not None:
            if cache_stats is not None:
                cache_stats = self.sidecar.cumulative_cache(cache_stats)
            queue_stats = self.sidecar.cumulative_queue(queue_stats)
        return cache_stats, queue_stats

    def health(self) -> Dict[str, Any]:
        cache_stats, queue_stats = self._cumulative_stats()
        if self.sidecar is not None:
            # Every health check persists the totals, so liveness probes
            # double as the sidecar's heartbeat and a kill -9 loses at
            # most the counters since the last probe.
            self.sidecar.persist(cache_stats, queue_stats)
        tracer = active_tracer()
        return {
            "status": "ok",
            "version": __version__,
            "uptime_s": round(time.time() - self.started_at, 3),
            "cache": cache_stats,
            "queue": queue_stats,
            "observability": {
                "tracing": tracer is not None,
                "trace_path": None if tracer is None else str(tracer.path),
                "stats_sidecar": (
                    None if self.sidecar is None else str(self.sidecar.path)
                ),
            },
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the process metrics registry.

        Cache and queue totals are absorbed at scrape time so the
        endpoint reflects the live (sidecar-cumulative) counters even if
        no experiment ran since the registry was created.
        """
        cache_stats, queue_stats = self._cumulative_stats()
        if cache_stats is not None:
            obs_metrics.absorb_cache_stats(cache_stats)
        obs_metrics.absorb_queue_stats(queue_stats)
        return obs_metrics.registry().to_prometheus()


class ExperimentServer:
    """The assembled service: cache + queue + threading HTTP server.

    ``port=0`` binds an ephemeral port (read it back from ``.port`` /
    ``.url``).  ``cache_dir=None`` disables caching entirely — every
    submission computes.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        cache_dir: Optional[Union[str, os.PathLike]] = None,
        max_entries: int = 256,
        workers: int = 2,
        verbose: bool = False,
        journal_path: Optional[Union[str, os.PathLike]] = None,
        job_timeout_s: Optional[float] = None,
    ) -> None:
        self.cache = None if cache_dir is None else ResultCache(cache_dir, max_entries)
        # A cached server defaults to a durable one: the journal lives
        # beside the cache entries (``.jsonl`` is invisible to the
        # cache's ``*.json`` glob), so kill -9 recovery needs no extra
        # configuration.  An explicitly passed path wins; a cacheless
        # server stays non-durable unless a path is given.
        if journal_path is None and cache_dir is not None:
            journal_path = Path(cache_dir) / "journal.jsonl"
        self.journal = None if journal_path is None else JobJournal(journal_path)
        self.queue = ExperimentQueue(
            workers=workers,
            cache=self.cache,
            journal=self.journal,
            job_timeout_s=job_timeout_s,
        )
        #: Jobs replayed from the journal at construction (before the
        #: listener opens, so recovered work is visible to the first poll).
        self.recovered = self.queue.recover()
        #: Cumulative-stats sidecar: lives next to the cache dir so
        #: /v1/healthz counters survive restarts (None when cacheless).
        self.sidecar = (
            None if cache_dir is None else StatsSidecar(sidecar_path_for(cache_dir))
        )
        self._http = _HTTPServer((host, port), _ExperimentHandler)
        self._http.queue = self.queue
        self._http.verbose = verbose
        self._http.sidecar = self.sidecar
        self._http.started_at = time.time()
        self._thread: Optional[threading.Thread] = None
        self._served = False

    @property
    def host(self) -> str:
        return self._http.server_address[0]

    @property
    def port(self) -> int:
        return self._http.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ExperimentServer":
        """Serve on a daemon background thread; returns self (chainable)."""
        if self._thread is not None:
            raise RuntimeError("server is already running")
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="repro-http", daemon=True
        )
        self._served = True
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the ``repro serve`` mode)."""
        self._served = True
        self._http.serve_forever()

    def stop_serving(self) -> None:
        """Close the HTTP listener only; in-flight jobs keep computing.

        First phase of a graceful shutdown: no new submissions can
        arrive, but :meth:`drain` can still wait for the queue to empty.
        Idempotent, and safe before :meth:`shutdown`.
        """
        if self._served:
            # socketserver's shutdown event starts unset; calling
            # shutdown() on a server that never served would block.
            self._http.shutdown()
            self._served = False
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None

    def drain(self, timeout_s: float) -> bool:
        """Wait up to ``timeout_s`` for in-flight jobs; True when idle."""
        return self.queue.drain(timeout_s)

    def shutdown(self) -> None:
        self.stop_serving()
        if self.sidecar is not None:
            self.sidecar.persist(*self._http._cumulative_stats())
        self.queue.shutdown(wait=False)

    def __enter__(self) -> "ExperimentServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
