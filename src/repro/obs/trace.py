"""Structured span tracing with JSONL emission and Chrome-trace export.

Usage::

    from repro.obs.trace import enable_tracing, span

    enable_tracing("campaign-store/trace.jsonl")
    with span("campaign.chunk", item="write/64"):
        ...

Spans are complete events: one JSON object per line is appended when the
span *closes* (``ph: "X"`` with epoch-microsecond ``ts`` and
perf-counter ``dur``), so a crash loses at most the open spans.  Tracing
is **off by default**: ``span()`` then returns a shared no-op singleton
whose enter/exit cost is two attribute lookups, and no file is touched.

Pool workers never touch the trace file.  A campaign pool worker traces
into memory (:meth:`Tracer.take`), ships its finished records home with
each chunk result, and the parent appends them (:meth:`Tracer.write`).
Records of a chunk whose worker dies are lost with that chunk; the
requeued attempt reports normally.

``to_chrome_trace()`` converts the records to the Chrome trace-event
JSON that ``chrome://tracing`` and Perfetto load directly.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
import uuid
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CAMPAIGN_PHASES",
    "Span",
    "Tracer",
    "active_span_stacks",
    "active_tracer",
    "campaign_attribution",
    "current_trace_ids",
    "disable_tracing",
    "enable_tracing",
    "read_trace",
    "set_stack_tracking",
    "span",
    "to_chrome_trace",
]

#: Span names whose union is the "accounted-for" share of a campaign run
#: (used by ``repro report`` and the obs bench's ≥95% attribution gate).
CAMPAIGN_PHASES = frozenset(
    {
        "campaign.prepare",
        "campaign.joint_solve",
        "campaign.commit",
        "campaign.pool",
        "campaign.chunk",
        "item.prepare",
        "item.measure",
    }
)


class _NullSpan:
    """Shared no-op span returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()

# ---------------------------------------------------------------------------
# Per-thread open-span stacks
#
# Keyed by thread ident so a *different* thread (the sampling profiler)
# can ask "what phase is thread T inside right now".  All mutation is a
# plain list append/pop under the GIL; readers snapshot with tuple().
# ---------------------------------------------------------------------------

_thread_stacks: Dict[int, List[Any]] = {}

#: When True, ``span()`` keeps the per-thread stacks populated even with
#: tracing disabled (set by the sampling profiler, which needs phase
#: attribution without paying for JSONL emission).
_stack_tracking = False


def _push_span(span_obj: Any) -> Optional[Any]:
    """Push an entered span; returns the previous top (the parent)."""
    tid = threading.get_ident()
    stack = _thread_stacks.get(tid)
    if stack is None:
        stack = _thread_stacks[tid] = []
    parent = stack[-1] if stack else None
    stack.append(span_obj)
    return parent


def _pop_span() -> None:
    tid = threading.get_ident()
    stack = _thread_stacks.get(tid)
    if stack:
        stack.pop()
        if not stack:
            _thread_stacks.pop(tid, None)


def set_stack_tracking(enabled: bool) -> None:
    """Keep span stacks live while tracing is off (profiler support)."""
    global _stack_tracking
    _stack_tracking = bool(enabled)


def active_span_stacks() -> Dict[int, Tuple[str, ...]]:
    """Snapshot of every thread's open-span names, outermost first."""
    out: Dict[int, Tuple[str, ...]] = {}
    for tid, stack in list(_thread_stacks.items()):
        names = tuple(getattr(s, "name", "?") for s in tuple(stack))
        if names:
            out[tid] = names
    return out


def current_trace_ids() -> Optional[Tuple[str, Optional[int]]]:
    """``(trace_id, innermost span id)`` when tracing is on, else None.

    The span id is None when the calling thread is outside any span.
    Used to correlate server access-log lines and journal records with
    the trace file.
    """
    tracer = _active
    if tracer is None:
        return None
    stack = _thread_stacks.get(threading.get_ident())
    sid: Optional[int] = None
    if stack:
        sid = getattr(stack[-1], "sid", None)
    return tracer.trace_id, sid


class _StackSpan:
    """Stack-only span: feeds phase attribution, emits nothing.

    Returned by :func:`span` while the sampling profiler is on but
    tracing is off, so profiler samples still carry a ``phase:`` root.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __enter__(self) -> "_StackSpan":
        _push_span(self)
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        _pop_span()
        return False

    def annotate(self, **attrs: Any) -> None:
        pass


class Span:
    """A live span; records itself to the tracer when it exits."""

    __slots__ = ("_tracer", "name", "args", "depth", "sid", "_parent_sid", "_ts_us", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, args: Dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self.depth = 0
        self.sid = 0
        self._parent_sid: Optional[int] = None
        self._ts_us = 0
        self._start_ns = 0

    def __enter__(self) -> "Span":
        tls = self._tracer._tls
        self.depth = getattr(tls, "depth", 0)
        tls.depth = self.depth + 1
        self.sid = next(self._tracer._span_ids)
        parent = _push_span(self)
        self._parent_sid = getattr(parent, "sid", None)
        self._ts_us = time.time_ns() // 1000
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        dur_us = (time.perf_counter_ns() - self._start_ns) // 1000
        _pop_span()
        tls = self._tracer._tls
        tls.depth = max(0, getattr(tls, "depth", 1) - 1)
        record: Dict[str, Any] = {
            "name": self.name,
            "ph": "X",
            "ts": self._ts_us,
            "dur": dur_us,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "depth": self.depth,
            "id": self.sid,
        }
        if self._parent_sid is not None:
            record["parent"] = self._parent_sid
        if exc_type is not None:
            record["error"] = exc_type.__name__
        if self.args:
            record["args"] = self.args
        self._tracer._emit(record)
        return False

    def annotate(self, **attrs: Any) -> None:
        """Attach extra key/values to the span record (merged into args)."""
        self.args.update(attrs)


class Tracer:
    """Appends span records to one JSONL file, or keeps them in memory.

    With ``path=None`` (a pool worker) the serialised records accumulate
    until :meth:`take` hands them over.
    """

    def __init__(
        self, path: Optional[Union[str, Path]], trace_id: Optional[str] = None
    ) -> None:
        self.path = Path(path) if path is not None else None
        #: Shared by the parent tracer and its pool workers, so every
        #: record (and every correlated log/journal line) names one run.
        self.trace_id = trace_id or uuid.uuid4().hex[:16]
        self._lines: List[str] = []
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._span_ids = itertools.count(1)

    def span(self, name: str, **attrs: Any) -> Span:
        return Span(self, name, dict(attrs))

    def _emit(self, record: Dict[str, Any]) -> None:
        line = json.dumps(record, separators=(",", ":"), default=str)
        if self.path is None:
            with self._lock:
                self._lines.append(line)
        else:
            self.write([line])

    def write(self, lines: Sequence[str]) -> None:
        """Append serialised records (this process's or a pool worker's)."""
        if not lines:
            return
        # Open-per-append, like the journal: no descriptor to leak across
        # fork, and each batch is one atomic-enough write.
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")

    def take(self) -> List[str]:
        """Hand over and forget the records kept in memory."""
        with self._lock:
            lines, self._lines = self._lines, []
        return lines


# ---------------------------------------------------------------------------
# Module-level switch (default off)
# ---------------------------------------------------------------------------

_active: Optional[Tracer] = None


def active_tracer() -> Optional[Tracer]:
    return _active


def span(name: str, **attrs: Any) -> Union[Span, "_StackSpan", _NullSpan]:
    """A span if tracing is enabled, else the shared no-op singleton.

    While the sampling profiler is on (and tracing off), a stack-only
    span is returned instead so samples keep their phase attribution.
    """
    tracer = _active
    if tracer is None:
        if _stack_tracking:
            return _StackSpan(name)
        return _NULL_SPAN
    return tracer.span(name, **attrs)


def enable_tracing(path: Union[str, Path]) -> Tracer:
    """Start tracing to ``path`` (truncates it) and return the tracer."""
    global _active
    if _active is not None:
        disable_tracing()
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("", encoding="utf-8")
    _active = Tracer(target)
    return _active


def _adopt_inherited_tracer() -> None:
    """Swap a tracer inherited across ``fork`` for an in-memory one.

    Called from the pool-worker initializer: the parent's tracer keeps
    owning its file, and the worker's records travel home with each
    chunk.  A worker of an untraced parent does not trace.
    """
    global _active
    inherited = _active
    _active = None if inherited is None else Tracer(None, trace_id=inherited.trace_id)


def disable_tracing() -> Optional[Tracer]:
    """Stop tracing; returns the tracer that was active."""
    global _active
    tracer = _active
    _active = None
    return tracer


# ---------------------------------------------------------------------------
# Reading and exporting
# ---------------------------------------------------------------------------


def read_trace(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Load span records from a trace file, skipping torn/corrupt lines."""
    records: List[Dict[str, Any]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except ValueError:
                    continue
                if isinstance(record, dict):
                    records.append(record)
    except OSError:
        return []
    return records


def to_chrome_trace(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Convert span records to Chrome trace-event JSON (chrome://tracing)."""
    events: List[Dict[str, Any]] = []
    for record in records:
        event: Dict[str, Any] = {
            "name": record.get("name", "?"),
            "ph": record.get("ph", "X"),
            "ts": record.get("ts", 0),
            "dur": record.get("dur", 0),
            "pid": record.get("pid", 0),
            "tid": record.get("tid", 0),
            "cat": "repro",
        }
        if record.get("args"):
            event["args"] = record["args"]
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _union_length_us(intervals: List[Tuple[int, int]]) -> int:
    if not intervals:
        return 0
    intervals.sort()
    total = 0
    current_start, current_end = intervals[0]
    for start, end in intervals[1:]:
        if start > current_end:
            total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    return total + (current_end - current_start)


def campaign_attribution(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """How much of the campaign wall time the named phases account for.

    For every ``campaign.run`` span, clips same-process phase spans
    (:data:`CAMPAIGN_PHASES`) to the run window and measures their
    interval *union*, so nested spans (a commit inside a joint solve)
    are never double-counted.
    """
    runs = [r for r in records if r.get("name") == "campaign.run"]
    total_us = 0
    attributed_us = 0
    for run in runs:
        start = int(run.get("ts", 0))
        end = start + int(run.get("dur", 0))
        pid = run.get("pid")
        total_us += end - start
        intervals: List[Tuple[int, int]] = []
        for record in records:
            if record.get("name") not in CAMPAIGN_PHASES or record.get("pid") != pid:
                continue
            s = max(int(record.get("ts", 0)), start)
            e = min(int(record.get("ts", 0)) + int(record.get("dur", 0)), end)
            if e > s:
                intervals.append((s, e))
        attributed_us += _union_length_us(intervals)
    coverage = 100.0 * attributed_us / total_us if total_us else 0.0
    return {
        "campaign_runs": len(runs),
        "campaign_wall_s": total_us / 1e6,
        "attributed_wall_s": attributed_us / 1e6,
        "coverage_percent": coverage,
    }
