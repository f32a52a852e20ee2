"""Stdlib-only sampling profiler with folded-stack (flamegraph) output.

A background thread walks ``sys._current_frames()`` at ~101 Hz (a prime
rate, so sampling cannot phase-lock with millisecond-periodic work) and
aggregates each thread's stack into the collapsed/folded format that
``flamegraph.pl``, speedscope and friends consume directly::

    phase:solver.dc;campaign.run_chunk;dc.dc_sweep;dc._newton_solve 412

The first frame of every folded stack is the sampled thread's innermost
*open span* (``phase:<name>``, or ``phase:(no-span)``), read from the
per-thread span stacks kept by :mod:`repro.obs.trace` — that is what
lets ``repro report --flame`` cross-check hot frames against span
attribution.  While the profiler is on, span stacks are maintained even
with tracing off (:func:`repro.obs.trace.set_stack_tracking`), so
``--profile`` alone is enough for phase-attributed samples.

Campaign pool workers sample into memory: a worker's profiler hands its
samples over with each finished chunk (:meth:`SamplingProfiler.take`)
and the parent adds them to its own (:meth:`SamplingProfiler.add`), so
one folded file covers every process.  Samples of a chunk whose worker
dies are lost with that chunk.

Pure stdlib; sampling overhead is a few tens of microseconds per tick
against a ~9.9 ms period (the obs bench gates it at <=5% on the full
ops DOE).
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..core.results import atomic_write_text
from . import trace as _trace

__all__ = [
    "DEFAULT_HZ",
    "SamplingProfiler",
    "active_profiler",
    "disable_profiling",
    "enable_profiling",
    "merge_folded",
    "phase_totals",
    "read_folded",
    "top_frames",
    "top_stacks",
]

#: Default sampling rate.  Prime, per flamegraph lore: a 100 Hz sampler
#: phase-locks with anything periodic at 10 ms and silently aliases.
DEFAULT_HZ = 101.0

#: Maximum frames walked per sampled stack (runaway-recursion guard).
MAX_STACK_DEPTH = 128

_PHASE_PREFIX = "phase:"
_NO_PHASE = "(no-span)"


def _frame_label(frame: Any) -> str:
    """``module.function`` label for one frame (file stem, not path)."""
    code = frame.f_code
    stem = Path(code.co_filename).stem or "?"
    return f"{stem}.{code.co_name}"


class SamplingProfiler:
    """Background-thread sampler aggregating folded stacks in memory.

    ``flush_every_s`` > 0 → the sampling loop periodically rewrites
    ``path`` with the current aggregate.  With ``path=None`` (a pool
    worker) nothing is written; :meth:`take` hands the samples over.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]],
        hz: float = DEFAULT_HZ,
        flush_every_s: float = 0.5,
    ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz!r}")
        self.path = Path(path) if path is not None else None
        self.interval_s = 1.0 / float(hz)
        self.flush_every_s = float(flush_every_s)
        #: folded stack -> number of samples observed in *this* process.
        self.samples: Counter = Counter()
        #: sampling-loop iterations that captured at least one stack.
        self.sample_ticks = 0
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        _trace.set_stack_tracking(True)
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling and write the final file."""
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=5.0)
            self._thread = None
            _trace.set_stack_tracking(False)
        self.flush()
        return self

    # -- sampling --------------------------------------------------------

    def _loop(self) -> None:
        next_flush = (
            time.monotonic() + self.flush_every_s if self.flush_every_s > 0 else None
        )
        while not self._stop_event.wait(self.interval_s):
            self._sample_once()
            if next_flush is not None and time.monotonic() >= next_flush:
                self.flush()
                next_flush = time.monotonic() + self.flush_every_s

    def _sample_once(self) -> int:
        own = threading.get_ident()
        span_stacks = _trace.active_span_stacks()
        frames = sys._current_frames()
        captured = 0
        for tid, frame in frames.items():
            if tid == own:
                continue
            parts: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                parts.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not parts:
                continue
            parts.reverse()
            open_spans = span_stacks.get(tid)
            phase = open_spans[-1] if open_spans else _NO_PHASE
            folded = ";".join([_PHASE_PREFIX + phase] + parts)
            with self._lock:
                self.samples[folded] += 1
            captured += 1
        if captured:
            self.sample_ticks += 1
        return captured

    # -- output ----------------------------------------------------------

    def folded(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.samples)

    def take(self) -> Dict[str, int]:
        """Hand over and forget the samples aggregated so far."""
        with self._lock:
            samples, self.samples = self.samples, Counter()
        return dict(samples)

    def add(self, samples: Dict[str, int]) -> None:
        """Sum another process's folded samples into this aggregate."""
        with self._lock:
            self.samples.update(samples)

    def flush(self) -> None:
        """Atomically rewrite ``path`` with the current aggregate."""
        if self.path is None:
            return
        with self._lock:
            items = sorted(self.samples.items(), key=lambda kv: (-kv[1], kv[0]))
        text = "".join(f"{stack} {count}\n" for stack, count in items)
        try:
            atomic_write_text(self.path, text)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Module-level switch (default off), mirroring trace.py
# ---------------------------------------------------------------------------

_active: Optional[SamplingProfiler] = None


def active_profiler() -> Optional[SamplingProfiler]:
    return _active


def enable_profiling(path: Union[str, Path], hz: float = DEFAULT_HZ) -> SamplingProfiler:
    """Start sampling this process to ``path`` (folded/collapsed format)."""
    global _active
    if _active is not None:
        disable_profiling()
    target = Path(path)
    if target.parent != Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    _active = SamplingProfiler(target, hz=hz)
    _active.start()
    return _active


def disable_profiling() -> Optional[SamplingProfiler]:
    """Stop sampling and write the final file."""
    global _active
    profiler = _active
    _active = None
    if profiler is not None:
        profiler.stop()
    return profiler


def _adopt_inherited_profiler() -> None:
    """Swap a profiler inherited across ``fork`` for an in-memory one.

    Called from the pool-worker initializer.  The parent's sampling
    thread did not survive the fork, and stopping the inherited object
    would rewrite the parent's output file from a stale copy; the child
    instead samples at the same rate into memory.  A worker of an
    unprofiled parent does not sample.
    """
    global _active
    inherited = _active
    _active = None
    if inherited is not None:
        _active = SamplingProfiler(None, hz=1.0 / inherited.interval_s).start()


# ---------------------------------------------------------------------------
# Folded-file helpers
# ---------------------------------------------------------------------------


def read_folded(path: Union[str, Path]) -> Dict[str, int]:
    """Parse a folded-stacks file; unparsable lines are skipped."""
    samples: Dict[str, int] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return samples
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        stack, _, count = line.rpartition(" ")
        if not stack:
            continue
        try:
            samples[stack] = samples.get(stack, 0) + int(count)
        except ValueError:
            continue
    return samples


def merge_folded(parts: Sequence[Dict[str, int]]) -> Dict[str, int]:
    """Sum several folded aggregates (fixed frame labels make this exact)."""
    total: Counter = Counter()
    for part in parts:
        total.update(part)
    return dict(total)


def phase_totals(samples: Dict[str, int]) -> Dict[str, int]:
    """Samples per ``phase:`` root, descending."""
    totals: Counter = Counter()
    for stack, count in samples.items():
        root = stack.split(";", 1)[0]
        phase = root[len(_PHASE_PREFIX):] if root.startswith(_PHASE_PREFIX) else _NO_PHASE
        totals[phase] += count
    return dict(sorted(totals.items(), key=lambda kv: (-kv[1], kv[0])))


def top_frames(samples: Dict[str, int], n: int = 15) -> List[Tuple[str, int]]:
    """The hottest *leaf* frames (where samples actually landed)."""
    leaves: Counter = Counter()
    for stack, count in samples.items():
        frames = stack.split(";")
        leaf = frames[-1]
        if leaf.startswith(_PHASE_PREFIX):
            continue
        leaves[leaf] += count
    return sorted(leaves.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def top_stacks(samples: Dict[str, int], n: int = 10) -> List[Tuple[str, int]]:
    """The hottest whole folded stacks, descending."""
    return sorted(samples.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
