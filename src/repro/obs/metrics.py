"""Process-wide metrics registry with a Prometheus text renderer.

One :class:`MetricsRegistry` absorbs every counter in the stack into a
single ``repro_*`` namespace:

* solver counters (``repro_solver_factorizations_total``, ...) from
  :class:`repro.circuit.mna.SolverStats` deltas,
* cache counters (``repro_cache_hits_total``, ...) from
  :meth:`repro.service.cache.ResultCache.stats_dict`,
* queue counters (``repro_queue_completed_total``, ...) from
  :meth:`repro.service.queue.ExperimentQueue.stats`,
* failure classifications (``repro_item_failures_total``) and per-item
  wall-time histograms (``repro_item_wall_seconds``).

Series are keyed by ``(name, frozen label tuple)``; all mutation happens
under one lock so campaign worker threads and the HTTP server can write
concurrently.  ``snapshot()``/``delta_since()`` give tests and benches a
cheap way to assert what a block of work contributed.

Campaign pool workers write into their own process's registry and hand
its counters and histograms home with each finished chunk; the parent
adds them with :meth:`MetricsRegistry.merge`, so every series counts
the same work in serial and pool runs.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "MetricsRegistry",
    "absorb_cache_stats",
    "absorb_queue_stats",
    "observe_item_wall",
    "record_high_sigma",
    "record_item_failure",
    "record_solver_delta",
    "registry",
    "reset_registry",
]

# Frozen label set: a series key is (metric name, tuple of (label, value)
# pairs sorted by label name).
LabelKey = Tuple[Tuple[str, str], ...]
SeriesKey = Tuple[str, LabelKey]

#: Fixed latency buckets (seconds), 1 ms .. 60 s.  Chosen once so that
#: histograms from different processes/runs are always mergeable.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: HELP strings for the well-known metric names (anything else renders
#: with an empty HELP line omitted).
_HELP: Dict[str, str] = {
    "repro_runs_total": "Completed repro.api.run invocations by spec kind.",
    "repro_items_total": "Campaign items committed, by operation.",
    "repro_item_failures_total": "Campaign item failures by classification.",
    "repro_item_wall_seconds": "Per-item measurement wall time.",
    "repro_solver_factorizations_total": "MNA matrix factorizations.",
    "repro_solver_refactorizations_total": "Newton re-factorizations after a Jacobian update.",
    "repro_solver_dense_solves_total": "Dense linear solves.",
    "repro_solver_sparse_solves_total": "Sparse linear solves.",
    "repro_solver_stamp_evals_total": "Device stamp evaluation sweeps.",
    "repro_solver_stamp_device_evals_total": "Individual device stamp evaluations.",
    "repro_solver_batch_ticks_total": "Batched-tier lockstep Newton/transient ticks.",
    "repro_solver_batch_lane_iterations_total": "Per-lane iterations inside batched ticks.",
    "repro_solver_scalar_fallbacks_total": "Batched-tier lanes demoted to the scalar path.",
    "repro_solver_batch_lanes_total": "Lanes launched into batched lockstep groups.",
    "repro_solver_batch_lane_slots_total": "Lane slots offered across batched ticks (occupancy denominator).",
    "repro_solver_iterations": "Iterations-to-converge per solve, by solver kind.",
    "repro_solver_converged_total": "Solves that converged, by solver kind.",
    "repro_solver_nonconverged_total": "Solves that failed to converge, by solver kind.",
    "repro_solver_rescue_total": "Entries into robustness-ladder stages, by kind and stage.",
    "repro_solver_step_rejections_total": "Transient steps rejected and retried at a smaller dt.",
    "repro_solver_lane_occupancy": "Active-lane fraction of batched ticks over the last run.",
    "repro_solver_scalar_fallback_rate": "Fraction of batched lanes demoted to the scalar path over the last run.",
    "repro_cache_hits_total": "Result-cache hits (lifetime, sidecar-cumulative).",
    "repro_cache_misses_total": "Result-cache misses (lifetime, sidecar-cumulative).",
    "repro_cache_stores_total": "Result-cache stores (lifetime, sidecar-cumulative).",
    "repro_cache_evictions_total": "Result-cache LRU evictions (lifetime, sidecar-cumulative).",
    "repro_cache_invalidations_total": "Result-cache invalidations (lifetime, sidecar-cumulative).",
    "repro_cache_quarantined_total": "Corrupt cache entries quarantined (lifetime, sidecar-cumulative).",
    "repro_cache_entries": "Result-cache entries currently on disk.",
    "repro_cache_max_entries": "Result-cache capacity (0 = unbounded).",
    "repro_queue_submitted_total": "Experiment submissions (lifetime, sidecar-cumulative).",
    "repro_queue_coalesced_total": "Submissions coalesced onto an in-flight job.",
    "repro_queue_cache_hits_total": "Submissions answered straight from the cache.",
    "repro_queue_completed_total": "Jobs completed (lifetime, sidecar-cumulative).",
    "repro_queue_failed_total": "Jobs failed (lifetime, sidecar-cumulative).",
    "repro_queue_cancelled_total": "Jobs cancelled (lifetime, sidecar-cumulative).",
    "repro_queue_recovered_total": "Jobs replayed from the journal on startup.",
    "repro_queue_timeouts_total": "Jobs killed by the per-job timeout.",
    "repro_queue_in_flight": "Jobs currently queued or computing.",
    "repro_queue_jobs": "Job tickets tracked in memory.",
    "repro_journal_outstanding": "Journaled jobs not yet resolved.",
    "repro_journal_skipped_lines": "Torn/corrupt journal lines skipped on scan.",
    "repro_http_requests_total": "HTTP requests served, by method and status.",
    "repro_highsigma_proposals_total": "High-sigma IS proposal draws screened on the surrogate.",
    "repro_highsigma_promoted_solves_total": "Surrogate-uncertain proposals promoted to real solves.",
    "repro_highsigma_simulator_calls_total": "Real metric evaluations spent by the high-sigma engine.",
}

_CACHE_COUNTER_KEYS = (
    "hits",
    "misses",
    "stores",
    "evictions",
    "invalidations",
    "quarantined",
)
_QUEUE_COUNTER_KEYS = (
    "submitted",
    "coalesced",
    "cache_hits",
    "completed",
    "failed",
    "cancelled",
    "recovered",
    "timeouts",
)


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{name}="{_escape_label(value)}"' for name, value in pairs)
    return "{" + body + "}"


class _Histogram:
    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: Tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
        self.sum += value
        self.count += 1

    def as_dict(self) -> Dict[str, Any]:
        return {
            "buckets": self.buckets,
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Thread-safe registry of counters, gauges and histograms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[SeriesKey, float] = {}
        self._gauges: Dict[SeriesKey, float] = {}
        self._histograms: Dict[SeriesKey, _Histogram] = {}

    # -- mutation --------------------------------------------------------

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        """Add ``value`` to a counter (monotone by convention)."""
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = self._counters.get(key, 0.0) + value

    def set_total(self, name: str, value: float, **labels: Any) -> None:
        """Set a counter's absolute value.

        Used when absorbing lifetime totals kept elsewhere (cache/queue
        stat dicts), where the source of truth already accumulates.
        """
        key = (name, _label_key(labels))
        with self._lock:
            self._counters[key] = float(value)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            self._gauges[key] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: Any,
    ) -> None:
        key = (name, _label_key(labels))
        with self._lock:
            hist = self._histograms.get(key)
            if hist is None:
                hist = self._histograms[key] = _Histogram(buckets)
            hist.observe(value)

    def merge(self, delta: Mapping[str, Mapping[SeriesKey, Any]]) -> None:
        """Add counter and histogram growth shaped like :meth:`delta_since`.

        Histograms add bucket by bucket.  Gauges are levels, not growth,
        so they are ignored.
        """
        with self._lock:
            for key, value in delta.get("counters", {}).items():
                self._counters[key] = self._counters.get(key, 0.0) + value
            for key, grown in delta.get("histograms", {}).items():
                hist = self._histograms.get(key)
                if hist is None:
                    hist = self._histograms[key] = _Histogram(tuple(grown["buckets"]))
                hist.counts = [a + b for a, b in zip(hist.counts, grown["counts"])]
                hist.sum += grown["sum"]
                hist.count += grown["count"]

    # -- inspection ------------------------------------------------------

    def snapshot(self) -> Dict[str, Dict[SeriesKey, Any]]:
        """Deep-copied point-in-time view of every series."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.as_dict() for k, h in self._histograms.items()},
            }

    def delta_since(self, before: Mapping[str, Mapping[SeriesKey, Any]]) -> Dict[str, Dict[SeriesKey, Any]]:
        """Counter/histogram growth since a prior :meth:`snapshot`.

        Gauges are reported at their current value (deltas of levels are
        meaningless).  Missing series in ``before`` count from zero.
        """
        now = self.snapshot()
        counters_before = before.get("counters", {})
        hists_before = before.get("histograms", {})
        counters = {
            key: value - counters_before.get(key, 0.0)
            for key, value in now["counters"].items()
            if value != counters_before.get(key, 0.0)
        }
        histograms: Dict[SeriesKey, Any] = {}
        for key, hist in now["histograms"].items():
            prior = hists_before.get(key)
            if prior is None:
                grown = hist
            else:
                grown = {
                    "buckets": hist["buckets"],
                    "counts": [a - b for a, b in zip(hist["counts"], prior["counts"])],
                    "sum": hist["sum"] - prior["sum"],
                    "count": hist["count"] - prior["count"],
                }
            if grown["count"]:
                histograms[key] = grown
        return {"counters": counters, "gauges": now["gauges"], "histograms": histograms}

    # -- rendering -------------------------------------------------------

    def to_prometheus(self) -> str:
        """Render every series in Prometheus text exposition format 0.0.4."""
        snap = self.snapshot()
        lines: List[str] = []

        def emit_header(name: str, kind: str) -> None:
            help_text = _HELP.get(name)
            if help_text:
                lines.append(f"# HELP {name} {help_text}")
            lines.append(f"# TYPE {name} {kind}")

        for kind, series in (("counter", snap["counters"]), ("gauge", snap["gauges"])):
            by_name: Dict[str, List[Tuple[LabelKey, float]]] = {}
            for (name, labels), value in series.items():
                by_name.setdefault(name, []).append((labels, value))
            for name in sorted(by_name):
                emit_header(name, kind)
                for labels, value in sorted(by_name[name]):
                    lines.append(f"{name}{_render_labels(labels)} {_format_value(value)}")

        hist_by_name: Dict[str, List[Tuple[LabelKey, Dict[str, Any]]]] = {}
        for (name, labels), hist in snap["histograms"].items():
            hist_by_name.setdefault(name, []).append((labels, hist))
        for name in sorted(hist_by_name):
            emit_header(name, "histogram")
            for labels, hist in sorted(hist_by_name[name], key=lambda item: item[0]):
                for bound, count in zip(hist["buckets"], hist["counts"]):
                    le = _render_labels(labels, ("le", _format_value(bound)))
                    lines.append(f"{name}_bucket{le} {count}")
                inf = _render_labels(labels, ("le", "+Inf"))
                lines.append(f"{name}_bucket{inf} {hist['count']}")
                lines.append(f"{name}_sum{_render_labels(labels)} {repr(float(hist['sum']))}")
                lines.append(f"{name}_count{_render_labels(labels)} {hist['count']}")

        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Histogram quantiles (shared by ``repro top`` and the trace report)
# ---------------------------------------------------------------------------


def cumulate(values: Sequence[float], buckets: Sequence[float]) -> List[int]:
    """Cumulative (``le``) bucket counts of raw observations.

    Lets code holding raw samples (e.g. per-item walls from a trace)
    reuse :func:`histogram_quantile` with the exact bucket semantics of
    a registry histogram.
    """
    counts = [0] * len(buckets)
    for value in values:
        for i, bound in enumerate(buckets):
            if value <= bound:
                counts[i] += 1
    return counts


def histogram_quantile(
    q: float,
    buckets: Sequence[float],
    counts: Sequence[int],
    count: Optional[int] = None,
) -> Optional[float]:
    """Estimate the q-quantile of a cumulative-bucket (``le``) histogram.

    ``counts[i]`` is the number of observations ``<= buckets[i]``;
    ``count`` is the total including the implicit +Inf bucket (defaults
    to ``counts[-1]``).  Interpolates linearly inside the containing
    bucket, Prometheus-style, assuming a lower edge of 0 for the first
    bucket; observations beyond the last finite bound clamp to it.
    Returns None when the histogram is empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q!r}")
    if not buckets:
        return None
    total = int(count) if count is not None else (int(counts[-1]) if counts else 0)
    if total <= 0:
        return None
    rank = q * total
    prev_bound = 0.0
    prev_cum = 0
    for bound, cum in zip(buckets, counts):
        if cum >= rank:
            in_bucket = cum - prev_cum
            if in_bucket <= 0:
                return float(bound)
            frac = (rank - prev_cum) / in_bucket
            return float(prev_bound + (bound - prev_bound) * frac)
        prev_bound, prev_cum = float(bound), int(cum)
    # The quantile falls in the +Inf bucket: the honest answer is "at
    # least the largest finite bound".
    return float(buckets[-1])


# ---------------------------------------------------------------------------
# Process-global registry
# ---------------------------------------------------------------------------

_registry = MetricsRegistry()
_registry_lock = threading.Lock()


def registry() -> MetricsRegistry:
    """The process-wide registry every adapter writes into."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Swap in a fresh registry (tests); returns the new one."""
    global _registry
    with _registry_lock:
        _registry = MetricsRegistry()
    return _registry


# ---------------------------------------------------------------------------
# Adapters: absorb the existing telemetry islands
# ---------------------------------------------------------------------------


def record_solver_delta(
    delta: Mapping[str, int], reg: Optional[MetricsRegistry] = None
) -> None:
    """Fold a :meth:`SolverStats.as_dict` delta into solver counters."""
    reg = reg if reg is not None else registry()
    for key, value in delta.items():
        if value:
            reg.inc(f"repro_solver_{key}_total", float(value))


def record_high_sigma(
    operation: str,
    proposals: int,
    promoted: int,
    simulator_calls: int,
    reg: Optional[MetricsRegistry] = None,
) -> None:
    """Count one high-sigma estimate's proposal/promotion/call spend.

    The proposals-vs-promoted ratio is the engine's efficiency headline:
    how many draws the surrogate screened for free versus how many
    needed a real solve.
    """
    reg = reg if reg is not None else registry()
    if proposals:
        reg.inc(
            "repro_highsigma_proposals_total", float(proposals), operation=operation
        )
    if promoted:
        reg.inc(
            "repro_highsigma_promoted_solves_total",
            float(promoted),
            operation=operation,
        )
    if simulator_calls:
        reg.inc(
            "repro_highsigma_simulator_calls_total",
            float(simulator_calls),
            operation=operation,
        )


def absorb_cache_stats(
    stats: Mapping[str, Any], reg: Optional[MetricsRegistry] = None
) -> None:
    """Mirror a :meth:`ResultCache.stats_dict` payload into the registry.

    Counter values are absolute lifetime totals (the cache — or the
    stats sidecar layered on top of it — is the source of truth), so
    this *sets* rather than increments.
    """
    reg = reg if reg is not None else registry()
    for key in _CACHE_COUNTER_KEYS:
        reg.set_total(f"repro_cache_{key}_total", float(stats.get(key, 0)))
    if "entries" in stats:
        reg.set_gauge("repro_cache_entries", float(stats["entries"]))
    if "max_entries" in stats:
        reg.set_gauge("repro_cache_max_entries", float(stats["max_entries"] or 0))


def absorb_queue_stats(
    stats: Mapping[str, Any], reg: Optional[MetricsRegistry] = None
) -> None:
    """Mirror an :meth:`ExperimentQueue.stats` payload into the registry."""
    reg = reg if reg is not None else registry()
    for key in _QUEUE_COUNTER_KEYS:
        reg.set_total(f"repro_queue_{key}_total", float(stats.get(key, 0)))
    if "in_flight" in stats:
        reg.set_gauge("repro_queue_in_flight", float(stats["in_flight"]))
    if "jobs" in stats:
        reg.set_gauge("repro_queue_jobs", float(stats["jobs"]))
    journal = stats.get("journal")
    if isinstance(journal, Mapping):
        if "outstanding" in journal:
            reg.set_gauge("repro_journal_outstanding", float(journal["outstanding"]))
        if "skipped_lines" in journal:
            reg.set_gauge("repro_journal_skipped_lines", float(journal["skipped_lines"]))


def record_item_failure(
    classification: str, reg: Optional[MetricsRegistry] = None
) -> None:
    """Count one campaign item failure by its typed classification."""
    reg = reg if reg is not None else registry()
    reg.inc("repro_item_failures_total", classification=str(classification))


def observe_item_wall(
    wall_s: float, operation: str, reg: Optional[MetricsRegistry] = None
) -> None:
    """Feed one item's measurement wall time into the latency histogram."""
    reg = reg if reg is not None else registry()
    reg.observe("repro_item_wall_seconds", float(wall_s), operation=str(operation))
