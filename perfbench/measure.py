"""Metric registry, summary statistics, provenance and the result line.

Every metric the benchmark can print is declared once in
:data:`END_TO_END` or :data:`PER_LAYER` with its unit; :func:`emit`
refuses to print a result whose metric set differs from the registry for
its mode, so a run can never silently drop a metric.
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import resource
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

#: Allowed metric names: the characters the result format accepts.
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: A percentile is withheld unless at least this many samples lie beyond it.
MIN_BEYOND = 10

#: End-to-end metrics (printed with ``--trace 0``): name -> unit.  Every
#: workload reports every one of them; "request" is one ``api.run`` call
#: on the ops workloads, one MC -> yield -> yield_hs chain on mc_yield and
#: one ``ExperimentClient.run`` submission on service_mix.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (printed with ``--trace 1``): name -> unit.  Times
#: and counts are per request unless the README says otherwise.
PER_LAYER: Dict[str, str] = {
    "api.busy_s": "s",
    "api.self_s": "s",
    "api.calls": "count",
    "campaign.prepare_s": "s",
    "campaign.finish_s": "s",
    "campaign.self_s": "s",
    "campaign.chunks": "count",
    "campaign.worker_busy_s": "s",
    "campaign.pool_idle_s": "s",
    "campaign.pool_efficiency": "ratio",
    "circuit.solve_s": "s",
    "circuit.self_s": "s",
    "circuit.solve_calls": "count",
    "circuit.lanes": "count",
    "circuit.ticks": "count",
    "circuit.lane_occupancy": "ratio",
    "circuit.factorizations": "count",
    "circuit.scalar_fallbacks": "count",
    "worst_case.search_s": "s",
    "worst_case.self_s": "s",
    "worst_case.searches": "count",
    "extraction.busy_s": "s",
    "extraction.self_s": "s",
    "extraction.calls": "count",
    "patterning.busy_s": "s",
    "patterning.self_s": "s",
    "patterning.calls": "count",
    "montecarlo.busy_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.calls": "count",
    "yield.busy_s": "s",
    "yield.self_s": "s",
    "yield.calls": "count",
    "highsigma.busy_s": "s",
    "highsigma.self_s": "s",
    "highsigma.calls": "count",
    "highsigma.simulator_calls": "count",
    "service.http_requests_per_submission": "count",
    "service.handler_s": "s",
    "service.transport_s": "s",
    "service.cache_get_s": "s",
    "service.cache_hit_ratio": "ratio",
    "service.journal_s": "s",
    "service.journal_appends": "count",
    "service.cache_put_s": "s",
    "service.queue_wait_s": "s",
    "service.compute_s": "s",
    "service.warm_p50_ms": "ms",
    "service.warm_p90_ms": "ms",
    "service.cold_p50_ms": "ms",
    "service.cold_p90_ms": "ms",
    "failed_fraction": "ratio",
    "trace.untraced_run_s": "s",
    "trace.traced_run_s": "s",
    "trace.overhead_pct": "%",
}


class BenchmarkError(RuntimeError):
    """An output mismatch or a broken run: the benchmark exits non-zero."""


# -- statistics ------------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank ``q``-th percentile, or ``None`` when it is withheld.

    A percentile is withheld unless at least :data:`MIN_BEYOND` samples
    lie beyond its rank, so a p90 needs at least 100 samples.
    """
    n = len(values)
    if n == 0 or not 0.0 < q < 100.0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchmarkError("no successful request to take a median of")
    return statistics.median(values)


@dataclass(frozen=True)
class Request:
    """One timed request: its latency, whether it succeeded, its class."""

    latency_s: float
    ok: bool = True
    cls: str = "all"


@dataclass(frozen=True)
class RequestSummary:
    attempted: int
    failed: int
    latencies_s: Tuple[float, ...]

    @property
    def failed_fraction(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def summarize(requests: Iterable[Request], cls: Optional[str] = None) -> RequestSummary:
    """Attempted and failed counts, and the latencies of successful requests.

    A failed request counts as attempted but never enters a latency
    percentile: it has no completion time to report.
    """
    chosen = [r for r in requests if cls is None or r.cls == cls]
    return RequestSummary(
        attempted=len(chosen),
        failed=sum(1 for r in chosen if not r.ok),
        latencies_s=tuple(r.latency_s for r in chosen if r.ok),
    )


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- provenance ------------------------------------------------------------------------------


def _cache_sizes() -> Dict[str, Optional[str]]:
    sizes: Dict[str, Optional[str]] = {"l2": None, "l3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and f"l{level}" in sizes:
            sizes[f"l{level}"] = size
    return sizes


def _git_commit(root: Path) -> Optional[str]:
    """The checkout's commit read from ``.git`` directly (None outside git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(root: Path, workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """Where a result was measured; 1-CPU and N-CPU numbers never compare."""
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "cache": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(root),
    }


# -- the result line -------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    value: float
    samples: int


def emit(
    metrics: Mapping[str, Metric],
    trace: bool,
    correct: bool,
    attempted: int,
    failed: int,
    prov: Mapping[str, object],
) -> None:
    """Print the human table, the provenance line and the JSON result line."""
    registry = PER_LAYER if trace else END_TO_END
    if set(metrics) != set(registry):
        missing = sorted(set(registry) - set(metrics))
        extra = sorted(set(metrics) - set(registry))
        raise BenchmarkError(f"metric set mismatch: missing {missing}, unexpected {extra}")
    if attempted < 1:
        raise BenchmarkError("no request was attempted")
    for name in registry:
        metric = metrics[name]
        if not math.isfinite(metric.value):
            raise BenchmarkError(f"metric {name} is not finite: {metric.value}")
        print(f"{name:40s} {metric.value:16.6g} {registry[name]:6s} n={metric.samples}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(metrics[name].value), "unit": registry[name]}
            for name in registry
        },
    }
    print(json.dumps(result), flush=True)


def percentile_metric(values: Sequence[float], q: float, scale: float = 1.0) -> Metric:
    """A percentile metric; a withheld percentile reads 0 with 0 samples."""
    value = percentile(values, q)
    if value is None:
        return Metric(0.0, 0)
    return Metric(value * scale, len(values))
