"""Solver convergence telemetry: histograms, rescue counters, lane gauges.

PR 8's registry counts *what* the solver tier did (factorizations,
stamp evals); this module records *how convergence behaved* while it
did it:

* ``repro_solver_iterations`` — iterations-to-converge histograms,
  labelled by solver kind (``dc``, ``dc_sweep``, ``transient``,
  ``batch_dc``, ``batch_dc_sweep``) and, for batched lanes, by lane
  group size;
* ``repro_solver_converged_total`` / ``repro_solver_nonconverged_total``
  — solve outcomes under the same labels;
* ``repro_solver_rescue_total`` — entries into the robustness ladder
  (``gmin_step``, ``source_step``, ``pseudo_transient``,
  ``sweep_point``), the events that explain why a solve cost what it
  did;
* ``repro_solver_step_rejections_total`` — transient dt-halvings (the
  step controller's damping events);
* lane-efficiency gauges derived from :class:`SolverStats` deltas —
  ``repro_solver_lane_occupancy`` (active-lane fraction per tick) and
  ``repro_solver_scalar_fallback_rate`` (demoted lanes per lane handed
  to the batched driver).

Residual-norm *decay traces* are too bulky for the registry, so they go
through a bounded :class:`ResidualTraceRecorder` — off by default,
reservoir-sampled when on (deterministic rng, fixed capacity), enabled
by tests/benches that want to see the decay shape rather than just the
iteration count.

Everything here must stay cheap enough to be always-on: hooks fire per
*solve* (or per lane), never per Newton iteration, and the residual
recorder costs one module-global check per solve while disabled.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .metrics import MetricsRegistry, registry

__all__ = [
    "ITERATION_BUCKETS",
    "ResidualTraceRecorder",
    "disable_residual_recording",
    "enable_residual_recording",
    "lane_group_label",
    "record_convergence",
    "record_lane_stats",
    "record_rescue",
    "record_step_rejections",
    "residual_recorder",
]

#: Fixed iteration buckets (like the latency buckets: chosen once so
#: histograms from different runs always merge).  Newton on these
#: circuits converges in single digits; the tail buckets catch rescue
#: ladders and sweeps, which report *summed* iterations.
ITERATION_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    3.0,
    4.0,
    6.0,
    8.0,
    12.0,
    16.0,
    24.0,
    32.0,
    64.0,
    128.0,
    512.0,
    2048.0,
)


def lane_group_label(n_lanes: int) -> str:
    """Bucket a lockstep group's size into a bounded label set."""
    if n_lanes <= 8:
        return "1-8"
    if n_lanes <= 32:
        return "9-32"
    if n_lanes <= 128:
        return "33-128"
    return "129+"


def record_convergence(
    kind: str,
    iterations: int,
    converged: bool,
    lane_group: Optional[str] = None,
    reg: Optional[MetricsRegistry] = None,
) -> None:
    """Record one finished solve's iteration count and outcome."""
    reg = reg if reg is not None else registry()
    labels: Dict[str, str] = {"kind": str(kind)}
    if lane_group is not None:
        labels["lane_group"] = str(lane_group)
    reg.observe(
        "repro_solver_iterations",
        float(iterations),
        buckets=ITERATION_BUCKETS,
        **labels,
    )
    name = (
        "repro_solver_converged_total"
        if converged
        else "repro_solver_nonconverged_total"
    )
    reg.inc(name, **labels)


def record_rescue(kind: str, stage: str, reg: Optional[MetricsRegistry] = None) -> None:
    """Count one entry into a robustness-ladder stage."""
    reg = reg if reg is not None else registry()
    reg.inc("repro_solver_rescue_total", kind=str(kind), stage=str(stage))


def record_step_rejections(
    kind: str, count: int, reg: Optional[MetricsRegistry] = None
) -> None:
    """Count rejected (dt-halved) steps of one transient run."""
    if count:
        reg = reg if reg is not None else registry()
        reg.inc("repro_solver_step_rejections_total", float(count), kind=str(kind))


def record_lane_stats(
    delta: Mapping[str, int], reg: Optional[MetricsRegistry] = None
) -> None:
    """Set lane-efficiency gauges from a :meth:`SolverStats.as_dict` delta.

    ``batch_lane_iterations / batch_lane_slots`` is the active-lane
    fraction over the delta window (1.0 = every lane of every tick still
    converging; low values mean stragglers kept mostly-idle ticks
    alive).  ``scalar_fallbacks / (batch_lanes + scalar_fallbacks)`` is
    the demotion rate: demoted lanes are never launched, so they are not
    in ``batch_lanes``.
    """
    reg = reg if reg is not None else registry()
    slots = float(delta.get("batch_lane_slots", 0) or 0)
    if slots > 0:
        reg.set_gauge(
            "repro_solver_lane_occupancy",
            float(delta.get("batch_lane_iterations", 0)) / slots,
        )
    lanes = float(delta.get("batch_lanes", 0) or 0)
    fallbacks = float(delta.get("scalar_fallbacks", 0) or 0)
    if lanes > 0 or fallbacks > 0:
        reg.set_gauge(
            "repro_solver_scalar_fallback_rate",
            fallbacks / (lanes + fallbacks) if (lanes + fallbacks) else 0.0,
        )


# ---------------------------------------------------------------------------
# Residual decay traces (bounded, off by default)
# ---------------------------------------------------------------------------


class ResidualTraceRecorder:
    """Reservoir sampler of per-solve residual-norm decay traces.

    Keeps at most ``max_traces`` traces of at most ``max_points`` points
    each, replacing uniformly at random once full (classic reservoir
    sampling with a seeded rng, so a given solve sequence always keeps
    the same traces).  Memory is therefore bounded regardless of how
    many solves run.
    """

    def __init__(self, max_traces: int = 128, max_points: int = 64, seed: int = 0) -> None:
        if max_traces <= 0 or max_points <= 0:
            raise ValueError("max_traces and max_points must be positive")
        self.max_traces = int(max_traces)
        self.max_points = int(max_points)
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self._traces: List[Dict[str, Any]] = []
        self.seen = 0

    def record(self, kind: str, residuals: Sequence[float], converged: bool) -> None:
        if not residuals:
            return
        points = [float(r) for r in residuals]
        if len(points) > self.max_points:
            # Stride-decimate but always keep the final residual: the
            # decay *endpoint* is the interesting part.
            stride = -(-len(points) // self.max_points)
            points = points[::stride] + [points[-1]]
        trace = {"kind": str(kind), "residuals": points, "converged": bool(converged)}
        with self._lock:
            self.seen += 1
            if len(self._traces) < self.max_traces:
                self._traces.append(trace)
            else:
                j = self._rng.randrange(self.seen)
                if j < self.max_traces:
                    self._traces[j] = trace

    def traces(self) -> List[Dict[str, Any]]:
        with self._lock:
            return [dict(trace) for trace in self._traces]

    def summary(self) -> Dict[str, Any]:
        """Per-kind counts and median decay ratio (last/first residual)."""
        by_kind: Dict[str, List[float]] = {}
        converged = 0
        traces = self.traces()
        for trace in traces:
            residuals = trace["residuals"]
            if residuals[0] > 0:
                by_kind.setdefault(trace["kind"], []).append(
                    residuals[-1] / residuals[0]
                )
            if trace["converged"]:
                converged += 1
        decay: Dict[str, float] = {}
        for kind, ratios in by_kind.items():
            ratios.sort()
            decay[kind] = ratios[len(ratios) // 2]
        return {
            "traces": len(traces),
            "seen": self.seen,
            "converged": converged,
            "median_decay_ratio": decay,
        }


_recorder: Optional[ResidualTraceRecorder] = None


def residual_recorder() -> Optional[ResidualTraceRecorder]:
    """The active recorder, or None (the common, zero-cost case)."""
    return _recorder


def enable_residual_recording(
    max_traces: int = 128, max_points: int = 64, seed: int = 0
) -> ResidualTraceRecorder:
    global _recorder
    _recorder = ResidualTraceRecorder(
        max_traces=max_traces, max_points=max_points, seed=seed
    )
    return _recorder


def disable_residual_recording() -> Optional[ResidualTraceRecorder]:
    global _recorder
    recorder = _recorder
    _recorder = None
    return recorder
