"""Span tracing around the public calls of each layer, and its summaries.

The tracer wraps functions and methods of the ``repro`` package from the
outside (nothing inside the program changes): each call becomes a span
``(pid, id, parent, name, start, end, count)`` kept in memory, where
``count`` is a per-call tally some spans carry (lanes solved, cache hits).  A span's
parent is the innermost wrapped call open on the same thread, so a
layer's *self time* is its spans' durations minus the child spans they
cover.

Pool workers are forked from the traced process and inherit the
wrappers; a worker writes its spans to ``spans-<pid>.jsonl`` in the
spill directory whenever its outermost span closes, and the parent reads
them back with :meth:`SpanTracer.collect`.  ``time.perf_counter`` reads
the system-wide monotonic clock on Linux, so spans from different
processes share one time axis.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: One span: (pid, id, parent id or None, name, start, end, count).
Span = Tuple[int, int, Optional[int], str, float, float, int]

#: Span name -> the layer group whose busy/self/count metrics it feeds.
GROUPS: Dict[str, str] = {
    "api": "api",
    "campaign.prepare": "campaign",
    "campaign.finish": "campaign",
    "campaign.worker": "campaign",
    "circuit.solve": "circuit",
    "circuit.batch": "circuit",
    "worst_case": "worst_case",
    "extraction": "extraction",
    "patterning": "patterning",
    "montecarlo": "montecarlo",
    "yield": "yield",
    "highsigma": "highsigma",
}

#: Public calls wrapped on the batch path: (module[:class], attribute, span).
BATCH_TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.api", "run", "api"),
    ("repro.core.campaign:CampaignWorkerState", "prepare_chunk", "campaign.prepare"),
    ("repro.core.campaign:CampaignWorkerState", "finish_chunks", "campaign.finish"),
    ("repro.core.campaign:CampaignWorkerState", "run_chunk_batched", "campaign.worker"),
    ("repro.core.campaign:SimulationCampaign", "_run_pool", "campaign.pool"),
    ("repro.circuit.batch", "solve_prepared", "circuit.solve"),
    ("repro.circuit.batch", "batch_dc_sweep", "circuit.batch"),
    ("repro.circuit.batch", "batch_dc_operating_points", "circuit.batch"),
    ("repro.circuit.batch", "batch_run_transients", "circuit.batch"),
    ("repro.core.worst_case:WorstCaseStudy", "find_worst_corner", "worst_case"),
    ("repro.extraction.lpe:ParameterizedLPE", "extract_pattern", "extraction"),
    (
        "repro.extraction.lpe:ParameterizedLPE",
        "monte_carlo_variations_batch_multi",
        "extraction",
    ),
    ("repro.patterning.base:PatterningOption", "apply", "patterning"),
    ("repro.patterning.base:PatterningOption", "apply_batch", "patterning"),
    ("repro.core.montecarlo:MonteCarloTdpStudy", "tdp_record", "montecarlo"),
    ("repro.core.yield_analysis:ReadTimeYieldAnalysis", "compliance_table", "yield"),
    (
        "repro.core.yield_analysis:ReadTimeYieldAnalysis",
        "required_overlay_for_target",
        "yield",
    ),
    ("repro.highsigma.study:HighSigmaYieldStudy", "rows", "highsigma"),
)


def _lanes_of(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> int:
    items = args[0] if args else kwargs.get("items", ())
    return sum(len(getattr(item, "lanes", ())) for item in items)


def _hit(args: Sequence[Any], kwargs: Dict[str, Any], result: Any) -> int:
    return int(result is not None)


#: Span name -> the tally a call records from its arguments and result.
COUNTERS: Dict[str, Callable[[Sequence[Any], Dict[str, Any], Any], int]] = {
    "circuit.solve": _lanes_of,
    "service.cache_get": _hit,
}


class SpanTracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self, spill_dir: Optional[Path] = None) -> None:
        self.spill_dir = spill_dir
        self.spans: List[Span] = []
        self._pid = os.getpid()
        self._origin_pid = self._pid
        self._ids = itertools.count(1)
        self._local = threading.local()
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # A forked worker starts with no spans and no open stack of its own.
        self.spans = []
        self._pid = os.getpid()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> Tuple[int, Optional[int], float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, name: str, token: Tuple[int, Optional[int], float], count: int) -> None:
        end = perf_counter()
        sid, parent, start = token
        stack = self._stack()
        stack.pop()
        self.spans.append((self._pid, sid, parent, name, start, end, count))
        if not stack and self._pid != self._origin_pid and self.spill_dir is not None:
            self._spill()

    def _spill(self) -> None:
        path = self.spill_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
        self.spans = []

    def collect(self) -> List[Span]:
        """This process's spans plus every spilled worker span (files consumed)."""
        spans = list(self.spans)
        if self.spill_dir is not None:
            for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    spans.extend(tuple(json.loads(line)) for line in handle)
                path.unlink()
        return spans

    # -- wrapping ----------------------------------------------------------------------------

    def wrapper(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one span per call (per resumption for generators)."""
        counter = COUNTERS.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    token = self._open()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        self._close(name, token, 0)
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = self._open()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(name, token, counter(args, kwargs, result) if counter else 0)

        return traced

    def install(self, targets: Iterable[Tuple[str, str, str]]) -> None:
        """Wrap every target, in its class and all subclasses that override it."""
        for owner_path, attribute, name in targets:
            module_name, _, class_name = owner_path.partition(":")
            module = importlib.import_module(module_name)
            if not class_name:
                original = getattr(module, attribute)
                wrapped = self.wrapper(name, original)
                # Rebind every ``from ... import name`` copy in the package too.
                for loaded in list(sys.modules.values()):
                    if getattr(loaded, "__name__", "").startswith("repro") and (
                        loaded.__dict__.get(attribute) is original
                    ):
                        setattr(loaded, attribute, wrapped)
                continue
            for cls in _with_subclasses(getattr(module, class_name)):
                original = cls.__dict__.get(attribute)
                if original is not None and not getattr(original, "__isabstractmethod__", False):
                    setattr(cls, attribute, self.wrapper(name, original))


def _with_subclasses(cls: type) -> List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_with_subclasses(sub))
    return found


def wrap_mapping(tracer: SpanTracer, mapping: Dict[str, Callable], name: str) -> None:
    """Wrap each value of a dispatch table (the api's kind runners)."""
    for key, fn in list(mapping.items()):
        mapping[key] = tracer.wrapper(name, fn)


# -- summaries ---------------------------------------------------------------------------------


def in_window(spans: Iterable[Span], start: float, end: float) -> List[Span]:
    return [span for span in spans if start <= span[4] <= end]


class SpanSummary:
    """Busy time, self time and counts per span name and per layer group."""

    def __init__(self, spans: Sequence[Span]) -> None:
        self.spans = list(spans)
        by_key = {(s[0], s[1]): s for s in self.spans}
        child_time: Dict[Tuple[int, int], float] = defaultdict(float)
        for span in self.spans:
            if span[2] is not None:
                child_time[(span[0], span[2])] += span[5] - span[4]
        self._self = {
            (s[0], s[1]): (s[5] - s[4]) - child_time[(s[0], s[1])] for s in self.spans
        }

        def outermost(span: Span, same: Callable[[Span], bool]) -> bool:
            parent = span[2]
            while parent is not None:
                ancestor = by_key.get((span[0], parent))
                if ancestor is None:
                    return True
                if same(ancestor):
                    return False
                parent = ancestor[2]
            return True

        self._outer_name = {
            (s[0], s[1]): outermost(s, lambda a, s=s: a[3] == s[3]) for s in self.spans
        }
        self._outer_group = {
            (s[0], s[1]): outermost(
                s, lambda a, s=s: GROUPS.get(a[3]) == GROUPS.get(s[3])
            )
            for s in self.spans
        }

    def select(self, name: Optional[str] = None, group: Optional[str] = None) -> List[Span]:
        return [
            s
            for s in self.spans
            if (name is None or s[3] == name) and (group is None or GROUPS.get(s[3]) == group)
        ]

    def busy(self, name: Optional[str] = None, group: Optional[str] = None) -> float:
        outer = self._outer_name if name is not None else self._outer_group
        return sum(s[5] - s[4] for s in self.select(name, group) if outer[(s[0], s[1])])

    def calls(self, name: Optional[str] = None, group: Optional[str] = None) -> int:
        outer = self._outer_name if name is not None else self._outer_group
        return sum(1 for s in self.select(name, group) if outer[(s[0], s[1])])

    def self_time(self, name: Optional[str] = None, group: Optional[str] = None) -> float:
        return sum(self._self[(s[0], s[1])] for s in self.select(name, group))

    def count(self, name: str) -> int:
        return sum(s[6] for s in self.select(name))


def layer_metrics(summary: SpanSummary, requests: int) -> Dict[str, float]:
    """The per-request batch-layer metrics of one traced phase."""
    n = float(max(1, requests))
    metrics: Dict[str, float] = {}
    for group, count_name in (
        ("api", "api.calls"),
        ("extraction", "extraction.calls"),
        ("patterning", "patterning.calls"),
        ("montecarlo", "montecarlo.calls"),
        ("yield", "yield.calls"),
        ("highsigma", "highsigma.calls"),
    ):
        metrics[f"{group}.busy_s"] = summary.busy(group=group) / n
        metrics[f"{group}.self_s"] = summary.self_time(group=group) / n
        metrics[count_name] = summary.calls(group=group) / n
    metrics["worst_case.search_s"] = summary.busy(group="worst_case") / n
    metrics["worst_case.self_s"] = summary.self_time(group="worst_case") / n
    metrics["worst_case.searches"] = summary.calls(group="worst_case") / n

    metrics["campaign.prepare_s"] = summary.busy(name="campaign.prepare") / n
    metrics["campaign.finish_s"] = summary.self_time(name="campaign.finish") / n
    metrics["campaign.self_s"] = summary.self_time(group="campaign") / n
    metrics["campaign.chunks"] = summary.calls(name="campaign.prepare") / n
    # ``run_chunk_batched`` runs only inside pool workers.
    worker_spans = summary.select(name="campaign.worker")
    worker_busy = sum(s[5] - s[4] for s in worker_spans)
    pool_wall = summary.busy(name="campaign.pool")
    pools = summary.calls(name="campaign.pool")
    workers_per_pool = len({s[0] for s in worker_spans}) / pools if pools else 0.0
    slots = pool_wall * workers_per_pool
    metrics["campaign.worker_busy_s"] = worker_busy / n
    metrics["campaign.pool_idle_s"] = max(0.0, slots - worker_busy) / n
    metrics["campaign.pool_efficiency"] = worker_busy / slots if slots else 0.0

    metrics["circuit.solve_s"] = summary.busy(name="circuit.solve") / n
    metrics["circuit.self_s"] = summary.self_time(group="circuit") / n
    metrics["circuit.solve_calls"] = summary.calls(name="circuit.solve") / n
    metrics["circuit.lanes"] = summary.count("circuit.solve") / n
    return metrics
