"""Launch ``repro serve``, optionally with the benchmark's layer tracing.

Usage::

    python perfbench/serve.py [--stats FILE] -- <repro serve arguments>

Without ``--stats`` this is exactly ``repro serve``.  With it, the public
calls of every layer (the batch layers of :mod:`perfbench.layers` plus
the HTTP handler, ``ResultCache.get``/``put``, ``JobJournal.record_*``
and the queue's ``api.run``) are wrapped in spans before serving, and
when the server stops (SIGINT) the spans, the submit-to-compute queue
waits and the per-job solver counter deltas are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR.parent))

from perfbench import layers  # noqa: E402

SERVICE_TARGETS = (
    ("repro.service.server:_ExperimentHandler", "do_GET", "service.handler"),
    ("repro.service.server:_ExperimentHandler", "do_POST", "service.handler"),
    ("repro.service.cache:ResultCache", "get", "service.cache_get"),
    ("repro.service.cache:ResultCache", "put", "service.cache_put"),
    ("repro.service.journal:JobJournal", "record_submitted", "service.journal"),
    ("repro.service.journal:JobJournal", "record_terminal", "service.journal"),
)


def install(tracer: layers.SpanTracer) -> Dict[str, List[Any]]:
    """Wrap every layer; returns the event lists the compute wrapper fills."""
    from repro import api
    from repro.circuit.mna import solver_stats
    from repro.service.queue import ExperimentQueue

    tracer.install(layers.BATCH_TARGETS)
    layers.wrap_mapping(tracer, api._RUNNERS, "api.runner")
    tracer.install(SERVICE_TARGETS)
    events: Dict[str, List[Any]] = {"queue_waits": [], "solver": []}
    submitted: Dict[str, float] = {}

    submit = ExperimentQueue.submit

    def timed_submit(self, spec):
        job = submit(self, spec)
        if not job.cached:
            submitted.setdefault(job.fingerprint, perf_counter())
        return job

    ExperimentQueue.submit = timed_submit
    compute = tracer.wrapper("service.compute", api.run)

    def timed_compute(spec, *args, **kwargs):
        started = perf_counter()
        queued = submitted.pop(spec.fingerprint(), None)
        if queued is not None:
            events["queue_waits"].append((started, started - queued))
        before = solver_stats().as_dict()
        try:
            return compute(spec, *args, **kwargs)
        finally:
            after = solver_stats().as_dict()
            events["solver"].append((started, {k: after[k] - before.get(k, 0) for k in after}))

    init = ExperimentQueue.__init__

    def traced_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._runner = timed_compute

    ExperimentQueue.__init__ = traced_init
    return events


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stats", type=Path, default=None)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = [a for a in args.serve_args if a != "--"]
    from repro import cli

    if args.stats is None:
        return cli.main(["serve", *serve_args])
    tracer = layers.SpanTracer()
    events = install(tracer)
    code = cli.main(["serve", *serve_args])
    payload = {"spans": tracer.collect(), **events}
    tmp = args.stats.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    tmp.replace(args.stats)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
