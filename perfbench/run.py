"""Run one benchmark workload and print its metrics (see README.md).

    python3 perfbench/run.py --workload ops_serial --seed 1 --seconds 12 --trace 0

The last line of standard output is the JSON result; the lines before it
are a human-readable table (metric, value, unit, sample count) and the
provenance of the run.  Any output mismatch exits non-zero without a
result line.
"""

from __future__ import annotations

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import layers, measure, workloads  # noqa: E402
from perfbench.measure import BenchmarkError, Metric, Request  # noqa: E402

WORKLOADS = ("ops_serial", "ops_pool", "mc_yield", "service_mix")

#: What a workload run returns: its metrics, requests attempted and failed.
Result = Tuple[Dict[str, Metric], int, int]

#: Set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="repro end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one import + warm-up and exit")
    return parser.parse_args(argv)


# -- batch workloads ---------------------------------------------------------------------------


def _setup_probe(name: str, seed: int) -> float:
    """Import + warm-up in a fresh interpreter; returns its set-up time."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True, cwd=str(ROOT), timeout=170)
    if done.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{done.stderr[-2000:]}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def _measure_batch(workload, seconds: float
                   ) -> Tuple[List[Request], List[workloads.Outcome]]:
    """Requests back to back for ``seconds`` (at least one); checks each."""
    requests: List[Request] = []
    outcomes: List[workloads.Outcome] = []
    started = perf_counter()
    while True:
        request, outcome = workload.request()
        requests.append(request)
        outcomes.append(outcome)
        if perf_counter() - started >= seconds:
            return requests, outcomes


def _last_complete(outcomes: List[workloads.Outcome]) -> Optional[workloads.Outcome]:
    return next((o for o in reversed(outcomes) if o.results), None)


def run_batch(name: str, seed: int, seconds: float, trace: bool) -> Result:
    workload = workloads.BATCH_WORKLOADS[name](seed)
    workload.setup()
    setup_own = perf_counter() - _PROCESS_START
    workload.after_setup()

    if not trace:
        setups = [setup_own] + [_setup_probe(name, seed) for _ in range(SETUP_SAMPLES - 1)]
        requests, outcomes = _measure_batch(workload, seconds)
        workload.after_window(_last_complete(outcomes))
        ok = measure.summarize(requests)
        units = sum(o.units for o in outcomes)
        busy = sum(ok.latencies_s)
        metrics = {
            "setup_s": Metric(statistics.median(setups), len(setups)),
            "run_s": Metric(measure.median(ok.latencies_s), len(ok.latencies_s)),
            "throughput_per_s": Metric(units / busy if busy else 0.0, len(ok.latencies_s)),
            "peak_rss_mb": Metric(measure.peak_rss_mb(), 1),
        }
        return metrics, ok.attempted, ok.failed

    # Traced run: an untraced phase, then the same requests with every
    # layer wrapped; the two medians give the tracing overhead.
    untraced, _ = _measure_batch(workload, seconds)
    tracer = layers.SpanTracer(spill_dir=_workdir())
    tracer.install(layers.BATCH_TARGETS)
    layers.wrap_mapping(tracer, workloads.program()._RUNNERS, "api.runner")
    before = workloads.solver_counts()
    requests, outcomes = _measure_batch(workload, seconds)
    after = workloads.solver_counts()
    spans = tracer.collect()
    workload.after_window(_last_complete(outcomes))

    summary = measure.summarize(requests)
    n = len(requests)
    values = layers.layer_metrics(layers.SpanSummary(spans), n)
    values.update(_solver_metrics([{k: after[k] - before.get(k, 0) for k in after}], n))
    values["highsigma.simulator_calls"] = sum(
        r.meta.get("high_sigma", {}).get("total_simulator_calls", 0)
        for o in outcomes for r in o.results
    ) / n
    values.update(_zero_service())
    attempted = sum(o.attempted_units for o in outcomes)
    values["failed_fraction"] = sum(o.failed_units for o in outcomes) / attempted
    values.update(_overhead(untraced, requests))
    metrics = {key: Metric(value, n) for key, value in values.items()}
    return metrics, summary.attempted, summary.failed


def _solver_metrics(deltas: List[Dict[str, int]], n: int) -> Dict[str, float]:
    """Summed ``solver_stats()`` deltas per request; counters that live in
    pool workers never reach these deltas (see README)."""
    total = {k: sum(d.get(k, 0) for d in deltas) for k in (deltas[0] if deltas else {})}
    slots = total.get("batch_lane_slots", 0)
    return {
        "circuit.ticks": total.get("batch_ticks", 0) / n,
        "circuit.lane_occupancy": total.get("batch_lane_iterations", 0) / slots if slots else 0.0,
        "circuit.factorizations": total.get("factorizations", 0) / n,
        "circuit.scalar_fallbacks": total.get("scalar_fallbacks", 0) / n,
    }


def _zero_service() -> Dict[str, float]:
    return {name: 0.0 for name in measure.PER_LAYER if name.startswith("service.")}


def _overhead(untraced: List[Request], traced: List[Request]) -> Dict[str, float]:
    plain = measure.median(measure.summarize(untraced).latencies_s)
    wrapped = measure.median(measure.summarize(traced).latencies_s)
    return {
        "trace.untraced_run_s": plain,
        "trace.traced_run_s": wrapped,
        "trace.overhead_pct": 100.0 * (wrapped / plain - 1.0),
    }


# -- the service mix ---------------------------------------------------------------------------


def run_service(seed: int, seconds: float, trace: bool) -> Result:
    workdir = _workdir()
    mix = workloads.ServiceMix(seed, workdir)
    workloads.program()  # imported before set-up: set-up is the server's spawn and seeding
    try:
        if not trace:
            # Each set-up's server also serves an equal share of the window:
            # warm latency shifts by up to 2x from one server process to the
            # next, and pooling three processes per run averages that out.
            setups, windows = [], []
            for _ in range(SETUP_SAMPLES):
                started = perf_counter()
                mix.setup()
                setups.append(perf_counter() - started)
                windows.append(mix.measure(seconds / SETUP_SAMPLES))
                mix.stop()
                mix.check(windows[-1])
            requests = [s.request for w in windows for s in w.submissions]
            ok = measure.summarize(requests)
            wall = sum(w.ended - w.started for w in windows)
            metrics = {
                "setup_s": Metric(statistics.median(setups), len(setups)),
                "run_s": Metric(measure.median(ok.latencies_s), len(ok.latencies_s)),
                "throughput_per_s": Metric(len(ok.latencies_s) / wall, len(ok.latencies_s)),
                "peak_rss_mb": Metric(measure.peak_rss_mb(), 1),
            }
            return metrics, ok.attempted, ok.failed

        mix.setup()
        plain = mix.measure(seconds)
        mix.stop()
        mix.check(plain)
        mix.setup(traced=True)
        window = mix.measure(seconds)
        stats = mix.stop()
        if stats is None:
            raise BenchmarkError("the traced server wrote no statistics")
        mix.check(window)
        return _service_layers(plain, window, stats)
    finally:
        mix.stop()


def _service_layers(plain: "workloads.Window", window: "workloads.Window",
                    stats: Dict) -> Result:
    requests = [s.request for s in window.submissions]
    summary = measure.summarize(requests)
    n = max(1, len(requests))
    cold = max(1, sum(1 for r in requests if r.cls == "cold"))
    spans = layers.in_window([tuple(s) for s in stats["spans"]], window.started, window.ended)
    spans_summary = layers.SpanSummary(spans)
    values = layers.layer_metrics(spans_summary, n)
    solver = [d for t, d in stats["solver"] if window.started <= t <= window.ended]
    values.update(_solver_metrics(solver, n))
    values["highsigma.simulator_calls"] = 0.0
    handler = spans_summary.busy(name="service.handler")
    compute = spans_summary.busy(name="service.compute")
    client_total = sum(r.latency_s for r in requests if r.ok)
    gets = spans_summary.calls(name="service.cache_get")
    waits = [w for t, w in stats["queue_waits"] if window.started <= t <= window.ended]
    values.update({
        "service.http_requests_per_submission": spans_summary.calls(name="service.handler") / n,
        "service.handler_s": handler / n,
        # What a client waits for beyond the server's handlers and its
        # jobs' queueing and compute: connections, HTTP framing, polls.
        "service.transport_s": (client_total - handler - sum(waits) - compute) / n,
        "service.cache_get_s": spans_summary.busy(name="service.cache_get") / n,
        "service.cache_hit_ratio": spans_summary.count("service.cache_get") / gets if gets else 0.0,
        "service.journal_s": spans_summary.busy(name="service.journal") / n,
        "service.journal_appends": spans_summary.calls(name="service.journal") / n,
        "service.cache_put_s": spans_summary.busy(name="service.cache_put") / cold,
        "service.queue_wait_s": sum(waits) / cold,
        "service.compute_s": compute / cold,
    })
    plain_requests = [s.request for s in plain.submissions]
    metrics = {key: Metric(value, n) for key, value in values.items()}
    for cls in ("warm", "cold"):
        latencies = measure.summarize(plain_requests, cls).latencies_s
        for q in (50, 90):
            metrics[f"service.{cls}_p{q}_ms"] = measure.percentile_metric(latencies, q, 1e3)
    metrics["failed_fraction"] = Metric(summary.failed_fraction, summary.attempted)
    metrics.update({k: Metric(v, n) for k, v in _overhead(plain_requests, requests).items()})
    return metrics, summary.attempted, summary.failed


# -- entry point -------------------------------------------------------------------------------


def _workdir() -> Path:
    path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cleanup() -> None:
    path = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    try:
        path.parent.rmdir()
    except OSError:
        pass


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's source tree {SRC} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.setup_probe:
            workload = workloads.BATCH_WORKLOADS[args.workload](args.seed)
            workload.setup()
            print(json.dumps({"setup_s": perf_counter() - _PROCESS_START}))
            return 0
        if args.workload == "service_mix":
            result = run_service(args.seed, args.seconds, bool(args.trace))
        else:
            result = run_batch(args.workload, args.seed, args.seconds, bool(args.trace))
        metrics, attempted, failed = result
        prov = measure.provenance(ROOT, args.workload, args.seed, bool(args.trace))
        # Outputs were checked as they came: a mismatch raised before this point.
        measure.emit(metrics, bool(args.trace), True, attempted, failed, prov)
        return 0
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        _cleanup()


if __name__ == "__main__":
    sys.exit(main())
