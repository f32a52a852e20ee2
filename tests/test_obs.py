"""Tests of the observability layer: metrics, tracing, reports, sidecar."""

import json
import os
import pickle
import threading
import urllib.request
from dataclasses import replace

import pytest

from repro import api
from repro.circuit.mna import reset_solver_stats, solver_stats
from repro.cli import main
from repro.core.campaign import (
    SimulationCampaign,
    _absorb_telemetry,
    _take_telemetry,
    scenario_grid,
)
from repro.core.spec import ArraySpec, ExperimentSpec, OperationSpec
from repro.obs import profile as obs_profile
from repro.obs import trace as obs_trace
from repro.obs.convergence import ITERATION_BUCKETS
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    MetricsRegistry,
    absorb_cache_stats,
    absorb_queue_stats,
    observe_item_wall,
    record_item_failure,
    record_solver_delta,
    registry,
    reset_registry,
)
from repro.obs.trace import (
    CAMPAIGN_PHASES,
    active_tracer,
    campaign_attribution,
    disable_tracing,
    enable_tracing,
    Tracer,
    read_trace,
    span,
    to_chrome_trace,
)
from repro.service.sidecar import StatsSidecar, sidecar_path_for
from repro.technology.node import n10
from repro.variability.doe import StudyDOE

FAST = ["--sizes", "16", "--samples", "40", "--seed", "3"]


@pytest.fixture(autouse=True)
def clean_observability():
    """Every test starts and ends with tracing off and a fresh registry."""
    disable_tracing()
    reset_registry()
    yield
    disable_tracing()
    reset_registry()


# -- metrics registry --------------------------------------------------------------------


class TestMetricsRegistry:
    def test_counter_labels_are_separate_series(self):
        reg = MetricsRegistry()
        reg.inc("repro_runs_total", kind="campaign")
        reg.inc("repro_runs_total", kind="campaign")
        reg.inc("repro_runs_total", kind="worst_case")
        counters = reg.snapshot()["counters"]
        assert counters[("repro_runs_total", (("kind", "campaign"),))] == 2
        assert counters[("repro_runs_total", (("kind", "worst_case"),))] == 1

    def test_set_total_is_absolute_not_additive(self):
        reg = MetricsRegistry()
        reg.set_total("repro_cache_hits_total", 7)
        reg.set_total("repro_cache_hits_total", 7)
        assert reg.snapshot()["counters"][("repro_cache_hits_total", ())] == 7

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        reg.observe("lat", 0.003, buckets=(0.001, 0.01, 0.1))
        reg.observe("lat", 0.05, buckets=(0.001, 0.01, 0.1))
        reg.observe("lat", 99.0, buckets=(0.001, 0.01, 0.1))
        hist = reg.snapshot()["histograms"][("lat", ())]
        assert hist["counts"] == [0, 1, 2]  # le=0.001, le=0.01, le=0.1
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(0.003 + 0.05 + 99.0)

    def test_delta_since_reports_only_growth(self):
        reg = MetricsRegistry()
        reg.inc("a", 2)
        reg.inc("b", 5)
        before = reg.snapshot()
        reg.inc("a", 3)
        reg.observe("lat", 0.02)
        delta = reg.delta_since(before)
        assert delta["counters"] == {("a", ()): 3}
        assert delta["histograms"][("lat", ())]["count"] == 1

    def test_concurrent_increments_lose_nothing(self):
        reg = MetricsRegistry()
        n_threads, n_incs = 8, 1000

        def hammer():
            for _ in range(n_incs):
                reg.inc("hits", worker="shared")

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        counters = reg.snapshot()["counters"]
        assert counters[("hits", (("worker", "shared"),))] == n_threads * n_incs

    def test_prometheus_text_golden(self):
        reg = MetricsRegistry()
        reg.inc("repro_runs_total", kind="campaign", source="computed")
        reg.set_gauge("repro_queue_in_flight", 2)
        reg.observe("repro_item_wall_seconds", 0.02, buckets=(0.01, 0.1), operation="read")
        assert reg.to_prometheus() == (
            "# HELP repro_runs_total Completed repro.api.run invocations by spec kind.\n"
            "# TYPE repro_runs_total counter\n"
            'repro_runs_total{kind="campaign",source="computed"} 1\n'
            "# HELP repro_queue_in_flight Jobs currently queued or computing.\n"
            "# TYPE repro_queue_in_flight gauge\n"
            "repro_queue_in_flight 2\n"
            "# HELP repro_item_wall_seconds Per-item measurement wall time.\n"
            "# TYPE repro_item_wall_seconds histogram\n"
            'repro_item_wall_seconds_bucket{operation="read",le="0.01"} 0\n'
            'repro_item_wall_seconds_bucket{operation="read",le="0.1"} 1\n'
            'repro_item_wall_seconds_bucket{operation="read",le="+Inf"} 1\n'
            'repro_item_wall_seconds_sum{operation="read"} 0.02\n'
            'repro_item_wall_seconds_count{operation="read"} 1\n'
        )

    def test_prometheus_escapes_label_values(self):
        reg = MetricsRegistry()
        reg.inc("odd", note='quote " slash \\ newline \n end')
        line = reg.to_prometheus().splitlines()[-1]
        assert line == 'odd{note="quote \\" slash \\\\ newline \\n end"} 1'

    def test_default_buckets_cover_ms_to_minute(self):
        assert DEFAULT_LATENCY_BUCKETS_S[0] == 0.001
        assert DEFAULT_LATENCY_BUCKETS_S[-1] == 60.0
        assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(DEFAULT_LATENCY_BUCKETS_S)


class TestAdapters:
    def test_solver_delta_skips_zero_counters(self):
        record_solver_delta({"factorizations": 3, "dense_solves": 0})
        counters = registry().snapshot()["counters"]
        assert counters[("repro_solver_factorizations_total", ())] == 3
        assert ("repro_solver_dense_solves_total", ()) not in counters

    def test_cache_stats_absorbed_as_absolute_totals(self):
        stats = {"hits": 4, "misses": 1, "entries": 2, "max_entries": None}
        absorb_cache_stats(stats)
        absorb_cache_stats(stats)  # idempotent: source of truth accumulates
        snap = registry().snapshot()
        assert snap["counters"][("repro_cache_hits_total", ())] == 4
        assert snap["gauges"][("repro_cache_entries", ())] == 2
        assert snap["gauges"][("repro_cache_max_entries", ())] == 0

    def test_queue_stats_include_journal_gauges(self):
        absorb_queue_stats(
            {"submitted": 9, "in_flight": 1, "journal": {"outstanding": 3, "skipped_lines": 1}}
        )
        snap = registry().snapshot()
        assert snap["counters"][("repro_queue_submitted_total", ())] == 9
        assert snap["gauges"][("repro_journal_outstanding", ())] == 3
        assert snap["gauges"][("repro_journal_skipped_lines", ())] == 1

    def test_failures_and_item_walls(self):
        record_item_failure("solver_error")
        observe_item_wall(0.2, "read")
        snap = registry().snapshot()
        key = ("repro_item_failures_total", (("classification", "solver_error"),))
        assert snap["counters"][key] == 1
        hist = snap["histograms"][("repro_item_wall_seconds", (("operation", "read"),))]
        assert hist["count"] == 1


# -- tracing -----------------------------------------------------------------------------


class TestTracing:
    def test_disabled_by_default_and_costless(self, tmp_path):
        assert active_tracer() is None
        first = span("anything", key="value")
        with first:
            pass
        assert span("other") is first  # the shared no-op singleton
        assert list(tmp_path.iterdir()) == []

    def test_spans_record_nesting_args_and_errors(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        enable_tracing(trace)
        with span("outer", item="x") as outer:
            outer.annotate(extra=1)
            with span("inner"):
                pass
        with pytest.raises(ValueError):
            with span("boom"):
                raise ValueError("no")
        disable_tracing()

        records = {r["name"]: r for r in read_trace(trace)}
        assert records["outer"]["depth"] == 0
        assert records["inner"]["depth"] == 1
        assert records["outer"]["args"] == {"item": "x", "extra": 1}
        assert records["boom"]["error"] == "ValueError"
        assert all(r["dur"] >= 0 and r["ts"] > 0 for r in records.values())

    def test_read_trace_skips_torn_and_corrupt_lines(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        trace.write_text(
            '{"name": "good", "ts": 1, "dur": 2}\n'
            "not json at all\n"
            '{"name": "torn", "ts": 3'  # no newline: a crash mid-write
        )
        records = read_trace(trace)
        assert [r["name"] for r in records] == ["good"]
        assert read_trace(tmp_path / "missing.jsonl") == []

    def test_worker_merge_tolerates_torn_tails(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        tracer = enable_tracing(trace)
        worker = Tracer(None, trace_id=tracer.trace_id)
        with worker.span("w1"):
            pass
        torn = worker.span("w2")
        torn.__enter__()  # still open when the chunk result ships
        tracer.write(worker.take())
        assert [r["name"] for r in read_trace(trace)] == ["w1"]

        # The open span completes later (the worker kept running).
        torn.__exit__(None, None, None)
        tracer.write(worker.take())
        assert worker.take() == []  # handed over exactly once
        # A torn tail (a crash mid-write) does not hide the merged records.
        with open(trace, "a", encoding="utf-8") as fh:
            fh.write('{"name": "w3", "ts": 2')
        disable_tracing()

        names = [r["name"] for r in read_trace(trace)]
        assert names == ["w1", "w2"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.jsonl"]

    def test_enable_truncates_previous_trace(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        enable_tracing(trace)
        with span("old"):
            pass
        disable_tracing()
        enable_tracing(trace)
        with span("new"):
            pass
        disable_tracing()
        assert [r["name"] for r in read_trace(trace)] == ["new"]

    def test_chrome_trace_export(self):
        records = [{"name": "a", "ph": "X", "ts": 5, "dur": 7, "pid": 1, "tid": 2,
                    "args": {"item": "x"}}]
        chrome = to_chrome_trace(records)
        assert chrome["displayTimeUnit"] == "ms"
        event = chrome["traceEvents"][0]
        assert event["name"] == "a" and event["dur"] == 7
        assert event["cat"] == "repro" and event["args"] == {"item": "x"}

    def test_attribution_unions_nested_phases(self):
        records = [
            {"name": "campaign.run", "ts": 0, "dur": 100, "pid": 1},
            {"name": "campaign.prepare", "ts": 0, "dur": 40, "pid": 1},
            {"name": "campaign.joint_solve", "ts": 40, "dur": 50, "pid": 1},
            # Nested inside the joint solve: must not double-count.
            {"name": "campaign.commit", "ts": 50, "dur": 10, "pid": 1},
            # Another process: outside this run's window.
            {"name": "campaign.prepare", "ts": 0, "dur": 100, "pid": 2},
        ]
        attribution = campaign_attribution(records)
        assert attribution["campaign_runs"] == 1
        assert attribution["campaign_wall_s"] == pytest.approx(100e-6)
        assert attribution["attributed_wall_s"] == pytest.approx(90e-6)
        assert attribution["coverage_percent"] == pytest.approx(90.0)
        assert {"item.measure", "campaign.chunk"} <= CAMPAIGN_PHASES


class TestTracedCampaignParity:
    def test_records_bit_identical_with_tracing_on(self, tmp_path):
        def run_once():
            campaign = SimulationCampaign(
                n10(),
                doe=StudyDOE(array_sizes=(16,)),
                scenarios=scenario_grid(stored_values=(0, 1)),
            )
            return campaign.run(kinds=("nominal",))

        def keyed(results):
            return {r.key: replace(r, wall_s=0.0) for r in results.records}

        untraced = run_once()
        trace = tmp_path / "trace.jsonl"
        enable_tracing(trace)
        try:
            traced = run_once()
        finally:
            disable_tracing()

        assert not untraced.failures and not traced.failures
        assert keyed(traced) == keyed(untraced)

        records = read_trace(trace)
        assert any(r["name"] == "campaign.run" for r in records)
        attribution = campaign_attribution(records)
        assert attribution["coverage_percent"] >= 95.0


# -- pool-worker telemetry ---------------------------------------------------------------


class TestWorkerTelemetry:
    def test_take_then_absorb_round_trip(self, tmp_path, monkeypatch):
        """What a worker takes per chunk lands once in the parent's sinks."""
        key = ("repro_solver_rescue_total", (("kind", "dc"), ("stage", "gmin_step")))
        hist_key = ("repro_solver_iterations", (("kind", "dc"),))
        stack = "phase:campaign.chunk;mod.func"

        # Worker side: an in-memory tracer and profiler, two chunks.
        worker_profiler = obs_profile.SamplingProfiler(None)
        monkeypatch.setattr(obs_trace, "_active", Tracer(None))
        monkeypatch.setattr(obs_profile, "_active", worker_profiler)
        reset_solver_stats()
        taken = []
        for chunk in range(2):
            with span("campaign.chunk", chunk=chunk):
                pass
            worker_profiler.add({stack: 3})
            registry().inc(key[0], kind="dc", stage="gmin_step")
            registry().observe(
                hist_key[0], 3.0, buckets=ITERATION_BUCKETS, kind="dc"
            )
            solver_stats().factorizations += 5
            # The chunk result crosses a process boundary.
            taken.append(pickle.loads(pickle.dumps(_take_telemetry())))
        # Taking resets: nothing is handed over twice.
        assert _take_telemetry() == {
            "spans": [],
            "samples": {},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
            "solver": reset_solver_stats().as_dict(),
        }

        # Parent side: a file tracer, a file profiler, earlier counts.
        trace = tmp_path / "trace.jsonl"
        enable_tracing(trace)
        parent_profiler = obs_profile.SamplingProfiler(tmp_path / "p.folded")
        parent_profiler.add({stack: 1})
        monkeypatch.setattr(obs_profile, "_active", parent_profiler)
        registry().observe(hist_key[0], 1.0, buckets=ITERATION_BUCKETS, kind="dc")
        solver_stats().factorizations = 7
        try:
            for telemetry in taken:
                _absorb_telemetry(telemetry)
        finally:
            disable_tracing()

        chunks = [r for r in read_trace(trace) if r["name"] == "campaign.chunk"]
        assert [r["args"]["chunk"] for r in chunks] == [0, 1]
        parent_profiler.stop()
        assert obs_profile.read_folded(tmp_path / "p.folded") == {stack: 7}
        snap = registry().snapshot()
        assert snap["counters"][key] == 2
        hist = snap["histograms"][hist_key]
        assert (hist["count"], hist["sum"]) == (3, 7.0)
        # One observation at 1.0, two at 3.0: cumulative ``le`` buckets.
        assert hist["counts"][:4] == [1, 1, 3, 3]
        assert solver_stats().factorizations == 17
        reset_solver_stats()


#: Solver counters that count work, not schedule: a pool loses the
#: cross-chunk lane stacking, so ticks, lane slots and stamp sweeps
#: depend on the execution mode and are not compared.
_WORK_COUNTERS = (
    "factorizations",
    "refactorizations",
    "dense_solves",
    "sparse_solves",
    "stamp_device_evals",
    "batch_lane_iterations",
    "batch_lanes",
    "scalar_fallbacks",
)


def _work_numbers(snapshot):
    """The registry numbers a run's work determines, lane groups summed."""
    numbers = {
        f"repro_solver_{name}_total": snapshot["counters"].get(
            (f"repro_solver_{name}_total", ()), 0.0
        )
        for name in _WORK_COUNTERS
    }
    for (name, labels), value in snapshot["counters"].items():
        if name in (
            "repro_solver_converged_total",
            "repro_solver_rescue_total",
            "repro_items_total",
        ):
            key = (name, tuple(kv for kv in labels if kv[0] != "lane_group"))
            numbers[key] = numbers.get(key, 0.0) + value
    for (name, labels), hist in snapshot["histograms"].items():
        if name == "repro_solver_iterations":
            key = (name, tuple(kv for kv in labels if kv[0] != "lane_group"))
            count, total = numbers.get(key, (0, 0.0))
            numbers[key] = (count + hist["count"], total + hist["sum"])
    return numbers


class TestPoolTelemetryParity:
    def test_pool_run_reports_the_work_of_a_serial_run(self, tmp_path, monkeypatch):
        monkeypatch.setattr(
            SimulationCampaign, "available_cpus", staticmethod(lambda: 2)
        )
        campaigns = []
        run = SimulationCampaign.run

        def spy(self, *args, **kwargs):
            campaigns.append(self)
            return run(self, *args, **kwargs)

        monkeypatch.setattr(SimulationCampaign, "run", spy)
        spec = ExperimentSpec(
            kind="operations",
            array=ArraySpec(sizes=(16, 64)),
            operation=OperationSpec(
                operations=("read", "write", "hold_snm", "read_snm")
            ),
        )
        seen = {}
        for workers in (1, 2):
            reset_registry()
            trace = tmp_path / f"trace-{workers}.jsonl"
            enable_tracing(trace)
            try:
                api.run(spec, workers=workers)
            finally:
                disable_tracing()
            campaign = campaigns[-1]
            seen[workers] = (
                _work_numbers(registry().snapshot()),
                {name: campaign.last_run_stats.get(name) for name in _WORK_COUNTERS},
                read_trace(trace),
            )
        serial, pool = seen[1], seen[2]

        assert len(campaign._chunks(campaign.work_items())) > 1
        kinds = {
            dict(key[1])["kind"]
            for key in serial[0]
            if key[0] == "repro_solver_converged_total"
        }
        assert {"batch_dc_sweep", "batch_transient"} <= kinds
        assert serial[0]["repro_solver_factorizations_total"] > 0
        assert pool[0] == serial[0]
        assert pool[1] == serial[1]

        chunk_pids = {r["pid"] for r in pool[2] if r["name"] == "campaign.chunk"}
        assert chunk_pids and os.getpid() not in chunk_pids
        assert not list(tmp_path.glob("*.workers"))

        # One joint solve per worker share, each stacking its chunks' lanes.
        solves = [r for r in pool[2] if r["name"] == "campaign.joint_solve"]
        assert len(solves) == 2
        assert os.getpid() not in {r["pid"] for r in solves}
        assert sum(r["args"]["chunks"] for r in solves) == len(
            campaign._chunks(campaign.work_items())
        )


# -- the report CLI verb -----------------------------------------------------------------


class TestReportCli:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        spec_path = tmp_path / "campaign.json"
        assert main(["spec", "dump", "--output", str(spec_path)] + FAST) == 0
        trace = tmp_path / "trace.jsonl"
        out = tmp_path / "run.json"
        assert main(["run", str(spec_path), "--trace", str(trace),
                     "--format", "json", "--output", str(out)]) == 0
        assert active_tracer() is None  # run turned tracing back off
        return trace

    def test_report_summarises_a_trace(self, trace_file, capsys):
        assert main(["report", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "Trace summary" in out
        assert "campaign.run" in out
        assert "Campaign attribution:" in out

    def test_report_exports_chrome_trace(self, trace_file, tmp_path, capsys):
        chrome_path = tmp_path / "chrome.json"
        assert main(["report", str(trace_file), "--chrome-out", str(chrome_path)]) == 0
        chrome = json.loads(chrome_path.read_text())
        assert chrome["traceEvents"]

    def test_report_errors_are_typed(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "missing.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["report", str(empty)]) == 2
        assert main(["report", str(tmp_path)]) == 2  # dir without trace.jsonl


# -- the stats sidecar and the service surface -------------------------------------------


class TestStatsSidecar:
    def test_path_is_a_sibling_of_the_cache_dir(self, tmp_path):
        assert sidecar_path_for(tmp_path / "cache") == tmp_path / "cache.stats.json"

    def test_counters_accumulate_across_restarts(self, tmp_path):
        path = tmp_path / "cache.stats.json"
        first = StatsSidecar(path)
        cache_total = first.cumulative_cache({"hits": 2, "entries": 5})
        assert cache_total["hits"] == 2 and cache_total["entries"] == 5
        first.persist(cache_total, first.cumulative_queue({"submitted": 3}))

        second = StatsSidecar(path)  # the restarted process
        merged = second.cumulative_cache({"hits": 4, "entries": 1})
        assert merged["hits"] == 6
        assert merged["entries"] == 1  # levels describe now, not a lifetime
        assert second.cumulative_queue({"submitted": 1})["submitted"] == 4

    def test_corrupt_sidecar_loads_as_zeros(self, tmp_path):
        path = tmp_path / "cache.stats.json"
        path.write_text("{definitely not json")
        sidecar = StatsSidecar(path)
        assert sidecar.cumulative_cache({"hits": 1})["hits"] == 1


class TestServiceSurface:
    def test_metrics_endpoint_and_cumulative_health(self, tmp_path):
        from repro.service import ExperimentClient, ExperimentServer

        cache_dir = tmp_path / "cache"

        def get(url):
            with urllib.request.urlopen(url, timeout=30) as response:
                return response.headers.get("Content-Type"), response.read().decode()

        with ExperimentServer(cache_dir=cache_dir, workers=1) as server, \
                ExperimentClient(server.url, timeout_s=30.0) as client:
            spec = tmp_path / "spec.json"
            # A campaign spec: its compute exercises the circuit solver,
            # so the solver counters must surface in /v1/metrics too.
            assert main(["spec", "dump", "--output", str(spec)] + FAST) == 0
            ticket = client.submit(spec)
            client.wait(ticket["id"], timeout_s=120.0)
            client.submit(spec)  # cache hit

            health = client.health()
            assert health["queue"]["submitted"] == 2
            assert health["queue"]["cache_hits"] == 1
            assert "observability" in health
            assert health["observability"]["tracing"] is False

            content_type, text = get(server.url + "/v1/metrics")
            assert content_type.startswith("text/plain; version=0.0.4")
            assert "repro_queue_submitted_total 2" in text
            assert "repro_cache_stores_total 1" in text
            assert 'repro_http_requests_total{method="GET",status="200"}' in text
            # The compute ran in this process: solver counters landed too.
            assert "repro_solver_factorizations_total" in text

        # Restart against the same cache dir: the sidecar carries the
        # lifetime totals, so the counters keep growing instead of resetting.
        with ExperimentServer(cache_dir=cache_dir, workers=1) as server, \
                ExperimentClient(server.url, timeout_s=30.0) as client:
            ticket = client.submit(tmp_path / "spec.json")
            assert ticket["cached"]
            health = client.health()
            assert health["queue"]["submitted"] == 3
            assert health["cache"]["hits"] >= 2
            assert health["observability"]["stats_sidecar"].endswith("cache.stats.json")
