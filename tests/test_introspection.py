"""Tests of the performance-introspection layer: sampling profiler,
convergence telemetry, bench history regression gate, and the ``repro
top`` dashboard."""

import importlib.util
import io
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.convergence import (
    lane_group_label,
    record_convergence,
    record_lane_stats,
    record_step_rejections,
)
from repro.obs.dashboard import (
    DashboardError,
    parse_prometheus_text,
    render_frame,
    run_top,
)
from repro.obs.history import (
    BENCH_SCHEMA_VERSION,
    REGRESSION_EXIT_CODE,
    append_entry,
    check_metrics,
    format_findings,
    has_regressions,
    history_path,
    load_entries,
    validate_report,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    cumulate,
    histogram_quantile,
    registry,
    reset_registry,
)
from repro.obs.profile import (
    SamplingProfiler,
    disable_profiling,
    enable_profiling,
    merge_folded,
    phase_totals,
    read_folded,
    top_frames,
)
from repro.obs.trace import disable_tracing, span
from repro.reporting.tables import format_flame_summary

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def clean_observability():
    disable_profiling()
    disable_tracing()
    reset_registry()
    yield
    disable_profiling()
    disable_tracing()
    reset_registry()


# -- histogram quantiles (shared by repro top and repro report) --------------------------


class TestHistogramQuantile:
    def test_cumulate_produces_le_counts(self):
        buckets = (1.0, 2.0, 4.0)
        assert cumulate([0.5, 1.5, 3.0, 9.0], buckets) == [1, 2, 3]

    def test_interpolates_within_a_bucket(self):
        # 100 observations uniformly in (0, 1]: p50 should land near 0.5.
        buckets = (0.25, 0.5, 0.75, 1.0)
        counts = [25, 50, 75, 100]
        assert histogram_quantile(0.5, buckets, counts) == pytest.approx(0.5)
        assert histogram_quantile(0.25, buckets, counts) == pytest.approx(0.25)
        # Within-bucket linear interpolation.
        assert histogram_quantile(0.6, buckets, counts) == pytest.approx(0.6)

    def test_empty_histogram_is_none(self):
        assert histogram_quantile(0.5, (1.0, 2.0), [0, 0]) is None

    def test_overflow_quantile_clamps_to_largest_bound(self):
        # All mass beyond the last finite bucket: the estimate cannot
        # exceed what the histogram can represent.
        assert histogram_quantile(0.99, (1.0, 2.0), [0, 0], count=10) == 2.0

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            histogram_quantile(1.5, (1.0,), [1])


# -- bench history and the regression gate -----------------------------------------------


def _seed_history(history_dir, values, metric="wall_s", config=None):
    for value in values:
        append_entry(history_dir, "demo", {metric: value}, config=config)


class TestHistoryGate:
    def test_two_x_slowdown_is_a_regression(self, tmp_path):
        _seed_history(tmp_path, [1.0, 1.02, 0.98, 1.01])
        findings = check_metrics(
            load_entries(tmp_path, "demo"), {"wall_s": 2.0}, {"wall_s": "lower"}
        )
        assert has_regressions(findings)
        assert findings[0]["status"] == "regression"
        assert "REGRESSION" in format_findings(findings)

    def test_five_percent_wobble_passes(self, tmp_path):
        _seed_history(tmp_path, [1.0, 1.02, 0.98, 1.01])
        for wobble in (0.95, 1.05):
            findings = check_metrics(
                load_entries(tmp_path, "demo"),
                {"wall_s": wobble},
                {"wall_s": "lower"},
            )
            assert not has_regressions(findings), wobble

    def test_higher_direction_gates_throughput_drops(self, tmp_path):
        _seed_history(tmp_path, [100.0, 101.0, 99.0], metric="items_per_s")
        entries = load_entries(tmp_path, "demo")
        ok = check_metrics(entries, {"items_per_s": 97.0}, {"items_per_s": "higher"})
        assert not has_regressions(ok)
        bad = check_metrics(entries, {"items_per_s": 50.0}, {"items_per_s": "higher"})
        assert has_regressions(bad)

    def test_insufficient_history_never_fails(self, tmp_path):
        _seed_history(tmp_path, [1.0, 1.0])  # below min_samples=3
        findings = check_metrics(
            load_entries(tmp_path, "demo"), {"wall_s": 99.0}, {"wall_s": "lower"}
        )
        assert findings[0]["status"] == "insufficient-history"
        assert not has_regressions(findings)

    def test_noisy_history_widens_the_band(self, tmp_path):
        # MAD of this history is large; a value that a quiet ±10% band
        # would reject must pass here.
        _seed_history(tmp_path, [1.0, 1.5, 0.7, 1.4, 0.8, 1.6, 0.9])
        findings = check_metrics(
            load_entries(tmp_path, "demo"), {"wall_s": 1.3}, {"wall_s": "lower"}
        )
        assert findings[0]["tolerance"] > 0.10
        assert not has_regressions(findings)

    def test_config_isolation(self, tmp_path):
        # Full-DOE baselines must not judge a smoke run.
        _seed_history(tmp_path, [10.0, 10.0, 10.0], config={"sizes": [1024]})
        findings = check_metrics(
            load_entries(tmp_path, "demo"),
            {"wall_s": 0.5},
            {"wall_s": "lower"},
            config={"sizes": [16]},
        )
        assert findings[0]["status"] == "insufficient-history"

    def test_missing_metric_is_flagged_but_not_a_regression(self, tmp_path):
        _seed_history(tmp_path, [1.0, 1.0, 1.0])
        findings = check_metrics(
            load_entries(tmp_path, "demo"), {}, {"wall_s": "lower"}
        )
        assert findings[0]["status"] == "missing"
        assert not has_regressions(findings)

    def test_torn_history_lines_are_skipped(self, tmp_path):
        _seed_history(tmp_path, [1.0, 1.0, 1.0])
        path = history_path(tmp_path, "demo")
        with path.open("a") as handle:
            handle.write('{"suite": "demo", "metrics": {"wall_s"')  # torn tail
        entries = load_entries(tmp_path, "demo")
        assert len(entries) == 3

    def test_validate_report_provenance(self):
        good = {
            "bench_schema_version": BENCH_SCHEMA_VERSION,
            "timestamp_utc": "2026-08-08T12:00:00Z",
        }
        assert validate_report(good) == []
        assert validate_report({}) != []
        assert validate_report({**good, "bench_schema_version": 99}) != []
        assert validate_report({**good, "timestamp_utc": "yesterday"}) != []

    @pytest.mark.parametrize(
        "path", sorted(REPO_ROOT.glob("BENCH_*.json")), ids=lambda path: path.name
    )
    def test_committed_reports_carry_provenance(self, path):
        report = json.loads(path.read_text())
        assert validate_report(report) == []
        assert report["environment"]["cpus_available"] >= 1


def _load_bench_harness():
    spec = importlib.util.spec_from_file_location(
        "bench_harness", REPO_ROOT / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchHarnessGate:
    """Exit-code contract of ``run_benchmarks.py --record/--check``."""

    @pytest.fixture()
    def harness(self, tmp_path, monkeypatch):
        bench = _load_bench_harness()

        def fake_obs_bench(sizes, repetitions=5, trace_path=None, profile_path=None):
            wall = fake_obs_bench.wall_s
            return {
                "sizes": list(sizes),
                "repetitions": repetitions,
                "untraced": {"best_wall_s": wall},
                "traced": {"best_wall_s": wall},
                "profiled": {"best_wall_s": wall},
                "overhead_percent": 0.5,
                "profiler_overhead_percent": 1.0,
                "parity": {"bit_identical": True, "mismatches": 0},
                "attribution": {"coverage_percent": 99.0},
            }

        fake_obs_bench.wall_s = 1.0
        monkeypatch.setattr(bench, "run_obs_bench", fake_obs_bench)
        monkeypatch.setattr(
            bench, "bench_environment", lambda workers=None: {"fake": True}
        )

        def run(*extra):
            argv = [
                "run_benchmarks.py",
                "--suite", "obs",
                "--obs-sizes", "16",
                "--obs-reps", "1",
                "--obs-output", str(tmp_path / "BENCH.json"),
                "--history-dir", str(tmp_path / "history"),
                *extra,
            ]
            monkeypatch.setattr(sys, "argv", argv)
            return bench.main()

        run.fake = fake_obs_bench
        return run

    def test_record_then_check_passes_unchanged(self, harness, capsys):
        for _ in range(3):
            assert harness("--record") == 0
        assert harness("--check") == 0
        assert "OK" in capsys.readouterr().out

    def test_injected_2x_slowdown_exits_4(self, harness, capsys):
        for _ in range(3):
            assert harness("--record") == 0
        harness.fake.wall_s = 2.0
        assert harness("--check") == REGRESSION_EXIT_CODE
        out = capsys.readouterr().out
        assert "PERF REGRESSION" in out

    def test_check_before_record_in_one_invocation(self, harness, capsys):
        for _ in range(3):
            assert harness("--record") == 0
        harness.fake.wall_s = 2.0
        # --record --check together: still gated (fresh measurement must
        # not join its own baseline), and the bad run is still recorded.
        assert harness("--record", "--check") == REGRESSION_EXIT_CODE


class TestPerfSuiteGate:
    """``run_benchmarks.py --suite perf``: perfbench's absolute walls,
    gated per CPU count, with the perfbench subprocess faked."""

    @pytest.fixture()
    def harness(self, tmp_path, monkeypatch):
        bench = _load_bench_harness()
        perfbench = {
            "run_s": 2.0, "cpus": 2, "correct": True, "returncode": 0, "scalar_s": 20.0,
        }

        def fake_run(command, **kwargs):
            workload = command[command.index("--workload") + 1]
            run_s = perfbench["run_s"]
            result = {
                "correct": perfbench["correct"],
                "attempted": 2,
                "failed": 0,
                "metrics": {
                    "run_s": {"value": run_s, "unit": "s"},
                    "throughput_per_s": {"value": 64 / run_s, "unit": "1/s"},
                },
            }
            provenance = {"workload": workload, "cpus_available": perfbench["cpus"]}
            stdout = (
                f"{'run_s':40s} {run_s:16.6g} s      n=2\n"
                f"provenance {json.dumps(provenance)}\n{json.dumps(result)}\n"
            )
            return subprocess.CompletedProcess(
                command, perfbench["returncode"], stdout, "perfbench: output mismatch"
            )

        monkeypatch.setattr(bench.subprocess, "run", fake_run)
        monkeypatch.setattr(bench, "time_scalar_ops", lambda: perfbench["scalar_s"])
        history = tmp_path / "history"

        def run(*extra):
            argv = [
                "run_benchmarks.py",
                "--suite", "perf",
                "--perf-output", str(tmp_path / "BENCH_perf.json"),
                "--history-dir", str(history),
                *extra,
            ]
            monkeypatch.setattr(sys, "argv", argv)
            return bench.main()

        run.perfbench = perfbench
        run.history = history
        run.workloads = bench.PERF_WORKLOADS
        return run

    def test_records_per_workload_keyed_on_cpus(self, harness, tmp_path):
        assert harness("--record") == 0
        for workload in harness.workloads:
            (entry,) = load_entries(harness.history, workload)
            assert entry["config"]["cpus_available"] == 2
            assert entry["metrics"] == {"run_s": 2.0, "throughput_per_s": 32.0}
        report = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert validate_report(report) == []
        assert report["solver_speedup"] == 10.0

    def test_slower_run_s_exits_4(self, harness, capsys):
        for _ in range(3):
            assert harness("--record") == 0
        assert harness("--check") == 0
        harness.perfbench["run_s"] = 3.6  # 1.8x
        assert harness("--check") == REGRESSION_EXIT_CODE
        out = capsys.readouterr().out
        assert "REGRESSION             run_s" in out
        assert "PERF REGRESSION" in out

    def test_other_cpu_count_is_not_comparable(self, harness, capsys):
        for _ in range(3):
            assert harness("--record") == 0
        harness.perfbench.update(cpus=1, run_s=3.6)
        assert harness("--check") == 0
        assert "INSUFFICIENT-HISTORY" in capsys.readouterr().out

    @pytest.mark.parametrize("failure", [{"returncode": 1}, {"correct": False}])
    def test_failed_perfbench_run_exits_1(self, harness, failure):
        harness.perfbench.update(failure)
        assert harness("--record", "--check") == 1
        assert not harness.history.exists()

    def test_solver_tier_below_5x_exits_1(self, harness, capsys):
        harness.perfbench["scalar_s"] = 8.0  # 4x the batched run_s
        assert harness() == 1
        assert "below the 5x acceptance floor" in capsys.readouterr().out


def test_committed_perf_history_arms_the_gate():
    """The committed perfbench history holds at least three comparable
    entries per workload at some CPU count, so ``--check`` gates there."""
    bench = _load_bench_harness()
    for workload in bench.PERF_WORKLOADS:
        entries = load_entries(REPO_ROOT / "benchmarks" / "history", workload)
        per_cpus = {}
        for entry in entries:
            cpus = entry["config"]["cpus_available"]
            per_cpus[cpus] = per_cpus.get(cpus, 0) + 1
        assert max(per_cpus.values(), default=0) >= 3, (workload, per_cpus)


# -- sampling profiler -------------------------------------------------------------------


def _spin(stop_event):
    while not stop_event.is_set():
        sum(i * i for i in range(500))


class TestSamplingProfiler:
    def test_hot_function_dominates_folded_output(self, tmp_path):
        out = tmp_path / "profile.folded"
        stop = threading.Event()
        worker = threading.Thread(target=_spin, args=(stop,), daemon=True)
        worker.start()
        try:
            profiler = enable_profiling(out, hz=401.0)
            time.sleep(0.4)
        finally:
            stop.set()
            disable_profiling()
            worker.join(timeout=5.0)
        samples = read_folded(out)
        assert sum(samples.values()) >= 10
        hot = dict(top_frames(samples, n=50))
        assert any("_spin" in frame or "genexpr" in frame for frame in hot)

    def test_samples_carry_the_active_span_phase(self, tmp_path):
        out = tmp_path / "profile.folded"
        stop = threading.Event()

        def spin_in_span():
            with span("solver.hot_loop"):
                _spin(stop)

        worker = threading.Thread(target=spin_in_span, daemon=True)
        try:
            profiler = enable_profiling(out, hz=401.0)
            worker.start()
            time.sleep(0.4)
        finally:
            stop.set()
            disable_profiling()
            worker.join(timeout=5.0)
        phases = phase_totals(read_folded(out))
        assert phases.get("solver.hot_loop", 0) > 0

    def test_worker_aggregates_merge_once(self, tmp_path):
        out = tmp_path / "profile.folded"
        workers = [SamplingProfiler(None), SamplingProfiler(None)]
        workers[0].add({"phase:item.solve;mod.func": 7})
        workers[1].add({"phase:item.solve;mod.func": 3})
        profiler = SamplingProfiler(out)
        profiler.samples["phase:item.solve;mod.func"] = 5
        for worker in workers:
            profiler.add(worker.take())
        for worker in workers:  # taking resets: a second hand-over is empty
            profiler.add(worker.take())
        profiler.stop()
        samples = read_folded(out)
        assert samples["phase:item.solve;mod.func"] == 15
        assert all(worker.path is None for worker in workers)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.folded"]

    def test_merge_folded_sums_aggregates(self):
        merged = merge_folded([{"a;b": 2}, {"a;b": 3, "c;d": 1}])
        assert merged == {"a;b": 5, "c;d": 1}

    def test_read_folded_skips_garbage(self, tmp_path):
        path = tmp_path / "x.folded"
        path.write_text("a;b 3\n\nbroken-line\nc;d notanumber\na;b 2\n")
        assert read_folded(path) == {"a;b": 5}

    def test_flame_summary_and_cli_report(self, tmp_path, capsys):
        path = tmp_path / "profile.folded"
        path.write_text(
            "phase:solver.dc;campaign.run;dc.newton 80\n"
            "phase:item.prepare;campaign.run;lpe.extract 20\n"
        )
        assert main(["report", str(path), "--flame"]) == 0
        out = capsys.readouterr().out
        assert "solver.dc" in out and "80.0%" in out
        assert "dc.newton" in out

    def test_flame_report_errors_are_typed(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "nope.folded"), "--flame"]) == 2
        empty = tmp_path / "empty.folded"
        empty.write_text("")
        assert main(["report", str(empty), "--flame"]) == 2
        with pytest.raises(Exception):
            format_flame_summary({})


# -- solver convergence telemetry --------------------------------------------------------


class TestConvergenceTelemetry:
    def test_iteration_histogram_and_outcome_counters(self):
        record_convergence("dc", 5, True)
        record_convergence("dc", 700, False)
        record_convergence("transient", 12, True, lane_group="1-8")
        snap = registry().snapshot()
        key = ("repro_solver_iterations", (("kind", "dc"),))
        hist = snap["histograms"][key]
        assert hist["count"] == 2
        assert snap["counters"][("repro_solver_converged_total", (("kind", "dc"),))] == 1
        assert (
            snap["counters"][("repro_solver_nonconverged_total", (("kind", "dc"),))] == 1
        )

    def test_step_rejections_zero_is_free(self):
        record_step_rejections("transient", 0)
        assert not registry().snapshot()["counters"]
        record_step_rejections("transient", 3)
        counters = registry().snapshot()["counters"]
        assert (
            counters[("repro_solver_step_rejections_total", (("kind", "transient"),))]
            == 3
        )

    def test_lane_stats_gauges(self):
        record_lane_stats(
            {
                "batch_lane_iterations": 50,
                "batch_lane_slots": 100,
                "batch_lanes": 9,
                "scalar_fallbacks": 1,
            }
        )
        gauges = registry().snapshot()["gauges"]
        assert gauges[("repro_solver_lane_occupancy", ())] == pytest.approx(0.5)
        assert gauges[("repro_solver_scalar_fallback_rate", ())] == pytest.approx(0.1)

    def test_lane_group_labels_are_bounded(self):
        assert lane_group_label(4) == "1-8"
        assert lane_group_label(64) == "33-128"
        assert lane_group_label(1000) == "129+"

    def test_scalar_transient_run_records_convergence(self):
        # End to end: a real transient solve must land in the histogram.
        from repro.circuit.elements import Capacitor, Resistor, VoltageSource
        from repro.circuit.netlist import Circuit
        from repro.circuit.transient import TransientOptions, TransientSolver

        circuit = Circuit("rc")
        circuit.add(VoltageSource.dc("vin", "in", "0", 1.0))
        circuit.add(Resistor("r1", "in", "out", 1e4))
        circuit.add(Capacitor("c1", "out", "0", 1e-15))
        options = TransientOptions(t_stop_s=1e-10, record_nodes=["out"])
        TransientSolver(circuit, options).run()
        snap = registry().snapshot()
        assert any(
            name == "repro_solver_iterations" and dict(labels)["kind"] == "transient"
            for (name, labels) in snap["histograms"]
        )

    def test_batched_transients_record_step_rejections(self):
        # A one-iteration Newton budget forces rejected (dt-halved) steps;
        # both drivers must count them, each under its convergence kind.
        from dataclasses import replace

        from repro.circuit.batch import batch_run_transients, run_lane_scalar
        from repro.circuit.dc import NewtonOptions
        from repro.circuit.transient import TransientSolver
        from repro.core.operations import OperationSimulators
        from repro.technology import n10

        def starved_read_lane():
            (lane,) = OperationSimulators(n10()).read.prepare_nominal(16).lanes
            options = replace(
                lane.solver.options, newton=NewtonOptions(max_iterations=1)
            )
            return replace(
                lane, solver=TransientSolver(lane.solver.circuit, options=options)
            )

        scalar = run_lane_scalar(starved_read_lane())
        (batched,) = batch_run_transients([starved_read_lane()])
        assert list(batched.times_s) == list(scalar.times_s)
        counters = registry().snapshot()["counters"]
        rejected = {
            kind: counters.get(
                ("repro_solver_step_rejections_total", (("kind", kind),)), 0
            )
            for kind in ("transient", "batch_transient")
        }
        assert rejected["transient"] > 0
        assert rejected["batch_transient"] == rejected["transient"]


# -- dashboard ---------------------------------------------------------------------------


CANNED_METRICS = """\
# HELP repro_queue_in_flight Experiments currently executing or queued.
# TYPE repro_queue_in_flight gauge
repro_queue_in_flight 3
repro_solver_sparse_solves_total 1000
repro_items_total{operation="read"} 40
repro_items_total{operation="write"} 2
repro_item_failures_total{classification="timeout"} 5
repro_item_failures_total{classification="solver_error"} 2
repro_item_wall_seconds_bucket{le="0.1",operation="read"} 10
repro_item_wall_seconds_bucket{le="1.0",operation="read"} 40
repro_item_wall_seconds_bucket{le="+Inf",operation="read"} 42
repro_item_wall_seconds_count{operation="read"} 42
repro_item_wall_seconds_sum{operation="read"} 12.5
garbage line that must be skipped
"""

CANNED_HEALTH = {
    "status": "ok",
    "version": "1.3.0",
    "uptime_s": 60.0,
    "cache": {"hits": 30, "misses": 10, "entries": 12},
    "queue": {"submitted": 42, "completed": 38, "failed": 1, "cancelled": 0},
}


class TestDashboard:
    def test_prometheus_parser_reassembles_histograms(self):
        parsed = parse_prometheus_text(CANNED_METRICS)
        key = ("repro_item_wall_seconds", (("operation", "read"),))
        hist = parsed["histograms"][key]
        assert hist["buckets"] == [0.1, 1.0]
        assert hist["counts"] == [10, 40]
        assert hist["count"] == 42
        assert hist["sum"] == pytest.approx(12.5)
        samples = parsed["samples"]
        assert samples[("repro_queue_in_flight", ())] == 3
        assert samples[("repro_items_total", (("operation", "read"),))] == 40

    def test_render_frame_lifetime_totals(self):
        frame = render_frame(parse_prometheus_text(CANNED_METRICS), CANNED_HEALTH)
        assert "depth    3" in frame
        assert "hit rate  75.0%" in frame
        assert "timeout 5" in frame
        assert "p50" in frame and "p99" in frame
        assert "version 1.3.0" in frame

    def test_render_frame_rates_from_counter_deltas(self):
        parsed = parse_prometheus_text(CANNED_METRICS)
        prev = dict(parsed["samples"])
        prev[("repro_solver_sparse_solves_total", ())] = 900.0
        frame = render_frame(parsed, CANNED_HEALTH, prev_samples=prev, dt_s=2.0)
        assert "sparse solves     50.0/s" in frame

    def test_render_frame_empty_server(self):
        frame = render_frame(
            parse_prometheus_text(""), {"status": "ok", "version": "x"}
        )
        assert "no items observed yet" in frame
        assert "failures none" in frame
        assert "cache    disabled" in frame

    def test_run_top_raises_when_server_is_down(self):
        with pytest.raises(DashboardError):
            run_top("http://127.0.0.1:1", once=True, stream=io.StringIO())

    def test_run_top_renders_frames(self, monkeypatch):
        import repro.obs.dashboard as dashboard

        monkeypatch.setattr(
            dashboard, "fetch_metrics", lambda url, timeout_s=5.0:
            parse_prometheus_text(CANNED_METRICS),
        )
        monkeypatch.setattr(
            dashboard, "fetch_health", lambda url, timeout_s=5.0: CANNED_HEALTH
        )
        out = io.StringIO()
        frames = run_top(
            "http://example", interval_s=0.0, count=2, stream=out, clear=False
        )
        assert frames == 2
        assert out.getvalue().count("repro top — server ok") == 2
