#!/usr/bin/env python
"""Bench harness: the perfbench timing gate plus the non-timing bench gates.

One timer measures the operations DOE: ``perfbench/run.py``, the
``BENCHMARK.json`` contract, which checks every output against the
scalar-oracle reference.  ``--suite perf`` runs its ``ops_serial`` and
``ops_pool`` workloads untraced in fresh interpreters and fails on a
non-zero exit or on ``"correct": false``.  It then times one
scalar-tier ``api.run`` of the same DOE and holds the batched tier to
at least 5x of it, and writes ``BENCH_perf.json``.  With
``--record``/``--check`` it gates each workload's absolute ``run_s``
(lower is better) and ``throughput_per_s`` (higher is better) against
``benchmarks/history/<workload>.jsonl``; only entries taken at the same
``cpus_available`` compare.

The other suites gate correctness and speed ratios, not absolute walls:

``--suite mc`` times every Monte-Carlo study point of the paper DOE
through both the batched (vectorised) pipeline and the scalar per-sample
oracle, checks that the two agree element-wise, and writes
``BENCH_mc.json`` (batched floor: 10x at 1000 samples).

``--suite service`` starts the HTTP experiment server on an ephemeral
port and times ``ExperimentClient.run`` of the smoke spec — one
``POST ?wait=`` exchange on a kept-alive connection, the round trip
users get: cold (computed), warm (served from the content-addressed
result cache) and N concurrent clients hammering the cached entry,
writing ``BENCH_service.json`` (warm-cache speedup floor: 10x).

``--suite faults`` is the chaos bench: it runs a small campaign under
injected solver faults (``repro.testing.faults``) and measures the cost
of fault tolerance — the retry policy must reproduce the fault-free
records bit-for-bit under transient faults, the skip policy must fail
exactly the items the fault plan predicts, and the durable job journal
must replay at a usable rate — writing ``BENCH_faults.json``.

``--suite obs`` is the observability bench: it interleaves traced and
untraced serial runs of the operation campaign and gates on tracing
being free in every sense that matters — records bit-identical with
tracing on, wall-time overhead within 2%, and the named spans
attributing at least 95% of the campaign wall — writing
``BENCH_obs.json``.

``--suite yield_hs`` is the high-sigma yield bench: it runs the
importance-sampling engine over every patterning corner and gates on
the three properties that make a 6-sigma estimate *defensible* — the
6-sigma confidence intervals are finite and two-sided, the 3-sigma
estimates agree with a brute-force Monte-Carlo cross-check within
combined confidence intervals, the effective sample size stays above
an eighth of the proposal count, and the whole sweep fits in the
simulator-call budget (1e5) — writing ``BENCH_yield.json``.

Usage::

    PYTHONPATH=src python benchmarks/run_benchmarks.py              # every suite, full size
    PYTHONPATH=src python benchmarks/run_benchmarks.py --samples 50 --suite mc
    PYTHONPATH=src python benchmarks/run_benchmarks.py --suite perf --record --check

The MC JSON schema (see README.md, "performance notes"):

* ``points`` — one entry per study point with ``batch``/``scalar``
  sub-objects (``wall_s``, ``samples_per_s``), the batch/scalar
  ``speedup``, the σ(tdp) of both paths and the max |Δ| between the two
  sample sets (the parity check);
* ``summary`` — total wall time of each path, the geometric-mean and
  minimum per-point speedup, and the samples/sec of the batched path.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs import history as bench_history  # noqa: E402
from repro.core.campaign import SimulationCampaign, scenario_grid  # noqa: E402
from repro.core.montecarlo import MonteCarloTdpStudy  # noqa: E402
from repro.technology.node import n10  # noqa: E402
from repro.variability.doe import StudyDOE, paper_doe  # noqa: E402


def time_record(study: MonteCarloTdpStudy, point) -> tuple[float, object]:
    start = time.perf_counter()
    record = study.tdp_record(point)
    return time.perf_counter() - start, record


def run_benches(n_samples: int, n_wordlines: int, skip_scalar: bool) -> dict:
    node = n10()
    doe = paper_doe()
    batch_study = MonteCarloTdpStudy(node, doe=doe, n_samples=n_samples, batch=True)
    scalar_study = MonteCarloTdpStudy(
        node, doe=doe, model=batch_study.model, n_samples=n_samples, batch=False
    )
    points = doe.monte_carlo_points(n_wordlines=n_wordlines)

    entries = []
    total_batch = 0.0
    total_scalar = 0.0
    speedups = []
    for point in points:
        # Warm the layout cache so neither path pays generation cost.
        batch_study._layout_for(point.n_wordlines)
        scalar_study._layout_cache = batch_study._layout_cache
        batch_wall, batch_record = time_record(batch_study, point)
        entry = {
            "label": point.label,
            "option": point.option_name,
            "overlay_three_sigma_nm": point.overlay_three_sigma_nm,
            "n_wordlines": point.n_wordlines,
            "n_samples": n_samples,
            "batch": {
                "wall_s": round(batch_wall, 6),
                "samples_per_s": round(n_samples / batch_wall, 1),
            },
            "sigma_percent": round(batch_record.summary.std, 6),
        }
        total_batch += batch_wall
        if not skip_scalar:
            scalar_wall, scalar_record = time_record(scalar_study, point)
            diff = np.max(
                np.abs(
                    np.asarray(batch_record.tdp_percent_samples)
                    - np.asarray(scalar_record.tdp_percent_samples)
                )
            )
            speedup = scalar_wall / batch_wall
            entry["scalar"] = {
                "wall_s": round(scalar_wall, 6),
                "samples_per_s": round(n_samples / scalar_wall, 1),
            }
            entry["speedup"] = round(speedup, 2)
            entry["parity"] = {
                "max_abs_diff_percent": float(diff),
                "sigma_percent_scalar": round(scalar_record.summary.std, 6),
                "histograms_identical": batch_record.histogram.counts
                == scalar_record.histogram.counts,
            }
            total_scalar += scalar_wall
            speedups.append(speedup)
        entries.append(entry)
        line = f"{point.label:28s} batch {batch_wall*1e3:8.2f} ms"
        if not skip_scalar:
            line += f"  scalar {entry['scalar']['wall_s']*1e3:9.2f} ms  {entry['speedup']:7.1f}x"
        print(line)

    summary = {
        "n_points": len(points),
        "n_samples": n_samples,
        "batch_total_wall_s": round(total_batch, 6),
        "batch_samples_per_s": round(len(points) * n_samples / total_batch, 1),
    }
    if speedups:
        summary["scalar_total_wall_s"] = round(total_scalar, 6)
        summary["speedup_geomean"] = round(
            math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 2
        )
        summary["speedup_min"] = round(min(speedups), 2)
    return {"points": entries, "summary": summary}


#: The perfbench workloads that time the operations DOE; each has its
#: own history file, ``benchmarks/history/<workload>.jsonl``.
PERF_WORKLOADS = ("ops_serial", "ops_pool")

#: Seed and measuring window of every perf-suite run.  They are fixed so
#: that every history entry taken at one CPU count compares with every
#: other; four seconds give each workload a median over two or three
#: requests (about 2 s each on 2 CPUs).
PERF_SEED = 7
PERF_SECONDS = 4.0

#: The perf suite's gated metrics, per workload.
PERF_GATES = {"run_s": "lower", "throughput_per_s": "higher"}

#: Floor of the batched solver tier (``ops_serial`` ``run_s``) over one
#: scalar-tier ``api.run`` of the same DOE.
SOLVER_SPEEDUP_FLOOR = 5.0


class PerfbenchError(RuntimeError):
    """A perfbench run failed or reported ``"correct": false``."""


def run_perfbench(workload: str) -> tuple[dict, dict]:
    """One untraced perfbench run in a fresh interpreter.

    Returns the JSON result line and the provenance line.
    """
    command = [
        sys.executable, str(ROOT / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(PERF_SEED),
        "--seconds", str(PERF_SECONDS), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise PerfbenchError(
            f"perfbench {workload} exited {done.returncode}:\n{done.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    if result.get("correct") is not True:
        raise PerfbenchError(f"perfbench {workload} reported correct={result.get('correct')}")
    prefix = "provenance "
    provenance = next(
        json.loads(line[len(prefix):]) for line in lines if line.startswith(prefix)
    )
    return result, provenance


def time_scalar_ops() -> float:
    """Wall of one ``api.run`` of the perfbench operations DOE on the
    scalar solver tier, in this process."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import ops_spec
    from repro import api

    start = time.perf_counter()
    api.run(ops_spec(PERF_SEED, solver="scalar"))
    return time.perf_counter() - start


def run_perf_bench() -> dict:
    """Time the operations DOE through perfbench; raises PerfbenchError."""
    workloads = {}
    for name in PERF_WORKLOADS:
        result, provenance = run_perfbench(name)
        metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
        workloads[name] = {**metrics, "provenance": provenance}
        print(f"perf {name:<22} {metrics['run_s']*1e3:9.2f} ms"
              f"  ({metrics['throughput_per_s']:.1f} items/s, "
              f"cpus_available {provenance['cpus_available']})")
    scalar_wall = time_scalar_ops()
    print(f"perf scalar solver tier     {scalar_wall*1e3:9.2f} ms  (one api.run)")
    return {
        "seed": PERF_SEED,
        "seconds": PERF_SECONDS,
        "workloads": workloads,
        "scalar_solver": {"wall_s": round(scalar_wall, 6)},
        "solver_speedup": round(scalar_wall / workloads["ops_serial"]["run_s"], 2),
    }


def run_service_bench(
    n_clients: int,
    requests_per_client: int,
    warm_repeats: int = 20,
) -> dict:
    """Cold vs warm-cache latency and concurrent submission throughput.

    Starts a real :class:`~repro.service.server.ExperimentServer` on an
    ephemeral port with a fresh cache, then measures — all through
    :meth:`ExperimentClient.run` (one ``POST ?wait=`` exchange returning
    the JSON result, deserialised):

    * ``cold``  — the first submission of ``examples/specs/smoke.json``
      (computes the campaign);
    * ``warm``  — ``warm_repeats`` resubmissions of the identical spec
      (served from the content-addressed cache without recomputation);
    * ``throughput`` — ``n_clients`` threads each running the cached
      spec ``requests_per_client`` times, as submissions per second.
    """
    import statistics
    import tempfile
    import threading

    from repro.service import ExperimentClient, ExperimentServer

    spec_path = ROOT / "examples" / "specs" / "smoke.json"

    def round_trip(client: ExperimentClient) -> float:
        start = time.perf_counter()
        client.run(spec_path, timeout_s=600.0, poll_s=0.02)
        return time.perf_counter() - start

    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as cache_dir:
        with ExperimentServer(cache_dir=cache_dir, workers=2) as server, \
                ExperimentClient(server.url) as client:
            cold_wall = round_trip(client)
            assert client.health()["queue"]["cache_hits"] == 0, "first submission must compute"
            print(f"service cold submit         {cold_wall*1e3:9.2f} ms")

            warm_walls = [round_trip(client) for _ in range(warm_repeats)]
            assert client.health()["queue"]["cache_hits"] == warm_repeats, (
                "every resubmission must hit the cache"
            )
            warm_median = statistics.median(warm_walls)
            print(
                f"service warm submit         {warm_median*1e3:9.2f} ms"
                f"  (median of {warm_repeats}, min {min(warm_walls)*1e3:.2f} ms)"
            )

            errors = []

            def hammer() -> None:
                worker = ExperimentClient(server.url)
                try:
                    for _ in range(requests_per_client):
                        worker.run(spec_path)
                except Exception as exc:  # pragma: no cover - bench diagnostics
                    errors.append(f"{type(exc).__name__}: {exc}")
                finally:
                    worker.close()

            threads = [threading.Thread(target=hammer) for _ in range(n_clients)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            hammer_wall = time.perf_counter() - start
            if errors:
                raise RuntimeError(f"concurrent clients failed: {errors[:3]}")
            n_submissions = n_clients * requests_per_client
            throughput = n_submissions / hammer_wall
            print(
                f"service throughput          {throughput:9.1f} submissions/s"
                f"  ({n_clients} clients x {requests_per_client} requests)"
            )

            health = client.health()

    speedup = cold_wall / warm_median
    return {
        "spec": str(spec_path.relative_to(spec_path.parent.parent.parent)),
        "cold": {"wall_s": round(cold_wall, 6)},
        "warm": {
            "repeats": warm_repeats,
            "median_wall_s": round(warm_median, 6),
            "min_wall_s": round(min(warm_walls), 6),
            "max_wall_s": round(max(warm_walls), 6),
        },
        "speedup_warm_vs_cold": round(speedup, 2),
        "throughput": {
            "clients": n_clients,
            "requests_per_client": requests_per_client,
            "wall_s": round(hammer_wall, 6),
            "submissions_per_s": round(throughput, 1),
        },
        "server": {
            "cache": health["cache"],
            "queue": health["queue"],
        },
    }


def run_faults_bench(journal_entries: int = 500) -> dict:
    """Chaos bench: campaign fault tolerance and journal replay rate.

    Three measurements, each with a hard correctness gate:

    * ``retry`` — a nominal campaign under a 50% transient solver-fault
      rate with ``failure_policy="retry"``; every record must match the
      fault-free run bit-for-bit (``wall_s`` aside), and the reported
      overhead is the wall-time ratio chaos / fault-free;
    * ``skip``  — the same campaign under a persistent fault with
      ``failure_policy="skip"``; the failed set must equal exactly the
      items :meth:`FaultPlan.hits_solver` predicts;
    * ``journal`` — replay + compaction rate of a WAL holding
      ``journal_entries`` submissions (half of them settled).
    """
    import tempfile
    from dataclasses import replace

    from repro.core.campaign import SimulationCampaign, scenario_grid
    from repro.core.spec import ArraySpec, ExecutionSpec, ExperimentSpec
    from repro.service.journal import JobJournal
    from repro.technology import n10
    from repro.testing import FaultPlan
    from repro.testing.faults import injected
    from repro.variability.doe import StudyDOE

    def campaign(**overrides) -> SimulationCampaign:
        options = dict(
            doe=StudyDOE(array_sizes=(16,)),
            scenarios=scenario_grid(stored_values=(0, 1)),
        )
        options.update(overrides)
        return SimulationCampaign(n10(), **options)

    def keyed(results) -> dict:
        return {r.key: replace(r, wall_s=0.0) for r in results.records}

    start = time.perf_counter()
    baseline = campaign().run(kinds=("nominal",))
    clean_wall = time.perf_counter() - start
    assert not baseline.failures, "fault-free campaign must not fail"
    reference = keyed(baseline)
    print(f"faults fault-free wall      {clean_wall*1e3:9.2f} ms"
          f"  ({len(reference)} items)")

    # Transient faults (each item faults once, then runs clean): retry
    # must recover every item bit-identically.
    transient = FaultPlan(seed=11, solver_fail_rate=0.5, solver_fail_attempts=1)
    retrying = campaign(
        failure_policy="retry", max_retries=3, retry_backoff_s=0.001
    )
    with injected(transient):
        start = time.perf_counter()
        chaos = retrying.run(kinds=("nominal",))
        chaos_wall = time.perf_counter() - start
    retry_mismatches = sum(
        1 for key, record in keyed(chaos).items() if reference.get(key) != record
    )
    retry_ok = not chaos.failures and retry_mismatches == 0
    overhead = chaos_wall / clean_wall if clean_wall > 0 else float("inf")
    print(f"faults retry chaos wall     {chaos_wall*1e3:9.2f} ms"
          f"  (overhead {overhead:.2f}x, mismatches {retry_mismatches})")

    # Persistent faults: skip must fail exactly the predicted set.
    persistent = FaultPlan(seed=11, solver_fail_rate=0.5, solver_fail_attempts=99)
    skipping = campaign(failure_policy="skip")
    predicted = {
        item.key
        for item in skipping.work_items(kinds=("nominal",))
        if persistent.hits_solver(item.key)
    }
    with injected(persistent):
        partial = skipping.run(kinds=("nominal",))
    failed = {failure.key for failure in partial.failures}
    skip_ok = failed == predicted and all(
        reference[r.key] == replace(r, wall_s=0.0) for r in partial.records
    )
    print(f"faults skip policy          {len(failed):9d} failed"
          f"  (predicted {len(predicted)}, survivors intact: {skip_ok})")

    # Journal replay throughput over a WAL with a settled half.
    with tempfile.TemporaryDirectory(prefix="repro-bench-journal-") as tmp:
        journal = JobJournal(Path(tmp) / "journal.jsonl")
        spec = ExperimentSpec(kind="campaign", array=ArraySpec(sizes=(16,)))
        start = time.perf_counter()
        tokens = []
        for i in range(journal_entries):
            variant = replace(spec, execution=ExecutionSpec(seed=i))
            tokens.append(journal.record_submitted(variant.fingerprint(), variant))
        append_wall = time.perf_counter() - start
        for token in tokens[::2]:
            journal.record_terminal(token, "done")
        start = time.perf_counter()
        outstanding = journal.replay()
        replay_wall = time.perf_counter() - start
        compacted = journal.compact()
    journal_ok = len(outstanding) == journal_entries - len(tokens[::2])
    replay_rate = journal_entries / replay_wall if replay_wall > 0 else float("inf")
    print(f"faults journal replay       {replay_rate:9.0f} entries/s"
          f"  ({journal_entries} appended, {len(outstanding)} outstanding, "
          f"{compacted} compacted)")

    return {
        "campaign": {"items": len(reference), "fault_free_wall_s": round(clean_wall, 6)},
        "retry": {
            "fault_rate": transient.solver_fail_rate,
            "wall_s": round(chaos_wall, 6),
            "overhead_x": round(overhead, 2),
            "mismatches": retry_mismatches,
            "failures": len(chaos.failures),
            "bit_identical": retry_ok,
        },
        "skip": {
            "fault_rate": persistent.solver_fail_rate,
            "predicted_failures": sorted(predicted),
            "observed_failures": sorted(failed),
            "isolation_exact": skip_ok,
        },
        "journal": {
            "entries": journal_entries,
            "append_wall_s": round(append_wall, 6),
            "replay_wall_s": round(replay_wall, 6),
            "replay_entries_per_s": round(replay_rate, 1),
            "outstanding": len(outstanding),
            "compacted_lines": compacted,
            "consistent": journal_ok,
        },
    }


def run_obs_bench(
    sizes: tuple,
    repetitions: int = 5,
    trace_path: Path | None = None,
    profile_path: Path | None = None,
) -> dict:
    """Observability bench: traced/profiled vs untraced operation campaign.

    Interleaves ``repetitions`` untraced, traced and sampling-profiled
    serial runs of the operation-suite campaign (best-of-N wall of each,
    taken from the same interleaved sequence so OS noise hits all paths
    alike) and reports four gated properties:

    * ``parity.bit_identical`` — the traced and profiled runs must
      reproduce the untraced records bit-for-bit (``wall_s`` aside);
    * ``overhead_percent`` — the traced best wall relative to the
      untraced best (acceptance ceiling: 2% at the full paper DOE);
    * ``profiler_overhead_percent`` — the profiled best wall relative
      to the untraced best (ceiling: 5% at the full paper DOE);
    * ``attribution`` — the named campaign phases must account for at
      least 95% of the campaign wall in the final repetition's trace.
    """
    import tempfile
    from dataclasses import replace

    from repro.obs.profile import (
        disable_profiling,
        enable_profiling,
        phase_totals,
        read_folded,
        top_frames,
    )
    from repro.obs.trace import (
        campaign_attribution,
        disable_tracing,
        enable_tracing,
        read_trace,
    )

    node = n10()
    doe = StudyDOE(array_sizes=tuple(sizes))
    operations = ("write", "hold_snm", "read_snm")

    def run_campaign():
        campaign = SimulationCampaign(
            node, doe=doe, scenarios=scenario_grid(operations=operations)
        )
        return campaign.run(workers=1)

    def keyed(results) -> dict:
        return {r.key: replace(r, wall_s=0.0) for r in results.records}

    # A scratch dir always exists; explicit --obs-trace/--obs-profile paths
    # simply redirect the corresponding artifact outside it.
    tmp_dir = tempfile.TemporaryDirectory(prefix="repro-bench-obs-")
    trace_file = (
        Path(trace_path) if trace_path is not None
        else Path(tmp_dir.name) / "trace.jsonl"
    )
    profile_file = (
        Path(profile_path) if profile_path is not None
        else Path(tmp_dir.name) / "profile.folded"
    )

    try:
        untraced_walls: list = []
        traced_walls: list = []
        profiled_walls: list = []
        untraced_results = traced_results = profiled_results = None
        for _ in range(repetitions):
            start = time.perf_counter()
            untraced_results = run_campaign()
            untraced_walls.append(time.perf_counter() - start)

            # enable_tracing truncates the file, so the trace left behind
            # (and the attribution below) belongs to the last repetition.
            enable_tracing(trace_file)
            try:
                start = time.perf_counter()
                traced_results = run_campaign()
                traced_walls.append(time.perf_counter() - start)
            finally:
                disable_tracing()

            # Same truncation semantics: the folded file belongs to the
            # last repetition's profiled run.
            enable_profiling(profile_file)
            try:
                start = time.perf_counter()
                profiled_results = run_campaign()
                profiled_walls.append(time.perf_counter() - start)
            finally:
                disable_profiling()

        records = read_trace(trace_file)
        folded = read_folded(profile_file)
    finally:
        tmp_dir.cleanup()

    reference = keyed(untraced_results)
    mismatches = sum(
        1
        for results in (traced_results, profiled_results)
        for key, record in keyed(results).items()
        if reference.get(key) != record
    )
    bit_identical = (
        not untraced_results.failures
        and not traced_results.failures
        and not profiled_results.failures
        and len(reference) == len(traced_results.records)
        and len(reference) == len(profiled_results.records)
        and mismatches == 0
    )

    untraced_best = min(untraced_walls)
    traced_best = min(traced_walls)
    profiled_best = min(profiled_walls)
    overhead_percent = 100.0 * (traced_best / untraced_best - 1.0)
    profiler_overhead_percent = 100.0 * (profiled_best / untraced_best - 1.0)
    attribution = campaign_attribution(records)
    n_profile_samples = sum(folded.values())

    print(f"obs untraced campaign       {untraced_best*1e3:9.2f} ms"
          f"  (best of {repetitions}, {len(reference)} items)")
    print(f"obs traced campaign         {traced_best*1e3:9.2f} ms"
          f"  (overhead {overhead_percent:+.2f}%, {len(records)} spans)")
    print(f"obs profiled campaign       {profiled_best*1e3:9.2f} ms"
          f"  (overhead {profiler_overhead_percent:+.2f}%, "
          f"{n_profile_samples} samples)")
    print(f"obs phase attribution       {attribution['coverage_percent']:9.1f} %"
          f"  (mismatched records: {mismatches})")

    return {
        "doe": {
            "array_sizes": list(doe.array_sizes),
            "option_names": list(doe.option_names),
            "operations": list(operations),
            "items": len(reference),
        },
        "untraced": {
            "best_wall_s": round(untraced_best, 6),
            "walls_s": [round(wall, 6) for wall in untraced_walls],
        },
        "traced": {
            "best_wall_s": round(traced_best, 6),
            "walls_s": [round(wall, 6) for wall in traced_walls],
            "spans": len(records),
            "span_names": sorted({r.get("name", "?") for r in records}),
            "trace_path": None if trace_path is None else str(trace_file),
        },
        "profiled": {
            "best_wall_s": round(profiled_best, 6),
            "walls_s": [round(wall, 6) for wall in profiled_walls],
            "samples": n_profile_samples,
            "hot_frames": [[frame, count] for frame, count in top_frames(folded, 5)],
            "phase_samples": phase_totals(folded),
            "profile_path": None if profile_path is None else str(profile_file),
        },
        "overhead_percent": round(overhead_percent, 3),
        "profiler_overhead_percent": round(profiler_overhead_percent, 3),
        "parity": {
            "bit_identical": bit_identical,
            "mismatches": mismatches,
            "records": len(reference),
            "failures": len(untraced_results.failures)
            + len(traced_results.failures)
            + len(profiled_results.failures),
        },
        "attribution": {
            "campaign_runs": attribution["campaign_runs"],
            "campaign_wall_s": round(attribution["campaign_wall_s"], 6),
            "attributed_wall_s": round(attribution["attributed_wall_s"], 6),
            "coverage_percent": round(attribution["coverage_percent"], 2),
        },
    }


def run_yield_hs_bench(
    proposals: int = 4000,
    pilot_samples: int = 512,
    mc_samples: int = 20000,
    max_calls: int = 100_000,
    sizes: tuple = (64,),
) -> dict:
    """High-sigma yield bench: IS tail estimates with their quality gates.

    Runs the ``yield_hs`` experiment over the full patterning corner set
    and reports, per corner and sigma level, the fail probability with
    its confidence interval, ESS, the FORM beta and the Monte-Carlo
    cross-check.  The quality gates are in ``checks``:

    * every 6-sigma estimate has a finite two-sided CI (the whole point
      of importance sampling — brute force cannot produce one);
    * every 3-sigma estimate agrees with brute-force MC within combined
      confidence intervals (the parity oracle);
    * the ESS never collapses below 1/8 of the proposal count (the
      defensive mixture is doing its job);
    * the full sweep stays within the real-simulator-call budget.
    """
    from repro.api import run
    from repro.core.spec import (
        ArraySpec,
        ExperimentSpec,
        HighSigmaSpec,
        TechnologySpec,
    )

    spec = ExperimentSpec(
        kind="yield_hs",
        technology=TechnologySpec(overlay_three_sigma_nm=8.0),
        array=ArraySpec(sizes=sizes),
        high_sigma=HighSigmaSpec(
            operation="read",
            model="analytical",
            sigma_levels=(3.0, 6.0),
            proposals=proposals,
            pilot_samples=pilot_samples,
            mc_samples=mc_samples,
            max_calls=max_calls,
        ),
    )
    started = time.time()
    result = run(spec)
    wall = time.time() - started

    rows = [r for r in result.records if r.get("record") == "high_sigma"]
    meta = result.meta["high_sigma"]
    six_sigma = [r for r in rows if r["sigma_level"] == 6.0]
    three_sigma = [r for r in rows if r["sigma_level"] == 3.0]
    checked = [r for r in three_sigma if r["mc_agrees"] is not None]

    ess_floor = proposals / 8.0
    checks = {
        "six_sigma_rows": len(six_sigma),
        "six_sigma_finite_ci": bool(six_sigma)
        and all(
            0.0 < r["ci_low"] <= r["fail_probability"] <= r["ci_high"] < 1.0
            for r in six_sigma
        ),
        "mc_cross_checks": len(checked),
        "mc_agreement": bool(checked) and all(r["mc_agrees"] for r in checked),
        "ess_floor": ess_floor,
        "ess_min": min(r["ess"] for r in rows) if rows else 0.0,
        "ess_above_floor": bool(rows)
        and all(r["ess"] >= ess_floor for r in rows),
        "call_budget": max_calls,
        "within_call_budget": meta["total_simulator_calls"] <= max_calls,
    }
    return {
        "spec": {
            "operation": meta["operation"],
            "model": meta["model"],
            "sigma_levels": meta["sigma_levels"],
            "proposals": proposals,
            "pilot_samples": pilot_samples,
            "mc_samples": mc_samples,
        },
        "wall_s": round(wall, 3),
        "corners": len(rows) // 2 if rows else 0,
        "total_simulator_calls": meta["total_simulator_calls"],
        "total_promoted": meta["total_promoted"],
        "total_proposals": meta["total_proposals"],
        "rows": [
            {
                "option": r["option"],
                "overlay_three_sigma_nm": r["overlay_three_sigma_nm"],
                "sigma_level": r["sigma_level"],
                "threshold_percent": round(r["threshold"], 4),
                "fail_probability": r["fail_probability"],
                "ci_low": r["ci_low"],
                "ci_high": r["ci_high"],
                "sigma_equivalent": round(r["sigma_equivalent"], 3),
                "ess": round(r["ess"], 1),
                "beta": round(r["beta"], 3),
                "mc_probability": r["mc_probability"],
                "mc_agrees": r["mc_agrees"],
            }
            for r in rows
        ],
        "checks": checks,
    }


def bench_environment(workers: int | None = None) -> dict:
    """Reproducibility block of every bench report.

    ``cpu_count`` is the machine's CPU count; ``cpus_available`` is what
    the process may actually use (cgroup/affinity-clamped), which is the
    number worker requests are clamped to — recording both makes a
    regression on a differently-clamped CI runner explainable from the
    JSON alone.  Suites that take a ``--*-workers`` knob pass it in so
    the requested and the clamped effective count land next to the
    timings they shaped.
    """
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "cpus_available": SimulationCampaign.available_cpus(),
    }
    if workers is not None:
        env["workers_requested"] = workers
        env["workers_effective"] = min(
            workers, SimulationCampaign.available_cpus()
        )
    return env


#: Per-history gated metrics for the regression gate: metric name (as
#: extracted by :func:`_suite_metrics`) → direction.  "higher" =
#: throughput/speedup (regression when it drops), "lower" = wall/latency
#: (regression when it grows).  The perf suite keeps one history per
#: perfbench workload.
GATED_METRICS: dict = {
    "mc": {"batch_samples_per_s": "higher", "speedup_geomean": "higher"},
    **{workload: PERF_GATES for workload in PERF_WORKLOADS},
    "service": {
        "speedup_warm_vs_cold": "higher",
        "submissions_per_s": "higher",
    },
    "faults": {"replay_entries_per_s": "higher"},
    "obs": {
        "untraced_best_wall_s": "lower",
        "traced_best_wall_s": "lower",
        "profiled_best_wall_s": "lower",
    },
    "yield_hs": {"wall_s": "lower", "total_simulator_calls": "lower"},
}


def _suite_metrics(suite: str, report: dict) -> dict:
    """Pull the gate-relevant scalars out of one suite's report."""
    if suite == "mc":
        metrics = {"batch_samples_per_s": report["summary"]["batch_samples_per_s"]}
        if "speedup_geomean" in report["summary"]:
            metrics["speedup_geomean"] = report["summary"]["speedup_geomean"]
        return metrics
    if suite in PERF_WORKLOADS:
        return {name: report["workloads"][suite][name] for name in PERF_GATES}
    if suite == "service":
        return {
            "speedup_warm_vs_cold": report["speedup_warm_vs_cold"],
            "submissions_per_s": report["throughput"]["submissions_per_s"],
        }
    if suite == "faults":
        return {
            "replay_entries_per_s": report["journal"]["replay_entries_per_s"],
        }
    if suite == "obs":
        return {
            "untraced_best_wall_s": report["untraced"]["best_wall_s"],
            "traced_best_wall_s": report["traced"]["best_wall_s"],
            "profiled_best_wall_s": report["profiled"]["best_wall_s"],
        }
    if suite == "yield_hs":
        return {
            "wall_s": report["wall_s"],
            "total_simulator_calls": report["total_simulator_calls"],
        }
    raise ValueError(f"unknown suite {suite!r}")


def _suite_config(suite: str, args, report: dict) -> dict:
    """The knobs that shape a suite's timings — history entries only
    compare against entries recorded under an identical config, so a
    smoke run is never judged against full-DOE baselines, nor a 1-CPU
    perfbench wall against a 2-CPU one."""
    if suite == "mc":
        return {
            "samples": args.samples,
            "wordlines": args.wordlines,
            "skip_scalar": bool(args.skip_scalar),
        }
    if suite in PERF_WORKLOADS:
        return {
            "seed": report["seed"],
            "seconds": report["seconds"],
            "cpus_available": report["workloads"][suite]["provenance"]["cpus_available"],
        }
    if suite == "service":
        return {
            "clients": args.service_clients,
            "requests": args.service_requests,
        }
    if suite == "faults":
        return {"journal_entries": args.journal_entries}
    if suite == "obs":
        return {"sizes": list(args.obs_sizes), "reps": args.obs_reps}
    if suite == "yield_hs":
        return {
            "proposals": args.yield_proposals,
            "mc_samples": args.yield_mc_samples,
        }
    raise ValueError(f"unknown suite {suite!r}")


def _report_header(bench: str, description: str, started: float,
                   workers: int | None = None) -> dict:
    """The provenance block every BENCH_*.json starts with."""
    return {
        "bench": bench,
        "description": description,
        "bench_schema_version": bench_history.BENCH_SCHEMA_VERSION,
        "timestamp_unix": int(started),
        "timestamp_utc": bench_history.utc_timestamp(started),
        "environment": bench_environment(workers),
    }


def _history_step(args, suite: str, report: dict) -> bool:
    """``--check``/``--record`` handling for one finished suite.

    Checks against the existing history *before* recording, so a fresh
    measurement never contributes to its own baseline.  Returns True
    when the regression gate fired.
    """
    if not (args.record or args.check):
        return False
    metrics = _suite_metrics(suite, report)
    config = _suite_config(suite, args, report)
    regressed = False
    if args.check:
        problems = bench_history.validate_report(report)
        if problems:
            print(f"history[{suite}]: report provenance invalid: {problems}")
            regressed = True
        findings = bench_history.check_metrics(
            bench_history.load_entries(args.history_dir, suite),
            metrics,
            GATED_METRICS[suite],
            config=config,
        )
        print(f"history[{suite}] gate:")
        print(bench_history.format_findings(findings))
        if bench_history.has_regressions(findings):
            regressed = True
    if args.record:
        entry = bench_history.append_entry(
            args.history_dir,
            suite,
            metrics,
            environment=report.get("environment"),
            config=config,
            unix=report.get("timestamp_unix"),
        )
        print(
            f"history[{suite}]: recorded {sorted(entry['metrics'])} "
            f"to {bench_history.history_path(args.history_dir, suite)}"
        )
    return regressed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite",
                        choices=("mc", "perf", "service", "faults", "obs",
                                 "yield_hs", "all"),
                        default="all",
                        help="which bench suite(s) to run (default: all)")
    parser.add_argument("--samples", type=int, default=1000,
                        help="Monte-Carlo samples per study point (default 1000)")
    parser.add_argument("--wordlines", type=int, default=64,
                        help="array size of the MC study (default 64, as in the paper)")
    parser.add_argument("--skip-scalar", action="store_true",
                        help="time only the batched path (quick trend check)")
    parser.add_argument("--output", type=Path,
                        default=ROOT / "BENCH_mc.json",
                        help="where to write the MC JSON report")
    parser.add_argument("--perf-output", type=Path, default=ROOT / "BENCH_perf.json",
                        help="where to write the perfbench timing JSON report")
    parser.add_argument("--service-clients", type=int, default=4,
                        help="concurrent clients of the service bench (default 4)")
    parser.add_argument("--service-requests", type=int, default=25,
                        help="submissions per client in the service bench (default 25)")
    parser.add_argument("--service-output", type=Path,
                        default=ROOT / "BENCH_service.json",
                        help="where to write the service JSON report")
    parser.add_argument("--journal-entries", type=int, default=500,
                        help="WAL submissions in the faults journal bench (default 500)")
    parser.add_argument("--faults-output", type=Path,
                        default=ROOT / "BENCH_faults.json",
                        help="where to write the chaos-bench JSON report")
    parser.add_argument("--obs-sizes", type=int, nargs="+", default=[16, 64, 256, 1024],
                        help="array sizes of the observability bench (default: the paper DOE)")
    parser.add_argument("--obs-reps", type=int, default=5,
                        help="interleaved traced/untraced repetitions (default 5; "
                             "best-of-N needs headroom against scheduler noise)")
    parser.add_argument("--obs-trace", type=Path, default=None,
                        help="keep the traced run's JSONL at this path (default: a temp file)")
    parser.add_argument("--obs-profile", type=Path, default=None,
                        help="keep the profiled run's folded stacks at this path "
                             "(default: a temp file)")
    parser.add_argument("--obs-output", type=Path,
                        default=ROOT / "BENCH_obs.json",
                        help="where to write the observability JSON report")
    parser.add_argument("--yield-proposals", type=int, default=4000,
                        help="IS proposal draws per corner/level in the "
                             "high-sigma bench (default 4000)")
    parser.add_argument("--yield-mc-samples", type=int, default=20000,
                        help="brute-force cross-check draws in the "
                             "high-sigma bench (default 20000)")
    parser.add_argument("--yield-output", type=Path,
                        default=ROOT / "BENCH_yield.json",
                        help="where to write the high-sigma yield JSON report")
    parser.add_argument("--record", action="store_true",
                        help="append each suite's gated metrics to the history "
                             "(benchmarks/history/<suite>.jsonl)")
    parser.add_argument("--check", action="store_true",
                        help="gate each suite against its rolling history "
                             f"(exit {bench_history.REGRESSION_EXIT_CODE} on regression)")
    parser.add_argument("--history-dir", type=Path,
                        default=ROOT / "benchmarks" / "history",
                        help="bench-history directory (default: benchmarks/history)")
    args = parser.parse_args()

    exit_code = 0
    regressed = False
    if args.suite in ("mc", "all"):
        started = time.time()
        report = _report_header(
            "monte_carlo_tdp",
            "Fig.5/Table IV Monte-Carlo benches: batched vs scalar pipeline",
            started,
        )
        report.update(run_benches(args.samples, args.wordlines, args.skip_scalar))
        report["harness_wall_s"] = round(time.time() - started, 3)

        args.output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.output}")
        summary = report["summary"]
        print(f"batched throughput: {summary['batch_samples_per_s']:.0f} samples/s")
        if "speedup_geomean" in summary:
            print(
                f"speedup vs scalar: geomean {summary['speedup_geomean']}x, "
                f"min {summary['speedup_min']}x"
            )
            if summary["speedup_min"] < 10.0 and args.samples >= 1000:
                print("WARNING: batched path is below the 10x acceptance floor")
                exit_code = 1
        regressed |= _history_step(args, "mc", report)

    if args.suite in ("perf", "all"):
        started = time.time()
        report = _report_header(
            "perfbench_ops",
            "Operations DOE timed by perfbench (ops_serial, ops_pool) "
            "against one scalar-solver-tier run of the same DOE",
            started,
        )
        try:
            report.update(run_perf_bench())
        except PerfbenchError as exc:
            print(f"FAILED: {exc}")
            exit_code = 1
        else:
            report["harness_wall_s"] = round(time.time() - started, 3)
            args.perf_output.write_text(json.dumps(report, indent=2) + "\n")
            print(f"\nwrote {args.perf_output}")
            print(f"batched solver tier: {report['solver_speedup']}x vs scalar tier")
            if report["solver_speedup"] < SOLVER_SPEEDUP_FLOOR:
                print(f"WARNING: batched solver tier is below the "
                      f"{SOLVER_SPEEDUP_FLOOR:g}x acceptance floor")
                exit_code = 1
            for workload in PERF_WORKLOADS:
                regressed |= _history_step(args, workload, report)

    if args.suite in ("service", "all"):
        started = time.time()
        report = _report_header(
            "experiment_service",
            "HTTP experiment server benches: cold vs warm-cache "
            "submission latency and concurrent-client throughput",
            started,
            args.service_clients,
        )
        report.update(
            run_service_bench(args.service_clients, args.service_requests)
        )
        report["harness_wall_s"] = round(time.time() - started, 3)

        args.service_output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.service_output}")
        speedup = report["speedup_warm_vs_cold"]
        print(
            f"warm-cache speedup: {speedup}x, throughput "
            f"{report['throughput']['submissions_per_s']} submissions/s"
        )
        if speedup < 10.0:
            print("WARNING: warm-cache path is below the 10x acceptance floor")
            exit_code = 1
        regressed |= _history_step(args, "service", report)

    if args.suite in ("faults", "all"):
        started = time.time()
        report = _report_header(
            "fault_tolerance",
            "Chaos benches: campaign failure policies under injected "
            "solver faults and durable-journal replay throughput",
            started,
        )
        report.update(run_faults_bench(args.journal_entries))
        report["harness_wall_s"] = round(time.time() - started, 3)

        args.faults_output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.faults_output}")
        print(
            f"retry overhead: {report['retry']['overhead_x']}x, journal replay "
            f"{report['journal']['replay_entries_per_s']} entries/s"
        )
        if not report["retry"]["bit_identical"]:
            print("WARNING: retry policy did not reproduce fault-free records")
            exit_code = 1
        if not report["skip"]["isolation_exact"]:
            print("WARNING: skip policy failed a different set than the fault plan predicts")
            exit_code = 1
        if not report["journal"]["consistent"]:
            print("WARNING: journal replay returned an inconsistent outstanding set")
            exit_code = 1
        regressed |= _history_step(args, "faults", report)

    if args.suite in ("obs", "all"):
        started = time.time()
        report = _report_header(
            "observability_overhead",
            "Observability benches: traced/profiled vs untraced operation "
            "campaign — record parity, tracing and profiler overhead, span "
            "attribution",
            started,
        )
        report.update(
            run_obs_bench(
                tuple(args.obs_sizes), args.obs_reps, args.obs_trace,
                args.obs_profile,
            )
        )
        report["harness_wall_s"] = round(time.time() - started, 3)

        args.obs_output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.obs_output}")
        print(
            f"tracing overhead: {report['overhead_percent']:+.2f}% "
            f"(bit identical: {report['parity']['bit_identical']}, "
            f"attribution {report['attribution']['coverage_percent']}%)"
        )
        if not report["parity"]["bit_identical"]:
            print("WARNING: traced records diverge from the untraced run")
            exit_code = 1
        if report["attribution"]["coverage_percent"] < 95.0:
            print("WARNING: named spans attribute less than 95% of the campaign wall")
            exit_code = 1
        full_doe = tuple(args.obs_sizes) == (16, 64, 256, 1024)
        if full_doe and report["overhead_percent"] > 2.0:
            # Gated at the full DOE only: on a tiny smoke DOE the wall is
            # milliseconds and scheduler noise alone can exceed 2%.
            print("WARNING: tracing overhead is above the 2% acceptance ceiling")
            exit_code = 1
        if full_doe and report["profiler_overhead_percent"] > 5.0:
            print("WARNING: sampling-profiler overhead is above the 5% ceiling")
            exit_code = 1
        regressed |= _history_step(args, "obs", report)

    if args.suite in ("yield_hs", "all"):
        started = time.time()
        report = _report_header(
            "high_sigma_yield",
            "High-sigma yield benches: importance-sampling tail "
            "estimates vs brute-force Monte-Carlo at the checkable "
            "levels, with ESS and call-budget gates",
            started,
        )
        report.update(
            run_yield_hs_bench(
                proposals=args.yield_proposals,
                mc_samples=args.yield_mc_samples,
            )
        )
        report["harness_wall_s"] = round(time.time() - started, 3)

        args.yield_output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"\nwrote {args.yield_output}")
        checks = report["checks"]
        print(
            f"high-sigma sweep: {report['corners']} corners, "
            f"{report['total_simulator_calls']} simulator calls, "
            f"min ESS {checks['ess_min']:.0f} "
            f"({checks['mc_cross_checks']} MC cross-checks)"
        )
        if not checks["six_sigma_finite_ci"]:
            print("WARNING: a 6-sigma estimate lacks a finite two-sided CI")
            exit_code = 1
        if not checks["mc_agreement"]:
            print("WARNING: a 3-sigma IS estimate disagrees with brute-force MC")
            exit_code = 1
        if not checks["ess_above_floor"]:
            print("WARNING: effective sample size collapsed below the floor")
            exit_code = 1
        if not checks["within_call_budget"]:
            print("WARNING: the sweep exceeded the simulator-call budget")
            exit_code = 1
        regressed |= _history_step(args, "yield_hs", report)

    if regressed:
        print(
            "PERF REGRESSION: at least one gated metric fell outside its "
            "history tolerance band"
        )
        return bench_history.REGRESSION_EXIT_CODE
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
