"""Tests of the benchmark's own accounting, statistics and metric registry.

Run with ``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import checks, layers, measure, workloads  # noqa: E402
from perfbench.measure import Metric, Request  # noqa: E402


class TinyOps(workloads.OpsWorkload):
    """One operation at one size under the skip policy (4 campaign items)."""

    name = "tiny"

    def specs(self):
        return [{
            "kind": "operations",
            "array": {"sizes": [16]},
            "operation": {"operations": ["read"]},
            "execution": {"seed": self.seed, "failure_policy": "skip"},
        }]

    def check(self, results):
        pass


def _item_keys(workload):
    from repro.core.campaign import SimulationCampaign
    from repro.core.spec import ExperimentSpec, scenario_spec_grid

    spec = ExperimentSpec.from_dict(workload.specs()[0])
    spec = spec.with_scenarios(scenario_spec_grid(operations=spec.operation.operations))
    return [item.key for item in SimulationCampaign.from_spec(spec).work_items()]


def test_failed_fraction_equals_the_predicted_injected_failures():
    from repro.testing import FaultPlan
    from repro.testing.faults import injected

    workload = TinyOps(seed=workloads.DEFAULT_SEED)
    workload.after_setup()
    keys = _item_keys(workload)
    # A persistent fault plan that hits some items but not all of them.
    plan, predicted = next(
        (plan, hits)
        for plan in (FaultPlan(seed=s, solver_fail_rate=0.5, solver_fail_attempts=99)
                     for s in range(100))
        for hits in [[k for k in keys if plan.hits_solver(k)]]
        if 0 < len(hits) < len(keys)
    )
    with injected(plan):
        request, outcome = workload.request()
    assert outcome.attempted_units == len(keys)
    assert outcome.failed_units == len(predicted)
    assert outcome.failed_units / outcome.attempted_units == len(predicted) / len(keys)
    assert not request.ok


def test_failed_requests_are_attempted_but_never_timed():
    requests = [Request(0.010), Request(9.0, ok=False), Request(0.012), Request(0.011)]
    summary = measure.summarize(requests)
    assert summary.attempted == 4
    assert summary.failed == 1
    assert summary.failed_fraction == 0.25
    assert sorted(summary.latencies_s) == [0.010, 0.011, 0.012]
    assert measure.median(summary.latencies_s) == 0.011


def test_requests_split_by_class():
    requests = [Request(0.01, cls="warm"), Request(0.3, cls="cold"), Request(0.2, False, "cold")]
    cold = measure.summarize(requests, "cold")
    assert (cold.attempted, cold.failed, cold.latencies_s) == (2, 1, (0.3,))


@pytest.mark.parametrize("n, q, withheld", [
    (99, 90, True), (100, 90, False), (19, 50, True), (20, 50, False), (0, 50, True),
])
def test_a_percentile_needs_ten_samples_beyond_it(n, q, withheld):
    values = [float(i) for i in range(n)]
    assert (measure.percentile(values, q) is None) is withheld
    metric = measure.percentile_metric(values, q, scale=1e3)
    assert (metric == Metric(0.0, 0)) is withheld


def test_percentile_is_nearest_rank():
    assert measure.percentile([float(i) for i in range(1, 101)], 90) == 90.0


def test_every_metric_has_a_valid_name_and_a_unit():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in document["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in document["per_layer"]}
    assert end_to_end == measure.END_TO_END
    assert per_layer == measure.PER_LAYER
    for name, unit in {**end_to_end, **per_layer}.items():
        assert measure.METRIC_NAME.match(name), name
        assert unit, name
    assert [w["name"] for w in document["workloads"]] == [
        "ops_serial", "ops_pool", "mc_yield", "service_mix"
    ]


def test_emit_refuses_an_incomplete_metric_set(capsys):
    metrics = {name: Metric(1.0, 1) for name in measure.END_TO_END}
    measure.emit(metrics, False, True, 1, 0, {})
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(json.loads(last)) == {"correct", "attempted", "failed", "metrics"}
    metrics.pop("run_s")
    with pytest.raises(measure.BenchmarkError):
        measure.emit(metrics, False, True, 1, 0, {})


def test_self_time_subtracts_the_child_spans_covered():
    spans = [
        (1, 1, None, "api", 0.0, 10.0, 0),
        (1, 2, 1, "campaign.prepare", 1.0, 4.0, 0),
        (1, 3, 2, "extraction", 2.0, 3.0, 0),
        (1, 4, 1, "circuit.solve", 5.0, 9.0, 7),
        (1, 5, 4, "circuit.batch", 5.5, 8.5, 0),
    ]
    summary = layers.SpanSummary(spans)
    assert summary.self_time(group="api") == pytest.approx(3.0)
    assert summary.self_time(name="campaign.prepare") == pytest.approx(2.0)
    assert summary.busy(name="circuit.solve") == pytest.approx(4.0)
    assert summary.self_time(group="circuit") == pytest.approx(4.0)
    assert summary.count("circuit.solve") == 7
    assert summary.calls(group="circuit") == 1


def test_reference_comparison_tolerance():
    assert checks.difference([{"a": 1.0}], [{"a": 1.0 + 1e-13}]) is None
    assert checks.difference([{"a": 1.0}], [{"a": 1.0 + 1e-11}]) is not None
    assert checks.difference([{"a": 1.0}], [{"a": 1.0 + 1e-13}], rtol=0.0) is not None
    assert checks.difference({"a": "x"}, {"a": "x", "b": 1}) is not None
