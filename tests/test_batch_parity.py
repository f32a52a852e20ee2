"""Parity of the batched Monte-Carlo pipeline against the scalar oracle.

The vectorised path (batched sampling → batched printing → batched
extraction → array-valued analytical model) must reproduce the scalar
per-sample loop element-wise: identical random streams by construction,
and identical arithmetic up to floating-point round-off (``rtol <= 1e-12``)
for every patterning option and every paper array size (16/64/256/1024).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.analytical import model_from_technology
from repro.core.montecarlo import MonteCarloTdpStudy
from repro.extraction.lpe import ParameterizedLPE
from repro.layout.array import PAPER_ARRAY_SIZES, generate_array_layout
from repro.patterning import PAPER_OPTIONS, create_option
from repro.patterning.sampler import ParameterSampler
from repro.variability.doe import DOEPoint

RTOL = 1e-12

OPTIONS = list(PAPER_OPTIONS) + ["LELE"]


@pytest.fixture(scope="module")
def node():
    from repro.technology.node import n10

    return n10()


@pytest.fixture(scope="module")
def layout(node):
    return generate_array_layout(n_wordlines=64, n_bitline_pairs=4, node=node)


class TestSamplerParity:
    @pytest.mark.parametrize("option_name", OPTIONS)
    @pytest.mark.parametrize("count", [16, 64, 256])
    def test_batched_draws_bitwise_match_scalar_draws(self, node, option_name, count):
        option = create_option(option_name)
        batch = ParameterSampler(option, node.variations, seed=101).draw_batch(count)
        scalar = ParameterSampler(option, node.variations, seed=101).draw_many(count)
        assert len(batch) == count
        for row, sample in enumerate(scalar):
            for column, name in enumerate(batch.parameter_names):
                assert batch.matrix[row, column] == sample.values[name]

    def test_truncated_draws_bitwise_match(self, node):
        option = create_option("LELELE")
        batch = ParameterSampler(
            option, node.variations, seed=5, truncate_at_three_sigma=True
        ).draw_batch(128)
        scalar = ParameterSampler(
            option, node.variations, seed=5, truncate_at_three_sigma=True
        ).draw_many(128)
        for row, sample in enumerate(scalar):
            for column, name in enumerate(batch.parameter_names):
                assert batch.matrix[row, column] == sample.values[name]

    def test_batch_values_round_trip_to_scalar_dicts(self, node):
        option = create_option("SADP")
        batch = ParameterSampler(option, node.variations, seed=3).draw_batch(8)
        for index, sample in enumerate(batch):
            assert sample.index == index
            assert sample.values == batch.values_at(index)


class TestPrintingParity:
    @pytest.mark.parametrize("option_name", OPTIONS)
    def test_apply_batch_edges_match_scalar_apply(self, node, layout, option_name):
        option = create_option(option_name)
        pattern = layout.metal1_pattern
        batch = ParameterSampler(option, node.variations, seed=17).draw_batch(32)
        geometry = option.apply_batch(pattern, batch.matrix, batch.parameter_names)
        for index in range(len(batch)):
            printed = option.apply(pattern, batch.values_at(index)).printed
            for column, track in enumerate(printed):
                assert geometry.nets[column] == track.net
                np.testing.assert_allclose(
                    geometry.left_edges_nm[index, column], track.left_edge_nm, rtol=RTOL
                )
                np.testing.assert_allclose(
                    geometry.right_edges_nm[index, column], track.right_edge_nm, rtol=RTOL
                )

    def test_fallback_apply_batch_matches_vectorised(self, node, layout):
        from repro.patterning.base import PatterningOption

        option = create_option("LELELE")
        pattern = layout.metal1_pattern
        batch = ParameterSampler(option, node.variations, seed=23).draw_batch(8)
        fast = option.apply_batch(pattern, batch.matrix, batch.parameter_names)
        slow = PatterningOption.apply_batch(
            option, pattern, batch.matrix, batch.parameter_names
        )
        np.testing.assert_allclose(fast.left_edges_nm, slow.left_edges_nm, rtol=RTOL)
        np.testing.assert_allclose(fast.right_edges_nm, slow.right_edges_nm, rtol=RTOL)


class TestExtractionParity:
    @pytest.mark.parametrize("option_name", OPTIONS)
    def test_batched_rc_variations_match_scalar_loop(self, node, layout, option_name):
        option = create_option(option_name)
        pattern = layout.metal1_pattern
        bl_net, _ = layout.central_pair_nets()
        lpe = ParameterizedLPE(node)
        scalar = lpe.monte_carlo_variations(pattern, option, bl_net, 64, seed=29)
        batch = lpe.monte_carlo_variations_batch(pattern, option, bl_net, 64, seed=29)
        assert len(batch) == len(scalar)
        np.testing.assert_allclose(
            batch.rvar, [v.rvar for v in scalar], rtol=RTOL
        )
        np.testing.assert_allclose(
            batch.cvar, [v.cvar for v in scalar], rtol=RTOL
        )

    def test_batch_variation_scalar_views(self, node, layout):
        option = create_option("EUV")
        pattern = layout.metal1_pattern
        bl_net, _ = layout.central_pair_nets()
        lpe = ParameterizedLPE(node)
        batch = lpe.monte_carlo_variations_batch(pattern, option, bl_net, 16, seed=1)
        as_list = batch.to_list()
        assert len(as_list) == 16
        assert as_list[3].rvar == pytest.approx(float(batch.rvar[3]))
        assert as_list[3].parameters.keys() == set(batch.parameter_names)

    def test_nominal_extraction_is_cached(self, node, layout):
        lpe = ParameterizedLPE(node)
        pattern = layout.metal1_pattern
        first = lpe.nominal_extraction(pattern)
        second = lpe.nominal_extraction(pattern)
        assert first is second
        # A different thickness delta is a different cache entry.
        third = lpe.nominal_extraction(pattern, thickness_delta_nm=1.0)
        assert third is not first


class TestAnalyticalParity:
    @pytest.mark.parametrize("n_wordlines", PAPER_ARRAY_SIZES)
    def test_array_valued_model_matches_scalar(self, node, n_wordlines):
        model = model_from_technology(node, n_bitline_pairs=4)
        rng = np.random.default_rng(n_wordlines)
        rvar = 1.0 + 0.1 * rng.standard_normal(256)
        cvar = 1.0 + 0.1 * rng.standard_normal(256)
        batched = model.tdp_percent(n_wordlines, rvar, cvar)
        scalar = [
            model.tdp_percent(n_wordlines, float(r), float(c))
            for r, c in zip(rvar, cvar)
        ]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_array_valued_array_sizes(self, node):
        model = model_from_technology(node, n_bitline_pairs=4)
        sizes = np.array(PAPER_ARRAY_SIZES)
        batched = model.td_s(sizes, 1.05, 0.97)
        scalar = [model.td_s(int(n), 1.05, 0.97) for n in sizes]
        np.testing.assert_allclose(batched, scalar, rtol=RTOL)

    def test_array_validation_still_raises(self, node):
        from repro.core.analytical import AnalyticalModelError

        model = model_from_technology(node, n_bitline_pairs=4)
        with pytest.raises(AnalyticalModelError):
            model.td_s(64, np.array([1.0, -0.5]), 1.0)
        with pytest.raises(AnalyticalModelError):
            model.td_s(np.array([64, 0]), 1.0, 1.0)


class TestStudyParity:
    @pytest.mark.parametrize("option_name", PAPER_OPTIONS)
    @pytest.mark.parametrize("n_wordlines", PAPER_ARRAY_SIZES)
    def test_batched_study_matches_scalar_study(self, node, option_name, n_wordlines):
        overlay = 8.0 if option_name.upper().startswith("LE") else None
        point = DOEPoint(
            n_wordlines=n_wordlines,
            option_name=option_name,
            overlay_three_sigma_nm=overlay,
        )
        kwargs = dict(node=node, n_samples=48, seed=2015)
        scalar_record = MonteCarloTdpStudy(batch=False, **kwargs).tdp_record(point)
        batch_record = MonteCarloTdpStudy(batch=True, **kwargs).tdp_record(point)
        # The tdp *ratio* matches to rtol <= 1e-12; the percent view is the
        # ratio minus one, so near-nominal samples need an absolute floor
        # (1e-9 percent = 1e-11 in ratio) against cancellation noise.
        batch_ratio = 1.0 + np.asarray(batch_record.tdp_percent_samples) / 100.0
        scalar_ratio = 1.0 + np.asarray(scalar_record.tdp_percent_samples) / 100.0
        np.testing.assert_allclose(batch_ratio, scalar_ratio, rtol=RTOL)
        np.testing.assert_allclose(
            batch_record.tdp_percent_samples,
            scalar_record.tdp_percent_samples,
            rtol=RTOL,
            atol=1e-9,
        )
        # The distribution statistics the paper reports agree as well.
        assert batch_record.summary.std == pytest.approx(
            scalar_record.summary.std, rel=1e-9
        )
        assert batch_record.histogram.counts == scalar_record.histogram.counts

    def test_process_pool_records_match_serial(self, node):
        study = MonteCarloTdpStudy(node, n_samples=32, seed=7)
        points = study.doe.monte_carlo_points(n_wordlines=64)
        serial = study.tdp_records(points)
        parallel = study.tdp_records(points, workers=2)
        for one, two in zip(serial, parallel):
            assert one.tdp_percent_samples == two.tdp_percent_samples

    def test_workers_clamp_to_the_available_cpus(self, node, monkeypatch):
        from repro.core import montecarlo
        from repro.core.campaign import SimulationCampaign

        def no_pool(*args, **kwargs):
            raise AssertionError("a 1-CPU clamp must not build a process pool")

        monkeypatch.setattr(SimulationCampaign, "available_cpus", staticmethod(lambda: 1))
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", no_pool)
        study = MonteCarloTdpStudy(node, n_samples=32, seed=7)
        points = study.doe.monte_carlo_points(n_wordlines=64)
        clamped = study.tdp_records(points, workers=4)
        serial = study.tdp_records(points)
        assert [r.tdp_percent_samples for r in clamped] == [
            r.tdp_percent_samples for r in serial
        ]
