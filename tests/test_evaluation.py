import math
import re
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedepth import network
from gatedepth.estimators import baseline_estimate_batch, build_section_table
from gatedepth.evaluation import (
    BinnedError,
    BinRow,
    DepthMap,
    EstimatorComparison,
    EstimatorReport,
    bin_index,
    binned_mae,
    compare_estimators,
    read_depth_pgm,
    render_depth_map,
)
from gatedepth.network import NetworkArch, init_params, predict_depth_batch, probe_learned_function
from gatedepth.pipeline import CONTRAST_FLOOR, SATURATION_LIMIT, RawDataset, prefilter
from gatedepth.scene import NoiseModel, SliceImageSet, render_slices


class TestBinnedMae:
    def test_perfect_predictions(self):
        out = binned_mae([10.0, 40.0, 80.0], [10.0, 40.0, 80.0], 5.0)
        assert all(row.mae == 0.0 for row in out.rows)

    def test_hand_binning(self):
        out = binned_mae([30.0, 34.0], [28.0, 30.0], 5.0)
        rows = {row.center: row for row in out.rows}
        assert rows[27.5].mae == pytest.approx(2.0)
        assert rows[32.5].mae == pytest.approx(4.0)
        assert rows[27.5].count == 1 and rows[32.5].count == 1

    def test_relative_mae_consistent(self):
        rng = np.random.default_rng(0)
        truth = rng.uniform(10.0, 100.0, 500)
        pred = truth + rng.normal(0.0, 2.0, 500)
        out = binned_mae(pred, truth, 5.0)
        for row in out.rows:
            assert row.rel_mae == pytest.approx(row.mae / row.center, abs=1e-12)

    def test_counts_cover_finite_predictions(self):
        pred = np.array([20.0, np.nan, 41.0, np.nan, 77.0])
        truth = np.array([21.0, 22.0, 40.0, 70.0, 75.0])
        out = binned_mae(pred, truth, 5.0)
        assert out.total_count == 3

    def test_rejects_empty_or_mismatched(self):
        with pytest.raises(ValueError):
            binned_mae([], [], 5.0)
        with pytest.raises(ValueError):
            binned_mae([1.0], [1.0, 2.0], 5.0)

    def test_bin_index_floors(self):
        np.testing.assert_array_equal(bin_index([0.0, 4.99, 5.0, -0.1], 5.0), [0, 0, 1, -1])
        np.testing.assert_array_equal(bin_index([2.0**62, -2.0**63], 1.0), [2**62, -2**63])

    @pytest.mark.parametrize("values, width", [
        ([10.0, 1e300], 5.0), ([50.0], 1e-300), ([-1e300], 1.0), ([np.inf], 1.0), ([np.nan], 1.0),
        ([2.0**63], 1.0)])
    def test_bin_index_outside_int64_is_rejected(self, values, width):
        message = f"{values[-1]!r} has no bin of width {width!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            bin_index(values, width)

    @pytest.mark.parametrize("width", [0.0, -0.0, -1.0, math.nan, math.inf])
    def test_a_width_not_finite_and_positive_is_rejected_without_a_warning(self, width,
                                                                           monkeypatch):
        message = re.escape(f"bin width must be finite and positive, got {width!r}")
        model = init_params(NetworkArch((4,), "relu"), seed=0)

        # the probe checks the width before its pair build and its forward
        def too_early(*args):
            raise AssertionError("the probe built its pairs or ran the forward before the check")
        monkeypatch.setattr(network, "_probe_representatives", too_early)
        monkeypatch.setattr(network, "_valid_ranges", too_early)
        calls = [partial(bin_index, [1.0], width), partial(binned_mae, [1.0], [2.0], width),
                 partial(binned_mae, [np.nan, np.nan], [2.0, 3.0], width),
                 partial(probe_learned_function, model, 40, bin_width_m=width)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ValueError, match=message):
                    call()

    def test_csv_output(self, tmp_path):
        out = binned_mae([30.0], [28.0], 5.0)
        path = tmp_path / "binned.csv"
        out.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "bin_center,mae,std,rel_mae,count"
        assert lines[1].startswith("27.5,2.0,0.0,")


def reference_binned_rows(predicted, truth, bin_width_m):
    """binned_mae's rows by one boolean mask per bin, the loop it replaced."""
    predicted, truth = np.asarray(predicted, dtype=float), np.asarray(truth, dtype=float)
    keep = np.isfinite(predicted)
    predicted, truth = predicted[keep], truth[keep]
    err = np.abs(predicted - truth)
    idx = bin_index(truth, bin_width_m)
    rows = []
    for k in np.unique(idx):
        sel = idx == k
        center = float((k + 0.5) * bin_width_m)
        mae = float(err[sel].mean())
        rows.append(BinRow(center, mae, float(err[sel].std()), mae / center, int(sel.sum())))
    return tuple(rows)


def row_bits(rows):
    return [(*np.array(row[:4], dtype=float).view(np.int64).tolist(), row.count) for row in rows]


_widths = st.sampled_from([5.0, 0.37, 1e-3])


@st.composite
def _samples(draw):
    """(prediction, truth) pairs: truths anywhere or on a bin edge, NaN predictions."""
    width = draw(_widths)
    truth = st.one_of(st.floats(-10.0, 150.0), st.integers(-2, 40).map(lambda k: k * width))
    pred = st.one_of(st.floats(-10.0, 160.0), st.just(np.nan))
    return draw(st.lists(st.tuples(pred, truth), min_size=1, max_size=80)), width


# Two bins of 13 ties, errors of mixed magnitude: a sort that reorders ties
# (numpy's default argsort does here) sums each bin in another order.
_TIES = [(t + (0.1, 0.3, 3.3e15, 0.7)[i % 4], t) for i, t in enumerate([1.0, 6.0] * 13)]


class TestBinnedMaeMatchesThePerBinMasks:
    @given(_samples())
    @example((_TIES, 5.0))
    # one-sample bins around a bin edge, a NaN prediction among them
    @example(([(1.0, 5.0), (2.0, 4.999999999999999), (np.nan, 5.0), (7.0, 10.0)], 5.0))
    @settings(max_examples=200, deadline=None)
    def test_every_field_has_the_bits_of_the_mask_loop(self, sample):
        pairs, width = sample
        predicted, truth = np.array(pairs, dtype=float).T
        out = binned_mae(predicted, truth, width)
        assert row_bits(out.rows) == row_bits(reference_binned_rows(predicted, truth, width))


class TestCompare:
    def test_csv_bytes(self, tmp_path):
        rows = (BinRow(2.5, 0.5, 0.0, 0.2, 4), BinRow(7.5, 1e300, 5e-324, -0.0, 1))
        BinnedError(rows).write_csv(tmp_path / "binned.csv")
        assert (tmp_path / "binned.csv").read_bytes() == (
            b"bin_center,mae,std,rel_mae,count\n2.5,0.5,0.0,0.2,4\n7.5,1e+300,5e-324,-0.0,1\n")
        EstimatorComparison((EstimatorReport("network", BinnedError(rows), 0.75),
                             EstimatorReport("mute", BinnedError(()), 0.0),
                             EstimatorReport("baseline", BinnedError(rows[:1]), 5e-324)),
                            ).write_csv(tmp_path / "comparison.csv")
        assert (tmp_path / "comparison.csv").read_bytes() == (
            b"estimator,coverage,bin_center,mae,std,rel_mae,count\n"
            b"network,0.75,2.5,0.5,0.0,0.2,4\nnetwork,0.75,7.5,1e+300,5e-324,-0.0,1\n"
            b"baseline,5e-324,2.5,0.5,0.0,0.2,4\n")

    def test_identity_estimator(self):
        truth = np.linspace(20.0, 90.0, 40)
        triples = np.tile([10.0, 100.0, 30.0], (40, 1))
        estimators = {"oracle": lambda s, t=truth: t.copy()}
        out = compare_estimators(estimators, triples, truth, 5.0)
        report = out.report("oracle")
        assert report.coverage == 1.0
        assert all(row.mae == 0.0 for row in report.binned.rows)

    def test_all_invalid_is_zero_coverage(self):
        truth = np.linspace(20.0, 90.0, 10)
        triples = np.tile([10.0, 100.0, 30.0], (10, 1))
        out = compare_estimators({"mute": lambda s: np.full(len(s), np.nan)}, triples, truth)
        assert out.report("mute").coverage == 0.0
        assert out.report("mute").binned.rows == ()

    def test_empty_test_set_rejected(self):
        with pytest.raises(ValueError):
            compare_estimators({"x": lambda s: s[:, 0]}, np.zeros((0, 3)), np.zeros(0))
        with pytest.raises(ValueError):
            compare_estimators({}, np.ones((2, 3)), np.ones(2))

    def test_reflectance_classes_report_similar_accuracy(self, slices, section_table):
        # noiseless sweep at two reflectance classes: accuracy must not
        # depend on target brightness (ratios cancel the reflectance)
        from gatedepth.scene import NoiseModel, simulate_batch

        r = np.arange(25.0, 95.0, 0.5)
        for alpha in (0.3, 0.9):
            gray = simulate_batch(r, np.full_like(r, alpha), slices, 0.0, 3.49, NoiseModel(0.0, 0))
            out = compare_estimators({"baseline": partial(baseline_estimate_batch, table=section_table)},
                                     gray.astype(float), r, 5.0)
            report = out.report("baseline")
            assert report.coverage > 0.9
            assert all(row.mae < 1.0 for row in report.binned.rows)

    def test_csv_lists_every_estimator(self, tmp_path):
        truth = np.linspace(20.0, 40.0, 8)
        triples = np.tile([10.0, 100.0, 30.0], (8, 1))
        out = compare_estimators(
            {"a": lambda s, t=truth: t + 1.0, "b": lambda s, t=truth: t - 2.0},
            triples, truth, 5.0,
        )
        path = tmp_path / "cmp.csv"
        out.write_csv(path)
        text = path.read_text()
        assert text.startswith("estimator,coverage,bin_center,mae,std,rel_mae,count\n")
        assert "\na," in text and "\nb," in text


class TestDepthMap:
    def test_csv_bytes(self, tmp_path):
        DepthMap(np.array([[1.5, np.nan, -0.0], [np.inf, 5e-324, 1e300]])).write_csv(
            tmp_path / "depth.csv")
        assert (tmp_path / "depth.csv").read_bytes() == b"1.5,,-0.0\n,5e-324,1e+300\n"

    def test_all_saturated_gives_all_invalid(self, slices, section_table):
        images = SliceImageSet(tuple(np.full((4, 6), 255, dtype=np.uint8) for _ in range(3)))
        depth_map = render_depth_map(partial(baseline_estimate_batch, table=section_table), images)
        assert not depth_map.valid_mask.any()
        assert depth_map.depth.shape == (4, 6)

    def test_constant_plane_is_flat(self, slices, section_table):
        depth = np.full((6, 9), 50.0)
        reflect = np.full_like(depth, 0.8)
        images = render_slices(depth, reflect, slices, NoiseModel(0.0, 0), calib=3.2)
        depth_map = render_depth_map(partial(baseline_estimate_batch, table=section_table), images)
        valid = depth_map.depth[depth_map.valid_mask]
        assert valid.size == depth_map.depth.size
        assert valid.std() < 0.5
        assert valid.mean() == pytest.approx(50.0, abs=0.5)

    def test_ramp_scene_accuracy(self, slices, section_table):
        cols = 220
        depth = np.tile(np.linspace(10.0, 150.0, cols), (3, 1))
        reflect = np.full_like(depth, 0.8)
        images = render_slices(depth, reflect, slices, NoiseModel(0.0, 0), calib=3.2)
        depth_map = render_depth_map(partial(baseline_estimate_batch, table=section_table), images)
        band = (depth >= 25.0) & (depth <= 80.0) & depth_map.valid_mask
        rel_err = np.abs(depth_map.depth[band] - depth[band]) / depth[band]
        assert np.median(rel_err) < 0.05

    def test_validity_mask_matches_prefilter_predicates(self, section_table):
        rng = np.random.default_rng(3)
        imgs = tuple(rng.integers(0, 256, (12, 12)).astype(np.uint8) for _ in range(3))
        images = SliceImageSet(imgs)
        depth_map = render_depth_map(partial(baseline_estimate_batch, table=section_table), images)
        s = np.stack([img.astype(float) for img in imgs], axis=-1)
        prefilter_ok = (s.max(axis=-1) <= SATURATION_LIMIT) & (
            s.max(axis=-1) - s.min(axis=-1) >= CONTRAST_FLOOR
        )
        # every valid depth pixel passed the prefilter; prefiltered pixels may
        # still come back invalid when no section applies
        assert np.all(prefilter_ok[depth_map.valid_mask])
        assert not depth_map.valid_mask[~prefilter_ok].any()

    def test_network_estimator_resolution(self, slices):
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        images = SliceImageSet(tuple(np.full((7, 5), v, dtype=np.uint8) for v in (10, 100, 30)))
        depth_map = render_depth_map(partial(predict_depth_batch, model), images)
        assert depth_map.depth.shape == (7, 5)
        assert depth_map.valid_mask.all()

    def test_network_validity_mask_equals_prefilter_mask(self):
        rng = np.random.default_rng(8)
        imgs = tuple(rng.integers(0, 256, (10, 14)).astype(np.uint8) for _ in range(3))
        model = init_params(NetworkArch((4,), "relu"), seed=0)
        depth_map = render_depth_map(partial(predict_depth_batch, model), SliceImageSet(imgs))
        s = np.stack([img.astype(float) for img in imgs], axis=-1)
        prefilter_ok = (s.max(axis=-1) <= SATURATION_LIMIT) & (
            s.max(axis=-1) - s.min(axis=-1) >= CONTRAST_FLOOR
        )
        np.testing.assert_array_equal(depth_map.valid_mask, prefilter_ok)

    def test_pgm_roundtrip(self, tmp_path):
        depth = np.array([[1.5, np.nan], [120.25, 0.004]])
        path = tmp_path / "depth.pgm"
        DepthMap(depth).write_pgm(path)
        back = read_depth_pgm(path)
        assert np.isnan(back.depth[0, 1])
        # 1/256 m quantization, and near-zero valid depths stay valid
        assert back.depth[0, 0] == pytest.approx(1.5, abs=1 / 256)
        assert back.depth[1, 0] == pytest.approx(120.25, abs=1 / 256)
        assert back.depth[1, 1] == pytest.approx(1 / 256, abs=1e-9)


_triple = st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255))


class TestValidityScreen:
    """predict_depth_batch and baseline_estimate_batch share the prefilter's screen."""

    MODEL = init_params(NetworkArch((4,), "relu"), seed=0)

    @given(st.lists(_triple, min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_estimators_follow_the_prefilter(self, section_table, triples):
        kept = np.array([len(prefilter(RawDataset([t], [1.0]))) == 1 for t in triples])
        values = np.array(triples, dtype=float)
        np.testing.assert_array_equal(np.isfinite(predict_depth_batch(self.MODEL, values)), kept)
        assert np.all(np.isnan(baseline_estimate_batch(values, section_table)[~kept]))

    @given(_triple, st.integers(0, 2), st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_rows_are_never_usable(self, section_table, triple, column, bad):
        values = np.array([triple, (10, 100, 30)], dtype=float)
        values[0, column] = bad
        assert np.isnan(predict_depth_batch(self.MODEL, values)[0])
        assert np.isnan(baseline_estimate_batch(values, section_table)[0])
