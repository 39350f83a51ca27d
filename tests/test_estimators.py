import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedepth.errors import EstimatorError, NoSignalError, UnsupportedShapeError
from gatedepth.estimators import (
    DARK,
    FALLING,
    PLATEAU,
    RISING,
    DelaySample,
    baseline_estimate,
    baseline_estimate_batch,
    build_section_table,
    correlation_trapez,
    correlation_triangle,
    gdp_delay_samples,
    time_slicing_estimate,
)
from gatedepth.gating import SPEED_OF_LIGHT_M_PER_NS as C0
from gatedepth.gating import GateShape, PulseShape, SliceConfig, gdp
from gatedepth.scene import NoiseModel, ScenePoint, simulate_triple


class TestTimeSlicing:
    def test_single_sample(self):
        assert time_slicing_estimate([DelaySample(100.0, 1.0)]) == pytest.approx(14.9896229)

    def test_symmetric_weights(self):
        samples = [DelaySample(100.0, 1.0), DelaySample(200.0, 2.0), DelaySample(300.0, 1.0)]
        assert time_slicing_estimate(samples) == pytest.approx(29.9792458)

    def test_no_signal(self):
        with pytest.raises(NoSignalError):
            time_slicing_estimate([DelaySample(100.0, 0.0), DelaySample(200.0, 0.0)])

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            time_slicing_estimate([DelaySample(100.0, -1.0)])

    def test_recovers_range_from_dense_triangular_profile(self):
        # matched pulse/gate widths give a symmetric profile whose weighted
        # mean gate-open delay equals the two-way travel time
        r, step = 50.0, 1.0
        pulse, gate = PulseShape(100.0), GateShape(100.0)
        delays = np.arange(0.0, 600.0, step)
        profile = gdp(pulse, gate, r, delays)
        samples = gdp_delay_samples(profile, pulse.width_ns)
        estimate = time_slicing_estimate(samples)
        assert abs(estimate - r) <= C0 * step / 2


class TestCorrelationClosedForms:
    def test_trapez_zero_ratio_is_region_start(self):
        assert correlation_trapez(0.0, 5.0, 100.0, 100.0) == pytest.approx(29.9792458)

    def test_trapez_unit_ratio_is_region_end(self):
        assert correlation_trapez(7.0, 7.0, 100.0, 100.0) == pytest.approx(44.96886870)

    def test_trapez_zero_plateau_rejected(self):
        with pytest.raises(EstimatorError):
            correlation_trapez(5.0, 0.0, 100.0, 100.0)

    def test_trapez_inverts_simulation(self):
        # two equal pulses, gates twice as long, second slice delayed by one
        # pulse width: the classic overlapping-trapezoid configuration
        tl, t0 = 100.0, 100.0
        early = SliceConfig.rectangular(1, tl, 2 * tl, t0)
        late = SliceConfig.rectangular(1, tl, 2 * tl, t0 + tl)
        r = 40.0
        calib = 2.0 * r * r  # puts the plateau level at 200 gray
        noise = NoiseModel(0.0, 0)
        plateau = simulate_triple(ScenePoint(r, 1.0), [early, early, early], 0.0, calib, noise).s1
        ramp = simulate_triple(ScenePoint(r, 1.0), [late, late, late], 0.0, calib, noise).s1
        assert correlation_trapez(ramp, plateau, t0, tl) == pytest.approx(r, abs=0.1)

    def test_triangle_balanced_ratio(self):
        assert correlation_triangle(3.0, 3.0, 100.0, 100.0) == pytest.approx(37.47405725)

    def test_triangle_degenerate_ratios(self):
        assert correlation_triangle(4.0, 0.0, 100.0, 100.0) == pytest.approx(0.5 * C0 * 300.0)
        with pytest.raises(EstimatorError):
            correlation_triangle(0.0, 0.0, 100.0, 100.0)

    def test_triangle_inverts_simulation(self):
        # matched widths make both profiles triangular; in the crossover span
        # the early slice falls while the late one rises
        tl, t0 = 100.0, 50.0
        early = SliceConfig.rectangular(1, tl, tl, t0)
        late = SliceConfig.rectangular(1, tl, tl, t0 + tl)
        r = 30.0
        calib = 2.0 * r * r
        noise = NoiseModel(0.0, 0)
        falling = simulate_triple(ScenePoint(r, 1.0), [early] * 3, 0.0, calib, noise).s1
        rising = simulate_triple(ScenePoint(r, 1.0), [late] * 3, 0.0, calib, noise).s1
        assert correlation_triangle(rising, falling, t0, tl) == pytest.approx(r, abs=0.1)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @example(0.01, 0.010000000000000002)  # one ULP apart: both estimates round to the same float
    @settings(max_examples=100, deadline=None)
    def test_estimates_monotone_in_ratio(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for estimate in (correlation_trapez, correlation_triangle):
            at_lo, at_hi = estimate(lo, 10.0, 100.0, 100.0), estimate(hi, 10.0, 100.0, 100.0)
            assert at_lo <= at_hi
            if hi / lo - 1.0 > 1e-9:
                assert at_lo < at_hi


class TestSectionTable:
    def test_stock_slice_set_has_nine_sections(self, section_table):
        assert len(section_table) == 9

    def test_sections_partition_the_estimable_span(self, section_table):
        secs = section_table.sections
        for left, right in zip(secs[:-1], secs[1:]):
            assert left.r_hi == right.r_lo
        assert secs[0].r_lo == pytest.approx(17.98754748)
        assert secs[-1].r_hi == pytest.approx(122.91490778)

    def test_behavior_sequence(self, section_table):
        behaviors = [sec.behaviors for sec in section_table.sections]
        assert behaviors == [
            (RISING, RISING, DARK),
            (PLATEAU, RISING, DARK),
            (FALLING, RISING, DARK),
            (FALLING, RISING, RISING),
            (FALLING, PLATEAU, RISING),
            (DARK, PLATEAU, RISING),
            (DARK, FALLING, RISING),
            (DARK, FALLING, PLATEAU),
            (DARK, FALLING, FALLING),
        ]

    def test_three_slice_overlap_region_has_two_estimates(self, section_table):
        doubled = [sec for sec in section_table.sections if len(sec.estimators) == 2]
        assert len(doubled) == 2
        assert doubled[0].r_lo == pytest.approx(56.96056702)
        assert doubled[1].r_hi == pytest.approx(71.95018992)

    def test_single_slice_degrades_to_behavior_description(self, slices):
        table = build_section_table([slices[0]])
        assert [sec.behaviors for sec in table.sections] == [(RISING,), (PLATEAU,), (FALLING,)]
        assert all(not sec.estimators for sec in table.sections)

    def test_non_rectangular_rejected(self):
        cfg = SliceConfig(1, PulseShape(100.0, kind="gaussian"), GateShape(100.0), 0.0)
        with pytest.raises(UnsupportedShapeError):
            build_section_table([cfg])

    def test_general_inversion_reduces_to_closed_form(self):
        # on the overlapping-trapezoid configuration the section estimator and
        # the closed-form expression must agree
        tl, t0 = 100.0, 100.0
        early = SliceConfig.rectangular(1, tl, 2 * tl, t0)
        late = SliceConfig.rectangular(1, tl, 2 * tl, t0 + tl)
        table = build_section_table([early, late])
        sec = next(s for s in table.sections if s.behaviors == (PLATEAU, RISING))
        (est,) = sec.estimators
        for ramp, plateau in [(10.0, 80.0), (40.0, 80.0), (79.0, 80.0)]:
            # est ratio is slice0/slice1 = plateau/ramp
            assert est.estimate(plateau, ramp) == pytest.approx(
                correlation_trapez(ramp, plateau, t0, tl), rel=1e-12
            )

    def test_csv_dump(self, section_table, tmp_path):
        path = tmp_path / "sections.csv"
        section_table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r_lo,r_hi,slice1,slice2,slice3,estimators"
        assert len(lines) == 10


class TestBaseline:
    def simulate(self, slices, r, calib=3.4916233, alpha=1.0):
        s = simulate_triple(ScenePoint(r, alpha), slices, 0.0, calib, NoiseModel(0.0, 0))
        return np.array([s.s1, s.s2, s.s3], dtype=float)

    def test_single_lit_slice_gives_none(self, section_table):
        assert baseline_estimate((0.0, 0.0, 120.0), section_table) is None

    def test_three_slice_region_averages_two_estimates(self, slices, section_table):
        triple = self.simulate(slices, 65.0)
        estimate = baseline_estimate(triple, section_table)
        assert estimate == pytest.approx(65.0, abs=0.5)

    def test_identity_within_quantization_away_from_boundaries(self, slices, section_table):
        boundaries = np.array(
            [sec.r_lo for sec in section_table.sections] + [section_table.sections[-1].r_hi]
        )
        for r in np.arange(20.0, 100.0, 0.5):
            if np.min(np.abs(boundaries - r)) < 2.0:
                continue
            estimate = baseline_estimate(self.simulate(slices, r), section_table)
            assert estimate is not None
            assert abs(estimate - r) < 0.3, f"r={r}"

    def test_sweep_mae_below_one_metre(self, slices, section_table):
        errors = []
        for r in np.arange(20.0, 100.0, 1.0):
            estimate = baseline_estimate(self.simulate(slices, r), section_table)
            if estimate is not None:
                errors.append(abs(estimate - r))
        assert len(errors) >= 75
        assert np.mean(errors) < 1.0

    def test_scale_invariance(self, slices, section_table):
        # invariance holds while no slice crosses the lit/dark floor
        for r in (25.0, 45.0, 65.0, 90.0):
            triple = self.simulate(slices, r)
            base = baseline_estimate(triple, section_table)
            for k in (0.5, 2.0, 3.0):
                if any((s >= 6.0) != (s * k >= 6.0) for s in triple):
                    continue
                scaled = baseline_estimate(triple * k, section_table)
                assert scaled == pytest.approx(base, abs=1e-9)

    def test_none_when_nothing_lit(self, section_table):
        assert baseline_estimate((0.0, 0.0, 0.0), section_table) is None
        assert baseline_estimate((3.0, 5.0, 2.0), section_table) is None

    def test_batch_masks_prefilter_failures(self, slices, section_table):
        good = self.simulate(slices, 40.0)
        saturated = np.array([255.0, 80.0, 0.0])
        flat = np.array([100.0, 102.0, 103.0])
        out = baseline_estimate_batch(np.vstack([good, saturated, flat]), section_table)
        assert np.isfinite(out[0])
        assert np.isnan(out[1]) and np.isnan(out[2])

    def test_rejects_wrong_arity(self, section_table):
        with pytest.raises(ValueError):
            baseline_estimate((1.0, 2.0), section_table)
