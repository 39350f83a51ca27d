import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gatedepth.errors import NoSignalError, UnsupportedShapeError
from gatedepth.estimators import (
    DARK,
    FALLING,
    PLATEAU,
    RISING,
    PairEstimator,
    Section,
    SectionTable,
    baseline_estimate,
    baseline_estimate_batch,
    build_section_table,
    time_slicing_estimate,
)
from gatedepth.gating import SPEED_OF_LIGHT_M_PER_NS as C0
from gatedepth.gating import GateShape, PulseShape, RangeProfile, SliceConfig, gdp, standard_slices
from gatedepth.pipeline import screen_triples
from gatedepth.scene import NoiseModel, UniformRange, generate_dataset, simulate_batch


def delay_profile(delays, intensities):
    return RangeProfile("delay_ns", np.array(delays, dtype=float), np.array(intensities, dtype=float))


class TestTimeSlicing:
    def test_single_sample(self):
        # 60 ns gate delay plus a 40 ns pulse: 100 ns from the pulse onset
        assert time_slicing_estimate(delay_profile([60.0], [1.0]), 40.0) == pytest.approx(14.9896229)

    def test_symmetric_weights(self):
        profile = delay_profile([100.0, 200.0, 300.0], [1.0, 2.0, 1.0])
        assert time_slicing_estimate(profile, 0.0) == pytest.approx(29.9792458)

    def test_no_signal(self):
        with pytest.raises(NoSignalError):
            time_slicing_estimate(delay_profile([100.0, 200.0], [0.0, 0.0]), 0.0)

    def test_negative_intensity_rejected(self):
        profile = delay_profile([100.0, 200.0], [1.0, 1.0])
        profile.intensities[1] = -1.0  # RangeProfile itself rejects negatives when built
        with pytest.raises(ValueError):
            time_slicing_estimate(profile, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        with pytest.raises(ValueError):
            time_slicing_estimate(delay_profile([100.0, 200.0], [1.0, bad]), 0.0)

    def test_distance_axis_rejected(self):
        profile = RangeProfile("distance_m", np.array([10.0, 20.0]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="delay-axis"):
            time_slicing_estimate(profile, 0.0)

    def test_recovers_range_from_dense_triangular_profile(self):
        # matched pulse/gate widths give a symmetric profile whose weighted
        # mean gate-open delay equals the two-way travel time
        r, step = 50.0, 1.0
        pulse, gate = PulseShape(100.0), GateShape(100.0)
        delays = np.arange(0.0, 600.0, step)
        estimate = time_slicing_estimate(gdp(pulse, gate, r, delays), pulse.width_ns)
        assert abs(estimate - r) <= C0 * step / 2


def pair_estimator(gate_ns, delay_ns, behaviors):
    """The one estimator of two unit-pulse slices, the second delayed by one
    100 ns pulse width, on the section with the given behaviors."""
    early = SliceConfig.rectangular(1, 100.0, gate_ns, delay_ns)
    late = SliceConfig.rectangular(1, 100.0, gate_ns, delay_ns + 100.0)
    table = build_section_table([early, late])
    (est,) = next(s for s in table.sections if s.behaviors == behaviors).estimators
    return est


def trapez_estimator():
    """Overlapping trapezoids: gates twice as long as the pulses. Across
    29.98-44.97 m the early slice holds its plateau while the late one ramps
    up; ``estimate(plateau, ramp)``."""
    return pair_estimator(200.0, 100.0, (PLATEAU, RISING))


def triangle_estimator(delay_ns=100.0):
    """Matched widths: triangular slices crossing over, the early one
    falling while the late one rises; ``estimate(falling, rising)``."""
    return pair_estimator(100.0, delay_ns, (FALLING, RISING))


class TestCorrelationClosedForms:
    """The two classic closed forms, as pair estimators of two-slice tables."""

    def test_trapez_zero_ratio_is_region_start(self):
        # the ramp slice is the denominator: a vanishing ramp approaches the
        # region start, but a ramp with no signal gives no estimate
        est = trapez_estimator()
        assert np.isnan(est.estimate(5.0, 0.0))
        assert est.estimate(5.0, 1e-9) == pytest.approx(29.9792458)

    def test_trapez_unit_ratio_is_region_end(self):
        assert trapez_estimator().estimate(7.0, 7.0) == pytest.approx(44.96886870)

    def test_trapez_zero_plateau_rejected(self):
        assert np.isnan(trapez_estimator().estimate(0.0, 5.0))

    def test_trapez_inverts_simulation(self):
        tl, t0 = 100.0, 100.0
        early = SliceConfig.rectangular(1, tl, 2 * tl, t0)
        late = SliceConfig.rectangular(1, tl, 2 * tl, t0 + tl)
        r = 40.0
        calib = 2.0 * r * r  # puts the plateau level at 200 gray
        plateau, ramp, _ = simulate_batch([r], [1.0], [early, late, late], 0.0, calib, NoiseModel(0.0, 0))[0]
        assert trapez_estimator().estimate(plateau, ramp) == pytest.approx(r, abs=0.1)

    def test_triangle_balanced_ratio(self):
        assert triangle_estimator().estimate(3.0, 3.0) == pytest.approx(37.47405725)

    def test_triangle_degenerate_ratios(self):
        est = triangle_estimator()
        assert est.estimate(0.0, 4.0) == pytest.approx(0.5 * C0 * 300.0)
        assert np.isnan(est.estimate(0.0, 0.0))

    def test_triangle_inverts_simulation(self):
        tl, t0 = 100.0, 50.0
        early = SliceConfig.rectangular(1, tl, tl, t0)
        late = SliceConfig.rectangular(1, tl, tl, t0 + tl)
        r = 30.0
        calib = 2.0 * r * r
        falling, rising, _ = simulate_batch([r], [1.0], [early, late, late], 0.0, calib,
                                            NoiseModel(0.0, 0))[0]
        assert triangle_estimator(t0).estimate(falling, rising) == pytest.approx(r, abs=0.1)

    def test_negative_numerator_rejected(self):
        assert np.isnan(triangle_estimator().estimate(-1.0, 3.0))

    def test_columns_match_scalars(self):
        est = triangle_estimator()
        a, b = np.array([3.0, 0.0, -1.0, 8.0]), np.array([3.0, 0.0, 3.0, 1.0])
        column = est.estimate(a, b)
        scalars = [est.estimate(x, y) for x, y in zip(a, b)]
        np.testing.assert_array_equal(column, scalars)

    @given(st.floats(0.01, 100.0), st.floats(0.01, 100.0))
    @example(0.01, 0.010000000000000002)  # one ULP apart: the lower input rounds 1 ULP higher
    @settings(max_examples=100, deadline=None)
    def test_estimates_monotone_in_ratio(self, a, b):
        # the general inversion rounds in four steps, so inputs a few ULPs
        # apart may come out up to 3 ULPs out of order (measured on 2M pairs)
        lo, hi = min(a, b), max(a, b)
        for est in (trapez_estimator(), triangle_estimator()):
            at_lo, at_hi = est.estimate(10.0, lo), est.estimate(10.0, hi)
            assert at_lo <= at_hi + 3 * np.spacing(at_hi)
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

    def test_csv_bytes(self, tmp_path):
        a = PairEstimator(0, 1, RISING, PLATEAU, 0.0, 1.0, 240.0, 0.0, 1, 1)
        b = PairEstimator(1, 2, FALLING, RISING, 600.0, -1.0, 0.0, 1.0, 1, 1)
        table = SectionTable((Section(-0.0, 5e-324, (RISING, PLATEAU, DARK), (a,)),
                              Section(5e-324, 1e300, (FALLING, RISING, RISING), (a, b)),
                              Section(1e300, 2e300, (DARK, DARK, RISING), ())), (None,) * 3)
        path = tmp_path / "sections.csv"
        table.write_csv(path)
        assert path.read_bytes() == (
            b"r_lo,r_hi,slice1,slice2,slice3,estimators\n"
            b"-0.0,5e-324,rising,plateau,dark,s1.rising/s2.plateau\n"
            b"5e-324,1e+300,falling,rising,rising,s1.rising/s2.plateau|s2.falling/s3.rising\n"
            b"1e+300,2e+300,dark,dark,rising,\n")

    def test_single_slice_degrades_to_behavior_description(self, slices):
        table = build_section_table([slices[0]])
        assert [sec.behaviors for sec in table.sections] == [(RISING,), (PLATEAU,), (FALLING,)]
        assert all(not sec.estimators for sec in table.sections)

    def test_non_rectangular_rejected(self):
        cfg = SliceConfig(1, PulseShape(100.0, kind="triangular"), GateShape(100.0), 0.0)
        with pytest.raises(UnsupportedShapeError):
            build_section_table([cfg])

    def test_general_inversion_reduces_to_closed_form(self):
        # on the overlapping-trapezoid configuration the section estimator
        # must agree with the closed form c0/2 * (t0 + tl + tl * ramp/plateau)
        tl, t0 = 100.0, 100.0
        est = trapez_estimator()
        for ramp, plateau in [(10.0, 80.0), (40.0, 80.0), (79.0, 80.0)]:
            closed_form = 0.5 * C0 * (t0 + tl + ramp / plateau * tl)
            assert est.estimate(plateau, ramp) == pytest.approx(closed_form, rel=1e-12)

    def test_csv_dump(self, section_table, tmp_path):
        path = tmp_path / "sections.csv"
        section_table.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "r_lo,r_hi,slice1,slice2,slice3,estimators"
        assert len(lines) == 10


class TestBaseline:
    def simulate(self, slices, r, calib=3.4916233, alpha=1.0):
        return simulate_batch([r], [alpha], slices, 0.0, calib, NoiseModel(0.0, 0))[0].astype(float)

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

    @pytest.mark.parametrize("bad", [(1.0, np.nan, 80.0), (np.inf, 40.0, 80.0), np.ones((2, 2, 3))])
    def test_rejects_non_finite_or_deeper_input(self, section_table, bad):
        with pytest.raises(ValueError):
            baseline_estimate(bad, section_table)

    def test_block_gives_nan_where_a_triple_gives_none(self, slices, section_table):
        block = np.vstack([self.simulate(slices, 65.0), (0.0, 0.0, 120.0)])
        out = baseline_estimate(block, section_table)
        assert out[0] == baseline_estimate(block[0], section_table)
        assert np.isnan(out[1]) and baseline_estimate(block[1], section_table) is None
        assert baseline_estimate(np.zeros((0, 3)), section_table).shape == (0,)


def reference_estimate(est, a, b):
    """One estimator on one pair, by the per-pair rules (None: no estimate)."""
    if b <= 0 or a < 0:
        return None
    with np.errstate(all="ignore"):
        ratio = (a / est.pulses_a) / (b / est.pulses_b)
        denom = ratio * est.slope_b - est.slope_a
        if abs(denom) < 1e-12:
            return None
        tau = (est.intercept_a - ratio * est.intercept_b) / denom
    return 0.5 * C0 * tau


def reference_baseline(triple, table, dark_floor, tolerance_m):
    """The baseline for one finite triple by the per-row rules (None: undecidable)."""
    lit = frozenset(int(i) for i in np.flatnonzero(triple >= dark_floor))
    if len(lit) < min(2, len(table.slices)):
        return None
    estimates = []
    for sec in table.sections:
        if not lit <= sec.lit:
            continue
        for est in sec.estimators:
            if est.index_a not in lit or est.index_b not in lit:
                continue
            r_hat = reference_estimate(est, triple[est.index_a], triple[est.index_b])
            if (r_hat is not None and math.isfinite(r_hat)
                    and sec.r_lo - tolerance_m <= r_hat <= sec.r_hi + tolerance_m):
                estimates.append(r_hat)
    return sum(estimates) / len(estimates) if estimates else None


def reference_batch(triples, table, dark_floor, tolerance_m):
    out = np.full(len(triples), np.nan)
    for i in np.flatnonzero(screen_triples(triples)[2]):
        est = reference_baseline(triples[i], table, dark_floor, tolerance_m)
        if est is not None:
            out[i] = est
    return out


def same_bits(a, b):
    return np.asarray(a).view(np.int64).tolist() == np.asarray(b).view(np.int64).tolist()


# Noisy simulated triples over the whole estimable span and beyond.
SIMULATED = generate_dataset(400, UniformRange(10.0, 130.0), UniformRange(0.05, 0.9),
                             standard_slices(), NoiseModel(2.0, 11), target_peak_gray=200.0).triples
_gray = st.integers(0, 255)
_rows = st.one_of(
    st.sampled_from(SIMULATED.tolist()),
    st.tuples(st.sampled_from(SIMULATED.tolist()), st.tuples(*[st.floats(-3.0, 3.0)] * 3)).map(
        lambda pair: [g + d for g, d in zip(*pair)]),
    st.tuples(_gray, _gray, _gray),
    st.tuples(*[st.integers(0, 10)] * 3),  # dark and low-contrast
    st.tuples(st.integers(245, 255), _gray, _gray),  # around the saturation limit
    st.tuples(*[st.one_of(st.floats(-20.0, 300.0),
                          st.sampled_from([0.0, 5e-324, 1e-310, 6.0, 250.0, 1e300, np.nan]))] * 3),
)
_settings = st.sampled_from([(6.0, 1.0), (0.0, 0.0), (-1.0, 5.0), (30.0, 0.5), (0.0, math.inf)])


class TestBaselineMatchesThePerRowRules:
    @given(st.lists(_rows, min_size=1, max_size=60), _settings)
    # four surviving estimates whose mean moves one ULP if summed in another order
    @example(rows=[[2.8709887120629127, 36.53995869383545, 9.96621556292265]], setting=(-1.0, 5.0))
    # an infinite estimate from finite intensities, which an infinite tolerance would admit
    @example(rows=[[250.0, 1e-305, -5.0]], setting=(0.0, math.inf))
    @settings(max_examples=200, deadline=None)
    def test_batch_is_bit_identical_to_the_per_row_rules(self, section_table, rows, setting):
        triples = np.array(rows, dtype=float)
        out = baseline_estimate_batch(triples, section_table, *setting)
        assert same_bits(out, reference_batch(triples, section_table, *setting))

    @given(st.lists(_rows, min_size=1, max_size=40), _settings, st.data())
    @settings(max_examples=100, deadline=None)
    def test_a_row_does_not_depend_on_the_rest_of_the_batch(self, section_table, rows, setting,
                                                             data):
        triples = np.array(rows, dtype=float)
        out = baseline_estimate_batch(triples, section_table, *setting)
        cut = data.draw(st.integers(0, len(rows)))
        parts = [baseline_estimate_batch(part, section_table, *setting)
                 for part in (triples[:cut], triples[cut:])]
        assert same_bits(np.concatenate(parts), out)
        order = np.array(data.draw(st.permutations(range(len(rows)))))
        assert same_bits(baseline_estimate_batch(triples[order], section_table, *setting), out[order])
        for i, row in enumerate(triples):
            assert same_bits(baseline_estimate_batch(row, section_table, *setting), out[i:i + 1])
