import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import gatedepth
from gatedepth.errors import UnsupportedShapeError
from gatedepth.gating import (
    SPEED_OF_LIGHT_M_PER_NS as C0,
    Atmosphere,
    GateShape,
    PulseShape,
    RangeProfile,
    SliceConfig,
    gated_response,
    gdp,
    rip,
    rip_breakpoints,
    slice_support,
    _overlap_cubics,
)

from conftest import rect_overlap_oracle


def test_speed_of_light_constant_is_exact():
    assert C0 == 0.299792458


class TestShapes:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PulseShape(0.0)
        with pytest.raises(ValueError):
            PulseShape(100.0, kind="square")
        with pytest.raises(ValueError):
            PulseShape(100.0, kind="trapezoidal", rise_ns=60.0, fall_ns=50.0)
        with pytest.raises(ValueError):
            GateShape(-5.0)
        with pytest.raises(ValueError):
            GateShape(float("inf"))
        for cls in (PulseShape, GateShape):
            assert cls.KINDS == ("rectangular", "triangular", "trapezoidal")
            with pytest.raises(ValueError, match=f"unknown {cls.__name__} kind 'gaussian'"):
                cls(100.0, "gaussian")

    @pytest.mark.parametrize("cls, kind, field, kw", [
        (PulseShape, "trapezoidal", "rise_ns", dict(fall_ns=10.0)),
        (PulseShape, "trapezoidal", "fall_ns", dict(rise_ns=10.0)),
        (GateShape, "trapezoidal", "rise_ns", dict(fall_ns=10.0)),
        (GateShape, "triangular", "fall_ns", {}),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_shape_parameter_is_rejected_by_name(self, cls, kind, field, kw, value):
        with pytest.raises(ValueError, match=f"{cls.__name__} {field} must be finite, got {value!r}"):
            cls(100.0, kind, **{field: value}, **kw)

    @pytest.mark.parametrize("kind, kw", [("trapezoidal", dict(rise_ns=float("nan"), fall_ns=10.0))])
    def test_nan_shape_never_reaches_the_overlap(self, kind, kw):
        with pytest.raises(ValueError, match="must be finite, got nan"):
            cfg = SliceConfig(1, PulseShape(100.0, kind, **kw), GateShape(150.0), 50.0)
            rip(cfg, Atmosphere(), np.array([10.0, 20.0]))

    @pytest.mark.parametrize(
        "shape",
        [
            PulseShape(100.0),
            PulseShape(100.0, kind="triangular"),
            PulseShape(100.0, kind="trapezoidal", rise_ns=20.0, fall_ns=30.0),
            PulseShape(100.0, kind="trapezoidal", rise_ns=0.0, fall_ns=100.0),
        ],
    )
    def test_pulse_nonnegative_with_finite_support(self, shape):
        t = np.linspace(-50.0, 150.0, 2001)
        p = shape.value(t)
        assert np.all(p >= 0.0)
        assert np.all(p[(t < 0) | (t > shape.width_ns)] == 0.0)
        assert p.max() <= 1.0 + 1e-12

    def test_gate_nonnegative_with_finite_support(self):
        gate = GateShape(200.0, kind="triangular")
        t = np.linspace(-50.0, 300.0, 2001)
        g = gate.value(t)
        assert np.all(g >= 0.0)
        assert np.all(g[(t < 0) | (t > 200.0)] == 0.0)


def reference_profile(t, kind, w, rise, fall):
    """The per-kind profile formulas of the former separate pulse and gate classes."""
    t = np.asarray(t, dtype=float)
    inside = (t >= 0.0) & (t <= w)
    if kind == "rectangular":
        return inside.astype(float)
    if kind == "triangular":
        return np.where(inside, 1.0 - np.abs(2.0 * t / w - 1.0), 0.0)
    out = np.where(inside, 1.0, 0.0)
    with np.errstate(over="ignore"):  # a subnormal edge overflows in entries np.where drops
        if rise > 0:
            out = np.where(inside & (t < rise), t / rise, out)
        if fall > 0:
            out = np.where(inside & (t > w - fall), (w - t) / fall, out)
    return out


def reference_knots(kind, w, rise, fall):
    """The per-kind knot formulas of the former separate pulse and gate classes."""
    if kind == "rectangular":
        return (0.0, w)
    if kind == "triangular":
        return (0.0, 0.5 * w, w)
    return (0.0, rise, w - fall, w)


class TestOneShapeClass:
    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_value_and_knots_match_the_per_kind_formulas(self, data):
        cls = data.draw(st.sampled_from([PulseShape, GateShape]), label="class")
        kind = data.draw(st.sampled_from(("rectangular", "triangular", "trapezoidal")), label="kind")
        w = data.draw(st.floats(0.01, 1000.0), label="width")
        edge = st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 0.5))
        rise, fall = (data.draw(edge) * w, data.draw(edge) * w) if kind == "trapezoidal" else (0.0, 0.0)
        shape = cls(w, kind, rise, fall)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        knots = np.array(reference_knots(kind, w, rise, fall))
        t = np.concatenate([rng.uniform(-0.5 * w, 1.5 * w, 64), knots,
                            np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf)])
        got, want = shape.value(t), reference_profile(t, kind, w, rise, fall)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        scalar = shape.value(float(t[0]))
        assert type(scalar) is float and scalar == want[0]
        assert shape.knots() == reference_knots(kind, w, rise, fall)


class TestGatedResponse:
    def test_return_window_ends_as_gate_opens(self):
        # pulse 100 ns, gate 200 ns, delay 100 ns: at r = 0 the echo occupies
        # [0, 100] ns while the gate opens at 200 ns.
        assert gated_response(PulseShape(100.0), GateShape(200.0), 100.0, 0.0) == 0.0

    def test_full_gate_containment(self, slices):
        s1 = slices[0]
        value = gated_response(s1.pulse, s1.gate, s1.delay_ns, 37.5)
        assert value == pytest.approx(rect_overlap_oracle(240.0, 220.0, 20.0, 37.5))
        assert value == pytest.approx(220.0)

    def test_matches_interval_oracle_on_random_configs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            tl = rng.uniform(10.0, 400.0)
            tg = rng.uniform(10.0, 500.0)
            t0 = rng.uniform(0.0, 500.0)
            r = rng.uniform(0.0, 200.0)
            got = gated_response(PulseShape(tl), GateShape(tg), t0, r)
            assert got == pytest.approx(rect_overlap_oracle(tl, tg, t0, r), abs=1e-9)

    def test_closed_form_agrees_with_the_cubic_table(self):
        # a zero-rise trapezoid evaluates identically to a rectangle but is
        # routed through the exact piecewise-cubic table
        rng = np.random.default_rng(7)
        for _ in range(100):
            tl = rng.uniform(20.0, 300.0)
            tg = rng.uniform(20.0, 300.0)
            t0 = rng.uniform(0.0, 300.0)
            r = rng.uniform(0.0, 120.0)
            closed = gated_response(PulseShape(tl), GateShape(tg), t0, r)
            numeric = gated_response(
                PulseShape(tl, kind="trapezoidal", rise_ns=0.0, fall_ns=0.0), GateShape(tg), t0, r
            )
            if closed > 0:
                assert abs(numeric - closed) / closed < 1e-6
            else:
                assert numeric == pytest.approx(0.0, abs=1e-9)

    def test_zero_edge_trapezoid_equals_closed_form_to_rounding(self):
        rng = np.random.default_rng(11)
        tl, tg, t0 = rng.uniform(20.0, 300.0, (3, 200))
        for i in range(tl.size):
            r = rng.uniform(0.0, 120.0, 16)
            closed = gated_response(PulseShape(tl[i]), GateShape(tg[i]), t0[i], r)
            numeric = gated_response(
                PulseShape(tl[i], kind="trapezoidal", rise_ns=0.0, fall_ns=0.0), GateShape(tg[i]), t0[i], r
            )
            np.testing.assert_allclose(numeric, closed, rtol=1e-12, atol=1e-12)

    def test_trapezoidal_pulse_rectangular_gate_matches_closed_form(self):
        def area(x, w, a, b):
            # integral over [0, x] of the unit trapezoid with rise a and fall b
            x = min(max(x, 0.0), w)
            if x <= a:
                return x * x / (2.0 * a)
            if x <= w - b:
                return 0.5 * a + (x - a)
            return 0.5 * a + (w - a - b) + (b * b - (w - x) ** 2) / (2.0 * b)

        rng = np.random.default_rng(12)
        for _ in range(200):
            w, tg, t0 = rng.uniform(20.0, 300.0, 3)
            a, b = rng.uniform(0.05, 0.5, 2) * w
            r = rng.uniform(0.0, 120.0)
            tau = 2.0 * r / C0
            gate_open = w + t0
            expected = area(gate_open + tg - tau, w, a, b) - area(gate_open - tau, w, a, b)
            got = gated_response(PulseShape(w, "trapezoidal", rise_ns=a, fall_ns=b), GateShape(tg), t0, r)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("pulse, gate", [
        (PulseShape(120.0, "triangular"), GateShape(180.0)),
        (PulseShape(120.0, "trapezoidal", rise_ns=0.0, fall_ns=120.0), GateShape(180.0, "triangular")),
        (PulseShape(120.0, "triangular"), GateShape(180.0, "trapezoidal", rise_ns=30.0, fall_ns=50.0)),
        (PulseShape(1.2, "triangular"), GateShape(180.0, "triangular")),
        (PulseShape(120.0, "triangular"), GateShape(180.0, "triangular")),
        (PulseShape(120.0, "trapezoidal", rise_ns=40.0, fall_ns=25.0),
         GateShape(180.0, "trapezoidal", rise_ns=70.0, fall_ns=50.0)),
    ])
    def test_matches_64_node_reference(self, pulse, gate):
        # sloped pulse and gate edges overlap, so the integrand is quadratic
        # between knots; the reference splits each interval
        # between the edge and centre knots into 16 panels of 64 nodes
        nodes, weights = np.polynomial.legendre.leggauss(64)
        delay = 40.0
        w = pulse.width_ns
        for r in np.linspace(3.0, 50.0, 48):
            tau, gate_open = 2.0 * r / C0, w + delay
            lo, hi = max(tau, gate_open), min(tau + w, gate_open + gate.width_ns)
            expected = 0.0
            edges = np.r_[tau + np.array([0.0, pulse.rise_ns, 0.5 * w, w - pulse.fall_ns, w]),
                          gate_open + np.array(gate.knots())]
            knots = sorted({lo, hi} | {k for k in edges if lo < k < hi})
            for a, b in zip(knots[:-1], knots[1:]):
                panels = np.linspace(a, b, 17)
                half = 0.5 * np.diff(panels)[:, None]
                t = 0.5 * (panels[1:] + panels[:-1])[:, None] + half * nodes
                expected += np.sum(half * weights * gate.value(t - gate_open) * pulse.value(t - tau))
            got = gated_response(pulse, gate, delay, r)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("pulse", [PulseShape(150.0), PulseShape(150.0, "triangular"),
                                       PulseShape(150.0, "trapezoidal", rise_ns=20.0, fall_ns=35.0),
                                       PulseShape(150.0, "trapezoidal", rise_ns=75.0, fall_ns=75.0)])
    def test_array_input_gives_scalar_bits(self, pulse):
        gate = GateShape(200.0, "trapezoidal", rise_ns=25.0, fall_ns=10.0)
        r = np.linspace(0.0, 80.0, 301)
        delays = np.linspace(0.0, 60.0, 7)
        grid = gated_response(pulse, gate, delays[:, None], r[None, :])
        assert grid.shape == (delays.size, r.size)
        for i, d in enumerate(delays):
            for j in range(0, r.size, 13):
                value = gated_response(pulse, gate, d, r[j])
                assert isinstance(value, float)
                assert value == grid[i, j]

    @pytest.mark.parametrize("kind", ["rectangular", "trapezoidal"])
    def test_rejects_bad_entries_inside_arrays(self, kind):
        pulse, gate = PulseShape(100.0, kind), GateShape(100.0)
        with pytest.raises(ValueError):
            gated_response(pulse, gate, 10.0, np.array([5.0, -1.0, 7.0]))
        with pytest.raises(ValueError):
            gated_response(pulse, gate, 10.0, np.array([5.0, np.nan]))
        with pytest.raises(ValueError):
            gated_response(pulse, gate, np.array([10.0, np.inf]), 5.0)

    def test_zero_outside_support_on_dense_grid(self, slices):
        for cfg in slices:
            r_min, r_max = slice_support(cfg)
            for r in np.linspace(0.0, r_min, 40):
                assert gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r) == 0.0
            for r in np.linspace(r_max, r_max + 60.0, 40):
                assert gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r) == 0.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            gated_response(PulseShape(100.0), GateShape(100.0), 10.0, -1.0)
        with pytest.raises(ValueError):
            gated_response(PulseShape(100.0), GateShape(100.0), float("nan"), 5.0)

    def test_trapezoid_edges_soften_the_response_corners(self):
        # a pulse with finite rise/fall never exceeds the rectangular overlap
        rect = PulseShape(200.0)
        soft = PulseShape(200.0, kind="trapezoidal", rise_ns=40.0, fall_ns=40.0)
        gate = GateShape(300.0)
        for r in np.linspace(5.0, 90.0, 25):
            hard_val = gated_response(rect, gate, 50.0, r)
            soft_val = gated_response(soft, gate, 50.0, r)
            assert soft_val <= hard_val + 1e-9


def exact_vertices(shape):
    """Corners of a piecewise-linear shape, from its kind and edges, in rationals."""
    w, a, b = (Fraction(x) for x in (shape.width_ns, shape.rise_ns, shape.fall_ns))
    if shape.kind == "rectangular":
        return [(0, 1), (w, 1)]
    if shape.kind == "triangular":
        return [(0, 0), (w / 2, 1), (w, 0)]
    corners = [(0, 0 if a else 1), (a, 1), (w - b, 1), (w, 0 if b else 1)]
    return [c for i, c in enumerate(corners) if i == 0 or c[0] > corners[i - 1][0]]


def exact_overlap(pulse, gate, delay_ns, r_m):
    """Overlap (ns) in rationals at the float travel time and gate opening
    that ``gated_response`` computes: Simpson's rule, exact for the quadratic
    integrand between the merged corners in absolute time."""
    tau, gate_open = Fraction(2.0 * r_m / C0), Fraction(pulse.width_ns + delay_ns)
    shapes = [(exact_vertices(pulse), tau), (exact_vertices(gate), gate_open)]
    lo = max(tau, gate_open)
    hi = min(tau + Fraction(pulse.width_ns), gate_open + Fraction(gate.width_ns))
    if hi <= lo:
        return Fraction(0)
    cuts = sorted({lo, hi} | {x + t0 for v, t0 in shapes for x, _ in v if lo < x + t0 < hi})
    total = Fraction(0)
    for x0, x1 in zip(cuts, cuts[1:]):
        def f(u):
            out = Fraction(1)
            for v, t0 in shapes:  # the linear piece holding the sub-interval
                (p0, y0), (p1, y1) = next(pair for pair in zip(v, v[1:])
                                          if pair[0][0] < (x0 + x1) / 2 - t0 < pair[1][0])
                out *= y0 + (y1 - y0) * (u - t0 - p0) / (p1 - p0)
            return out
        total += (x1 - x0) * (f(x0) + 4 * f((x0 + x1) / 2) + f(x1)) / 6
    return total


LINEAR_KINDS = ("rectangular", "triangular", "trapezoidal")


@st.composite
def linear_shapes(draw, cls):
    kind = draw(st.sampled_from(LINEAR_KINDS))
    w = draw(st.floats(1.0, 500.0))
    rise = fall = 0.0
    if kind == "trapezoidal":
        edges = draw(st.one_of(
            st.sampled_from([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.5, 0.5), (0.25, 0.75),
                             (0.0, 0.3), (0.2, 0.0)]),
            st.tuples(st.floats(0.0, 0.5), st.floats(0.0, 0.5))))
        rise, fall = edges[0] * w, edges[1] * w
    return cls(w, kind, rise, fall)


class TestPiecewiseCubicOverlap:
    @given(linear_shapes(PulseShape), linear_shapes(GateShape), st.floats(0.0, 400.0),
           st.lists(st.floats(1e-9, 1e-1), min_size=1, max_size=4),
           st.integers(0, 2**32 - 1))
    @example(PulseShape(1.0), GateShape(1.0, "trapezoidal", rise_ns=2.2250738585e-313), 0.0,
             [0.0625], 0)  # a subnormal ramp: its cubic's coefficients overflow a float
    @settings(max_examples=40, deadline=None)
    def test_matches_exact_rational_reference(self, pulse, gate, delay, offsets, seed):
        assume(not (pulse.kind == gate.kind == "rectangular"))
        c = 0.5 * C0
        r_min, r_max = c * delay, c * (delay + pulse.width_ns + gate.width_ns)
        near = [e + sign * d for e in (r_min, r_max) for d in offsets for sign in (-1.0, 1.0)]
        r = np.concatenate([np.random.default_rng(seed).uniform(0.0, r_max + 5.0, 24),
                            [r_min, r_max], near])
        r = r[r >= 0.0]
        got = gated_response(pulse, gate, delay, r)
        want = [exact_overlap(pulse, gate, delay, x) for x in r]
        assert np.all(got >= 0.0)
        for g, w in zip(got, want):
            if w == 0:
                assert g == 0.0
            assert g == pytest.approx(float(w), rel=1e-12, abs=1e-12)
        again = gated_response(pulse, gate, delay, r)  # from the memoized table
        np.testing.assert_array_equal(again.view(np.uint64), got.view(np.uint64))

    @given(linear_shapes(PulseShape), linear_shapes(GateShape), st.floats(0.0, 400.0),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_evaluate_the_table_in_horner_order(self, pulse, gate, delay, seed):
        assume(not (pulse.kind == gate.kind == "rectangular"))
        inner, origin, *coef = _overlap_cubics(pulse, gate)
        assert len(coef) == 4
        for col in (inner, origin, *coef):
            assert col.flags.c_contiguous and not col.flags.writeable
        r_max = 0.5 * C0 * (delay + pulse.width_ns + gate.width_ns)
        r = np.random.default_rng(seed).uniform(0.0, r_max + 5.0, 5000)  # two 4096-row chunks
        tau, gate_open = 2.0 * r / C0, pulse.width_ns + delay
        k = np.searchsorted(inner, tau - gate_open)
        x = tau - gate_open - origin[k]
        c0, c1, c2, c3 = (c[k] for c in coef)
        want = ((c3 * x + c2) * x + c1) * x + c0
        lo = np.maximum(tau, gate_open)
        hi = np.minimum(tau + pulse.width_ns, gate_open + gate.width_ns)
        want = np.where(hi > lo, np.maximum(want, 0.0), 0.0)
        got = gated_response(pulse, gate, delay, r)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_cli_import_defers_the_overlap_table_imports():
    # the exact cubic tables load fractions on first use only, and nothing loads
    # numpy.polynomial, so start-up does not pay for them
    src = str(Path(gatedepth.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, gatedepth.cli; "
            "print(sorted(m for m in ('fractions', 'numpy.polynomial') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


class TestSliceSupport:
    def test_stock_bands(self, slices):
        bands = [slice_support(cfg) for cfg in slices]
        assert bands[0] == pytest.approx((3.0, 72.0), abs=0.05)
        assert bands[1] == pytest.approx((18.0, 122.9), abs=0.05)
        assert bands[2] == pytest.approx((57.0, 175.4), abs=0.05)

    def test_matches_breakpoint_extremes(self, slices):
        for cfg in slices:
            lo, hi = slice_support(cfg)
            bps = rip_breakpoints(cfg)
            assert lo == bps[0] and hi == bps[3]


class TestGdp:
    def test_matched_widths_give_unique_maximum(self):
        profile = gdp(PulseShape(100.0), GateShape(100.0), 50.0, np.arange(0.0, 600.0, 1.0))
        peak = profile.intensities.max()
        assert np.count_nonzero(profile.intensities == peak) == 1

    def test_mismatched_widths_give_plateau(self):
        tl, tg = 100.0, 240.0
        step = 1.0
        profile = gdp(PulseShape(tl), GateShape(tg), 50.0, np.arange(0.0, 800.0, step))
        peak = profile.intensities.max()
        width = np.count_nonzero(profile.intensities >= peak - 1e-9) * step
        assert abs(width - abs(tg - tl)) <= 2 * step

    def test_all_delays_past_support_is_zero(self):
        profile = gdp(PulseShape(100.0), GateShape(100.0), 10.0, np.arange(2000.0, 2100.0, 5.0))
        assert np.all(profile.intensities == 0.0)

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            gdp(PulseShape(100.0), GateShape(100.0), 10.0, [])
        with pytest.raises(ValueError):
            gdp(PulseShape(100.0), GateShape(100.0), 10.0, [10.0, 5.0])


class TestRip:
    def test_zero_reflectance_zeroes_profile(self, slices):
        profile = rip(slices[0], Atmosphere(alpha=0.0), np.linspace(1.0, 100.0, 50))
        assert np.all(profile.intensities == 0.0)

    def test_matches_scalar_computation(self, slices):
        cfg = slices[1]
        grid = np.linspace(20.0, 120.0, 10)
        profile = rip(cfg, Atmosphere(alpha=1.0, gamma_per_m=0.0), grid)
        for r, value in zip(grid, profile.intensities):
            expected = cfg.pulses * rect_overlap_oracle(280.0, 420.0, 120.0, r) / (r * r)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_irradiance_factor_applies_pointwise(self, slices):
        cfg = slices[0]
        atmo = Atmosphere(alpha=0.7, gamma_per_m=0.002)
        grid = np.linspace(5.0, 70.0, 64)
        bare = rip(cfg, atmo, grid, include_irradiance=False)
        scaled = rip(cfg, atmo, grid, include_irradiance=True)
        np.testing.assert_allclose(scaled.intensities, bare.intensities * atmo.kappa(grid), rtol=1e-12)

    def test_irradiance_singular_at_zero(self, slices):
        with pytest.raises(ValueError):
            rip(slices[0], Atmosphere(), np.array([0.0, 1.0, 2.0]))

    @pytest.mark.parametrize("r, message", [(-0.5, "target distance must be >= 0"),
                                            (np.nan, "r_m must be finite, got nan"),
                                            (np.inf, "r_m must be finite, got inf")])
    @pytest.mark.parametrize("irradiance", [False, True])
    def test_bad_distance_is_rejected_for_every_shape(self, slices, r, message, irradiance):
        trapezoid = SliceConfig(1, PulseShape(100.0, kind="trapezoidal", rise_ns=10.0,
                                              fall_ns=10.0), GateShape(150.0), 50.0)
        for cfg in (slices[0], trapezoid):
            with pytest.raises(ValueError, match=message):
                rip(cfg, Atmosphere(), np.array([1.0, r, 2.0]), include_irradiance=irradiance)

    def test_non_rectangular_profile_goes_through_the_cubic_table(self):
        cfg = SliceConfig(3, PulseShape(100.0, kind="triangular"), GateShape(150.0), 50.0)
        grid = np.linspace(10.0, 60.0, 40)
        profile = rip(cfg, Atmosphere(), grid, include_irradiance=False)
        assert profile.intensities.max() > 0
        # pulse-count scaling still applies on the cubic-table path
        single = rip(SliceConfig(1, cfg.pulse, cfg.gate, cfg.delay_ns), Atmosphere(), grid,
                     include_irradiance=False)
        np.testing.assert_allclose(profile.intensities, 3 * single.intensities, rtol=1e-9)

    def test_shape_follows_breakpoints(self, slices):
        # rising, then flat, then falling between the computed breakpoints
        for cfg in slices:
            rise, plateau, fall, end = rip_breakpoints(cfg)
            grid = np.linspace(rise + 0.5, end - 0.5, 400)
            profile = rip(cfg, Atmosphere(), grid, include_irradiance=False)
            vals = profile.intensities
            rising = vals[grid < plateau - 0.5]
            flat = vals[(grid > plateau + 0.5) & (grid < fall - 0.5)]
            falling = vals[grid > fall + 0.5]
            assert np.all(np.diff(rising) > 0)
            if flat.size:
                assert np.ptp(flat) < 1e-9
            assert np.all(np.diff(falling) < 0)


class TestRipBreakpoints:
    @pytest.mark.parametrize("index", [0, 1])
    def test_matches_slope_change_oracle(self, slices, index):
        cfg = slices[index]
        lo, hi = slice_support(cfg)
        grid = np.linspace(max(lo - 2.0, 0.1), hi + 2.0, 20001)
        tl = cfg.pulse.width_ns
        tg = cfg.gate.width_ns
        vals = np.array([rect_overlap_oracle(tl, tg, cfg.delay_ns, r) for r in grid])
        slope = np.diff(vals)
        changes = grid[1:-1][np.abs(np.diff(slope)) > 1e-6]
        # cluster the detected slope changes and compare with the formula
        detected = []
        for c in changes:
            if not detected or c - detected[-1] > 1.0:
                detected.append(c)
        step = grid[1] - grid[0]
        assert len(detected) == 4
        np.testing.assert_allclose(detected, rip_breakpoints(cfg), atol=3 * step)

    def test_matched_widths_collapse_plateau(self):
        cfg = SliceConfig.rectangular(1, 100.0, 100.0, 0.0)
        rise, plateau, fall, end = rip_breakpoints(cfg)
        assert plateau == fall
        assert plateau == pytest.approx(14.9896229, abs=1e-6)

    def test_requires_rectangular_shapes(self):
        cfg = SliceConfig(1, PulseShape(100.0, kind="triangular"), GateShape(100.0), 0.0)
        with pytest.raises(UnsupportedShapeError):
            rip_breakpoints(cfg)


class TestRangeProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeProfile("distance_m", np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            RangeProfile("distance_m", np.array([1.0, 2.0]), np.array([0.0, -1.0]))
        with pytest.raises(ValueError):
            RangeProfile("furlongs", np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_intensity_rejected(self, bad):
        with pytest.raises(ValueError, match="profile intensities must be finite"):
            RangeProfile("distance_m", np.array([1.0, 2.0]), np.array([0.5, bad]))

    def test_csv_export(self, tmp_path):
        profile = RangeProfile("distance_m", np.array([1.0, 2.5]), np.array([0.0, 3.25]))
        path = tmp_path / "profile.csv"
        profile.write_csv(path)
        assert path.read_text() == "coordinate,intensity\n1.0,0.0\n2.5,3.25\n"
        profile = RangeProfile("delay_ns", [-1.5, -0.0, 5e-324, 1e300], [0.0, 5e-324, 2.5, 1e300])
        profile.write_csv(path)
        assert path.read_bytes() == (
            b"coordinate,intensity\n-1.5,0.0\n-0.0,5e-324\n5e-324,2.5\n1e+300,1e+300\n")


def test_slice_config_validation():
    with pytest.raises(ValueError):
        SliceConfig.rectangular(0, 100.0, 100.0, 10.0)
    with pytest.raises(ValueError):
        SliceConfig.rectangular(10, 100.0, 100.0, -1.0)


def test_atmosphere_validation_and_clear_air():
    with pytest.raises(ValueError):
        Atmosphere(alpha=1.5)
    with pytest.raises(ValueError):
        Atmosphere(gamma_per_m=-0.1)
    clear = Atmosphere(alpha=1.0, gamma_per_m=0.0)
    r = np.linspace(1.0, 200.0, 17)
    np.testing.assert_array_equal(clear.kappa(r), 1.0 / (r * r))
