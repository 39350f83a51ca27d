import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth.gating import Atmosphere, GateShape, PulseShape, SliceConfig, slice_support
from gatedepth.scene import (
    EmpiricalHistogram,
    NoiseModel,
    ScenePoint,
    UniformRange,
    calibration_for_peak,
    generate_dataset,
    render_slices,
    simulate_batch,
    simulate_triple,
    slice_values,
)

from conftest import rect_overlap_oracle


def scalar_intensity_oracle(cfg, r, alpha, gamma=0.0):
    ov = rect_overlap_oracle(cfg.pulse.width_ns, cfg.gate.width_ns, cfg.delay_ns, r)
    return cfg.pulses * alpha * np.exp(-2.0 * gamma * r) * ov / (r * r)


class TestNoiseModel:
    def test_stream_is_index_addressable(self):
        noise = NoiseModel(2.0, seed=99)
        full = noise.triples(9000, start_index=0)
        part = noise.triples(2500, start_index=5000)
        np.testing.assert_array_equal(full[5000:7500], part)

    def test_same_seed_same_stream(self):
        a = NoiseModel(1.5, seed=4).triples(100)
        b = NoiseModel(1.5, seed=4).triples(100)
        np.testing.assert_array_equal(a, b)
        c = NoiseModel(1.5, seed=5).triples(100)
        assert not np.array_equal(a, c)

    def test_zero_sigma_is_silent(self):
        assert not NoiseModel(0.0, seed=1).triples(10).any()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0)


class TestSimulateTriple:
    def test_black_target_returns_zeros(self, slices):
        s = simulate_triple(ScenePoint(40.0, 0.0), slices, 0.0, 5.0, NoiseModel(0.0, 0))
        assert (s.s1, s.s2, s.s3) == (0, 0, 0)
        assert s.r == 40.0

    def test_far_target_hits_only_the_long_slice(self, slices):
        calib = calibration_for_peak(slices, 10.0, 150.0, target_peak_gray=200.0)
        s = simulate_triple(ScenePoint(130.0, 1.0), slices, 0.0, calib, NoiseModel(0.0, 0))
        assert s.s1 == 0 and s.s2 == 0
        assert s.s3 > 0

    def test_matches_scalar_oracle(self, slices):
        # calibration chosen so the brightest slice at this distance reads 200
        r, alpha = 65.0, 1.0
        values = [scalar_intensity_oracle(cfg, r, alpha) for cfg in slices]
        calib = 200.0 / max(values)
        s = simulate_triple(ScenePoint(r, alpha), slices, 0.0, calib, NoiseModel(0.0, 0))
        expected = tuple(int(np.clip(np.rint(calib * v), 0, 255)) for v in values)
        assert (s.s1, s.s2, s.s3) == expected
        assert max(expected) == 200

    def test_quantization_bounds(self, slices):
        rng = np.random.default_rng(0)
        r = rng.uniform(5.0, 150.0, 500)
        a = rng.uniform(0.0, 1.0, 500)
        gray = simulate_batch(r, a, slices, 0.0, 50.0, NoiseModel(3.0, 8))
        assert gray.min() >= 0 and gray.max() <= 255
        # noiseless with a small enough calibration, nothing saturates
        quiet = simulate_batch(r, a, slices, 0.0, 1.0, NoiseModel(0.0, 0))
        assert quiet.max() < 255

    def test_noiseless_intensity_monotone_on_falling_segment(self, slices):
        cfg = slices[0]
        grid = np.linspace(40.0, 71.0, 60)  # inside the falling span
        vals = slice_values([cfg], grid, 1.0)[:, 0]
        assert np.all(np.diff(vals) < 0)

    def test_intensity_proportional_to_reflectance(self, slices):
        grid = np.linspace(20.0, 100.0, 30)
        half = slice_values(slices, grid, 0.5)
        full = slice_values(slices, grid, 1.0)
        np.testing.assert_allclose(half, 0.5 * full, rtol=1e-12)


class TestGenerateDataset:
    def test_rejects_empty_request(self, slices):
        with pytest.raises(ValueError):
            generate_dataset(0, UniformRange(10.0, 100.0), 0.5, slices, NoiseModel(0.0, 0))

    def test_deterministic_under_seed(self, slices):
        kw = dict(gamma_per_m=0.0, target_peak_gray=150.0)
        a = generate_dataset(1000, UniformRange(10.0, 100.0), UniformRange(0.1, 0.9),
                             slices, NoiseModel(2.0, seed=21), **kw)
        b = generate_dataset(1000, UniformRange(10.0, 100.0), UniformRange(0.1, 0.9),
                             slices, NoiseModel(2.0, seed=21), **kw)
        assert a == b

    def test_uniform_range_histogram(self, slices):
        # fixed seed; every bin count stays within 3 sigma of the multinomial
        # expectation for a uniform draw
        n = 100_000
        samples = generate_dataset(n, UniformRange(10.0, 100.0), 0.5, slices,
                                   NoiseModel(0.0, seed=6), target_peak_gray=150.0)
        r = np.array([s.r for s in samples])
        counts, _ = np.histogram(r, bins=12, range=(10.0, 100.0))
        p = 1.0 / 12
        bound = 3.0 * np.sqrt(n * p * (1 - p))
        assert np.all(np.abs(counts - n * p) <= bound)

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            UniformRange(5.0, 5.0)
        with pytest.raises(ValueError):
            EmpiricalHistogram((0.0, 1.0), (1.0, 2.0))

    def test_histogram_distribution_sampling(self, slices):
        dist = EmpiricalHistogram((20.0, 30.0, 80.0), (1.0, 0.0))
        samples = generate_dataset(500, dist, 0.5, slices, NoiseModel(0.0, seed=2), calib=10.0)
        r = np.array([s.r for s in samples])
        assert r.min() >= 20.0 and r.max() <= 30.0

    def test_nonpositive_distances_rejected(self, slices):
        with pytest.raises(ValueError, match="non-positive"):
            generate_dataset(10, UniformRange(-5.0, 5.0), 0.5, slices,
                             NoiseModel(0.0, seed=1), calib=10.0)

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_finite_edge_values_do_not_depend_on_the_batch(self, data):
        # the overlap kernel works in 4096-row chunks; sizes on both sides
        n = data.draw(st.one_of(st.integers(1, 4096), st.integers(4097, 9000)), label="n")
        slices = data.draw(st.lists(finite_edge_slices(), min_size=1, max_size=3), label="slices")
        gamma = data.draw(st.sampled_from([0.0, 0.004]), label="gamma")
        r = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(1.0, 200.0, n)
        whole = slice_values(slices, r, 0.7, gamma)
        for i in {n - 1, data.draw(st.integers(0, n - 1), label="i")}:
            np.testing.assert_array_equal(whole[i], slice_values(slices, r[i : i + 1], 0.7, gamma)[0])
        k = data.draw(st.integers(0, n), label="split")
        parts = np.concatenate([slice_values(slices, r[:k], 0.7, gamma), slice_values(slices, r[k:], 0.7, gamma)])
        np.testing.assert_array_equal(whole, parts)


@st.composite
def finite_edge_slices(draw):
    """A slice with a trapezoidal, triangular or gaussian pulse and a finite-edge gate."""
    width = st.floats(20.0, 400.0)
    edge = st.one_of(st.just(0.0), st.floats(0.01, 0.5))
    tl, tg = draw(width), draw(width)
    kind = draw(st.sampled_from(["trapezoidal", "triangular", "gaussian"]))
    if kind == "trapezoidal":
        pulse = PulseShape(tl, kind, rise_ns=draw(edge) * tl, fall_ns=draw(edge) * tl)
    else:
        pulse = PulseShape(tl, kind)
    if draw(st.booleans()):
        gate = GateShape(tg, "trapezoidal", rise_ns=draw(edge) * tg, fall_ns=draw(edge) * tg)
    else:
        gate = GateShape(tg, "triangular")
    return SliceConfig(draw(st.integers(1, 800)), pulse, gate, draw(st.floats(0.0, 400.0)))


class TestRenderSlices:
    def test_constant_plane_renders_constant_images(self, slices):
        depth = np.full((8, 12), 50.0)
        reflect = np.full((8, 12), 0.6)
        images = render_slices(depth, reflect, slices, NoiseModel(0.0, 0), calib=3.0)
        for img in images.images:
            assert np.ptp(img) == 0

    def test_ramp_leaves_short_slice_dark_past_its_band(self, slices):
        width = 64
        depth = np.tile(np.linspace(10.0, 150.0, width), (4, 1))
        reflect = np.full_like(depth, 0.8)
        images = render_slices(depth, reflect, slices, NoiseModel(0.0, 0), calib=3.0)
        past = depth[0] > slice_support(slices[0])[1]
        assert np.all(images.images[0][:, past] == 0)
        assert images.images[0][:, ~past].max() > 0

    def test_sky_pixels_render_black(self, slices):
        depth = np.full((5, 5), 40.0)
        depth[0, :] = np.nan
        reflect = np.full_like(depth, 0.5)
        images = render_slices(depth, reflect, slices, NoiseModel(2.0, 7), calib=3.0)
        for img in images.images:
            assert np.all(img[0, :] == 0)

    def test_dimension_mismatch_rejected(self, slices):
        with pytest.raises(ValueError):
            render_slices(np.ones((4, 4)), np.ones((4, 5)), slices, NoiseModel(0.0, 0))

    def test_noise_is_deterministic_per_pixel(self, slices):
        depth = np.full((16, 16), 45.0)
        reflect = np.full_like(depth, 0.7)
        a = render_slices(depth, reflect, slices, NoiseModel(2.0, 3), calib=3.0)
        b = render_slices(depth, reflect, slices, NoiseModel(2.0, 3), calib=3.0)
        for x, y in zip(a.images, b.images):
            np.testing.assert_array_equal(x, y)


def test_calibration_hits_target_peak(slices):
    calib = calibration_for_peak(slices, 20.0, 100.0, target_peak_gray=200.0)
    grid = np.linspace(20.0, 100.0, 4096)
    peak = (calib * slice_values(slices, grid, 1.0)).max()
    assert peak == pytest.approx(200.0, rel=1e-6)


def test_scene_point_validation():
    with pytest.raises(ValueError):
        ScenePoint(-1.0, 0.5)
    with pytest.raises(ValueError):
        ScenePoint(10.0, 1.5)


class TestIndexAddressedNoise:
    N = 3 * 4096 + 100

    @given(
        st.lists(st.one_of(st.integers(0, N - 1), st.sampled_from([4095, 4096, 8191, 8192, 12288])),
                 max_size=300),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_rows_equal_one_contiguous_draw(self, indices, seed):
        noise = NoiseModel(1.5, seed)
        full = noise.triples(self.N)
        # The stream's definition: 4096-row blocks, each from (seed, block number).
        blocks = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, c)))
                  .normal(0.0, 1.5, (4096, 3)) for c in range(4)]
        np.testing.assert_array_equal(full, np.vstack(blocks)[: self.N])
        indices = np.asarray(indices, dtype=np.int64)
        np.testing.assert_array_equal(noise.rows(indices), full[indices])

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_lit_pixel_gray_does_not_depend_on_sky(self, slices, data):
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        shape = (70, 64)  # more pixels than one noise chunk
        depth = rng.uniform(10.0, 150.0, shape)
        reflect = rng.uniform(0.05, 0.9, shape)
        noise = NoiseModel(2.0, data.draw(st.integers(0, 2**32 - 1)))
        sky = rng.random(shape) < data.draw(st.floats(0.0, 1.0))
        with_sky = depth.copy()
        with_sky[sky] = data.draw(st.sampled_from([np.inf, np.nan, 0.0, -5.0]))
        clear = render_slices(depth, reflect, slices, noise, calib=3.0)
        masked = render_slices(with_sky, reflect, slices, noise, calib=3.0)
        for a, b in zip(clear.images, masked.images):
            np.testing.assert_array_equal(a[~sky], b[~sky])
            assert not b[sky].any()
