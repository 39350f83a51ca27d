import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gatedepth.gating import (Atmosphere, GateShape, PulseShape, SliceConfig, gated_response,
                              slice_support, standard_slices)
from gatedepth.scene import (
    NoiseModel,
    UniformRange,
    calibration_for_peak,
    generate_dataset,
    render_slices,
    simulate_batch,
    slice_values,
)

from conftest import rect_overlap_oracle


def scalar_intensity_oracle(cfg, r, alpha, gamma=0.0):
    ov = rect_overlap_oracle(cfg.pulse.width_ns, cfg.gate.width_ns, cfg.delay_ns, r)
    return cfg.pulses * alpha * np.exp(-2.0 * gamma * r) * ov / (r * r)


class TestNoiseModel:
    def test_stream_is_index_addressable(self):
        noise = NoiseModel(2.0, seed=99)
        full = noise.rows(np.arange(9000))
        part = noise.rows(np.arange(5000, 7500))
        np.testing.assert_array_equal(full[5000:7500], part)

    def test_same_seed_same_stream(self):
        a = NoiseModel(1.5, seed=4).rows(np.arange(100))
        b = NoiseModel(1.5, seed=4).rows(np.arange(100))
        np.testing.assert_array_equal(a, b)
        c = NoiseModel(1.5, seed=5).rows(np.arange(100))
        assert not np.array_equal(a, c)

    def test_zero_sigma_is_silent(self):
        assert not NoiseModel(0.0, seed=1).rows(np.arange(10)).any()

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(-1.0)


def simulate_one(r, alpha, slices, calib):
    """One noiseless row of ``simulate_batch``."""
    return tuple(simulate_batch(np.array([r]), np.array([alpha]), slices, 0.0, calib,
                                NoiseModel(0.0, 0))[0].tolist())


class TestSimulateTriple:
    def test_black_target_returns_zeros(self, slices):
        assert simulate_one(40.0, 0.0, slices, 5.0) == (0, 0, 0)
        data = generate_dataset(1, UniformRange(39.0, 41.0), 0.0, slices, NoiseModel(0.0, 0), calib=5.0)
        assert data.triples.tolist() == [[0, 0, 0]] and 39.0 <= data.r[0] <= 41.0

    def test_far_target_hits_only_the_long_slice(self, slices):
        calib = calibration_for_peak(slices, 10.0, 150.0, target_peak_gray=200.0)
        s1, s2, s3 = simulate_one(130.0, 1.0, slices, calib)
        assert s1 == 0 and s2 == 0
        assert s3 > 0

    def test_matches_scalar_oracle(self, slices):
        # calibration chosen so the brightest slice at this distance reads 200
        r, alpha = 65.0, 1.0
        values = [scalar_intensity_oracle(cfg, r, alpha) for cfg in slices]
        calib = 200.0 / max(values)
        expected = tuple(int(np.clip(np.rint(calib * v), 0, 255)) for v in values)
        assert simulate_one(r, alpha, slices, calib) == expected
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
            UniformRange(5.0, 1.0)
        with pytest.raises(ValueError):
            UniformRange(0.0, float("inf"))

    def test_other_distributions_need_an_explicit_calibration(self, slices):
        class Fixed:
            def sample(self, rng, n):
                return np.linspace(20.0, 30.0, n)

        with pytest.raises(ValueError, match="explicit calib"):
            generate_dataset(50, Fixed(), 0.5, slices, NoiseModel(0.0, seed=2))
        samples = generate_dataset(50, Fixed(), 0.5, slices, NoiseModel(0.0, seed=2), calib=10.0)
        np.testing.assert_array_equal(samples.r, np.linspace(20.0, 30.0, 50))

    @pytest.mark.parametrize("alpha", [-0.1, 1.5, float("nan"), UniformRange(0.5, 1.5)])
    def test_reflectance_outside_the_unit_interval_rejected(self, slices, alpha):
        with pytest.raises(ValueError, match="reflectance"):
            generate_dataset(50, UniformRange(10.0, 100.0), alpha, slices, NoiseModel(0.0, 1))

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

    def test_lit_pixel_reflectance_outside_the_unit_interval_rejected(self, slices):
        depth = np.array([[40.0, np.nan]])
        sky_reflectance_unused = render_slices(depth, np.array([[0.5, 7.0]]), slices,
                                               NoiseModel(0.0, 0), calib=3.0)
        assert not any(img[0, 1] for img in sky_reflectance_unused.images)
        with pytest.raises(ValueError, match="reflectance"):
            render_slices(depth, np.array([[1.5, 0.5]]), slices, NoiseModel(0.0, 0), calib=3.0)

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


@pytest.mark.parametrize("r, alpha", [(-1.0, 0.5), (0.0, 0.5), (np.inf, 0.5), (np.nan, 0.5),
                                      (10.0, 1.5), (10.0, -0.5), (10.0, np.nan)])
def test_simulation_rejects_bad_distance_or_reflectance(slices, r, alpha):
    with pytest.raises(ValueError, match="distances" if alpha == 0.5 else "reflectance"):
        slice_values(slices, [r], alpha)
    with pytest.raises(ValueError):
        simulate_batch(np.array([20.0, r]), np.array([0.5, alpha]), slices, 0.0, 3.0, NoiseModel(0.0, 0))


@pytest.mark.parametrize("gamma", [-1e-3, np.nan])
def test_simulation_rejects_bad_extinction(slices, gamma):
    with pytest.raises(ValueError, match="extinction"):
        slice_values(slices, [20.0], 0.5, gamma)


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
        full = noise.rows(np.arange(self.N))
        # The stream's definition: 4096-row blocks, each from (seed, block number).
        blocks = [np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, c)))
                  .normal(0.0, 1.5, (4096, 3)) for c in range(4)]
        np.testing.assert_array_equal(full, np.vstack(blocks)[: self.N])
        indices = np.asarray(indices, dtype=np.int64)
        np.testing.assert_array_equal(noise.rows(indices), full[indices])

    @given(st.lists(st.integers(0, N - 1), min_size=1, max_size=200), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_simulate_batch_rows_equal_one_contiguous_call(self, slices, indices, seed):
        rng = np.random.default_rng(seed)
        r, alpha = rng.uniform(10.0, 150.0, self.N), rng.uniform(0.05, 0.9, self.N)
        noise = NoiseModel(2.0, seed)
        full = simulate_batch(r, alpha, slices, 0.0, 3.0, noise)
        idx = np.asarray(indices)
        np.testing.assert_array_equal(
            simulate_batch(r[idx], alpha[idx], slices, 0.0, 3.0, noise, indices=idx), full[idx])

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


def reference_simulate(r, alpha, slices, gamma, calib, noise, indices):
    """``simulate_batch`` in its defining order: stacked slice columns, one
    noise row looked up per index from its 4096-row block, then rint and clip."""
    cols = [cfg.pulses * gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r) for cfg in slices]
    kappa = Atmosphere(gamma_per_m=gamma).kappa(r)
    gray = calib * (np.stack(cols, axis=1) * (alpha * kappa)[:, None])
    rows = np.zeros((len(indices), 3))
    blocks = {}
    if noise.sigma_gray:
        for k, i in enumerate(indices):
            if i // 4096 not in blocks:
                seq = np.random.SeedSequence(entropy=noise.seed, spawn_key=(1, i // 4096))
                blocks[i // 4096] = np.random.default_rng(seq).normal(0.0, noise.sigma_gray, (4096, 3))
            rows[k] = blocks[i // 4096][i % 4096]
    return np.clip(np.rint(gray + rows), 0, 255).astype(np.int64)


class TestSimulateBatchReference:
    SPAN = 5 * 4096 + 50  # indices spread over six noise blocks
    EDGES = [0, 4095, 4096, 8191, 8192, 12287, 12288, 16384, 20479, 20480]

    @staticmethod
    def check(slices, noise, indices, n, seed):
        rng = np.random.default_rng(seed)
        r, alpha = rng.uniform(1.0, 200.0, n), rng.uniform(0.0, 1.0, n)
        for gamma, calib in ((0.0, 3.0), (0.004, 41.5)):
            got = simulate_batch(r, alpha, slices, gamma, calib, noise,
                                 None if indices is None else np.asarray(indices, dtype=np.int64))
            want = reference_simulate(r, alpha, slices, gamma, calib, noise,
                                      range(n) if indices is None else indices)
            assert got.dtype == np.int64 and got.shape == (n, 3)
            np.testing.assert_array_equal(got, want)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_the_row_at_a_time_reference(self, data):
        indices = data.draw(st.one_of(
            # unsorted, with repeats
            st.lists(st.one_of(st.integers(0, self.SPAN - 1), st.sampled_from(self.EDGES)),
                     max_size=300),
            # increasing with gaps, as render_slices passes its lit pixels
            st.lists(st.integers(0, self.SPAN - 1), max_size=300, unique=True).map(sorted),
            # one consecutive run, which may start and end inside a block
            st.tuples(st.integers(0, self.SPAN - 1), st.integers(0, 9000))
              .map(lambda t: list(range(t[0], t[0] + t[1]))),
            st.none(),  # rows 0..n-1, as generate_dataset passes
        ), label="indices")
        n = data.draw(st.integers(0, 9000), label="n") if indices is None else len(indices)
        slices = data.draw(st.lists(finite_edge_slices(), min_size=3, max_size=3), label="slices")
        noise = NoiseModel(data.draw(st.sampled_from([0.0, 0.5, 2.0]), label="sigma"),
                           data.draw(st.integers(0, 2**32 - 1), label="seed"))
        self.check(slices, noise, indices, n, data.draw(st.integers(0, 2**32 - 1), label="rng"))

    @pytest.mark.parametrize("indices", [
        [],
        [4103, 4103, 4105],  # as long as its span, but not consecutive
        [4105, 4103, 4103, 1],
        [4096, 4097, 4099, 4099, 8200],
    ])
    def test_edge_index_sets(self, indices):
        slices = tuple(SliceConfig(c.pulses, PulseShape(c.pulse.width_ns, "triangular"),
                                   GateShape(c.gate.width_ns, "trapezoidal", 10.0, 20.0), c.delay_ns)
                       for c in standard_slices())
        self.check(slices, NoiseModel(2.0, 17), indices, len(indices), 5)
