"""Synthetic labeled data: intensity triples and full slice image sets.

The forward model per pixel is the gated response of each slice scaled by
pulse count, reflectance, extinction and 1/r^2 irradiance, mapped to gray
values by a single calibration scalar, with optional additive gaussian noise,
then rounded and clamped to 8 bit. Noise comes from one index-addressed
stream (``NoiseModel.rows``): samples are addressed by sample index and
rendered pixels by pixel index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gating import gated_response, rect_overlap
from .pipeline import Sample

_NOISE_CHUNK = 4096


@dataclass(frozen=True)
class ScenePoint:
    """A target at distance ``r`` metres with reflectance ``alpha``."""

    r: float
    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError("scene point distance must be positive")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("reflectance must lie in [0, 1]")


@dataclass(frozen=True)
class NoiseModel:
    """Additive gaussian gray-value noise with a reproducible stream.

    Noise for sample index ``i`` depends only on (seed, i), so chunked or
    parallel generation produces the same values as a serial run.
    """

    sigma_gray: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sigma_gray) and self.sigma_gray >= 0.0):
            raise ValueError("noise sigma must be >= 0")

    def triples(self, n, start_index=0):
        """Gaussian noise for samples [start_index, start_index + n) as (n, 3)."""
        return self.rows(np.arange(start_index, start_index + n))

    def rows(self, indices):
        """Gaussian noise for arbitrary sample or pixel indices as (len(indices), 3).

        Row ``i`` is row ``i % 4096`` of the block drawn from (seed, i // 4096),
        so any index set gets the rows one contiguous draw gives those indices.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        out = np.zeros((indices.size, 3), dtype=float)
        if self.sigma_gray == 0.0 or indices.size == 0:
            return out
        order = np.argsort(indices, kind="stable")
        chunks, starts = np.unique(indices[order] // _NOISE_CHUNK, return_index=True)
        for chunk, sel in zip(chunks.tolist(), np.split(order, starts[1:])):
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(1, chunk))
            block = np.random.default_rng(seq).normal(0.0, self.sigma_gray, (_NOISE_CHUNK, 3))
            out[sel] = block[indices[sel] % _NOISE_CHUNK]
        return out


@dataclass(frozen=True)
class SliceImageSet:
    """Three aligned 8-bit slice images plus optional ground-truth depth."""

    images: tuple
    depth: np.ndarray | None = None

    def __post_init__(self):
        if len(self.images) != 3:
            raise ValueError("expected exactly three slice images")
        shapes = {img.shape for img in self.images}
        if len(shapes) != 1:
            raise ValueError("slice images must share dimensions")
        for img in self.images:
            if img.dtype != np.uint8:
                raise ValueError("slice images must be 8-bit")
        if self.depth is not None and self.depth.shape != self.images[0].shape:
            raise ValueError("depth map dimensions must match the slice images")

    @property
    def height(self):
        return self.images[0].shape[0]

    @property
    def width(self):
        return self.images[0].shape[1]


def _overlap_at(cfg, r):
    """Overlap (ns) of one slice at distances ``r``.

    Rectangular shapes evaluate in closed form, other shapes through the
    vectorized Gauss-Legendre kernel; either way each value depends on its
    own distance only, never on the rest of the batch.
    """
    if cfg.is_rectangular:
        return rect_overlap(cfg, r)
    return gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r)


def slice_values(slices, r, alpha=1.0, gamma_per_m=0.0):
    """Pre-calibration intensities of every slice at distances ``r``.

    Returns an (n, k) array for k slices.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), r.shape)
    if np.any(r <= 0):
        raise ValueError("distances must be positive")
    atten = np.exp(-2.0 * gamma_per_m * r) / (r * r)
    cols = [cfg.pulses * _overlap_at(cfg, r) for cfg in slices]
    return np.stack(cols, axis=1) * (alpha * atten)[:, None]


def calibration_for_peak(slices, r_lo, r_hi, target_peak_gray=200.0, gamma_per_m=0.0, samples=4096):
    """Calibration scalar putting the brightest slice at ``target_peak_gray``.

    The peak is searched over a dense grid of [r_lo, r_hi] at reflectance 1,
    so generated data fills the usable 8-bit range without saturating.
    """
    if not (0 < r_lo < r_hi):
        raise ValueError("need 0 < r_lo < r_hi")
    grid = np.linspace(r_lo, r_hi, samples)
    peak = slice_values(slices, grid, 1.0, gamma_per_m).max()
    if peak <= 0:
        raise ValueError("no slice responds inside the requested range")
    return float(target_peak_gray) / float(peak)


def simulate_batch(r, alpha, slices, gamma_per_m, calib, noise: NoiseModel, start_index=0):
    """Quantized gray triples for arrays of distances and reflectances."""
    if calib <= 0 or not math.isfinite(calib):
        raise ValueError("calibration scalar must be positive and finite")
    gray = calib * slice_values(slices, r, alpha, gamma_per_m)
    gray = gray + noise.triples(gray.shape[0], start_index)
    return np.clip(np.rint(gray), 0, 255).astype(np.int64)


def simulate_triple(point: ScenePoint, slices, gamma_per_m, calib, noise: NoiseModel, sample_index=0) -> Sample:
    """Simulate one labeled sample; ground truth is copied through."""
    s = simulate_batch(
        np.array([point.r]), np.array([point.alpha]), slices, gamma_per_m, calib, noise, sample_index
    )[0]
    return Sample(int(s[0]), int(s[1]), int(s[2]), point.r)


@dataclass(frozen=True)
class UniformRange:
    """Uniform distribution on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError("need lo < hi")

    def sample(self, rng, n):
        return rng.uniform(self.lo, self.hi, n)


@dataclass(frozen=True)
class EmpiricalHistogram:
    """Piecewise-uniform distribution defined by bin edges and counts."""

    bin_edges: tuple
    counts: tuple

    def __post_init__(self):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        if edges.size != counts.size + 1:
            raise ValueError("need len(bin_edges) == len(counts) + 1")
        if np.any(np.diff(edges) <= 0):
            raise ValueError("bin edges must be strictly increasing")
        if np.any(counts < 0) or counts.sum() <= 0:
            raise ValueError("counts must be >= 0 with a positive total")

    def sample(self, rng, n):
        edges = np.asarray(self.bin_edges, dtype=float)
        counts = np.asarray(self.counts, dtype=float)
        bins = rng.choice(counts.size, size=n, p=counts / counts.sum())
        return rng.uniform(edges[bins], edges[bins + 1])


def generate_dataset(n, r_distribution, alpha_distribution, slices, noise: NoiseModel,
                     gamma_per_m=0.0, calib=None, target_peak_gray=200.0):
    """Draw ``n`` independent labeled samples; reproducible from the noise seed.

    ``alpha_distribution`` may be a distribution or a fixed float. When no
    explicit calibration scalar is given one is derived from the r range
    (UniformRange only) at the requested target peak gray value.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=noise.seed, spawn_key=(0,)))
    r = np.asarray(r_distribution.sample(rng, n), dtype=float)
    if np.any(r <= 0):
        raise ValueError("range distribution produced non-positive distances")
    if isinstance(alpha_distribution, (int, float)):
        alpha = np.full(n, float(alpha_distribution))
    else:
        alpha = np.asarray(alpha_distribution.sample(rng, n), dtype=float)
    if np.any((alpha < 0) | (alpha > 1)):
        raise ValueError("reflectance distribution left [0, 1]")
    if calib is None:
        if not isinstance(r_distribution, UniformRange):
            raise ValueError("explicit calib required for non-uniform range distributions")
        calib = calibration_for_peak(slices, r_distribution.lo, r_distribution.hi,
                                     target_peak_gray, gamma_per_m)
    gray = simulate_batch(r, alpha, slices, gamma_per_m, calib, noise)
    # Plain-Python column lists build Samples faster than numpy scalars do.
    # Chunks keep those temporary lists small: whole-array lists raised the
    # process's peak memory by several MiB.
    samples = []
    for start in range(0, n, _NOISE_CHUNK):
        rows = slice(start, start + _NOISE_CHUNK)
        samples += map(Sample, *gray[rows].T.tolist(), r[rows].tolist())
    return samples


def render_slices(depth, reflectance, slices, noise: NoiseModel, gamma_per_m=0.0, calib=1.0) -> SliceImageSet:
    """Render three slice images from per-pixel depth and reflectance maps.

    Non-finite or non-positive depth (sky, dropouts) renders as (0, 0, 0)
    with no noise, mirroring pixels that register no return at all.
    """
    depth = np.asarray(depth, dtype=float)
    reflectance = np.asarray(reflectance, dtype=float)
    if depth.shape != reflectance.shape:
        raise ValueError("depth and reflectance maps must share dimensions")
    flat_d = depth.reshape(-1)
    flat_a = reflectance.reshape(-1)
    valid = np.isfinite(flat_d) & (flat_d > 0)
    gray = np.zeros((flat_d.size, 3), dtype=np.int64)
    idx = np.flatnonzero(valid)
    # Noise is indexed by pixel position, so a pixel's gray value does not
    # depend on how many other pixels are sky.
    vals = calib * slice_values(slices, flat_d[idx], flat_a[idx], gamma_per_m) + noise.rows(idx)
    gray[idx] = np.clip(np.rint(vals), 0, 255).astype(np.int64)
    images = tuple(gray[:, j].reshape(depth.shape).astype(np.uint8) for j in range(3))
    return SliceImageSet(images, depth=depth)
