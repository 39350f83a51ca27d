"""Synthetic labeled data: intensity triples and full slice image sets.

The forward model per pixel is the gated response of each slice scaled by
pulse count, reflectance, extinction and 1/r^2 irradiance, mapped to gray
values by a single calibration scalar, with optional additive gaussian noise,
then rounded and clamped to 8 bit, in place in one (n, 3) array. Noise
comes from one index-addressed stream (``NoiseModel.rows``): samples are
addressed by sample index and rendered pixels by pixel index. Both pass
their indices in increasing order, so each 4096-row noise block is drawn
once and copied in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gating import Atmosphere, gated_response, rect_overlap
from .pipeline import RawDataset

_NOISE_CHUNK = 4096


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

    def rows(self, indices):
        """Gaussian noise for arbitrary sample or pixel indices as (len(indices), 3).

        Row ``i`` is row ``i % 4096`` of the block drawn from (seed, i // 4096),
        so any index set gets the rows one contiguous draw gives those indices.
        Increasing indices take one pass: each block is drawn once and fills
        the output rows it covers with one slice.
        """
        indices = np.asarray(indices, dtype=np.int64).reshape(-1)
        if self.sigma_gray == 0.0 or indices.size == 0:
            return np.zeros((indices.size, 3))
        if not np.all(indices[1:] > indices[:-1]):
            # unsorted or repeated: no package caller passes these
            unique, inverse = np.unique(indices, return_inverse=True)
            return self.rows(unique)[inverse]
        out = np.empty((indices.size, 3))  # every row is written below
        ends = [*(np.flatnonzero(np.diff(indices // _NOISE_CHUNK)) + 1).tolist(), indices.size]
        for a, b in zip([0, *ends], ends):
            first, last = int(indices[a]), int(indices[b - 1])
            seq = np.random.SeedSequence(entropy=self.seed, spawn_key=(1, first // _NOISE_CHUNK))
            block = np.random.default_rng(seq).normal(0.0, self.sigma_gray, (_NOISE_CHUNK, 3))
            start = first % _NOISE_CHUNK
            # increasing, so a run as long as its span is consecutive
            out[a:b] = (block[start:start + b - a] if last - first == b - a - 1
                        else block[indices[a:b] % _NOISE_CHUNK])
        return out


@dataclass(frozen=True)
class SliceImageSet:
    """Three aligned 8-bit slice images."""

    images: tuple

    def __post_init__(self):
        if len(self.images) != 3:
            raise ValueError("expected exactly three slice images")
        shapes = {img.shape for img in self.images}
        if len(shapes) != 1:
            raise ValueError("slice images must share dimensions")
        for img in self.images:
            if img.dtype != np.uint8:
                raise ValueError("slice images must be 8-bit")


def slice_values(slices, r, alpha=1.0, gamma_per_m=0.0):
    """Pre-calibration intensities of every slice at distances ``r`` and
    reflectances ``alpha``; every simulation path applies its input checks here.

    Returns an (n, k) array for k slices.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    alpha = np.broadcast_to(np.asarray(alpha, dtype=float), r.shape)
    if not np.all(np.isfinite(r) & (r > 0)):
        raise ValueError("distances must be positive and finite")
    if not np.all((alpha >= 0) & (alpha <= 1)):
        raise ValueError("reflectance must lie in [0, 1]")
    kappa = Atmosphere(gamma_per_m=gamma_per_m).kappa(r)  # checks gamma
    out = np.empty((r.size, len(slices)))
    for j, cfg in enumerate(slices):
        # the closed form gated_response picks, via rect_overlap so perfbench counts its distances
        overlap = (rect_overlap(cfg, r) if cfg.is_rectangular else
                   gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r))
        np.multiply(cfg.pulses, overlap, out=out[:, j])
    out *= (alpha * kappa)[:, None]
    return out


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


def simulate_batch(r, alpha, slices, gamma_per_m, calib, noise: NoiseModel, indices=None):
    """Quantized gray triples for arrays of distances and reflectances.

    Row ``k`` gets noise row ``indices[k]`` of the stream (``k`` when
    ``indices`` is None).
    """
    if calib <= 0 or not math.isfinite(calib):
        raise ValueError("calibration scalar must be positive and finite")
    gray = slice_values(slices, r, alpha, gamma_per_m)
    gray *= calib
    gray += noise.rows(np.arange(len(gray)) if indices is None else indices)
    np.rint(gray, out=gray)
    np.clip(gray, 0, 255, out=gray)
    return gray.astype(np.int64)


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
    if calib is None:
        if not isinstance(r_distribution, UniformRange):
            raise ValueError("explicit calib required for non-uniform range distributions")
        calib = calibration_for_peak(slices, r_distribution.lo, r_distribution.hi,
                                     target_peak_gray, gamma_per_m)
    return RawDataset(simulate_batch(r, alpha, slices, gamma_per_m, calib, noise), r)


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
    idx = np.flatnonzero(np.isfinite(flat_d) & (flat_d > 0))
    gray = np.zeros((flat_d.size, 3), dtype=np.int64)
    # Noise is indexed by pixel position, so a pixel's gray value does not
    # depend on how many other pixels are sky.
    gray[idx] = simulate_batch(flat_d[idx], reflectance.reshape(-1)[idx], slices, gamma_per_m,
                               calib, noise, idx)
    images = tuple(gray[:, j].reshape(depth.shape).astype(np.uint8) for j in range(3))
    return SliceImageSet(images)
