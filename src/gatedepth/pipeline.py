"""Dataset ingestion and preprocessing.

The dataset atom is a ``Sample``: three 8-bit slice intensities plus the
ground-truth geometric range in metres. Preprocessing mirrors the capture
pipeline: a prefilter removes saturated and unilluminated triples, optional
per-triple range filtering condenses repeated triples, and per-sample
standardization makes the regression input invariant to reflectance and
overall illumination scale. ``screen_triples`` is the one validity screen:
the prefilter, its counts and both depth predictors use it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateSampleError

#: Gray values strictly above this limit count as saturated.
SATURATION_LIMIT = 250
#: Triples whose max-min spread is strictly below this carry no signal.
CONTRAST_FLOOR = 6

SAMPLE_HEADER = ("s1", "s2", "s3", "r")


@dataclass(frozen=True)
class Sample:
    """One intensity triple with its ground-truth range."""

    s1: int
    s2: int
    s3: int
    r: float

    def __post_init__(self):
        for name in ("s1", "s2", "s3"):
            v = getattr(self, name)
            if not (0 <= v <= 255):
                raise ValueError(f"{name}={v} outside the 8-bit range 0..255")
        if not (math.isfinite(self.r) and self.r > 0):
            raise ValueError(f"range must be positive and finite, got {self.r!r}")

    @property
    def triple(self):
        return (self.s1, self.s2, self.s3)


@dataclass
class RawDataset:
    """An ordered collection of samples plus a provenance note."""

    samples: list
    source: str = ""

    def __len__(self):
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)

    def triples(self):
        """The intensity triples as an (n, 3) int array."""
        return np.fromiter((s.triple for s in self.samples), (np.int64, 3), len(self.samples))

    def arrays(self):
        """Return (intensities (n,3) float array, ranges (n,) float array)."""
        r = np.array([sample.r for sample in self.samples], dtype=float)
        return self.triples().astype(float), r


def screen_triples(values):
    """The validity screen: (saturated, low_contrast, usable) row masks of an
    (n, k) gray-value array. Saturated rows have a value above
    ``SATURATION_LIMIT``, low-contrast rows are the others with a max-min
    spread below ``CONTRAST_FLOOR``, and usable rows are finite and neither."""
    values = np.asarray(values, dtype=float)
    mx = values.max(axis=1)
    saturated = mx > SATURATION_LIMIT
    with np.errstate(invalid="ignore"):  # inf - inf in all-inf rows
        low_contrast = ~saturated & (mx - values.min(axis=1) < CONTRAST_FLOOR)
    usable = np.isfinite(values).all(axis=1) & ~saturated & ~low_contrast
    return saturated, low_contrast, usable


def load_samples(path) -> RawDataset:
    """Load a ``s1,s2,s3,r`` CSV file, reporting bad rows by line number."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open sample file {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: file is empty") from None
        if tuple(h.strip() for h in header) != SAMPLE_HEADER:
            raise DataFormatError(
                f"{path}:1: expected header {','.join(SAMPLE_HEADER)}, got {','.join(header)}"
            )
        samples = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
            try:
                s1, s2, s3 = (int(v) for v in row[:3])
                r = float(row[3])
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
            try:
                samples.append(Sample(s1, s2, s3, r))
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from exc
    if not samples:
        raise DataFormatError(f"{path}: no data rows")
    return RawDataset(samples, source=str(path))


def save_samples(samples, path):
    """Write samples (or a RawDataset) as a ``s1,s2,s3,r`` CSV file."""
    if isinstance(samples, RawDataset):
        samples = samples.samples
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SAMPLE_HEADER) + "\n")
        for s in samples:
            fh.write(f"{s.s1},{s.s2},{s.s3},{float(s.r)!r}\n")


def prefilter(data: RawDataset) -> RawDataset:
    """Drop saturated (any value > 250) and unilluminated (spread < 6) samples."""
    usable = screen_triples(data.triples())[2].tolist()
    return RawDataset([s for s, ok in zip(data.samples, usable) if ok], source=data.source)


def prefilter_counts(data: RawDataset):
    """Return (saturated, low_contrast, kept) counts without filtering."""
    return tuple(int(mask.sum()) for mask in screen_triples(data.triples()))


@dataclass(frozen=True)
class DatasetVariant:
    """Per-triple range filtering rules.

    Samples sharing an intensity triple are grouped; samples whose range
    deviates more than ``deviation_m`` from the group mean (computed once,
    before removal) are dropped, then groups with fewer than ``min_count``
    survivors are dropped and the mean recomputed. ``collapse`` replaces each
    surviving group by a single sample at the recomputed mean. For groups
    whose initial mean exceeds ``far_cutoff_m`` the softened far-range rules
    apply instead.
    """

    tag: str
    deviation_m: float = 1.0
    min_count: int = 3
    collapse: bool = True
    far_cutoff_m: float | None = None
    far_deviation_m: float = 2.0
    far_min_count: int = 1
    passthrough: bool = False


VARIANTS = {
    "dataset1": DatasetVariant("dataset1", collapse=True),
    "dataset2": DatasetVariant("dataset2", collapse=False),
    "dataset3": DatasetVariant("dataset3", collapse=True, far_cutoff_m=60.0),
    "dataset4": DatasetVariant("dataset4", passthrough=True),
}


def variant(tag: str) -> DatasetVariant:
    try:
        return VARIANTS[tag]
    except KeyError:
        raise ValueError(f"unknown dataset variant {tag!r}; choose one of {sorted(VARIANTS)}") from None


def build_dataset(data: RawDataset, spec: DatasetVariant) -> RawDataset:
    """Apply a variant's per-triple range filtering to prefiltered data."""
    if spec.passthrough:
        return RawDataset(list(data.samples), source=data.source)

    groups: dict = {}
    for s in data.samples:
        groups.setdefault(s.triple, []).append(s.r)

    out = []
    for triple in sorted(groups):
        ranges = groups[triple]
        mean0 = sum(ranges) / len(ranges)
        if spec.far_cutoff_m is not None and mean0 > spec.far_cutoff_m:
            deviation, min_count = spec.far_deviation_m, spec.far_min_count
        else:
            deviation, min_count = spec.deviation_m, spec.min_count
        survivors = [r for r in ranges if abs(r - mean0) <= deviation]
        if len(survivors) < min_count:
            continue
        mean1 = sum(survivors) / len(survivors)
        if spec.collapse:
            out.append(Sample(*triple, mean1))
        else:
            out.extend(Sample(*triple, r) for r in sorted(survivors))
    return RawDataset(out, source=data.source)


@dataclass(frozen=True)
class StandardizedSample:
    """Z-scored intensity triple (mean 0, sample std 1) with its range."""

    x: np.ndarray
    r: float


def standardize(sample: Sample) -> StandardizedSample:
    """Per-sample z-scoring; the sample std uses denominator n-1 = 2."""
    values = np.array(sample.triple, dtype=float)
    mu = values.mean()
    sigma = values.std(ddof=1)
    if sigma == 0.0:
        raise DegenerateSampleError(f"triple {sample.triple} has zero spread")
    return StandardizedSample((values - mu) / sigma, sample.r)


def standardize_batch(intensities):
    """Vectorized per-row z-scoring of an (n, 3) intensity array."""
    values = np.asarray(intensities, dtype=float).reshape(-1, 3)
    mu = values.mean(axis=1, keepdims=True)
    sigma = values.std(axis=1, ddof=1, keepdims=True)
    if np.any(sigma == 0.0):
        raise DegenerateSampleError("batch contains zero-spread triples")
    return (values - mu) / sigma


def standardized_arrays(data: RawDataset):
    """Return (X standardized (n,3), r (n,)) training arrays."""
    s, r = data.arrays()
    return standardize_batch(s), r


def split(data: RawDataset, train_fraction: float, seed: int):
    """Seeded shuffle-and-split into (train, validation) datasets."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(data.samples))
    n_train = int(round(len(perm) * train_fraction))
    train = [data.samples[i] for i in perm[:n_train]]
    val = [data.samples[i] for i in perm[n_train:]]
    return (
        RawDataset(train, source=data.source),
        RawDataset(val, source=data.source),
    )
