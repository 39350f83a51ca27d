"""Distance-binned error metrics and depth-map rendering.

Predictions are binned by the true range; each bin reports the mean absolute
error, the spread (population std) of the absolute errors for error bars,
the relative MAE (MAE divided by the bin center) and the sample count.
Estimates that are invalid (NaN) never enter the metrics; they are summarized
separately as a coverage fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DataFormatError
from .pgmio import read_pgm, write_pgm
from .scene import SliceImageSet

#: Fixed-point scale of 16-bit depth images: gray levels per metre (0 = invalid).
DEPTH_PGM_LEVELS_PER_M = 256.0


class BinRow(NamedTuple):
    center: float
    mae: float
    std: float
    rel_mae: float
    count: int


@dataclass(frozen=True)
class BinnedError:
    rows: tuple

    @property
    def total_count(self):
        return sum(row.count for row in self.rows)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("bin_center,mae,std,rel_mae,count\n")
            for row in self.rows:
                fh.write(f"{row.center!r},{row.mae!r},{row.std!r},{row.rel_mae!r},{row.count}\n")


def bin_index(values, bin_width_m):
    """Integer bin ``floor(v / bin_width_m)`` of each value, the bin spanning
    ``[k, k + 1) * bin_width_m``; ``ValueError`` naming the value and the
    width when a bin index leaves the int64 range."""
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # out-of-range bins are rejected below
        k = np.floor(values / bin_width_m)
    bad = ~((k >= -2.0**63) & (k < 2.0**63))
    if bad.any():
        raise ValueError(f"{float(values[bad][0])!r} has no bin of width {bin_width_m!r}: "
                         "its bin index leaves the int64 range")
    return k.astype(np.int64)


def binned_mae(predicted, truth, bin_width_m=5.0) -> BinnedError:
    """Per-bin absolute/relative MAE; samples are assigned by true range.

    Non-finite predictions are dropped (they count toward coverage only) and
    empty bins are omitted.
    """
    predicted = np.asarray(predicted, dtype=float).reshape(-1)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if predicted.size == 0 or predicted.shape != truth.shape:
        raise ValueError("need matching non-empty prediction/truth arrays")
    if bin_width_m <= 0:
        raise ValueError("bin width must be positive")
    keep = np.isfinite(predicted)
    predicted, truth = predicted[keep], truth[keep]
    rows = []
    if predicted.size:
        err = np.abs(predicted - truth)
        idx = bin_index(truth, bin_width_m)
        for k in np.unique(idx):
            sel = idx == k
            center = float((k + 0.5) * bin_width_m)
            mae = float(err[sel].mean())
            rows.append(BinRow(center, mae, float(err[sel].std()), mae / center, int(sel.sum())))
    return BinnedError(tuple(rows))


@dataclass(frozen=True)
class EstimatorReport:
    name: str
    binned: BinnedError
    coverage: float


@dataclass(frozen=True)
class EstimatorComparison:
    reports: tuple

    def report(self, name):
        for rep in self.reports:
            if rep.name == name:
                return rep
        raise KeyError(name)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("estimator,coverage,bin_center,mae,std,rel_mae,count\n")
            for rep in self.reports:
                for row in rep.binned.rows:
                    fh.write(f"{rep.name},{rep.coverage!r},{row.center!r},{row.mae!r},"
                             f"{row.std!r},{row.rel_mae!r},{row.count}\n")


def compare_estimators(estimators, triples, truth, bin_width_m=5.0) -> EstimatorComparison:
    """Run every named batch estimator over the test set and bin the errors.

    ``estimators`` maps names to callables taking an (n, 3) intensity array
    and returning n range estimates with NaN for invalid. Coverage is the
    fraction of samples with a finite estimate; an estimator that never fires
    simply reports coverage 0.
    """
    if not estimators:
        raise ValueError("need at least one estimator")
    triples = np.asarray(triples, dtype=float).reshape(-1, 3)
    truth = np.asarray(truth, dtype=float).reshape(-1)
    if triples.shape[0] == 0 or triples.shape[0] != truth.shape[0]:
        raise ValueError("test set must be non-empty with matching truth")
    reports = []
    for name, fn in estimators.items():
        preds = np.asarray(fn(triples), dtype=float).reshape(-1)
        if preds.shape != truth.shape:
            raise ValueError(f"estimator {name!r} returned {preds.shape}, expected {truth.shape}")
        reports.append(EstimatorReport(name, binned_mae(preds, truth, bin_width_m),
                                       float(np.isfinite(preds).mean())))
    return EstimatorComparison(tuple(reports))


@dataclass(frozen=True)
class DepthMap:
    """Per-pixel range in metres; NaN marks pixels with no valid estimate."""

    depth: np.ndarray

    @property
    def valid_mask(self):
        return np.isfinite(self.depth)

    def write_pgm(self, path):
        """16-bit PGM at 1/256 m per level; gray 0 encodes an invalid pixel."""
        levels = np.where(
            self.valid_mask,
            np.clip(np.rint(np.nan_to_num(self.depth) * DEPTH_PGM_LEVELS_PER_M), 1, 65535),
            0,
        ).astype(np.uint16)
        write_pgm(path, levels)

    def write_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for row in self.depth:
                fh.write(",".join("" if not math.isfinite(v) else repr(float(v)) for v in row) + "\n")


def read_depth_pgm(path):
    """Inverse of DepthMap.write_pgm; returns a DepthMap with NaN invalids."""
    levels = read_pgm(path)
    if levels.dtype != np.uint16:
        raise DataFormatError(f"{path}: expected a 16-bit depth image")
    depth = levels.astype(float) / DEPTH_PGM_LEVELS_PER_M
    depth[levels == 0] = np.nan
    return DepthMap(depth)


def render_depth_map(estimator, images: SliceImageSet) -> DepthMap:
    """Apply a batch estimator pixelwise to three aligned slices.

    Output resolution equals input resolution, so the depth map aligns with
    the intensity images pixel for pixel.
    """
    triples = np.column_stack([img.reshape(-1).astype(float) for img in images.images])
    preds = np.asarray(estimator(triples), dtype=float).reshape(images.images[0].shape)
    return DepthMap(preds)
