"""Dataset ingestion and preprocessing.

The dataset atom is a ``Sample``: three 8-bit slice intensities plus the
ground-truth geometric range in metres; a ``RawDataset`` holds samples as
a triple column and a range column. Preprocessing mirrors the capture
pipeline: a prefilter removes saturated and unilluminated triples, optional
per-triple range filtering condenses repeated triples, and per-sample
standardization makes the regression input invariant to reflectance and
overall illumination scale. ``screen_triples`` is the one validity screen:
the prefilter, its counts and both depth predictors use it.
"""

from __future__ import annotations

import csv
import math
import re
import sys
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import DataFormatError, DegenerateSampleError

#: Gray values strictly above this limit count as saturated.
SATURATION_LIMIT = 250
#: Triples whose max-min spread is strictly below this carry no signal.
CONTRAST_FLOOR = 6

SAMPLE_HEADER = ("s1", "s2", "s3", "r")

# The fast path's view of a sample-file body: each byte of a plain number
# becomes "0", commas and line breaks stay, every other byte becomes "?".
_PLAIN_SHAPE = bytes(ord("0") if c in b"0123456789.+-eE" else c if c in b",\r\n" else ord("?")
                     for c in range(256))
_ROW_DTYPE = np.dtype([("triple", "i8", (3,)), ("r", "f8")])
_FIRST_LINE = re.compile(rb"[^\r\n]*")


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


@dataclass(eq=False)
class RawDataset:
    """Samples as an (n, 3) int64 gray-value array ``triples`` and an (n,)
    range array ``r``. Iterating yields ``Sample`` rows; ``==`` compares
    the columns."""

    triples: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        self.triples = np.ascontiguousarray(self.triples, dtype=np.int64).reshape(-1, 3)
        self.r = np.ascontiguousarray(self.r, dtype=float).reshape(-1)
        if len(self.triples) != len(self.r):
            raise ValueError(f"{len(self.triples)} triples but {len(self.r)} ranges")

    def __len__(self):
        return len(self.r)

    def __iter__(self):
        return map(Sample, *self.triples.T.tolist(), self.r.tolist())

    def __eq__(self, other):
        return (isinstance(other, RawDataset) and np.array_equal(self.triples, other.triples)
                and np.array_equal(self.r, other.r))

    def take(self, rows):
        """The rows picked by an index array or boolean mask, as a new dataset."""
        return RawDataset(self.triples[rows], self.r[rows])


def screen_triples(values):
    """The validity screen: (saturated, low_contrast, usable) row masks of an
    (n, k) gray-value array. Saturated rows have a value above
    ``SATURATION_LIMIT``, low-contrast rows are the others with a max-min
    spread below ``CONTRAST_FLOOR``, and usable rows are finite and neither."""
    cols = np.asarray(values, dtype=float).T
    mx = reduce(np.maximum, cols)
    saturated = mx > SATURATION_LIMIT
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf; saturated +-1e308
        spread = mx - reduce(np.minimum, cols)
    low_contrast = ~saturated & (spread < CONTRAST_FLOOR)
    usable = np.isfinite(spread) & ~saturated & ~low_contrast  # NaN, -inf: no finite spread
    return saturated, low_contrast, usable


def _check_row(path, lineno, row):
    """Raise the ``Sample`` rule's message for a bad row, naming its line."""
    try:
        Sample(*row)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from exc


def _bad_rows(data: RawDataset):
    """The row mask of samples the ``Sample`` rule rejects."""
    return ((data.triples < 0) | (data.triples > 255)).any(axis=1) | ~(np.isfinite(data.r) & (data.r > 0))


def load_samples(path) -> RawDataset:
    """Load a ``s1,s2,s3,r`` CSV file, reporting bad rows by line number.

    A file of plain numbers is parsed in one C pass; any other file, and any
    file with a bad row, goes through the per-row reader. Both accept the
    same files and give the same values; only the per-row reader names lines.
    """
    try:
        with open(path, "rb") as fh:
            data = _load_plain(fh)
    except OSError:
        data = None  # the per-row reader reports it
    return _load_samples_per_row(path) if data is None else data


def _load_plain(fh):
    """The dataset in a binary sample file, or ``None`` unless the file is
    plain and every value is in range."""
    start = _plain_body_start(fh.read())
    if start is None:
        return None
    fh.seek(start)
    try:
        rows = np.loadtxt(fh, dtype=_ROW_DTYPE, delimiter=",", comments=None, quotechar=None,
                          ndmin=1)
    except ValueError:
        return None
    data = RawDataset(rows["triple"], rows["r"])
    return None if _bad_rows(data).any() else data


def _plain_body_start(raw):
    """Where the rows start in a sample file's bytes, or ``None`` unless they
    are plain: the header line, then ``[0-9.+-eE]`` fields split by commas and
    line breaks, at least one of them not empty.

    On plain bytes ``np.loadtxt`` and ``int``/``float`` agree value for value
    and reject the same rows. Elsewhere they part: loadtxt reads ``10\\x1c``
    as 10 and rejects ``1_0``, ``٣`` and quoted fields; ``int`` and ``csv``
    reject fields beyond Python's digit and field-size limits.
    """
    start = _FIRST_LINE.match(raw).end()
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # no limit before 3.10.7
    longest = min(csv.field_size_limit(), digits or sys.maxsize)
    if (tuple(f.strip() for f in raw[:start].split(b",")) != tuple(h.encode() for h in SAMPLE_HEADER)
            or start > longest):
        return None
    shape = raw.translate(_PLAIN_SHAPE)
    if (shape.find(b"0", start) < 0 or shape.find(b"?", start) >= 0
            or shape.find(b"0" * (longest + 1), start) >= 0):
        return None  # no data rows, a byte that is not plain, or a field too long
    return start


def _load_samples_per_row(path) -> RawDataset:
    """``load_samples`` one row at a time through ``csv``, ``int`` and ``float``;
    errors name the file and the line of the first bad row."""
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise DataFormatError(f"cannot open sample file {path}: {exc}") from exc
    triples, ranges = array("q"), array("d")
    blanks = []  # data-row count at each blank line, to map rows back to lines
    with fh:
        try:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataFormatError(f"{path}: file is empty") from None
            if tuple(h.strip() for h in header) != SAMPLE_HEADER:
                raise DataFormatError(
                    f"{path}:1: expected header {','.join(SAMPLE_HEADER)}, got {','.join(header)}"
                )
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    blanks.append(len(ranges))
                    continue
                if len(row) != 4:
                    raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(row)}")
                try:
                    s1, s2, s3 = (int(v) for v in row[:3])
                    r = float(row[3])
                except ValueError as exc:
                    raise DataFormatError(f"{path}:{lineno}: non-numeric field ({exc})") from exc
                try:
                    triples.extend((s1, s2, s3))
                except OverflowError:  # beyond int64, so certainly outside 0..255
                    _check_row(path, lineno, (s1, s2, s3, r))
                ranges.append(r)
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{path}: not UTF-8 text ({exc})") from None
    if not ranges:
        raise DataFormatError(f"{path}: no data rows")
    data = RawDataset(np.frombuffer(triples, dtype=np.int64), np.frombuffer(ranges))
    bad = _bad_rows(data)
    if bad.any():
        i = int(bad.argmax())
        _check_row(path, i + 2 + bisect_right(blanks, i), (*data.triples[i].tolist(), float(data.r[i])))
    return data


def save_samples(data: RawDataset, path):
    """Write a dataset as a ``s1,s2,s3,r`` CSV file."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(SAMPLE_HEADER) + "\n")
        for s1, s2, s3, r in zip(*data.triples.T.tolist(), data.r.tolist()):
            fh.write(f"{s1},{s2},{s3},{r!r}\n")


def prefilter(data: RawDataset) -> RawDataset:
    """Drop saturated (any value > 250) and unilluminated (spread < 6) samples."""
    return data.take(screen_triples(data.triples)[2])


def prefilter_counts(data: RawDataset):
    """Return (saturated, low_contrast, kept) counts without filtering."""
    return tuple(int(mask.sum()) for mask in screen_triples(data.triples))


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
    """Apply a variant's per-triple range filtering to prefiltered data.

    Groups come out in sorted triple order. Group sums add ranges in file
    order (``bincount`` sums each bin left to right), so means are the same
    floats a plain per-group ``sum`` gives.
    """
    if spec.passthrough:
        return data
    t = data.triples
    keys = (t[:, 0] * 256 + t[:, 1]) * 256 + t[:, 2]
    _, first, inverse, counts = np.unique(keys, return_index=True, return_inverse=True,
                                          return_counts=True)
    mean0 = np.bincount(inverse, weights=data.r) / counts
    deviation = np.full(counts.size, spec.deviation_m)
    min_count = np.full(counts.size, spec.min_count)
    if spec.far_cutoff_m is not None:
        far = mean0 > spec.far_cutoff_m
        deviation[far], min_count[far] = spec.far_deviation_m, spec.far_min_count
    survives = np.abs(data.r - mean0[inverse]) <= deviation[inverse]
    n_survivors = np.bincount(inverse[survives], minlength=counts.size)
    kept = n_survivors >= min_count
    if spec.collapse:
        sums = np.bincount(inverse[survives], weights=data.r[survives], minlength=counts.size)
        return RawDataset(t[first[kept]], sums[kept] / n_survivors[kept])
    rows = np.flatnonzero(survives & kept[inverse])
    return data.take(rows[np.lexsort((data.r[rows], inverse[rows]))])


def standardize_batch(intensities):
    """Per-row z-scores (ddof=1) of an (n, 3) array as ``e / sqrt(q / 2)``, ``e = 3*v - sum(v)``,
    ``q = sum(e**2)``: exact for integers, so a function of ``(s1 - s3, s2 - s3)`` bit for bit."""
    v = np.asarray(intensities, dtype=float).reshape(-1, 3)
    e = 3.0 * v - (v[:, 0] + v[:, 1] + v[:, 2])[:, None]
    q = e[:, 0] * e[:, 0] + e[:, 1] * e[:, 1] + e[:, 2] * e[:, 2]
    if np.any(q == 0.0):
        raise DegenerateSampleError("batch contains zero-spread triples")
    return e / np.sqrt(q / 2.0)[:, None]


def standardized_arrays(data: RawDataset):
    """Return (X standardized (n,3), r (n,)) training arrays."""
    return standardize_batch(data.triples), data.r


def split(data: RawDataset, train_fraction: float, seed: int):
    """Seeded shuffle-and-split into (train, validation) datasets."""
    if not (0.0 < train_fraction < 1.0):
        raise ValueError("train fraction must lie strictly between 0 and 1")
    perm = np.random.default_rng(seed).permutation(len(data))
    n_train = int(round(len(perm) * train_fraction))
    return data.take(perm[:n_train]), data.take(perm[n_train:])
