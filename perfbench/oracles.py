"""Reference computations the benchmark checks the program's outputs against.

None of these call into gatedepth: each restates a documented contract
(the gating overlap integral, the probe's validity rule, the PGM layout, the
prefilter rule) directly, so a defect in the program cannot hide in its own
check.
"""

from __future__ import annotations

import re

import numpy as np

SPEED_OF_LIGHT_M_PER_NS = 0.299792458
SATURATION_LIMIT = 250
CONTRAST_FLOOR = 6

_PGM_HEADER = re.compile(rb"P5\s+(\d+)\s+(\d+)\s+(\d+)\s")


def unit_trapezoid(t, width, rise, fall):
    """Unit-peak trapezoid on [0, width] with linear edges of ``rise``/``fall`` ns."""
    t = np.asarray(t, dtype=float)
    up = t / rise if rise > 0 else np.ones_like(t)
    down = (width - t) / fall if fall > 0 else np.ones_like(t)
    inside = (t >= 0.0) & (t <= width)
    return np.where(inside, np.clip(np.minimum(up, down), 0.0, 1.0), 0.0)


def dense_overlap(pulse, gate, delay_ns, r_m, points=50_001):
    """Overlap integral (ns) of a returning trapezoidal pulse and a trapezoidal gate.

    ``pulse``/``gate`` are (width, rise, fall) in ns; the gate opens
    ``delay_ns`` after the pulse's trailing edge leaves. The integrand is
    sampled on a dense grid that also holds every edge breakpoint, and
    integrated with the trapezoid rule.
    """
    tau = 2.0 * r_m / SPEED_OF_LIGHT_M_PER_NS
    gate_open = pulse[0] + delay_ns
    lo = max(tau, gate_open)
    hi = min(tau + pulse[0], gate_open + gate[0])
    if hi <= lo:
        return 0.0
    kinks = [tau + k for k in (0.0, pulse[1], pulse[0] - pulse[2], pulse[0])]
    kinks += [gate_open + k for k in (0.0, gate[1], gate[0] - gate[2], gate[0])]
    t = np.union1d(np.linspace(lo, hi, points), [k for k in kinks if lo < k < hi])
    f = unit_trapezoid(t - tau, *pulse) * unit_trapezoid(t - gate_open, *gate)
    return float(0.5 * np.sum((f[1:] + f[:-1]) * np.diff(t)))


def probe_triple_count(max_gray, contrast_floor):
    """Number of integer triples below ``max_gray`` that the probe must visit.

    A triple counts when its spread exceeds ``contrast_floor`` and the middle
    slice is not strictly darker than both outer slices.
    """
    g = np.arange(max_gray)
    s2, s3 = g[:, None], g[None, :]
    total = 0
    for s1 in range(max_gray):
        hi = np.maximum(s1, np.maximum(s2, s3))
        lo = np.minimum(s1, np.minimum(s2, s3))
        total += int(np.count_nonzero((hi - lo > contrast_floor) & ~((s2 < s1) & (s2 < s3))))
    return total


def decode_pgm(path):
    """Binary PGM (P5) to an array: uint8 for maxval <= 255, else big-endian uint16."""
    with open(path, "rb") as fh:
        data = fh.read()
    match = _PGM_HEADER.match(data)
    if match is None:
        raise ValueError(f"{path}: not a binary PGM")
    width, height, maxval = (int(v) for v in match.groups())
    dtype = np.dtype(np.uint8) if maxval <= 255 else np.dtype(">u2")
    payload = data[match.end():]
    if len(payload) != width * height * dtype.itemsize:
        raise ValueError(f"{path}: {len(payload)} payload bytes for {width}x{height}")
    return np.frombuffer(payload, dtype=dtype).reshape(height, width)


def encode_pgm(path, image):
    """Write a 2-D uint8 array as binary PGM."""
    image = np.asarray(image, dtype=np.uint8)
    height, width = image.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (width, height))
        fh.write(image.tobytes())


def depth_map_error(levels, expected_m):
    """Largest |decoded - expected| (m) over valid pixels, or inf on a validity mismatch.

    ``levels`` is a decoded 16-bit depth PGM (1/256 m per level, 0 = no
    estimate); ``expected_m`` holds the estimator's ranges with NaN for no
    estimate. Ranges outside the format's 1..65535 levels compare clipped.
    """
    valid = levels > 0
    if not np.array_equal(valid, np.isfinite(expected_m)):
        return float("inf")
    if not valid.any():
        return 0.0
    clipped = np.clip(expected_m[valid], 1 / 256, 65535 / 256)
    return float(np.max(np.abs(levels[valid] / 256.0 - clipped)))


def prefilter_counts(triples):
    """(saturated, low contrast, kept) counts of an (n, 3) gray-value array."""
    triples = np.asarray(triples)
    saturated = triples.max(axis=1) > SATURATION_LIMIT
    low = ~saturated & (np.ptp(triples, axis=1) < CONTRAST_FLOOR)
    return int(saturated.sum()), int(low.sum()), int((~saturated & ~low).sum())
