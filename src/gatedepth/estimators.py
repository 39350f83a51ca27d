"""Classical depth recovery from gated slices.

Two families are implemented. Time slicing recovers depth from a densely
sampled gate-delay profile by an intensity-weighted average. Intensity-ratio
correlation inverts the ratio of two overlapping slices wherever both respond
linearly (rising ramp, plateau, falling ramp), which the section table
organizes into contiguous distance sections for the configured slice set.
With the stock three-slice parameters the estimable span splits into nine
sections, two of which (roughly 57-72 m) admit two independent estimates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EstimatorError, NoSignalError, UnsupportedShapeError
from .gating import SPEED_OF_LIGHT_M_PER_NS as _C0
from .gating import SliceConfig, rip_breakpoints
from .pipeline import screen_triples

DARK = "dark"
RISING = "rising"
PLATEAU = "plateau"
FALLING = "falling"


class DelaySample(NamedTuple):
    """One gate-delay measurement.

    ``delay_ns`` is the time from the pulse onset to the gate opening; under
    this package's trailing-edge delay convention that is the configured
    slice delay plus the pulse width.
    """

    delay_ns: float
    intensity: float


def gdp_delay_samples(profile, pulse_width_ns):
    """Convert a delay-axis profile into DelaySamples for time slicing."""
    if profile.axis != "delay_ns":
        raise ValueError("time slicing needs a delay-axis profile")
    return [
        DelaySample(float(d) + float(pulse_width_ns), float(v))
        for d, v in zip(profile.coordinates, profile.intensities)
    ]


def time_slicing_estimate(samples) -> float:
    """Weighted-average depth from a sampled gate-delay profile.

    The average two-way travel time is sum(I*t)/sum(I); depth is c0*t/2.
    Exact for symmetric profiles, i.e. matching pulse and gate widths.
    """
    total = 0.0
    weighted = 0.0
    for s in samples:
        if s.intensity < 0 or not math.isfinite(s.intensity):
            raise ValueError(f"intensity must be finite and >= 0, got {s.intensity!r}")
        total += s.intensity
        weighted += s.intensity * s.delay_ns
    if total <= 0.0:
        raise NoSignalError("all delay samples have zero intensity")
    return 0.5 * _C0 * (weighted / total)


def correlation_trapez(ramp_intensity, plateau_intensity, delay_ns, pulse_ns) -> float:
    """Ratio inversion for a plateau/rising-ramp slice pair.

    Applies to two equal-width pulses where the second slice is delayed by
    one pulse width and the gates last two pulse widths: across
    [c0/2*(t0+tl), c0/2*(t0+2*tl)] the first slice holds its plateau while
    the second ramps up, and depth is linear in their intensity ratio.
    """
    if plateau_intensity <= 0:
        raise EstimatorError("plateau intensity must be positive (no overlap signal)")
    if ramp_intensity < 0:
        raise EstimatorError("ramp intensity must be >= 0")
    ratio = ramp_intensity / plateau_intensity
    return 0.5 * _C0 * (delay_ns + pulse_ns + ratio * pulse_ns)


def correlation_triangle(rising_intensity, falling_intensity, delay_ns, pulse_ns) -> float:
    """Ratio inversion for two triangular slices crossing over.

    Where the later slice ramps up while the earlier one ramps down their sum
    is constant, and depth is linear in rising/(rising + falling).
    """
    total = rising_intensity + falling_intensity
    if total <= 0:
        raise EstimatorError("slice pair carries no signal")
    if rising_intensity < 0 or falling_intensity < 0:
        raise EstimatorError("intensities must be >= 0")
    ratio = rising_intensity / total
    return 0.5 * _C0 * (delay_ns + pulse_ns + ratio * pulse_ns)


def _overlap_line(cfg: SliceConfig, behavior):
    """Overlap (ns) as intercept + slope * tau for one behavior segment."""
    t0 = cfg.delay_ns
    tl = cfg.pulse.width_ns
    tg = cfg.gate.width_ns
    if behavior == RISING:
        return (-t0, 1.0)
    if behavior == PLATEAU:
        return (min(tl, tg), 0.0)
    if behavior == FALLING:
        return (t0 + tl + tg, -1.0)
    raise ValueError(f"no overlap line for behavior {behavior!r}")


@dataclass(frozen=True)
class PairEstimator:
    """Closed-form depth from the intensity ratio of two overlapping slices.

    Within a section each slice's overlap is linear in the two-way travel
    time tau, so the pulse-count-corrected ratio determines tau exactly.
    """

    index_a: int
    index_b: int
    behavior_a: str
    behavior_b: str
    intercept_a: float
    slope_a: float
    intercept_b: float
    slope_b: float
    pulses_a: int
    pulses_b: int

    @property
    def label(self):
        return f"s{self.index_a + 1}.{self.behavior_a}/s{self.index_b + 1}.{self.behavior_b}"

    def estimate(self, intensity_a, intensity_b) -> float:
        if intensity_b <= 0:
            raise EstimatorError(f"{self.label}: denominator slice has no signal")
        if intensity_a < 0:
            raise EstimatorError(f"{self.label}: negative intensity")
        ratio = (intensity_a / self.pulses_a) / (intensity_b / self.pulses_b)
        denom = ratio * self.slope_b - self.slope_a
        if abs(denom) < 1e-12:
            raise EstimatorError(f"{self.label}: degenerate ratio, depth indeterminate")
        tau = (self.intercept_a - ratio * self.intercept_b) / denom
        return 0.5 * _C0 * tau


@dataclass(frozen=True)
class Section:
    """A distance interval on which every slice keeps one behavior."""

    r_lo: float
    r_hi: float
    behaviors: tuple
    estimators: tuple

    @property
    def lit(self):
        return frozenset(i for i, b in enumerate(self.behaviors) if b != DARK)

    def contains(self, r, tolerance=0.0):
        return self.r_lo - tolerance <= r <= self.r_hi + tolerance


@dataclass(frozen=True)
class SectionTable:
    """Contiguous sections covering the span where depth can be estimated."""

    sections: tuple
    slices: tuple

    def __len__(self):
        return len(self.sections)

    @property
    def span(self):
        return (self.sections[0].r_lo, self.sections[-1].r_hi) if self.sections else (math.nan, math.nan)

    def write_csv(self, path):
        n = len(self.slices)
        header = ["r_lo", "r_hi"] + [f"slice{i + 1}" for i in range(n)] + ["estimators"]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for sec in self.sections:
                ests = "|".join(e.label for e in sec.estimators)
                cells = [repr(sec.r_lo), repr(sec.r_hi), *sec.behaviors, ests]
                fh.write(",".join(cells) + "\n")


def _behavior_at(breakpoints, r):
    rise, plateau, fall, end = breakpoints
    if r <= rise or r >= end:
        return DARK
    if r < plateau:
        return RISING
    if r < fall:
        return PLATEAU
    return FALLING


def _informative(line_a, line_b):
    # Proportional overlap lines make the ratio constant in tau.
    ia, sa = line_a
    ib, sb = line_b
    return abs(ia * sb - ib * sa) > 1e-12


def build_section_table(slices) -> SectionTable:
    """Partition distance into per-behavior sections with their estimators.

    Sections cover the span where at least two slices respond (ratio methods
    need an overlapping pair); a single-slice table degrades to the slice's
    own rise/plateau/fall description. Estimators are attached per adjacent
    slice pair wherever the pair's intensity ratio determines depth.
    """
    slices = tuple(slices)
    if not slices:
        raise ValueError("need at least one slice")
    for cfg in slices:
        if not cfg.is_rectangular:
            raise UnsupportedShapeError("section tables require rectangular shapes")

    per_slice = [rip_breakpoints(cfg) for cfg in slices]
    bounds = sorted({b for bps in per_slice for b in bps})
    need_lit = min(2, len(slices))

    raw = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        behaviors = tuple(_behavior_at(bps, mid) for bps in per_slice)
        if sum(b != DARK for b in behaviors) >= need_lit:
            raw.append((lo, hi, behaviors))

    merged = []
    for lo, hi, behaviors in raw:
        if merged and merged[-1][2] == behaviors and merged[-1][1] == lo:
            merged[-1] = (merged[-1][0], hi, behaviors)
        else:
            merged.append((lo, hi, behaviors))

    sections = []
    for lo, hi, behaviors in merged:
        ests = []
        for a in range(len(slices) - 1):
            b = a + 1
            if behaviors[a] == DARK or behaviors[b] == DARK:
                continue
            if behaviors[a] == PLATEAU and behaviors[b] == PLATEAU:
                continue
            line_a = _overlap_line(slices[a], behaviors[a])
            line_b = _overlap_line(slices[b], behaviors[b])
            if not _informative(line_a, line_b):
                continue
            ests.append(
                PairEstimator(
                    a, b, behaviors[a], behaviors[b],
                    line_a[0], line_a[1], line_b[0], line_b[1],
                    slices[a].pulses, slices[b].pulses,
                )
            )
        sections.append(Section(lo, hi, behaviors, tuple(ests)))
    return SectionTable(tuple(sections), slices)


def baseline_estimate(triple, table: SectionTable, dark_floor=6.0, tolerance_m=1.0):
    """Sectioned ratio-correlation depth estimate, or None when undecidable.

    Slices below ``dark_floor`` count as unlit. Candidate sections are those
    whose lit slices cover the observed ones; each applicable estimator is
    evaluated and kept only when its estimate is self-consistent (falls back
    inside the section, within ``tolerance_m``). The result is the mean of
    the surviving estimates -- the absolute dark threshold means rescaling
    intensities is only guaranteed to be neutral while it flips no slice
    between lit and dark.
    """
    values = np.asarray(triple, dtype=float)
    if values.shape != (len(table.slices),):
        raise ValueError(f"expected {len(table.slices)} intensities, got {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("intensities must be finite")

    lit = frozenset(int(i) for i in np.flatnonzero(values >= dark_floor))
    if len(lit) < min(2, len(table.slices)):
        return None

    estimates = []
    for sec in table.sections:
        if not lit <= sec.lit:
            continue
        for est in sec.estimators:
            if est.index_a not in lit or est.index_b not in lit:
                continue
            try:
                r_hat = est.estimate(values[est.index_a], values[est.index_b])
            except EstimatorError:
                continue
            if math.isfinite(r_hat) and sec.contains(r_hat, tolerance_m):
                estimates.append(r_hat)
    if not estimates:
        return None
    return sum(estimates) / len(estimates)


def baseline_estimate_batch(triples, table: SectionTable, dark_floor=6.0, tolerance_m=1.0):
    """Vector of baseline estimates over raw triples (NaN where invalid).

    baseline_estimate expects prefiltered input, so rows that fail the
    prefilter's screen (``pipeline.screen_triples``) come back as NaN here,
    as they do from the network predictor.
    """
    triples = np.asarray(triples, dtype=float).reshape(-1, len(table.slices))
    out = np.full(triples.shape[0], np.nan)
    for i in np.flatnonzero(screen_triples(triples)[2]):
        est = baseline_estimate(triples[i], table, dark_floor, tolerance_m)
        if est is not None:
            out[i] = est
    return out
