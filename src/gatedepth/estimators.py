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

import numpy as np

from .errors import NoSignalError, UnsupportedShapeError
from .gating import SPEED_OF_LIGHT_M_PER_NS as _C0
from .gating import SliceConfig, rip_breakpoints
from .pipeline import screen_triples

DARK = "dark"
RISING = "rising"
PLATEAU = "plateau"
FALLING = "falling"


def time_slicing_estimate(profile, pulse_width_ns) -> float:
    """Weighted-average depth from a delay-axis profile such as ``gdp`` returns.

    Under this package's trailing-edge delay convention the time from the
    pulse onset to the gate opening is the profile's delay plus the pulse
    width. The average two-way travel time is sum(I*t)/sum(I); depth is
    c0*t/2. Exact for symmetric profiles, i.e. matching pulse and gate widths.
    """
    if profile.axis != "delay_ns":
        raise ValueError("time slicing needs a delay-axis profile")
    weights = profile.intensities
    if not np.all(np.isfinite(weights) & (weights >= 0)):
        raise ValueError("intensities must be finite and >= 0")
    total = weights.sum()
    if total <= 0.0:
        raise NoSignalError("all delay samples have zero intensity")
    weighted = (weights * (profile.coordinates + float(pulse_width_ns))).sum()
    return float(0.5 * _C0 * (weighted / total))


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

    def estimate(self, intensity_a, intensity_b):
        """Depth (m) per element of the two intensity columns.

        NaN where the ratio does not fix the depth: the denominator slice
        has no signal, the numerator is negative, or the ratio makes the
        inversion degenerate.
        """
        a = np.asarray(intensity_a, dtype=float)
        b = np.asarray(intensity_b, dtype=float)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ratio = (a / self.pulses_a) / (b / self.pulses_b)
            denom = ratio * self.slope_b - self.slope_a
            tau = (self.intercept_a - ratio * self.intercept_b) / denom
        return np.where((b > 0) & (a >= 0) & (np.abs(denom) >= 1e-12), 0.5 * _C0 * tau, np.nan)


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


def baseline_estimate(triples, table: SectionTable, dark_floor=6.0, tolerance_m=1.0):
    """Sectioned ratio-correlation depth estimates over an ``(n, k)`` block.

    Slices below ``dark_floor`` count as unlit. Candidate sections are those
    whose lit slices cover the observed ones; each applicable estimator is
    evaluated and kept only when its estimate is self-consistent (falls back
    inside the section, within ``tolerance_m``). A row's result is the mean
    of its surviving estimates, summed in section/estimator order, and NaN
    when none survives -- the absolute dark threshold means rescaling
    intensities is only guaranteed to be neutral while it flips no slice
    between lit and dark. A single 1-D triple returns a float, or None when
    undecidable.
    """
    values = np.asarray(triples, dtype=float)
    k = len(table.slices)
    if values.ndim not in (1, 2) or values.shape[-1] != k:
        raise ValueError(f"expected {k} intensities per row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("intensities must be finite")

    block = values.reshape(-1, k)
    lit = block >= dark_floor
    total = np.zeros(block.shape[0])
    count = np.zeros(block.shape[0], dtype=int)
    for sec in table.sections:
        candidate = np.all(lit <= (np.array(sec.behaviors) != DARK), axis=1)
        for est in sec.estimators:
            r_hat = est.estimate(block[:, est.index_a], block[:, est.index_b])
            keep = (candidate & lit[:, est.index_a] & lit[:, est.index_b] & np.isfinite(r_hat)
                    & (sec.r_lo - tolerance_m <= r_hat) & (r_hat <= sec.r_hi + tolerance_m))
            np.add(total, r_hat, out=total, where=keep)
            count += keep
    out = np.divide(total, count, out=np.full(block.shape[0], np.nan), where=count > 0)
    if values.ndim == 1:
        return None if count[0] == 0 else float(out[0])
    return out


def baseline_estimate_batch(triples, table: SectionTable, dark_floor=6.0, tolerance_m=1.0):
    """Vector of baseline estimates over raw triples (NaN where invalid).

    baseline_estimate expects prefiltered input, so rows that fail the
    prefilter's screen (``pipeline.screen_triples``) come back as NaN here,
    as they do from the network predictor.
    """
    triples = np.asarray(triples, dtype=float).reshape(-1, len(table.slices))
    out = np.full(triples.shape[0], np.nan)
    usable = screen_triples(triples)[2]
    out[usable] = baseline_estimate(triples[usable], table, dark_floor, tolerance_m)
    return out
