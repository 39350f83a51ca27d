"""Classical depth recovery from gated slices.

Two families are implemented. Time slicing recovers depth from a densely
sampled gate-delay profile by an intensity-weighted average. Intensity-ratio
correlation inverts the ratio of two overlapping slices wherever both respond
linearly (rising ramp, plateau, falling ramp), which the section table
organizes into contiguous distance sections for the configured slice set.
The slices' breakpoints and overlap lines come from ``gating.rect_pieces``;
this module reads no slice timing of its own.
With the stock three-slice parameters the estimable span splits into nine
sections, two of which (roughly 57-72 m) admit two independent estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import NoSignalError
from .gating import SPEED_OF_LIGHT_M_PER_NS as _C0
from .gating import rect_pieces
from .pipeline import screen_triples, write_table

DARK = "dark"
RISING = "rising"
PLATEAU = "plateau"
FALLING = "falling"
_PIECES = (RISING, PLATEAU, FALLING)  # the order of rect_pieces' lines


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

    def write_csv(self, path):
        header = ("r_lo", "r_hi", *(f"slice{i + 1}" for i in range(len(self.slices))), "estimators")
        rows = [(sec.r_lo, sec.r_hi, *sec.behaviors, "|".join(e.label for e in sec.estimators))
                for sec in self.sections]
        write_table(path, header, zip(*rows))


def build_section_table(slices) -> SectionTable:
    """Partition distance into per-behavior sections with their estimators.

    Sections cover the span where at least two slices respond (ratio methods
    need an overlapping pair); a single-slice table degrades to the slice's
    own rise/plateau/fall description. Estimators are attached per adjacent
    slice pair wherever the pair's intensity ratio determines depth. Each
    slice's breakpoints and overlap lines come from ``gating.rect_pieces``;
    one scan over the intervals between breakpoints classifies each interval
    by its midpoint and merges it into the previous section when both are
    adjacent and alike.
    """
    slices = tuple(slices)
    if not slices:
        raise ValueError("need at least one slice")
    pieces = [rect_pieces(cfg) for cfg in slices]
    bounds = sorted({b for bps, _ in pieces for b in bps})
    need_lit = min(2, len(slices))

    sections = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        mid = 0.5 * (lo + hi)
        # each slice's piece at mid: 0 rising, 1 plateau, 2 falling; None when dark
        held = [None if mid <= rise or mid >= end else (mid >= plateau) + (mid >= fall)
                for (rise, plateau, fall, end), _ in pieces]
        if len(held) - held.count(None) < need_lit:
            continue
        behaviors = tuple(DARK if p is None else _PIECES[p] for p in held)
        if sections and sections[-1].r_hi == lo and sections[-1].behaviors == behaviors:
            sections[-1] = replace(sections[-1], r_hi=hi)
            continue
        ests = []
        for a in range(len(slices) - 1):
            b = a + 1
            if held[a] is None or held[b] is None:
                continue
            (ia, sa), (ib, sb) = pieces[a][1][held[a]], pieces[b][1][held[b]]
            if abs(ia * sb - ib * sa) <= 1e-12:
                continue  # proportional overlap lines make the ratio constant in tau
            ests.append(PairEstimator(a, b, behaviors[a], behaviors[b], ia, sa, ib, sb,
                                      slices[a].pulses, slices[b].pulses))
        sections.append(Section(lo, hi, behaviors, tuple(ests)))
    return SectionTable(tuple(sections), slices)


def baseline_estimate(triples, table: SectionTable, dark_floor=6.0, tolerance_m=1.0):
    """Sectioned ratio-correlation depth estimates over an ``(n, k)`` block.

    Slices below ``dark_floor`` count as unlit. Candidate sections are those
    whose lit slices cover the observed ones; each of their estimators that
    reads two lit slices is evaluated and kept only when its estimate is
    self-consistent (falls back inside the section, within ``tolerance_m``).
    A row's result is the mean of its surviving estimates, summed in
    section/estimator order, and NaN when none survives -- the absolute dark
    threshold means rescaling intensities is only guaranteed to be neutral
    while it flips no slice between lit and dark. A single 1-D triple returns
    a float, or None when undecidable.

    Which estimators apply depends only on the row's lit pattern, so rows are
    grouped by pattern and each group runs just its own estimators.
    """
    values = np.asarray(triples, dtype=float)
    k = len(table.slices)
    if values.ndim not in (1, 2) or values.shape[-1] != k:
        raise ValueError(f"expected {k} intensities per row, got shape {values.shape}")
    if not np.all(np.isfinite(values)):
        raise ValueError("intensities must be finite")

    block = values.reshape(-1, k)
    pattern = (block >= dark_floor) @ (1 << np.arange(k))  # bit i: slice i is lit
    out = np.full(block.shape[0], np.nan)
    for code in np.flatnonzero(np.bincount(pattern)):
        lit = frozenset(i for i in range(k) if code >> i & 1)
        steps = [(sec, est) for sec in table.sections if lit <= sec.lit
                 for est in sec.estimators if est.index_a in lit and est.index_b in lit]
        if not steps:
            continue
        rows = np.flatnonzero(pattern == code)
        group = block[rows]
        total = np.zeros(rows.size)
        count = np.zeros(rows.size, dtype=int)
        for sec, est in steps:
            r_hat = est.estimate(group[:, est.index_a], group[:, est.index_b])
            keep = (np.isfinite(r_hat) & (sec.r_lo - tolerance_m <= r_hat)
                    & (r_hat <= sec.r_hi + tolerance_m))
            np.add(total, r_hat, out=total, where=keep)
            count += keep
        out[rows] = np.divide(total, count, out=np.full(rows.size, np.nan), where=count > 0)
    if values.ndim == 1:
        # a sum of finite estimates is never NaN, so NaN means none survived
        return None if np.isnan(out[0]) else float(out[0])
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
