"""Gated-exposure physics.

A gated imager fires a laser pulse and opens the sensor gate a configurable
delay after the pulse has been emitted. The pixel response for a target at
distance ``r`` is the time overlap between the returning pulse and the gate
gain window, optionally attenuated by target reflectance, atmospheric
extinction and the 1/r^2 irradiance falloff.

Delay convention used throughout the package: the configured delay ``t0`` is
measured from the *trailing* edge of the emitted pulse, i.e. the gate opens
``pulse_width + t0`` nanoseconds after the pulse onset. With rectangular
shapes this puts the sensitive band of a slice at
``[c0*t0/2, c0*(t0 + t_pulse + t_gate)/2]`` metres.

Overlaps go through ``gated_response``. Two rectangular shapes take a
closed form (also behind ``rect_overlap``). Any other pair of shapes, all
piecewise linear, overlaps as an exact piecewise cubic in
``tau - gate_open``, built once per shape pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedShapeError
from .pipeline import write_table

#: Speed of light in metres per nanosecond (exact).
SPEED_OF_LIGHT_M_PER_NS = 0.299792458


def _check_finite(name, value):
    """``value`` as a float (scalar input) or float array; raises on NaN/inf."""
    value = np.asarray(value, dtype=float)
    bad = value[~np.isfinite(value)]
    if bad.size:
        raise ValueError(f"{name} must be finite, got {float(bad[0])!r}")
    return value if value.ndim else float(value)


@dataclass(frozen=True)
class PulseShape:
    """Unit-peak profile on a finite support [0, width_ns]: the emitted laser
    pulse's power, and (as ``GateShape``) the sensor gate's gain. Every kind
    is piecewise linear; ``rise_ns``/``fall_ns`` apply to trapezoidal shapes.
    """

    KINDS = ("rectangular", "triangular", "trapezoidal")

    width_ns: float
    kind: str = "rectangular"
    rise_ns: float = 0.0
    fall_ns: float = 0.0

    def __post_init__(self):
        name, w = type(self).__name__, self.width_ns
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown {name} kind {self.kind!r}")
        if not (math.isfinite(w) and w > 0):
            raise ValueError(f"{name} width must be positive and finite")
        for field in ("rise_ns", "fall_ns"):
            _check_finite(f"{name} {field}", getattr(self, field))
        if self.kind == "trapezoidal":
            if self.rise_ns < 0 or self.fall_ns < 0:
                raise ValueError("rise/fall times must be >= 0")
            if self.rise_ns + self.fall_ns > w:
                raise ValueError(f"rise + fall must not exceed the {name} width")

    def value(self, t):
        """Power (pulse) or gain (gate) at time ``t``, in ns from the pulse
        onset or the gate opening."""
        t = np.asarray(t, dtype=float)
        w = self.width_ns
        inside = (t >= 0.0) & (t <= w)
        if self.kind == "rectangular":
            out = inside.astype(float)
        elif self.kind == "triangular":
            out = np.where(inside, 1.0 - np.abs(2.0 * t / w - 1.0), 0.0)
        else:  # ramps divide only where they apply, so a tiny edge cannot overflow
            out = np.array(inside, dtype=float)
            if self.rise_ns > 0:
                np.divide(t, self.rise_ns, out=out, where=inside & (t < self.rise_ns))
            if self.fall_ns > 0:
                np.divide(w - t, self.fall_ns, out=out, where=inside & (t > w - self.fall_ns))
        return out if out.ndim else float(out)

    def knots(self):
        """Support breakpoints. The shape is linear between them, so every
        gate knot minus every pulse knot is a breakpoint of their overlap's
        piecewise cubic."""
        w = self.width_ns
        if self.kind == "rectangular":
            return (0.0, w)
        if self.kind == "triangular":
            return (0.0, 0.5 * w, w)
        return (0.0, self.rise_ns, w - self.fall_ns, w)


class GateShape(PulseShape):
    """Sensor gate gain: the same profiles as the pulse, named for its role."""


@dataclass(frozen=True)
class SliceConfig:
    """One gated exposure: pulse count, pulse shape, gate shape and delay."""

    pulses: int
    pulse: PulseShape
    gate: GateShape
    delay_ns: float

    def __post_init__(self):
        if int(self.pulses) < 1:
            raise ValueError("pulse count must be >= 1")
        object.__setattr__(self, "pulses", int(self.pulses))
        delay = _check_finite("delay_ns", self.delay_ns)
        if delay < 0:
            raise ValueError("delay must be >= 0")
        object.__setattr__(self, "delay_ns", delay)

    @classmethod
    def rectangular(cls, pulses, pulse_ns, gate_ns, delay_ns):
        return cls(pulses, PulseShape(pulse_ns), GateShape(gate_ns), delay_ns)

    @property
    def is_rectangular(self):
        return self.pulse.kind == "rectangular" and self.gate.kind == "rectangular"

    @property
    def gate_open_ns(self):
        """Gate opening time measured from the pulse onset."""
        return self.pulse.width_ns + self.delay_ns


def standard_slices():
    """The stock three-slice parameter set this package ships as default.

    Slice bands work out to roughly 3-72 m, 18-123 m and 57-176 m; pulse
    counts increase with range to compensate for the weaker far returns.
    """
    return (
        SliceConfig.rectangular(202, 240.0, 220.0, 20.0),
        SliceConfig.rectangular(591, 280.0, 420.0, 120.0),
        SliceConfig.rectangular(770, 370.0, 420.0, 380.0),
    )


@dataclass(frozen=True)
class Atmosphere:
    """Target reflectance and two-way atmospheric extinction.

    The distance-dependent attenuation applied to a return from range ``r``
    is ``alpha * exp(-2 * gamma * r) / r**2``; gamma = 0 models clear air.
    """

    alpha: float = 1.0
    gamma_per_m: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("reflectance alpha must lie in [0, 1]")
        if not (math.isfinite(self.gamma_per_m) and self.gamma_per_m >= 0.0):
            raise ValueError("extinction gamma must be >= 0")

    def kappa(self, r):
        """Full distance factor alpha * beta(r) / r^2. Requires r > 0 and a finite factor."""
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0.0):
            raise ValueError("irradiance factor is singular at r <= 0")
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):  # checked below
            out = self.alpha * np.exp(-2.0 * self.gamma_per_m * r) / (r * r)
        bad = r[~np.isfinite(out)]
        if bad.size:
            raise ValueError(f"irradiance factor is not finite at r = {float(bad[0])!r} m")
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class RangeProfile:
    """Sampled intensity curve over distance (m) or gate delay (ns)."""

    axis: str
    coordinates: np.ndarray
    intensities: np.ndarray

    def __post_init__(self):
        if self.axis not in ("distance_m", "delay_ns"):
            raise ValueError(f"unknown profile axis {self.axis!r}")
        coords = np.asarray(self.coordinates, dtype=float)
        vals = np.asarray(self.intensities, dtype=float)
        if coords.size == 0:
            raise ValueError("profile must contain at least one sample")
        if coords.shape != vals.shape:
            raise ValueError("coordinate/intensity length mismatch")
        if np.any(np.diff(coords) <= 0):
            raise ValueError("profile coordinates must be strictly increasing")
        if not np.all(np.isfinite(vals)):
            raise ValueError("profile intensities must be finite")
        if np.any(vals < 0):
            raise ValueError("profile intensities must be >= 0")
        object.__setattr__(self, "coordinates", coords)
        object.__setattr__(self, "intensities", vals)

    def __len__(self):
        return self.coordinates.size

    def write_csv(self, path):
        write_table(path, ("coordinate", "intensity"), (self.coordinates, self.intensities))


_CHUNK_ROWS = 4096


@functools.lru_cache(maxsize=16)
def _overlap_cubics(pulse, gate):
    """The overlap of two piecewise-linear shapes as a piecewise cubic in
    ``s = tau - gate_open``.

    Returns ``(inner, origin, c0, c1, c2, c3)``: the interior breakpoints
    (every gate knot minus every pulse knot, sorted), and one column per
    interval of the float origin and of each coefficient of
    ``c0 + c1*x + c2*x**2 + c3*x**3`` with ``x = s - origin``.
    The origin is the interval end with the smaller overlap, so values near
    either end of the support keep their relative accuracy. Each cubic is
    fitted exactly, in rationals, through four exact overlaps, and rounded once.
    """
    from fractions import Fraction  # deferred: numpy does not load it

    def segments(shape):
        # (start, end, value at start, slope); the value at each knot is the
        # one-sided limit from both sides for every kind
        k = [Fraction(x) for x in shape.knots()]
        v = [Fraction(shape.value(x)) for x in shape.knots()]
        return [(k0, k1, v0, (v1 - v0) / (k1 - k0))
                for k0, k1, v0, v1 in zip(k, k[1:], v, v[1:]) if k1 > k0]

    gate_segs, pulse_segs = segments(gate), segments(pulse)

    def overlap(s):
        total = Fraction(0)
        for a0, a1, g0, dg in gate_segs:
            for b0, b1, p0, dp in pulse_segs:
                lo, hi = max(a0, b0 + s), min(a1, b1 + s)
                if hi > lo:  # the exact integral of a product of two linear functions
                    gl, gh = g0 + dg * (lo - a0), g0 + dg * (hi - a0)
                    pl, ph = p0 + dp * (lo - s - b0), p0 + dp * (hi - s - b0)
                    total += (hi - lo) * (gl * (2 * pl + ph) + gh * (pl + 2 * ph)) / 6
        return total

    breaks = sorted({Fraction(a) - Fraction(b) for a in gate.knots() for b in pulse.knots()})
    ends = [overlap(b) for b in breaks]
    origin, coef = [], []
    for i, (s0, s1) in enumerate(zip(breaks, breaks[1:])):
        o = Fraction(float(s0 if ends[i] <= ends[i + 1] else s1))
        xs = [s0 + (s1 - s0) * j / 3 for j in range(4)]
        ys = [ends[i], overlap(xs[1]), overlap(xs[2]), ends[i + 1]]
        for j in range(1, 4):  # Newton divided differences
            for m in range(3, j - 1, -1):
                ys[m] = (ys[m] - ys[m - 1]) / (xs[m] - xs[m - j])
        c = [ys[3]]
        for j in range(2, -1, -1):  # expand the Newton form about o
            d = xs[j] - o
            c = [ys[j] - d * c[0]] + [c[m] - d * c[m + 1] for m in range(len(c) - 1)] + [c[-1]]
        origin.append(float(o))
        try:
            coef.append([float(x) for x in c])
        except OverflowError:  # an interval under ~1e-154 ns wide: its chord is as good
            slope = (ends[i + 1] - ends[i]) / (s1 - s0)
            coef.append([float(ends[i] + slope * (o - s0)), float(slope), 0.0, 0.0])
    tables = (np.array([float(b) for b in breaks[1:-1]]), np.array(origin),
              *np.array(coef).T.copy())
    for t in tables:  # memoized: shared by every later call
        t.flags.writeable = False
    return tables


def _cubic_rows(pulse, gate, gate_open, tau):
    """Overlap (ns) of piecewise-linear shapes for 1-D arrays of gate openings
    and travel times: one table lookup and a Horner step per row."""
    inner, origin, *coef = _overlap_cubics(pulse, gate)
    lo = np.maximum(tau, gate_open)
    hi = np.minimum(tau + pulse.width_ns, gate_open + gate.width_ns)
    x = tau - gate_open
    k = np.searchsorted(inner, x)
    x -= origin[k]
    out = coef[3][k]
    for c in coef[2::-1]:  # ((c3*x + c2)*x + c1)*x + c0
        out *= x
        out += c[k]
    np.maximum(out, 0.0, out=out)
    out[~(hi > lo)] = 0.0
    return out


def _rect_closed_form(pulse, gate, gate_open, tau):
    """Overlap (ns) of a rectangular pulse arriving at ``tau`` with a
    rectangular gate opening at ``gate_open``."""
    lo = np.maximum(tau, gate_open)
    hi = np.minimum(tau + pulse.width_ns, gate_open + gate.width_ns)
    return np.clip(hi - lo, 0.0, None)


def gated_response(pulse: PulseShape, gate: GateShape, delay_ns, r_m):
    """Pixel response (arbitrary units) for a single pulse/gate pair.

    Evaluates the time overlap integral of the returning pulse and the gate
    gain for targets at ``r_m`` metres. ``delay_ns`` and ``r_m`` broadcast
    against each other; scalar input gives a float, array input an array.
    Closed form when both shapes are rectangular; otherwise the exact overlap
    cubic of the interval holding ``tau - gate_open``, evaluated by Horner's
    rule. Distances outside the support give exactly 0.0, and no value is
    negative. Every value depends on its own (delay, distance) pair only,
    never on the rest of the batch.
    """
    delay_ns, r_m = np.broadcast_arrays(_check_finite("delay_ns", delay_ns),
                                        _check_finite("r_m", r_m))
    if np.any(r_m < 0):
        raise ValueError("target distance must be >= 0")

    tau = 2.0 * r_m / SPEED_OF_LIGHT_M_PER_NS  # two-way travel time
    gate_open = pulse.width_ns + delay_ns
    if pulse.kind == "rectangular" and gate.kind == "rectangular":
        out = _rect_closed_form(pulse, gate, gate_open, tau)
    else:
        flat_open, flat_tau = gate_open.reshape(-1), tau.reshape(-1)
        out = np.empty(flat_tau.shape)
        for start in range(0, out.size, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            out[rows] = _cubic_rows(pulse, gate, flat_open[rows], flat_tau[rows])
        out = out.reshape(tau.shape)
    return out if out.ndim else float(out)


def slice_support(cfg: SliceConfig):
    """Distance band (r_min, r_max) outside which the response is zero."""
    c = SPEED_OF_LIGHT_M_PER_NS
    r_min = 0.5 * c * cfg.delay_ns
    r_max = 0.5 * c * (cfg.delay_ns + cfg.pulse.width_ns + cfg.gate.width_ns)
    return (r_min, r_max)


def rect_overlap(cfg: SliceConfig, r):
    """Vectorized rectangular overlap (ns) for an array of distances."""
    if not cfg.is_rectangular:
        raise UnsupportedShapeError("vectorized overlap requires rectangular shapes")
    tau = 2.0 * np.asarray(r, dtype=float) / SPEED_OF_LIGHT_M_PER_NS
    out = _rect_closed_form(cfg.pulse, cfg.gate, cfg.gate_open_ns, tau)
    return out if out.ndim else float(out)


def gdp(pulse: PulseShape, gate: GateShape, r_m, delays):
    """Gate delay profile: response of a fixed target over a delay grid.

    Triangular when pulse and gate widths match, trapezoidal otherwise.
    """
    return RangeProfile("delay_ns", delays, gated_response(pulse, gate, delays, r_m))


def rip(cfg: SliceConfig, atmo: Atmosphere, r_grid, include_irradiance=True):
    """Range intensity profile of one slice over a distance grid.

    Without irradiance this is ``pulses * overlap(r)``; with irradiance the
    curve is additionally scaled by ``alpha * beta(r) / r^2``. A negative or
    non-finite distance raises ``ValueError``, and so does 0 with irradiance.
    """
    vals = cfg.pulses * gated_response(cfg.pulse, cfg.gate, cfg.delay_ns, r_grid)
    if include_irradiance:
        vals = vals * atmo.kappa(r_grid)  # raises on r = 0
    return RangeProfile("distance_m", r_grid, vals)


def rip_breakpoints(cfg: SliceConfig):
    """Distances where a rectangular slice changes behavior.

    Returns (rise_start, plateau_start, fall_start, fall_end); the plateau
    has zero width when pulse and gate widths are equal.
    """
    if not cfg.is_rectangular:
        raise UnsupportedShapeError("breakpoints are defined for rectangular shapes only")
    c = SPEED_OF_LIGHT_M_PER_NS
    t0 = cfg.delay_ns
    tl = cfg.pulse.width_ns
    tg = cfg.gate.width_ns
    return (
        0.5 * c * t0,
        0.5 * c * (t0 + min(tl, tg)),
        0.5 * c * (t0 + max(tl, tg)),
        0.5 * c * (t0 + tl + tg),
    )
