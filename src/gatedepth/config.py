"""Flat ``key = value`` run configuration shared by all CLI commands.

Keys use dotted namespaces (``slice1.t0_ns = 20``). Unknown keys are
rejected so typos fail loudly instead of silently running with defaults.
The canonical serialization (fixed key order) feeds the config hash that
run manifests record for reproducibility.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .gating import standard_slices
from .network import ACTIVATIONS, NetworkArch, TrainConfig, parse_hidden
from .pipeline import variant
from .seeding import derive_seed


@dataclass
class RunConfig:
    seed: int = 0
    slices: tuple = field(default_factory=standard_slices)
    gamma_per_m: float = 0.0
    noise_sigma_gray: float = 2.0
    variant: str = "dataset3"
    hidden: tuple = (40,)
    activation: str = "relu"
    learning_rate: float = 0.01
    batch_size: int = 16
    max_epochs: int = 100
    patience: int = 10
    train_fraction: float = 0.8
    sim_samples: int = 100000
    sim_r_min_m: float = 10.0
    sim_r_max_m: float = 100.0
    sim_alpha_min: float = 0.05
    sim_alpha_max: float = 0.9
    target_peak_gray: float = 200.0
    eval_bin_width_m: float = 5.0
    baseline_dark_floor: float = 6.0
    baseline_tolerance_m: float = 1.0
    probe_max_gray: int = 230
    probe_contrast_floor: int = 6

    def stage_seed(self, stage: str) -> int:
        """Per-stage seed derived from the global seed by stable hashing."""
        return derive_seed(self.seed, stage)


# slice key -> (parse, get, replace) on one SliceConfig; replace runs its checks
_SLICE_FIELDS = {
    "pulses": (int, lambda s: s.pulses, lambda s, v: replace(s, pulses=v)),
    "tl_ns": (float, lambda s: s.pulse.width_ns,
              lambda s, v: replace(s, pulse=replace(s.pulse, width_ns=v))),
    "tg_ns": (float, lambda s: s.gate.width_ns,
              lambda s, v: replace(s, gate=replace(s.gate, width_ns=v))),
    "t0_ns": (float, lambda s: s.delay_ns, lambda s, v: replace(s, delay_ns=v)),
}


def _hidden_layout(text):
    return NetworkArch(parse_hidden(text)).hidden


def _train_set(cfg: RunConfig, attr: str, value):
    setattr(cfg, attr, value)
    TrainConfig(cfg.learning_rate, cfg.batch_size, cfg.max_epochs, cfg.patience)  # its own checks


def _checked(parse, ok, requirement):
    """``parse``, rejecting values for which ``ok`` is false."""
    def parse_checked(text):
        value = parse(text)
        if not ok(value):
            raise ValueError(f"{value!r} is not {requirement}")
        return value
    return parse_checked


_finite_non_negative = _checked(float, lambda v: 0 <= v < math.inf, "finite and >= 0")
_finite_positive = _checked(float, lambda v: 0 < v < math.inf, "finite and > 0")
_unit_interval = _checked(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_positive_int = _checked(int, lambda v: v >= 1, ">= 1")
_activation = _checked(str.lower, lambda v: v in ACTIVATIONS, f"one of {sorted(ACTIVATIONS)}")

#: Largest ``sim.samples``: 100 times the default.
MAX_SIM_SAMPLES = 10_000_000

# key -> (parse, get, set); fixed order defines the canonical serialization
_SCHEMA = {}


def _register(key, parse, get, set_):
    _SCHEMA[key] = (parse, get, set_)


def _simple(key, attr, parse):
    _register(key, parse,
              lambda cfg, attr=attr: getattr(cfg, attr),
              lambda cfg, v, attr=attr: setattr(cfg, attr, v))


_simple("seed", "seed", int)
for i in range(3):
    for attr, (parse, get, put) in _SLICE_FIELDS.items():
        _register(f"slice{i + 1}.{attr}", parse, lambda cfg, i=i, get=get: get(cfg.slices[i]),
                  lambda cfg, v, i=i, put=put: setattr(
                      cfg, "slices", (*cfg.slices[:i], put(cfg.slices[i], v), *cfg.slices[i + 1:])))
_simple("atmosphere.gamma_per_m", "gamma_per_m", _finite_non_negative)
_simple("noise.sigma_gray", "noise_sigma_gray", _finite_non_negative)
_simple("dataset.variant", "variant", lambda text: variant(text).tag)
_register("network.hidden", _hidden_layout,
          lambda cfg: "-".join(str(w) for w in cfg.hidden),
          lambda cfg, v: setattr(cfg, "hidden", v))
_simple("network.activation", "activation", _activation)
for attr, parse in (("learning_rate", float), ("batch_size", int), ("max_epochs", int), ("patience", int)):
    _register(f"train.{attr}", parse, lambda cfg, attr=attr: getattr(cfg, attr),
              lambda cfg, v, attr=attr: _train_set(cfg, attr, v))
_simple("train.fraction", "train_fraction",
        _checked(float, lambda v: 0 < v < 1, "strictly between 0 and 1"))
_simple("sim.samples", "sim_samples",
        _checked(int, lambda v: 1 <= v <= MAX_SIM_SAMPLES, f"in 1..{MAX_SIM_SAMPLES:,}"))
_simple("sim.r_min_m", "sim_r_min_m", _finite_positive)
_simple("sim.r_max_m", "sim_r_max_m", _finite_positive)
_simple("sim.alpha_min", "sim_alpha_min", _unit_interval)
_simple("sim.alpha_max", "sim_alpha_max", _unit_interval)
_simple("sim.target_peak_gray", "target_peak_gray", _finite_positive)
_simple("eval.bin_width_m", "eval_bin_width_m", _finite_positive)
_simple("baseline.dark_floor", "baseline_dark_floor", _finite_non_negative)
_simple("baseline.tolerance_m", "baseline_tolerance_m", _finite_non_negative)
_simple("probe.max_gray", "probe_max_gray", _checked(int, lambda v: 1 <= v <= 256, "in 1..256"))
_simple("probe.contrast_floor", "probe_contrast_floor", _checked(int, lambda v: v >= 0, ">= 0"))


def parse_config(text: str) -> RunConfig:
    """Apply ``key = value`` lines on top of the defaults."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        parse, _get, set_ = _SCHEMA[key]
        try:
            set_(cfg, parse(value))
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    for lo, hi in (("r_min_m", "r_max_m"), ("alpha_min", "alpha_max")):
        low, high = getattr(cfg, f"sim_{lo}"), getattr(cfg, f"sim_{hi}")
        if not low < high:
            raise ConfigError(f"sim.{lo} = {low!r} must be below sim.{hi} = {high!r}")
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, schema order, one per line."""
    lines = []
    for key, (_parse, get, _set) in _SCHEMA.items():
        value = get(cfg)
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
