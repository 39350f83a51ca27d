"""Flat ``key = value`` run configuration shared by all CLI commands.

Keys use dotted namespaces (``slice1.t0_ns = 20``). Each key is declared
once, on its ``RunConfig`` field: key name, default and the parser that
checks its value. Unknown keys are rejected so typos fail loudly instead of
silently running with defaults. Field order is the canonical serialization
order, which feeds the config hash that run manifests record for
reproducibility.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .gating import standard_slices
from .network import ACTIVATIONS, NetworkArch, parse_hidden
from .pipeline import variant
from .seeding import derive_seed


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


def _hidden_layout(text):
    return NetworkArch(parse_hidden(text)).hidden


def _key(key, default, parse):
    """A ``RunConfig`` field that config key ``key`` sets through ``parse``."""
    return field(default=default, metadata={"key": key, "parse": parse})


@dataclass
class RunConfig:
    seed: int = _key("seed", 0, int)
    slices: tuple = field(default_factory=standard_slices)  # keys slice<i>.*, see _SLICE_FIELDS
    gamma_per_m: float = _key("atmosphere.gamma_per_m", 0.0, _finite_non_negative)
    noise_sigma_gray: float = _key("noise.sigma_gray", 2.0, _finite_non_negative)
    variant: str = _key("dataset.variant", "dataset3", lambda text: variant(text).tag)
    hidden: tuple = _key("network.hidden", (40,), _hidden_layout)
    activation: str = _key("network.activation", "relu", _activation)
    learning_rate: float = _key("train.learning_rate", 0.01, _finite_non_negative)
    batch_size: int = _key("train.batch_size", 16, _positive_int)
    max_epochs: int = _key("train.max_epochs", 100, _positive_int)
    patience: int = _key("train.patience", 10, _positive_int)
    train_fraction: float = _key("train.fraction", 0.8,
                                 _checked(float, lambda v: 0 < v < 1, "strictly between 0 and 1"))
    sim_samples: int = _key("sim.samples", 100000, _checked(
        int, lambda v: 1 <= v <= MAX_SIM_SAMPLES, f"in 1..{MAX_SIM_SAMPLES:,}"))
    sim_r_min_m: float = _key("sim.r_min_m", 10.0, _finite_positive)
    sim_r_max_m: float = _key("sim.r_max_m", 100.0, _finite_positive)
    sim_alpha_min: float = _key("sim.alpha_min", 0.05, _unit_interval)
    sim_alpha_max: float = _key("sim.alpha_max", 0.9, _unit_interval)
    target_peak_gray: float = _key("sim.target_peak_gray", 200.0, _finite_positive)
    eval_bin_width_m: float = _key("eval.bin_width_m", 5.0, _finite_positive)
    baseline_dark_floor: float = _key("baseline.dark_floor", 6.0, _finite_non_negative)
    baseline_tolerance_m: float = _key("baseline.tolerance_m", 1.0, _finite_non_negative)
    probe_max_gray: int = _key("probe.max_gray", 230, _checked(int, lambda v: 1 <= v <= 256, "in 1..256"))
    probe_contrast_floor: int = _key("probe.contrast_floor", 6, _checked(int, lambda v: v >= 0, ">= 0"))

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

# key -> (parse, get, set); field order defines the canonical serialization
_SCHEMA = {}
for _field in fields(RunConfig):
    if _field.name == "slices":
        for i in range(3):
            for attr, (parse, get, put) in _SLICE_FIELDS.items():
                _SCHEMA[f"slice{i + 1}.{attr}"] = (
                    parse, lambda cfg, i=i, get=get: get(cfg.slices[i]),
                    lambda cfg, v, i=i, put=put: setattr(
                        cfg, "slices", (*cfg.slices[:i], put(cfg.slices[i], v), *cfg.slices[i + 1:])))
    else:
        _SCHEMA[_field.metadata["key"]] = (_field.metadata["parse"],
                                           lambda cfg, name=_field.name: getattr(cfg, name),
                                           lambda cfg, v, name=_field.name: setattr(cfg, name, v))


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
        elif isinstance(value, tuple):  # network.hidden, in dash notation
            value = "-".join(map(str, value))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(serialize_config(cfg).encode("utf-8")).hexdigest()
