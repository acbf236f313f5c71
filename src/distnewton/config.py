"""Experiment configuration: a flat dotted-key text format and the typed
config object it populates.

One file fully determines a run.  Lines are `section.key = value`, blank
lines and `#` comments ignored.  `emit_config` writes the fully-resolved
form back out (defaults materialized), and parsing that output recovers
the same config, which is how runs echo their exact settings.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError

DEFAULT_LAMBDA = 0.1

AGGREGATORS = ("distnewton", "sgd_average")
OBJECTIVES = ("quadratic", "rosenbrock", "mlp")
DATA_KINDS = ("none", "synthetic", "mnist")


@dataclass
class ExperimentConfig:
    # objective
    objective_kind: str = "mlp"
    mlp_layers: tuple = (784, 32, 10)
    activation: str = "tanh"
    objective_dim: int = 8
    quad_condition: float = 100.0
    objective_seed: int = 0
    # data
    data_kind: str = "synthetic"
    data_images: str = ""
    data_labels: str = ""
    data_limit: int = 5000
    synth_features: int = 784
    synth_classes: int = 10
    synth_samples: int = 5000
    synth_spread: float = 0.08
    synth_density: float = 1.0
    synth_seed: int = 1234
    # harness
    m: int = 4
    local_steps: int = 1
    local_lr: float = 0.01
    server_tau: float = 0.01
    epochs: int = 20
    global_batch: int = 256
    seed: int = 0
    aggregator: str = "distnewton"
    worker_jitter: float = 0.0
    # operator
    lam: float = DEFAULT_LAMBDA
    use_lr_cap: bool = False

    def validate(self):
        if self.objective_kind not in OBJECTIVES:
            raise ConfigError("objective.kind", f"must be one of {OBJECTIVES}")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError("objective.activation", "must be 'tanh' or 'relu'")
        if len(self.mlp_layers) < 2 or any(s < 1 for s in self.mlp_layers):
            raise ConfigError("objective.layers", "need >= 2 positive layer sizes")
        if self.objective_dim < 1:
            raise ConfigError("objective.dim", "must be >= 1")
        if self.quad_condition < 1.0:
            raise ConfigError("objective.condition", "must be >= 1")
        if self.data_kind not in DATA_KINDS:
            raise ConfigError("data.kind", f"must be one of {DATA_KINDS}")
        if self.data_kind == "mnist" and (not self.data_images or not self.data_labels):
            raise ConfigError("data.images", "mnist data needs both image and label paths")
        if self.objective_kind == "mlp" and self.data_kind == "none":
            raise ConfigError("data.kind", "the mlp objective needs a dataset")
        if min(self.synth_features, self.synth_classes, self.synth_samples) < 1:
            raise ConfigError("data.features", "synthetic counts must be positive")
        if not 0.0 < self.synth_density <= 1.0:
            raise ConfigError("data.density", "must lie in (0, 1]")
        if self.m < 1:
            raise ConfigError("harness.m", "must be >= 1")
        if self.local_steps < 1:
            raise ConfigError("harness.local_steps", "must be >= 1")
        if self.local_lr <= 0.0:
            raise ConfigError("harness.local_lr", "must be positive")
        if self.server_tau <= 0.0:
            raise ConfigError("harness.tau", "must be positive")
        if self.epochs < 0:
            raise ConfigError("harness.epochs", "must be >= 0")
        if self.global_batch < self.m:
            raise ConfigError("harness.global_batch", "must be >= harness.m")
        if self.aggregator not in AGGREGATORS:
            raise ConfigError("harness.aggregator", f"must be one of {AGGREGATORS}")
        if self.worker_jitter < 0.0:
            raise ConfigError("harness.jitter", "must be >= 0")
        if self.seed < 0:
            raise ConfigError("harness.seed", "must be >= 0")
        if self.objective_seed < 0:
            raise ConfigError("objective.seed", "must be >= 0")
        if self.synth_seed < 0:
            raise ConfigError("data.seed", "must be >= 0")
        if self.lam <= 0.0:
            raise ConfigError("operator.lambda", "must be positive")
        return self


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_layers(text: str) -> tuple:
    return tuple(int(p) for p in text.replace(" ", "").split(",") if p)


# dotted key -> (dataclass field, parser, serializer)
_KEYS = {
    "objective.kind": ("objective_kind", str, str),
    "objective.layers": ("mlp_layers", _parse_layers, lambda v: ",".join(str(s) for s in v)),
    "objective.activation": ("activation", str, str),
    "objective.dim": ("objective_dim", int, str),
    "objective.condition": ("quad_condition", float, repr),
    "objective.seed": ("objective_seed", int, str),
    "data.kind": ("data_kind", str, str),
    "data.images": ("data_images", str, str),
    "data.labels": ("data_labels", str, str),
    "data.limit": ("data_limit", int, str),
    "data.features": ("synth_features", int, str),
    "data.classes": ("synth_classes", int, str),
    "data.samples": ("synth_samples", int, str),
    "data.spread": ("synth_spread", float, repr),
    "data.density": ("synth_density", float, repr),
    "data.seed": ("synth_seed", int, str),
    "harness.m": ("m", int, str),
    "harness.local_steps": ("local_steps", int, str),
    "harness.local_lr": ("local_lr", float, repr),
    "harness.tau": ("server_tau", float, repr),
    "harness.epochs": ("epochs", int, str),
    "harness.global_batch": ("global_batch", int, str),
    "harness.seed": ("seed", int, str),
    "harness.aggregator": ("aggregator", str, str),
    "harness.jitter": ("worker_jitter", float, repr),
    "operator.lambda": ("lam", float, repr),
    "operator.lr_cap": ("use_lr_cap", _parse_bool, lambda v: str(v).lower()),
}

_FIELD_TO_KEY = {field: key for key, (field, _, _) in _KEYS.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value format; errors carry the offending key."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEYS:
            raise ConfigError(key, "unknown configuration key")
        field_name, parser, _ = _KEYS[key]
        try:
            values[field_name] = parser(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"bad value {val!r} ({exc})") from None
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return cfg


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config_text(f.read())


def emit_config(cfg: ExperimentConfig) -> str:
    """Serialize every field, defaults included, in sorted key order."""
    lines = []
    for f in fields(cfg):
        key = _FIELD_TO_KEY[f.name]
        _, _, serialize = _KEYS[key]
        lines.append(f"{key} = {serialize(getattr(cfg, f.name))}")
    return "\n".join(sorted(lines)) + "\n"
