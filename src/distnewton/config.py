"""Experiment configuration: a flat dotted-key text format and the typed
config object it populates.

One file fully determines a run.  Lines are `section.key = value`, blank
lines and `#` comments ignored.  `emit_config` writes the fully-resolved
form back out (defaults materialized), and parsing that output recovers
the same config, which is how runs echo their exact settings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import ConfigError

DEFAULT_LAMBDA = 0.1

AGGREGATORS = ("distnewton", "sgd_average")
OBJECTIVES = ("quadratic", "rosenbrock", "mlp")
DATA_KINDS = ("none", "synthetic", "mnist")


def setting(key: str, default):
    """A config field that reads and writes under the dotted `key`."""
    return field(default=default, metadata={"key": key})


@dataclass
class ExperimentConfig:
    objective_kind: str = setting("objective.kind", "mlp")
    mlp_layers: tuple = setting("objective.layers", (784, 32, 10))
    activation: str = setting("objective.activation", "tanh")
    objective_dim: int = setting("objective.dim", 8)
    quad_condition: float = setting("objective.condition", 100.0)
    objective_seed: int = setting("objective.seed", 0)
    data_kind: str = setting("data.kind", "synthetic")
    data_images: str = setting("data.images", "")
    data_labels: str = setting("data.labels", "")
    data_limit: int = setting("data.limit", 5000)
    synth_features: int = setting("data.features", 784)
    synth_classes: int = setting("data.classes", 10)
    synth_samples: int = setting("data.samples", 5000)
    synth_spread: float = setting("data.spread", 0.08)
    synth_density: float = setting("data.density", 1.0)
    synth_seed: int = setting("data.seed", 1234)
    m: int = setting("harness.m", 4)
    local_steps: int = setting("harness.local_steps", 1)
    local_lr: float = setting("harness.local_lr", 0.01)
    server_tau: float = setting("harness.tau", 0.01)
    epochs: int = setting("harness.epochs", 20)
    global_batch: int = setting("harness.global_batch", 256)
    seed: int = setting("harness.seed", 0)
    aggregator: str = setting("harness.aggregator", "distnewton")
    worker_jitter: float = setting("harness.jitter", 0.0)
    lam: float = setting("operator.lambda", DEFAULT_LAMBDA)
    use_lr_cap: bool = setting("operator.lr_cap", False)

    def validate(self):
        if self.objective_kind not in OBJECTIVES:
            raise ConfigError("objective.kind", f"must be one of {OBJECTIVES}")
        if self.activation not in ("tanh", "relu"):
            raise ConfigError("objective.activation", "must be 'tanh' or 'relu'")
        if len(self.mlp_layers) < 2 or any(s < 1 for s in self.mlp_layers):
            raise ConfigError("objective.layers", "need >= 2 positive layer sizes")
        if self.objective_dim < 1:
            raise ConfigError("objective.dim", "must be >= 1")
        if self.objective_kind == "rosenbrock" and self.objective_dim % 2:
            raise ConfigError("objective.dim", "rosenbrock needs an even dimension")
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


# type of a field's default -> (parser, serializer); looked up by exact
# type, because bool is a subclass of int
_CODECS = {
    str: (str, str),
    int: (int, str),
    float: (float, repr),
    bool: (_parse_bool, lambda v: str(v).lower()),
    tuple: (_parse_layers, lambda v: ",".join(str(s) for s in v)),
}

# dotted key -> dataclass field
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


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
        if key not in _FIELDS:
            raise ConfigError(key, "unknown configuration key")
        f = _FIELDS[key]
        parse, _ = _CODECS[type(f.default)]
        try:
            values[f.name] = parse(val)
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
    for key, f in _FIELDS.items():
        _, serialize = _CODECS[type(f.default)]
        lines.append(f"{key} = {serialize(getattr(cfg, f.name))}")
    return "\n".join(sorted(lines)) + "\n"
