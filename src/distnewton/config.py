"""Experiment configuration: a flat dotted-key text format and the typed
config object it populates.

One file fully determines a run.  Lines are `section.key = value`, each
key at most once, blank lines and `#` comments ignored.  `emit_config`
writes the fully-resolved form back out (defaults materialized), and
parsing that output recovers the same config, which is how runs echo
their exact settings.

`ExperimentConfig` is frozen and checks itself when it is built: every
construction, parse and `dataclasses.replace` raises ConfigError naming
the first key that breaks its rule or a rule across keys, so no config
that breaks one exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConfigError

DEFAULT_LAMBDA = 0.1

AGGREGATORS = ("distnewton", "sgd_average")
OBJECTIVES = ("quadratic", "rosenbrock", "mlp")


# rule name -> (test of a value against the rule's bound, message): an
# allowed set, inclusive and exclusive lower bounds, an inclusive upper bound
_RULES = {
    "choices": (lambda v, c: v in c, "must be one of {}"),
    "ge": (lambda v, b: v >= b, "must be >= {}"),
    "gt": (lambda v, b: v > b, "must be > {}"),
    "le": (lambda v, b: v <= b, "must be <= {}"),
}


def setting(key: str, default, **rules):
    """A config field that reads and writes under the dotted `key` and is held
    to `rules`: `choices`, `ge`, `gt` and `le`, as named in _RULES."""
    return field(default=default, metadata={"key": key, "rules": rules})


@dataclass(frozen=True)
class ExperimentConfig:
    objective_kind: str = setting("objective.kind", "mlp", choices=OBJECTIVES)
    mlp_layers: tuple = setting("objective.layers", (784, 32, 10))
    activation: str = setting("objective.activation", "tanh", choices=("tanh", "relu"))
    objective_dim: int = setting("objective.dim", 8, ge=1)
    quad_condition: float = setting("objective.condition", 100.0, ge=1)
    objective_seed: int = setting("objective.seed", 0, ge=0)
    data_images: str = setting("data.images", "")
    data_labels: str = setting("data.labels", "")
    data_samples: int = setting("data.samples", 5000, ge=1)
    synth_spread: float = setting("data.spread", 0.08, ge=0)
    synth_density: float = setting("data.density", 1.0, gt=0, le=1)
    synth_seed: int = setting("data.seed", 1234, ge=0)
    m: int = setting("harness.m", 4, ge=1)
    local_steps: int = setting("harness.local_steps", 1, ge=1)
    local_lr: float = setting("harness.local_lr", 0.01, gt=0)
    server_tau: float = setting("harness.tau", 0.01, gt=0)
    epochs: int = setting("harness.epochs", 20, ge=0)
    global_batch: int = setting("harness.global_batch", 256)
    seed: int = setting("harness.seed", 0, ge=0)
    aggregator: str = setting("harness.aggregator", "distnewton", choices=AGGREGATORS)
    worker_jitter: float = setting("harness.jitter", 0.0, ge=0)
    lam: float = setting("operator.lambda", DEFAULT_LAMBDA, gt=0)

    # not a setting: perfbench's traced run passes it on to server_round,
    # which takes only False
    use_lr_cap = False

    def __post_init__(self):
        for f in fields(self):
            key, value = f.metadata["key"], getattr(self, f.name)
            if type(f.default) is float and not math.isfinite(value):
                raise ConfigError(key, "must be finite")
            for rule, bound in f.metadata["rules"].items():
                test, message = _RULES[rule]
                if not test(value, bound):
                    raise ConfigError(key, message.format(bound))
        if len(self.mlp_layers) < 2 or any(s < 1 for s in self.mlp_layers):
            raise ConfigError("objective.layers", "need >= 2 positive layer sizes")
        if self.objective_kind == "rosenbrock" and self.objective_dim % 2:
            raise ConfigError("objective.dim", "rosenbrock needs an even dimension")
        if bool(self.data_images) != bool(self.data_labels):
            missing = "data.labels" if self.data_images else "data.images"
            raise ConfigError(missing, "set both IDX paths or neither")
        if self.global_batch < self.m:
            raise ConfigError("harness.global_batch", "must be >= harness.m")


# type of a field's default -> (parser, serializer)
_CODECS = {
    str: (str, str),
    int: (int, str),
    float: (float, repr),
    tuple: (lambda text: tuple(map(int, text.split(","))), lambda v: ",".join(map(str, v))),
}

# dotted key -> dataclass field
_FIELDS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse the flat key=value format; errors carry the offending key."""
    values, first_line = {}, {}
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
        if key in first_line:
            raise ConfigError(key, f"set again on line {lineno} (first on line {first_line[key]})")
        first_line[key] = lineno
        f = _FIELDS[key]
        parse, _ = _CODECS[type(f.default)]
        try:
            values[f.name] = parse(val)
        except (ValueError, TypeError) as exc:
            raise ConfigError(key, f"bad value {val!r} ({exc})") from None
    return ExperimentConfig(**values)


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
