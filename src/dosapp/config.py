"""Run configuration: INI-style config files, overrides, and run manifests.

Parsing is strict: an unknown section or key is an error naming it, so a
typo cannot silently fall back to a default. A manifest (resolved config +
seed + content hash) is written next to every run's outputs and is enough
to reproduce the run bit for bit.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .autodiff import OPTIMIZER_KINDS
from .data import IMBALANCE_MODES, STREAM_SCOPES

MANIFEST_VERSION = 1
PACKAGE_VERSION = "0.1.0"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    # method
    variant: str = "dosapp"
    sparsity_c: float = 0.1
    score_sample_cap: int | None = None
    buffer_capacity: int = 0
    # data
    total_classes: int = 20
    tasks: int = 5
    classes_per_task: int = 4
    samples_train: int = 32
    samples_ttl: int = 128
    samples_eval: int = 16
    input_dim: int = 64
    cluster_separation: float = 10.0
    noise_sigma: float = 1.0
    # model
    token_count: int = 4
    token_dim: int = 16
    block_count: int = 2
    mlp_hidden_dim: int = 64
    embed_dim: int = 32
    use_attention: bool = True
    temperature: float = 0.07
    # optimizer
    optimizer_kind: str = "adamw"
    learning_rate: float = 0.08
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0
    # schedule
    epochs: int = 10
    batch_size: int = 64
    # test-time adaptation
    ttl_batch_size: int = 64
    ttl_stream_scope: str = "seen"
    ttl_imbalance: str = "balanced"
    dirichlet_alpha: float | None = None  # None -> classes_per_task
    # teacher blend momenta
    delta: float = 0.9999
    gamma: float = 0.8
    lam: float = 0.9
    # run
    seeds: tuple[int, ...] = (0,)


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def _parse_seeds(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.replace(",", " ").split())


def _checked(parse, allowed):
    """parse, then reject any value for which allowed(value) is false."""
    def run(raw: str):
        value = parse(raw)
        if not allowed(value):
            raise ValueError(f"value {raw!r} not allowed")
        return value
    return run


_positive_int = _checked(int, lambda n: n >= 1)
_unit_fraction = _checked(float, lambda v: 0.0 < v <= 1.0)


def _parse_opt_int(raw: str) -> int | None:
    return None if raw.strip().lower() == "none" else int(raw)


def _parse_opt_float(raw: str) -> float | None:
    low = raw.strip().lower()
    return None if low in ("none", "auto") else float(raw)


# (section, key) -> (RunConfig attribute, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, object]] = {
    ("run", "variant"): ("variant", str),
    ("run", "seeds"): ("seeds", _checked(_parse_seeds, bool)),  # a nonempty list
    ("run", "epochs"): ("epochs", int),
    ("run", "batch_size"): ("batch_size", _positive_int),
    ("data", "total_classes"): ("total_classes", int),
    ("data", "tasks"): ("tasks", int),
    ("data", "classes_per_task"): ("classes_per_task", int),
    ("data", "samples_train"): ("samples_train", int),
    ("data", "samples_ttl"): ("samples_ttl", int),
    ("data", "samples_eval"): ("samples_eval", int),
    ("data", "input_dim"): ("input_dim", int),
    ("data", "cluster_separation"): ("cluster_separation", float),
    ("data", "noise_sigma"): ("noise_sigma", float),
    ("model", "token_count"): ("token_count", int),
    ("model", "token_dim"): ("token_dim", int),
    ("model", "block_count"): ("block_count", int),
    ("model", "mlp_hidden_dim"): ("mlp_hidden_dim", int),
    ("model", "embed_dim"): ("embed_dim", int),
    ("model", "use_attention"): ("use_attention", _parse_bool),
    ("model", "temperature"): ("temperature", _checked(float, lambda t: t > 0.0)),
    ("optimizer", "kind"): ("optimizer_kind", _checked(str, OPTIMIZER_KINDS.__contains__)),
    ("optimizer", "learning_rate"): ("learning_rate", float),
    ("optimizer", "beta1"): ("beta1", float),
    ("optimizer", "beta2"): ("beta2", float),
    ("optimizer", "epsilon"): ("epsilon", float),
    ("optimizer", "weight_decay"): ("weight_decay", float),
    ("sparsity", "c"): ("sparsity_c", _unit_fraction),
    ("sparsity", "score_sample_cap"): ("score_sample_cap", _parse_opt_int),
    ("ttl", "batch_size"): ("ttl_batch_size", _positive_int),
    ("ttl", "stream_scope"): ("ttl_stream_scope", _checked(str, STREAM_SCOPES.__contains__)),
    ("ttl", "imbalance"): ("ttl_imbalance", _checked(str, IMBALANCE_MODES.__contains__)),
    ("ttl", "dirichlet_alpha"): ("dirichlet_alpha", _parse_opt_float),
    ("ema", "delta"): ("delta", _unit_fraction),
    ("ema", "gamma"): ("gamma", _unit_fraction),
    ("ema", "lambda"): ("lam", _unit_fraction),
    ("replay", "capacity"): ("buffer_capacity", int),
}

_ABLATE_KEYS = {("ablate", "variants"), ("ablate", "momentum_grid")}


def _apply_pairs(cfg: RunConfig, pairs: dict[tuple[str, str], str]) -> RunConfig:
    updates = {}
    for (section, key), raw in pairs.items():
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown config key [{section}] {key}")
        attr, parser = _SCHEMA[(section, key)]
        try:
            updates[attr] = parser(raw)
        except ValueError:
            raise ConfigError(f"bad value for [{section}] {key}: {raw!r}")
    return replace(cfg, **updates)


def parse_config_file(path) -> tuple[RunConfig, dict[str, str]]:
    """Load a RunConfig from an INI file or a manifest JSON.

    Returns the config plus any [ablate] keys found (empty for manifests).
    """
    text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        manifest = json.loads(text)
        return config_from_manifest(manifest), {}
    parser = configparser.ConfigParser()
    parser.read_string(text)
    pairs = {}
    ablate = {}
    for section in parser.sections():
        for key, raw in parser.items(section):
            if (section, key) in _ABLATE_KEYS:
                ablate[key] = raw
            else:
                pairs[(section, key)] = raw
    return _apply_pairs(RunConfig(), pairs), ablate


def apply_overrides(cfg: RunConfig, overrides) -> RunConfig:
    """Apply 'section.key=value' strings on top of a config."""
    pairs = {}
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = (part.strip() for part in dotted.split(".", 1))
        pairs[(section, key)] = raw.strip()
    return _apply_pairs(cfg, pairs)


def config_to_dict(cfg: RunConfig) -> dict:
    """Nested, JSON-ready view of the config grouped by config file section."""
    by_attr = {attr: (section, key) for (section, key), (attr, _) in _SCHEMA.items()}
    out: dict[str, dict] = {}
    for f in fields(cfg):
        section, key = by_attr[f.name]
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out.setdefault(section, {})[key] = value
    return {s: dict(sorted(kv.items())) for s, kv in sorted(out.items())}


def _manifest_text(key: str, value) -> str:
    """The INI text of a manifest's JSON value: null is none, the seed list is joined."""
    if value is None:
        return "none"
    if key == "seeds" and isinstance(value, list):
        return " ".join(str(v) for v in value)
    return str(value)


def config_from_dict(nested: dict) -> RunConfig:
    """Inverse of config_to_dict; every value gets the INI parse and range checks."""
    return _apply_pairs(RunConfig(), {(section, key): _manifest_text(key, value)
                                      for section, kv in nested.items() for key, value in kv.items()})


def config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(config_to_dict(cfg), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def build_manifest(cfg: RunConfig, seed: int) -> dict:
    return {
        "manifest_version": MANIFEST_VERSION,
        "package_version": PACKAGE_VERSION,
        "seed": int(seed),
        "config": config_to_dict(cfg),
        "config_hash": config_hash(cfg),
    }


def write_manifest(path, manifest: dict) -> None:
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _versioned(manifest: dict) -> dict:
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ConfigError(f"unsupported manifest version {version!r}")
    return manifest


def read_manifest(path) -> dict:
    return _versioned(json.loads(Path(path).read_text()))


def config_from_manifest(manifest: dict) -> RunConfig:
    cfg = config_from_dict(_versioned(manifest)["config"])
    if "seed" in manifest:
        cfg = _apply_pairs(cfg, {("run", "seeds"): _manifest_text("seed", manifest["seed"])})
    return cfg
