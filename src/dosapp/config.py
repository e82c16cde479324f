"""Run configuration: INI-style config files, overrides, and run manifests.

Parsing is strict: an unknown section or key is an error naming it, so a
typo cannot silently fall back to a default. A manifest (resolved config +
seed + content hash) is written next to every run's outputs and is enough
to reproduce the run bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import __version__ as PACKAGE_VERSION

MANIFEST_VERSION = 1


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class VariantKnobs:
    use_mask: bool
    use_union: bool
    dual_momentum: bool
    use_ttl: bool
    use_teacher: bool
    default_buffer: int = 0


VARIANTS: dict[str, VariantKnobs] = {
    # the full method: sparse masks, union re-selection, dual momentum, routing
    "dosapp": VariantKnobs(True, True, True, True, True),
    # plain sequential fine-tuning, no adaptation phase, no teacher
    "finetune_no_ttl": VariantKnobs(False, False, False, False, False),
    # fine-tuning plus adaptation where the student labels its own stream
    "self_label": VariantKnobs(False, False, False, True, False),
    # teacher/student routing alone: full updates, single high momentum
    "teacher_student_only": VariantKnobs(False, False, False, True, True),
    # adds per-task sparse masks (latest mask gates adaptation too)
    "plus_sparse": VariantKnobs(True, False, False, True, True),
    # adds the mask union, still a single high momentum
    "plus_union_single_momentum": VariantKnobs(True, True, False, True, True),
    # the full method with a small labeled reservoir replayed 1:1
    "dosapp_er": VariantKnobs(True, True, True, True, True, default_buffer=200),
}


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"cannot parse boolean from {raw!r}")


def _checked(parse, allowed, expected: str):
    """parse, then reject any value for which allowed(value) is false."""
    def run(raw: str):
        value = parse(raw)
        if not allowed(value):
            raise ValueError(f"expected {expected}")
        return value
    return run


def _list_of(parse):
    """A nonempty list of items split on commas or whitespace, each parsed."""
    return _checked(lambda raw: tuple(parse(tok) for tok in raw.replace(",", " ").split()), bool,
                    "a nonempty list")


_positive_int = _checked(int, lambda n: n >= 1, "an integer >= 1")
_nonnegative_int = _checked(int, lambda n: n >= 0, "an integer >= 0")
_positive_float = _checked(float, lambda v: v > 0.0 and math.isfinite(v), "a finite number > 0")
_nonnegative_float = _checked(float, lambda v: v >= 0.0 and math.isfinite(v), "a finite number >= 0")
_unit_fraction = _checked(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_beta = _checked(float, lambda v: 0.0 <= v < 1.0, "a number in [0, 1)")


def _one_of(choices):
    return _checked(str, choices.__contains__, f"one of {', '.join(sorted(choices))}")


def _momentum_pair(token: str) -> tuple[float, float]:
    """A grid entry such as 0.8:0.9, the low supervised : low adaptation momentum."""
    parts = token.split(":")
    if len(parts) != 2:
        raise ValueError(f"expected gamma:lambda pairs, got {token!r}")
    return _unit_fraction(parts[0]), _unit_fraction(parts[1])


def _or_none(parse, *words):
    """None for "none" (or any of words), else parse(raw)."""
    return lambda raw: None if raw.strip().lower() in ("none", *words) else parse(raw)


def _key(section: str, key: str, default, parse):
    """A RunConfig field read from `[section] key` with parse(raw)."""
    return field(default=default, metadata={"key": (section, key), "parse": parse})


# the values of [optimizer] kind, [ttl] stream_scope and [ttl] imbalance
OPTIMIZER_KINDS = ("adamw", "sgd")
STREAM_SCOPES = ("seen", "current")
IMBALANCE_MODES = ("balanced", "dirichlet")


@dataclass(frozen=True)
class RunConfig:
    variant: str = _key("run", "variant", "dosapp", _one_of(VARIANTS))
    sparsity_c: float = _key("sparsity", "c", 0.1, _unit_fraction)
    score_sample_cap: int | None = _key("sparsity", "score_sample_cap", None, _or_none(_positive_int))
    buffer_capacity: int = _key("replay", "capacity", 0, _nonnegative_int)  # 0 -> the variant's default
    total_classes: int = _key("data", "total_classes", 20, _positive_int)
    tasks: int = _key("data", "tasks", 5, _positive_int)
    classes_per_task: int = _key("data", "classes_per_task", 4, _positive_int)
    samples_train: int = _key("data", "samples_train", 32, _positive_int)
    samples_ttl: int = _key("data", "samples_ttl", 128, _positive_int)
    samples_eval: int = _key("data", "samples_eval", 16, _positive_int)
    input_dim: int = _key("data", "input_dim", 64, _positive_int)
    cluster_separation: float = _key("data", "cluster_separation", 10.0, _nonnegative_float)
    noise_sigma: float = _key("data", "noise_sigma", 1.0, _nonnegative_float)
    token_count: int = _key("model", "token_count", 4, _positive_int)
    token_dim: int = _key("model", "token_dim", 16, _positive_int)
    block_count: int = _key("model", "block_count", 2, _positive_int)
    mlp_hidden_dim: int = _key("model", "mlp_hidden_dim", 64, _positive_int)
    embed_dim: int = _key("model", "embed_dim", 32, _positive_int)
    use_attention: bool = _key("model", "use_attention", True, _parse_bool)
    temperature: float = _key("model", "temperature", 0.07, _positive_float)
    optimizer_kind: str = _key("optimizer", "kind", "adamw", _one_of(OPTIMIZER_KINDS))
    learning_rate: float = _key("optimizer", "learning_rate", 0.08, _positive_float)
    beta1: float = _key("optimizer", "beta1", 0.9, _beta)
    beta2: float = _key("optimizer", "beta2", 0.999, _beta)
    epsilon: float = _key("optimizer", "epsilon", 1e-8, _positive_float)
    weight_decay: float = _key("optimizer", "weight_decay", 0.0, _nonnegative_float)
    epochs: int = _key("run", "epochs", 10, _positive_int)
    batch_size: int = _key("run", "batch_size", 64, _positive_int)
    ttl_batch_size: int = _key("ttl", "batch_size", 64, _positive_int)
    ttl_stream_scope: str = _key("ttl", "stream_scope", "seen", _one_of(STREAM_SCOPES))
    ttl_imbalance: str = _key("ttl", "imbalance", "balanced", _one_of(IMBALANCE_MODES))
    dirichlet_alpha: float | None = _key("ttl", "dirichlet_alpha", None,  # None -> classes_per_task
                                         _or_none(_positive_float, "auto"))
    delta: float = _key("ema", "delta", 0.9999, _unit_fraction)
    gamma: float = _key("ema", "gamma", 0.8, _unit_fraction)
    lam: float = _key("ema", "lambda", 0.9, _unit_fraction)
    seeds: tuple[int, ...] = _key("run", "seeds", (0,), _list_of(int))

    def __post_init__(self):
        """Hold only values a config file could: each value is what its key's parser reads from its text."""
        for f in fields(self):
            section, key = f.metadata["key"]
            value = getattr(self, f.name)
            parsed = _parsed(section, key, f.metadata["parse"], _manifest_text(key, value))
            if type(parsed) is not type(value) or parsed != value:
                raise ConfigError(f"bad value for [{section}] {key}: {value!r} (its text reads as {parsed!r})")


# (section, key) -> the RunConfig field it sets
_SCHEMA = {f.metadata["key"]: f for f in fields(RunConfig)}

# [ablate] keys select a sweep rather than a run, so they live in config files only
_ABLATE = {"variants": _list_of(_one_of(VARIANTS)), "momentum_grid": _list_of(_momentum_pair)}
_SECTIONS = {section for section, _ in _SCHEMA} | {"ablate"}


def _parsed(section: str, key: str, parse, raw: str):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r} ({exc})") from None


def _apply_pairs(cfg: RunConfig, pairs: dict[tuple[str, str], str]) -> RunConfig:
    updates = {}
    for (section, key), raw in pairs.items():
        if section == "ablate" and key in _ABLATE:
            raise ConfigError(f"[ablate] {key} is read from a config file only")
        if (section, key) not in _SCHEMA:
            raise ConfigError(f"unknown config key [{section}] {key}")
        f = _SCHEMA[(section, key)]
        updates[f.name] = _parsed(section, key, f.metadata["parse"], raw)
    return replace(cfg, **updates)


def read_text(path) -> str:
    """A config or run file's text; one that is not UTF-8 is a ConfigError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: not UTF-8 text ({err})") from None


def parse_config_file(path) -> tuple[RunConfig, dict]:
    """Load a RunConfig from an INI file or a manifest JSON.

    Returns the config plus the parsed [ablate] keys found (empty for
    manifests): "variants" a tuple of variant names, "momentum_grid" a
    tuple of (gamma, lambda) pairs.
    """
    text = read_text(path)
    if text.lstrip().startswith("{"):
        return read_manifest_config(path), {}
    import configparser
    # no header names "", so [DEFAULT] is unknown too; without interpolation a
    # "%" reaches the key's own parser, which names the key
    parser = configparser.ConfigParser(default_section="", interpolation=None)
    pairs = {}
    ablate = {}
    try:
        parser.read_string(text, source=str(path))
        for section in parser.sections():
            if section not in _SECTIONS:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                if section == "ablate" and key in _ABLATE:
                    ablate[key] = _parsed(section, key, _ABLATE[key], raw)
                else:
                    pairs[(section, key)] = raw
        return _apply_pairs(RunConfig(), pairs), ablate
    except configparser.Error as err:  # no section header, a repeated section or key, ...
        raise ConfigError(str(err)) from None  # it names the file as its source
    except ConfigError as err:
        raise ConfigError(f"{path}: {err}") from None


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


def check_cross_keys(cfg: RunConfig) -> RunConfig:
    """Reject, in one ConfigError, every rule that ties keys together and is broken.

    Called on the config that will run, after every override, since a file
    and an override may satisfy a rule only together.
    """
    broken = []
    if cfg.tasks * cfg.classes_per_task > cfg.total_classes:
        broken.append(f"[data] tasks x [data] classes_per_task = {cfg.tasks} x {cfg.classes_per_task} "
                      f"exceeds [data] total_classes = {cfg.total_classes}")
    if cfg.token_count * cfg.token_dim != cfg.input_dim:
        broken.append(f"[model] token_count x [model] token_dim = {cfg.token_count} x {cfg.token_dim} "
                      f"differs from [data] input_dim = {cfg.input_dim}")
    if broken:
        raise ConfigError("; ".join(broken))
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    """Nested, JSON-ready view of the config grouped by config file section."""
    out: dict[str, dict] = {}
    for f in fields(cfg):
        section, key = f.metadata["key"]
        value = getattr(cfg, f.name)
        if isinstance(value, tuple):
            value = list(value)
        out.setdefault(section, {})[key] = value
    return {s: dict(sorted(kv.items())) for s, kv in sorted(out.items())}


def _manifest_text(key: str, value) -> str:
    """The INI text of a manifest's JSON value or a field's value: null is none, the seed list is joined."""
    if value is None:
        return "none"
    if key == "seeds" and isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def config_from_dict(nested: dict) -> RunConfig:
    """Inverse of config_to_dict; every value gets the INI parse and range checks."""
    return _apply_pairs(RunConfig(), {(section, key): _manifest_text(key, value)
                                      for section, kv in nested.items() for key, value in kv.items()})


def config_hash(cfg: RunConfig) -> str:
    import hashlib
    import json
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
    import json
    Path(path).write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def config_from_manifest(manifest: dict) -> RunConfig:
    """The config of a manifest: a JSON object of this version whose config holds every key."""
    if not isinstance(manifest, dict):
        raise ConfigError(f"a manifest is a JSON object, not a {type(manifest).__name__}")
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise ConfigError(f"unsupported manifest version {version!r}")
    nested = manifest.get("config")
    if not isinstance(nested, dict) or not all(isinstance(kv, dict) for kv in nested.values()):
        raise ConfigError("a manifest's config is a JSON object of one object per section")
    missing = [f"[{section}] {key}" for section, key in _SCHEMA if key not in nested.get(section, {})]
    if missing:
        raise ConfigError(f"the manifest's config lacks {', '.join(missing)}")
    cfg = config_from_dict(nested)
    if "seed" in manifest:
        cfg = _apply_pairs(cfg, {("run", "seeds"): _manifest_text("seed", manifest["seed"])})
    return check_cross_keys(cfg)


def read_manifest_config(path) -> RunConfig:
    """config_from_manifest of a manifest file; every ConfigError names the file."""
    import json
    text = read_text(path)
    try:
        return config_from_manifest(json.loads(text))
    except ValueError as err:  # not JSON, or a ConfigError from config_from_manifest
        raise ConfigError(f"{path}: {err}") from None
