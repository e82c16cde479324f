"""Config parsing, overrides, hashing, run manifests."""

import hashlib
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dosapp.config as cf
from dosapp.config import IMBALANCE_MODES, OPTIMIZER_KINDS, STREAM_SCOPES, VARIANTS


SAMPLE_INI = """\
[run]
variant = plus_sparse
seeds = 0, 1, 2
epochs = 4

[data]
tasks = 3
classes_per_task = 2
total_classes = 6
noise_sigma = 0.5

[model]
use_attention = false
temperature = 0.1

[optimizer]
learning_rate = 0.02

[sparsity]
c = 0.25
score_sample_cap = none

[ttl]
stream_scope = current
dirichlet_alpha = 1.5

[ema]
lambda = 0.85

[replay]
capacity = 40
"""


def test_default_hyperparameters():
    cfg = cf.RunConfig()
    assert cfg.variant == "dosapp"
    assert cfg.seeds == (0,)
    assert cfg.epochs == 10 and cfg.batch_size == 64 and cfg.ttl_batch_size == 64
    assert cfg.sparsity_c == 0.1
    assert (cfg.gamma, cfg.lam, cfg.delta) == (0.8, 0.9, 0.9999)
    assert cfg.optimizer_kind == "adamw" and cfg.learning_rate == 0.08
    assert cfg.weight_decay == 0.0
    assert cfg.temperature == 0.07
    assert cfg.buffer_capacity == 0
    assert cfg.tasks == 5 and cfg.classes_per_task == 4 and cfg.total_classes == 20
    assert cfg.ttl_stream_scope == "seen" and cfg.ttl_imbalance == "balanced"
    assert cfg.mlp_hidden_dim == 64 and cfg.use_attention is True


def test_ini_round_trip(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text(SAMPLE_INI)
    cfg, ablate = cf.parse_config_file(p)
    assert ablate == {}
    assert cfg.variant == "plus_sparse"
    assert cfg.seeds == (0, 1, 2)
    assert cfg.epochs == 4 and cfg.tasks == 3
    assert cfg.noise_sigma == 0.5
    assert cfg.use_attention is False and cfg.temperature == 0.1
    assert cfg.learning_rate == 0.02
    assert cfg.sparsity_c == 0.25 and cfg.score_sample_cap is None
    assert cfg.ttl_stream_scope == "current" and cfg.dirichlet_alpha == 1.5
    assert cfg.lam == 0.85
    assert cfg.buffer_capacity == 40
    # untouched keys keep their defaults
    assert cfg.delta == 0.9999 and cfg.batch_size == 64


def test_ablate_section_is_tolerated_and_returned(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[ablate]\nvariants = dosapp, finetune_no_ttl\nmomentum_grid = 0.8:0.9 1:0.5\n")
    cfg, ablate = cf.parse_config_file(p)
    assert cfg == cf.RunConfig()
    assert ablate == {"variants": ("dosapp", "finetune_no_ttl"),
                      "momentum_grid": ((0.8, 0.9), (1.0, 0.5))}


@pytest.mark.parametrize("key, raw", [
    ("variants", "dosapp dosapp_v9"), ("variants", ""),
    ("momentum_grid", "1.5:0.9"), ("momentum_grid", "0.8:0"), ("momentum_grid", "0.8"),
    ("momentum_grid", "0.8:0.9:0.7"), ("momentum_grid", "x:0.9"), ("momentum_grid", ""),
])
def test_bad_ablate_values_name_the_key(tmp_path, key, raw):
    p = tmp_path / "cfg.ini"
    p.write_text(f"[ablate]\n{key} = {raw}\n")
    with pytest.raises(cf.ConfigError, match=rf"\[ablate\] {key}"):
        cf.parse_config_file(p)


def test_unknown_key_names_section_and_key(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[run]\nbogus_key = 1\n")
    with pytest.raises(cf.ConfigError, match=r"\[run\] bogus_key"):
        cf.parse_config_file(p)


@pytest.mark.parametrize("text, section", [
    ("[bogus]\n", "bogus"), ("[1, 2]\n", "1, 2"), ("[DEFAULT]\n", "DEFAULT"),
    ("[run]\nepochs = 3\n[Run]\n", "Run"), ("[DEFAULT]\nepochs = 3\n[run]\n", "DEFAULT"),
], ids=["empty", "json_list", "empty_default", "wrong_case", "default_keys"])
def test_unknown_section_names_the_section_even_when_empty(tmp_path, text, section):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    with pytest.raises(cf.ConfigError, match=re.escape(f"unknown config section [{section}]")):
        cf.parse_config_file(p)


def test_bad_value_names_the_key(tmp_path):
    p = tmp_path / "cfg.ini"
    p.write_text("[data]\ntasks = many\n")
    with pytest.raises(cf.ConfigError, match=r"\[data\] tasks"):
        cf.parse_config_file(p)


@pytest.mark.parametrize("text", [
    "[optimizer]\nlearning_rate = 0.0x\n", "[run]\nbogus_key = 1\n", "[ablate]\nvariants = nope\n",
    "[ablate]\nmomentum_grid = 0.8\n", "[bogus]\n", "epochs = 3\n", "[run]\nepochs = 3\nepochs = 4\n",
], ids=["bad_value", "unknown_key", "bad_ablate_value", "bad_grid", "unknown_section", "no_section",
        "repeated_key"])
def test_every_error_of_a_config_file_names_the_file(tmp_path, text):
    p = tmp_path / "cfg.ini"
    p.write_text(text)
    with pytest.raises(cf.ConfigError, match=re.escape(str(p))):
        cf.parse_config_file(p)


def test_an_override_error_names_no_file():
    with pytest.raises(cf.ConfigError, match=re.escape("bad value for [optimizer] learning_rate: '0.0x' (")):
        cf.apply_overrides(cf.RunConfig(), ["optimizer.learning_rate=0.0x"])
    with pytest.raises(cf.ConfigError, match=r"^unknown config key \[run\] bogus_key$"):
        cf.apply_overrides(cf.RunConfig(), ["run.bogus_key=1"])


@pytest.mark.parametrize("section, key, raw", [
    ("data", "samples_ttl", "%6"), ("run", "variant", "%(tasks)s"), ("ablate", "variants", "dosapp%"),
])
def test_a_percent_in_a_value_reaches_the_keys_own_parser(tmp_path, section, key, raw):
    # no interpolation: the raw value is what the key's parser sees and names
    p = tmp_path / "cfg.ini"
    p.write_text(f"[{section}]\n{key} = {raw}\n")
    with pytest.raises(cf.ConfigError, match=re.escape(f"bad value for [{section}] {key}: {raw!r}")):
        cf.parse_config_file(p)


def test_overrides():
    cfg = cf.apply_overrides(cf.RunConfig(), ["ema.gamma=0.7", "run.epochs=2"])
    assert cfg.gamma == 0.7 and cfg.epochs == 2
    with pytest.raises(cf.ConfigError, match="section.key=value"):
        cf.apply_overrides(cf.RunConfig(), ["gamma=0.7"])
    with pytest.raises(cf.ConfigError, match="unknown config key"):
        cf.apply_overrides(cf.RunConfig(), ["ema.mu=0.7"])


def test_seeds_parse_accepts_commas_and_spaces():
    assert cf.apply_overrides(cf.RunConfig(), ["run.seeds=3,4 5"]).seeds == (3, 4, 5)


@pytest.mark.parametrize("raw", ["", " , ", "0,x"])
def test_seed_list_must_be_nonempty_integers(raw):
    with pytest.raises(cf.ConfigError, match=r"\[run\] seeds"):
        cf.apply_overrides(cf.RunConfig(), [f"run.seeds={raw}"])


@pytest.mark.parametrize("override", [
    "ttl.stream_scope=bogus", "ttl.imbalance=bogus", "optimizer.kind=bogus",
    "sparsity.c=0", "sparsity.c=-0.1", "sparsity.c=1.5",
    "ema.gamma=2", "ema.gamma=0", "ema.lambda=1.5", "ema.delta=-0.5", "ema.delta=nan",
    "run.batch_size=0", "ttl.batch_size=0", "ttl.batch_size=-3",
    "model.temperature=0", "model.temperature=-0.07", "run.variant=dosapp_v9",
    "data.total_classes=0", "data.tasks=0", "data.classes_per_task=-1", "data.samples_train=0",
    "data.samples_ttl=0", "data.samples_eval=0", "data.input_dim=0",
    "model.token_count=0", "model.token_dim=0", "model.block_count=0",
    "model.mlp_hidden_dim=0", "model.embed_dim=-2",
    "replay.capacity=-5", "run.epochs=0", "ttl.dirichlet_alpha=-1", "ttl.dirichlet_alpha=0",
    "sparsity.score_sample_cap=0", "data.cluster_separation=-1", "data.noise_sigma=-1",
    "optimizer.learning_rate=0", "optimizer.epsilon=-1e-8", "optimizer.beta1=1.5",
    "optimizer.beta1=1", "optimizer.beta2=-0.1", "optimizer.weight_decay=-0.01",
    "ttl.dirichlet_alpha=inf", "optimizer.learning_rate=inf", "model.temperature=inf",
    "data.noise_sigma=inf", "optimizer.epsilon=inf", "data.cluster_separation=inf",
    "optimizer.weight_decay=inf",
])
def test_out_of_range_values_name_the_key(override):
    dotted = override.split("=")[0]
    section, key = dotted.split(".")
    with pytest.raises(cf.ConfigError, match=rf"\[{section}\] {key}"):
        cf.apply_overrides(cf.RunConfig(), [override])


# per RunConfig field, values out of its key's range or of the wrong type; a field without one fails to collect
BAD_FIELD_VALUES = {
    "variant": ["dosapp_v9"], "sparsity_c": [0.0, -0.1, 1.5], "score_sample_cap": [0, 2.0],
    "buffer_capacity": [-1], "total_classes": [0], "tasks": [0], "classes_per_task": [-1],
    "samples_train": [0], "samples_ttl": [0], "samples_eval": [0], "input_dim": [0],
    "cluster_separation": [-1.0, float("inf")], "noise_sigma": [-1.0], "token_count": [0],
    "token_dim": [2.5], "block_count": [0], "mlp_hidden_dim": [0], "embed_dim": [-1],
    "use_attention": [1, "yes"], "temperature": [0.0], "optimizer_kind": ["rmsprop", "SGD"],
    "learning_rate": [-1.0, 1, "0.1"], "beta1": [1.0], "beta2": [-0.1], "epsilon": [0.0],
    "weight_decay": [-0.01], "epochs": [0], "batch_size": [0, True], "ttl_batch_size": [0, -4],
    "ttl_stream_scope": ["all"], "ttl_imbalance": ["zipf"], "dirichlet_alpha": [0.0, -1.0],
    "delta": [0.0, 1.0001], "gamma": [2.0, 0.0, 1.5, float("nan")], "lam": [0.0],
    "seeds": [[0], (), (0.5,), "0"],
}


@pytest.mark.parametrize("section_key, name, value", [
    pytest.param(f.metadata["key"], f.name, v, id=f"{f.name}={v!r}")
    for f in fields(cf.RunConfig) for v in BAD_FIELD_VALUES[f.name]])
def test_a_config_built_in_code_is_checked_when_built(section_key, name, value):
    with pytest.raises(cf.ConfigError, match=re.escape("[{}] {}".format(*section_key))):
        cf.RunConfig(**{name: value})


def test_every_value_the_owner_modules_allow_parses():
    for attr, section_key, allowed in (("variant", "run.variant", VARIANTS),
                                       ("ttl_stream_scope", "ttl.stream_scope", STREAM_SCOPES),
                                       ("ttl_imbalance", "ttl.imbalance", IMBALANCE_MODES),
                                       ("optimizer_kind", "optimizer.kind", OPTIMIZER_KINDS)):
        for value in allowed:
            cfg = cf.apply_overrides(cf.RunConfig(), [f"{section_key}={value}"])
            assert getattr(cfg, attr) == value
    edge = cf.apply_overrides(cf.RunConfig(), ["sparsity.c=1", "ema.gamma=1", "ema.lambda=1",
                                               "ema.delta=1", "run.batch_size=1",
                                               "ttl.batch_size=1", "model.temperature=1e-9",
                                               "replay.capacity=0", "run.epochs=1",
                                               "optimizer.beta1=0", "optimizer.weight_decay=0",
                                               "data.noise_sigma=0"])
    assert (edge.sparsity_c, edge.gamma, edge.lam, edge.delta) == (1.0, 1.0, 1.0, 1.0)
    assert (edge.batch_size, edge.ttl_batch_size, edge.temperature) == (1, 1, 1e-9)
    assert (edge.buffer_capacity, edge.epochs, edge.beta1, edge.weight_decay,
            edge.noise_sigma) == (0, 1, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("overrides, keys", [
    (["data.tasks=6"], ["[data] tasks", "[data] classes_per_task", "[data] total_classes"]),
    (["data.total_classes=19"], ["[data] tasks", "[data] classes_per_task", "[data] total_classes"]),
    (["model.token_dim=32"], ["[model] token_count", "[model] token_dim", "[data] input_dim"]),
    (["data.classes_per_task=5", "data.input_dim=60"],
     ["[data] tasks", "[data] classes_per_task", "[data] total_classes",
      "[model] token_count", "[model] token_dim", "[data] input_dim"]),
])
def test_cross_key_rules_raise_one_error_naming_every_key(overrides, keys):
    with pytest.raises(cf.ConfigError) as err:
        cf.check_cross_keys(cf.apply_overrides(cf.RunConfig(), overrides))
    for key in keys:
        assert key in str(err.value)


def test_config_dict_round_trip():
    cfg = cf.apply_overrides(cf.RunConfig(), ["ttl.dirichlet_alpha=2.0", "run.seeds=1,2"])
    assert cf.config_from_dict(cf.config_to_dict(cfg)) == cfg


_FRACTION = st.floats(0.0, 1.0, exclude_min=True)
_POSITIVE = st.floats(0.0, 1e6, exclude_min=True)
_NONNEGATIVE = st.floats(0.0, 1e6)
_SPECIAL = {
    "variant": st.sampled_from(sorted(VARIANTS)),
    "seeds": st.lists(st.integers(0, 2**31), min_size=1).map(tuple),
    "score_sample_cap": st.none() | st.integers(1, 10**6),
    "buffer_capacity": st.integers(0, 10**6),
    "total_classes": st.integers(0, 10**6),  # the surplus over tasks x classes_per_task
    "dirichlet_alpha": st.none() | _POSITIVE,
    "temperature": _POSITIVE, "learning_rate": _POSITIVE, "epsilon": _POSITIVE,
    "beta1": st.floats(0.0, 1.0, exclude_max=True), "beta2": st.floats(0.0, 1.0, exclude_max=True),
    "cluster_separation": _NONNEGATIVE, "noise_sigma": _NONNEGATIVE, "weight_decay": _NONNEGATIVE,
    "sparsity_c": _FRACTION, "delta": _FRACTION, "gamma": _FRACTION, "lam": _FRACTION,
    "optimizer_kind": st.sampled_from(OPTIMIZER_KINDS),
    "ttl_stream_scope": st.sampled_from(STREAM_SCOPES),
    "ttl_imbalance": st.sampled_from(IMBALANCE_MODES),
}


def _field_strategy(f):
    if f.name in _SPECIAL:
        return _SPECIAL[f.name]
    if isinstance(f.default, bool):
        return st.booleans()
    assert isinstance(f.default, int), f"no strategy for {f.name}"
    return st.integers(1, 10**6)


def _cross_keys(kw):
    """Meet the cross-key rules: input_dim is derived, total_classes drawn as a surplus."""
    return {**kw, "total_classes": kw["tasks"] * kw["classes_per_task"] + kw["total_classes"],
            "input_dim": kw["token_count"] * kw["token_dim"]}


VALID_CONFIGS = st.fixed_dictionaries({f.name: _field_strategy(f) for f in fields(cf.RunConfig)
                                       if f.name != "input_dim"}
                                      ).map(lambda kw: cf.RunConfig(**_cross_keys(kw)))


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS)
def test_every_valid_config_survives_the_dict_and_json_round_trip(cfg):
    assert cf.check_cross_keys(cfg) == cfg
    assert cf.config_from_dict(cf.config_to_dict(cfg)) == cfg
    assert cf.config_from_dict(json.loads(json.dumps(cf.config_to_dict(cfg)))) == cfg


@settings(max_examples=200, deadline=None)
@given(VALID_CONFIGS)
def test_overrides_of_a_configs_own_values_give_it_back(cfg):
    own = [f"{section}.{key}={cf._manifest_text(key, value)}"
           for section, kv in cf.config_to_dict(cfg).items() for key, value in kv.items()]
    assert cf.apply_overrides(cf.RunConfig(), own) == cfg
    assert cf.apply_overrides(cfg, own) == cfg


@pytest.mark.parametrize("section, key, value", [
    ("ema", "gamma", 2.0), ("ema", "delta", 0.0), ("run", "batch_size", 0),
    ("ttl", "batch_size", -1), ("model", "temperature", 0.0), ("sparsity", "c", 1.5),
    ("run", "seeds", []), ("run", "seeds", [0, "x"]), ("run", "epochs", "many"),
    ("data", "tasks", 2.5), ("model", "use_attention", "maybe"), ("optimizer", "kind", "rmsprop"),
    ("ttl", "stream_scope", "bogus"), ("ema", "lambda", [0.5]),
    ("replay", "capacity", -5), ("run", "epochs", 0), ("ttl", "dirichlet_alpha", -1.0),
    ("sparsity", "score_sample_cap", 0), ("data", "noise_sigma", -1.0),
    ("data", "cluster_separation", -0.5), ("optimizer", "learning_rate", 0.0),
    ("optimizer", "epsilon", 0.0), ("optimizer", "beta1", 1.5), ("optimizer", "beta2", 1.0),
    ("optimizer", "weight_decay", -1.0), ("data", "tasks", 6), ("data", "input_dim", 128),
    ("ttl", "dirichlet_alpha", float("inf")), ("optimizer", "learning_rate", float("inf")),
    ("model", "temperature", float("inf")), ("data", "noise_sigma", float("inf")),
])
def test_manifest_values_get_the_parse_time_checks(section, key, value):
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    manifest["config"][section][key] = value
    with pytest.raises(cf.ConfigError, match=rf"\[{section}\] {key}"):
        cf.config_from_manifest(manifest)


@pytest.mark.parametrize("seed", ["x", 2.5, [1], None])
def test_manifest_seed_gets_the_seed_check(seed):
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    manifest["seed"] = seed
    with pytest.raises(cf.ConfigError, match=r"\[run\] seeds"):
        cf.config_from_manifest(manifest)


@pytest.mark.parametrize("drop", ["ema", "gamma"])
def test_manifest_needs_every_config_key(drop):
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    if drop == "ema":
        del manifest["config"]["ema"]
    else:
        del manifest["config"]["ema"]["gamma"]
    with pytest.raises(cf.ConfigError, match=r"lacks .*\[ema\] gamma"):
        cf.config_from_manifest(manifest)


@pytest.mark.parametrize("config", [None, [1], {"ema": [0.8]}, "run"],
                         ids=["missing", "list", "list_section", "string"])
def test_manifest_config_must_be_an_object_of_sections(config):
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    if config is None:
        del manifest["config"]
    else:
        manifest["config"] = config
    with pytest.raises(cf.ConfigError, match="one object per section"):
        cf.config_from_manifest(manifest)


def test_manifest_rejects_ablate_keys():
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    manifest["config"]["ablate"] = {"variants": "dosapp"}
    with pytest.raises(cf.ConfigError, match=r"\[ablate\] variants"):
        cf.config_from_manifest(manifest)


def test_one_package_version_matches_pyproject():
    import dosapp

    pyproject = (Path(cf.__file__).parents[2] / "pyproject.toml").read_text()
    version = re.search(r'^version = "([^"]+)"$', pyproject, re.M).group(1)
    assert dosapp.__version__ == cf.PACKAGE_VERSION == version
    assert cf.build_manifest(cf.RunConfig(), seed=0)["package_version"] == version


def test_config_hash_is_stable_and_sensitive():
    a = cf.config_hash(cf.RunConfig())
    b = cf.config_hash(cf.RunConfig())
    c = cf.config_hash(cf.apply_overrides(cf.RunConfig(), ["ema.gamma=0.81"]))
    assert a == b and len(a) == 64
    assert a != c


def test_manifest_round_trip(tmp_path):
    cfg = cf.apply_overrides(cf.RunConfig(), ["run.seeds=0,1", "run.epochs=2"])
    manifest = cf.build_manifest(cfg, seed=1)
    p = tmp_path / "manifest.json"
    cf.write_manifest(p, manifest)
    back = json.loads(p.read_text())
    assert back == manifest
    restored = cf.read_manifest_config(p)
    # the manifest pins one concrete seed
    assert restored.seeds == (1,)
    assert restored == cf.apply_overrides(cfg, ["run.seeds=1"])
    assert cf.config_hash(cfg) == back["config_hash"]


@pytest.mark.parametrize("source, digest", [
    ("defaults", "239f5ca802a9eb04f59d1dbc65155b5c7e81b9eb094877562bee90e8af821c8b"),
    ("sample_ini", "c846bac3b2bb0f3a96bfc2c19e6b11366fbe22bb13488fe9bb7b56deaf3e822e"),
])
def test_manifest_bytes_are_pinned(tmp_path, source, digest):
    # config_hash dedups runs in load_run, so the manifest text must not drift
    cfg = cf.RunConfig()
    if source == "sample_ini":
        (tmp_path / "cfg.ini").write_text(SAMPLE_INI)
        cfg, _ = cf.parse_config_file(tmp_path / "cfg.ini")
    p = tmp_path / "manifest.json"
    cf.write_manifest(p, cf.build_manifest(cfg, seed=0))
    assert hashlib.sha256(p.read_bytes()).hexdigest() == digest


def test_manifest_is_a_valid_config_file_input(tmp_path):
    cfg = cf.apply_overrides(cf.RunConfig(), ["run.epochs=3"])
    p = tmp_path / "manifest.json"
    cf.write_manifest(p, cf.build_manifest(cfg, seed=4))
    parsed, ablate = cf.parse_config_file(p)
    assert ablate == {}
    assert parsed.epochs == 3 and parsed.seeds == (4,)


def test_manifest_version_is_enforced(tmp_path):
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    manifest["manifest_version"] = 99
    p = tmp_path / "manifest.json"
    p.write_text(json.dumps(manifest))
    with pytest.raises(cf.ConfigError, match="99"):
        cf.read_manifest_config(p)
    with pytest.raises(cf.ConfigError, match="99"):
        cf.config_from_manifest(manifest)


def test_manifest_rejects_unknown_config_keys():
    manifest = cf.build_manifest(cf.RunConfig(), seed=0)
    manifest["config"]["run"]["warp_factor"] = 9
    with pytest.raises(cf.ConfigError, match="warp_factor"):
        cf.config_from_manifest(manifest)
