"""Encoder, class table, logits, and checkpoint round-trips."""

import json
import re

import numpy as np
import pytest

import dosapp.autodiff as ad
import dosapp.harness as hz
import dosapp.model as dm
from dosapp.config import ConfigError, RunConfig
from dosapp.records import read_records, write_records
from gradcheck import tiny_encoder_config

LOGIT = 0.07  # temperature


@pytest.fixture
def tiny():
    cfg = tiny_encoder_config()
    params = dm.init_model(cfg, seed=0)
    table = dm.init_class_table(6, cfg.embed_dim, seed=0)
    return cfg, params, table


def test_encoder_config_validation(monkeypatch):
    # run_experiment checks the encoder's keys before it draws any data
    def no_data(*args):
        raise AssertionError("generate_tasks ran")
    monkeypatch.setattr(hz, "generate_tasks", no_data)
    for updates, key in (({"token_count": 3}, "[model] token_count"),
                         ({"block_count": 0}, "[model] block_count"), ({"embed_dim": -1}, "[model] embed_dim")):
        with pytest.raises(ConfigError, match=re.escape(key)):
            hz.run_experiment(RunConfig(**updates), seed=0)


def test_init_is_deterministic_and_seed_sensitive():
    cfg = tiny_encoder_config()
    a = dm.init_model(cfg, seed=0)
    b = dm.init_model(cfg, seed=0)
    c = dm.init_model(cfg, seed=1)
    assert a.entries.keys() == b.entries.keys()
    for path in a.entries:
        assert np.array_equal(a.entries[path].data, b.entries[path].data)
    assert any(not np.array_equal(a.entries[p].data, c.entries[p].data) for p in a.entries)


def test_candidate_surface_is_first_mlp_weight_per_block(tiny):
    cfg, params, _ = tiny
    expected = {f"block{i}.mlp.fc1.weight" for i in range(cfg.block_count)}
    assert set(params.candidate_paths()) == expected
    assert (sum(params.entries[p].size for p in params.candidate_paths())
            == cfg.block_count * cfg.token_dim * cfg.mlp_hidden_dim)
    for path in expected:
        assert params.entries[path].shape == (cfg.token_dim, cfg.mlp_hidden_dim)
    # biases and every other tensor stay off the candidate surface
    assert not any(p.endswith("fc1.bias") for p in params.candidate_paths())


def test_teacher_student_share_paths_and_shapes(tiny):
    _, params, _ = tiny
    clone = params.clone()
    assert clone.entries.keys() == params.entries.keys()
    for path in params.entries:
        assert clone.entries[path].shape == params.entries[path].shape


def test_class_table_rows_unit_norm():
    table = dm.init_class_table(20, 32, seed=4)
    norms = np.linalg.norm(table.vectors, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9


def test_encode_rows_unit_norm_and_finite(tiny):
    cfg, params, _ = tiny
    x = np.random.default_rng(1).normal(size=(5, cfg.input_dim))
    emb = dm.encode(params, x)
    norms = np.linalg.norm(emb.data, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-9
    assert np.all(np.isfinite(emb.data))


def test_encode_is_batch_order_equivariant(tiny):
    cfg, params, _ = tiny
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, cfg.input_dim))
    perm = rng.permutation(6)
    full = dm.encode(params, x).data
    permuted = dm.encode(params, x[perm]).data
    assert np.allclose(permuted, full[perm], atol=1e-12)


def test_logits_restriction_is_column_subset(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(3).normal(size=(4, cfg.input_dim))
    full = dm.logits(params, table, x, list(range(6)), LOGIT).data
    sub = dm.logits(params, table, x, [1, 3, 5], LOGIT).data
    assert np.array_equal(sub, full[:, [1, 3, 5]])


def test_logit_temperature_scales_but_argmax_invariant(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(4).normal(size=(4, cfg.input_dim))
    cold = dm.logits(params, table, x, list(range(6)), 0.07).data
    warm = dm.logits(params, table, x, list(range(6)), 1.0).data
    assert np.allclose(cold, warm / 0.07, atol=1e-9)
    assert np.array_equal(np.argmax(cold, axis=1), np.argmax(warm, axis=1))
    # cosine similarities live in [-1, 1] before temperature scaling
    assert np.all(np.abs(warm) <= 1.0 + 1e-12)
    for bad in (0.0, -0.07):
        with pytest.raises(ValueError, match="temperature"):
            dm.logits(params, table, x, list(range(6)), bad)


def test_restriction_validation(tiny):
    cfg, params, table = tiny
    x = np.zeros((1, cfg.input_dim))
    with pytest.raises(ValueError):
        dm.logits(params, table, x, [], LOGIT)
    with pytest.raises(ValueError):
        dm.logits(params, table, x, [0, 0], LOGIT)
    with pytest.raises(ValueError):
        dm.logits(params, table, x, [0, 6], LOGIT)


def test_model_loss_maps_raw_class_ids(tiny):
    cfg, params, table = tiny
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, cfg.input_dim))
    loss = dm.model_loss(params, table, x, np.array([1, 5, 3]), [1, 3, 5], LOGIT)
    assert loss.data.shape == ()
    assert np.isfinite(loss.item())
    with pytest.raises(ValueError, match="outside the restricted class set"):
        dm.model_loss(params, table, x, np.array([0, 5, 3]), [1, 3, 5], LOGIT)


def test_model_loss_gradients_stay_finite(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(6).normal(size=(4, cfg.input_dim))
    params.zero_grads()
    with ad.Graph() as g:
        loss = dm.model_loss(params, table, x, np.array([0, 1, 2, 3]), [0, 1, 2, 3], LOGIT)
    ad.backward(loss, g)
    for path, t in params.entries.items():
        assert t.grad is not None, path
        assert np.all(np.isfinite(t.grad)), path


def test_predict_returns_raw_class_ids(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(7).normal(size=(5, cfg.input_dim))
    pred = dm.predict(params, table, x, [2, 4, 5], LOGIT)
    assert set(np.unique(pred)) <= {2, 4, 5}


def test_checkpoint_round_trip_bit_exact(tiny, tmp_path):
    cfg, params, table = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table, meta={"note": "fixture"})
    loaded, loaded_table, meta = dm.load_checkpoint(path)
    assert loaded.entries.keys() == params.entries.keys()
    for p in params.entries:
        assert np.array_equal(loaded.entries[p].data, params.entries[p].data), p
    assert set(loaded.candidate_paths()) == set(params.candidate_paths())
    assert np.array_equal(loaded_table.vectors, table.vectors)
    assert meta["note"] == "fixture"


def test_checkpoint_without_table(tiny, tmp_path):
    _, params, _ = tiny
    path = tmp_path / "bare.ckpt"
    dm.save_checkpoint(path, params)
    loaded, table, _ = dm.load_checkpoint(path)
    assert table is None
    assert loaded.entries.keys() == params.entries.keys()


def test_checkpoint_version_rejected(tiny, tmp_path):
    _, params, _ = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params)
    text = path.read_text()
    path.write_text(text.replace("dosapp-checkpoint v4", "dosapp-checkpoint v9", 1))
    with pytest.raises(ValueError, match="v9"):
        dm.load_checkpoint(path)


def _rewritten(path, edit):
    """The checkpoint at path, rewritten under its own header with edit(records) as its records."""
    with open(path, "rb") as fh:
        attrs = json.loads(fh.readline().decode().split(" ", 2)[2])
    _, records = read_records(path, dm.CHECKPOINT_MAGIC, np.float64, {k: type(v) for k, v in attrs.items()})
    write_records(path, dm.CHECKPOINT_MAGIC, attrs, list(edit(records).items()))


def _without(*names):
    return lambda records: {k: v for k, v in records.items() if k not in names}


def _with(name, value):
    return lambda records: {**records, name: value}


def _renamed(old, new):
    return lambda records: {k.replace(old, new): v for k, v in records.items()}


NOT_ONE_ENCODER = {
    "block_lacks_a_tensor": _without("block1.mlp.fc2.bias"),
    "block_lacks_attention": _without("block1.attn.q.weight"),
    "no_projection": _without("proj.weight"),
    "unknown_tensor": _with("block0.mlp.fc3.weight", np.zeros((4, 4))),
    "gap_in_block_numbers": _renamed("block1.", "block2."),
    "shapes_do_not_chain": _with("block1.mlp.fc2.weight", np.zeros((6, 5))),
    "gain_and_bias_differ": _with("block0.ln2.bias", np.zeros(5)),
    "projection_rows_not_tokens": _with("proj.weight", np.zeros((9, 5))),
    "one_d_projection": _with("proj.weight", np.zeros(8)),
    "one_d_weight": _with("block0.attn.k.weight", np.zeros(16)),
}


@pytest.mark.parametrize("case", sorted(NOT_ONE_ENCODER))
def test_a_checkpoint_that_is_not_one_encoder_is_rejected(tiny, tmp_path, case):
    _, params, table = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table)
    _rewritten(path, NOT_ONE_ENCODER[case])
    with pytest.raises(ValueError, match=re.escape(str(path))):
        dm.load_checkpoint(path)


BAD_CLASS_TABLES = {
    "narrower_than_the_embedding": lambda v: v[:, :-1],
    "square_and_too_narrow": lambda v: v[:3, :3],
    "wider_than_the_embedding": lambda v: np.hstack([v, v[:, :1]]),
    "zero_row": lambda v: np.vstack([v[:2], np.zeros((1, v.shape[1])), v[3:]]),
    "one_d": lambda v: v.ravel(),
}  # a nan or inf entry fails in the record reader, which names the file too


@pytest.mark.parametrize("case", sorted(BAD_CLASS_TABLES))
def test_a_class_table_that_the_encoder_cannot_score_against_is_rejected(tiny, tmp_path, case):
    _, params, table = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table)
    _rewritten(path, lambda records: {**records, "class_table": BAD_CLASS_TABLES[case](records["class_table"])})
    with pytest.raises(ValueError, match=re.escape(str(path)) + ".*class_table"):
        dm.load_checkpoint(path)


def test_a_rewritten_checkpoint_that_is_one_encoder_loads(tiny, tmp_path):
    # the rewrite itself is sound: unedited, the file loads to the same tensors
    _, params, table = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table)
    _rewritten(path, dict)
    loaded, _, _ = dm.load_checkpoint(path)
    assert all(np.array_equal(loaded.entries[p].data, t.data) for p, t in params.entries.items())
