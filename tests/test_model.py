"""Encoder, class table, logits, and checkpoint round-trips."""

import re

import numpy as np
import pytest

import dosapp.autodiff as ad
import dosapp.harness as hz
import dosapp.model as dm
from conftest import copy_params
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
    assert a.keys() == b.keys()
    for path in a:
        assert np.array_equal(a[path].data, b[path].data)
    assert any(not np.array_equal(a[p].data, c[p].data) for p in a)


def test_candidate_surface_is_first_mlp_weight_per_block(tiny):
    cfg, params, _ = tiny
    expected = {f"block{i}.mlp.fc1.weight" for i in range(cfg.block_count)}
    assert set(dm.candidate_paths(params)) == expected
    assert (sum(params[p].size for p in dm.candidate_paths(params))
            == cfg.block_count * cfg.token_dim * cfg.mlp_hidden_dim)
    for path in expected:
        assert params[path].shape == (cfg.token_dim, cfg.mlp_hidden_dim)
    # biases and every other tensor stay off the candidate surface
    assert not any(p.endswith("fc1.bias") for p in dm.candidate_paths(params))


def test_teacher_student_share_paths_and_shapes(tiny):
    _, params, _ = tiny
    copy = copy_params(params)
    assert list(copy) == list(params)
    for path, t in params.items():
        assert copy[path].shape == t.shape and np.array_equal(copy[path].data, t.data)
        assert not np.shares_memory(copy[path].data, t.data), path


def test_class_table_rows_unit_norm():
    table = dm.init_class_table(20, 32, seed=4)
    norms = np.linalg.norm(table, axis=1)
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
    # a head of the table's first n rows scores the first n columns of the full table (to rounding:
    # BLAS may take another kernel for a narrower product)
    cfg, params, table = tiny
    x = np.random.default_rng(3).normal(size=(4, cfg.input_dim))
    full = dm.logits(params, table, x, LOGIT).data
    for n in range(1, 6):
        assert np.allclose(dm.logits(params, table[:n], x, LOGIT).data, full[:, :n], rtol=0, atol=1e-12), n


def test_logit_temperature_scales_but_argmax_invariant(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(4).normal(size=(4, cfg.input_dim))
    cold = dm.logits(params, table, x, 0.07).data
    warm = dm.logits(params, table, x, 1.0).data
    assert np.allclose(cold, warm / 0.07, atol=1e-9)
    assert np.array_equal(np.argmax(cold, axis=1), np.argmax(warm, axis=1))
    # cosine similarities live in [-1, 1] before temperature scaling
    assert np.all(np.abs(warm) <= 1.0 + 1e-12)


def test_model_loss_rejects_a_label_of_an_unscored_class(tiny):
    cfg, params, table = tiny
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, cfg.input_dim))
    loss = dm.model_loss(params, table, x, np.array([1, 5, 3]), LOGIT)
    assert loss.data.shape == ()
    assert np.isfinite(loss.item())
    with pytest.raises(ValueError, match=r"label out of range \[0, 4\)"):
        dm.model_loss(params, table[:4], x, np.array([1, 4, 3]), LOGIT)


def test_model_loss_gradients_stay_finite(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(6).normal(size=(4, cfg.input_dim))
    for t in params.values():
        t.grad = None
    with ad.Graph() as g:
        loss = dm.model_loss(params, table[:4], x, np.array([0, 1, 2, 3]), LOGIT)
    ad.backward(loss, g)
    for path, t in params.items():
        assert t.grad is not None, path
        assert np.all(np.isfinite(t.grad)), path


def test_predict_returns_the_argmax_class_below_n_classes(tiny):
    cfg, params, table = tiny
    x = np.random.default_rng(7).normal(size=(5, cfg.input_dim))
    pred = dm.predict(params, table[:3], x, LOGIT)
    assert set(np.unique(pred)) <= {0, 1, 2}
    assert np.array_equal(pred, np.argmax(dm.logits(params, table[:3], x, LOGIT).data, axis=1))


def test_predict_from_weights_too_large_to_embed_raises_naming_where(tiny):
    # the embedding's squares overflow, so its rows normalize to zero and every cosine is NaN
    cfg, params, table = tiny
    params["proj.weight"].data *= 1e300
    x = np.random.default_rng(7).normal(size=(5, cfg.input_dim))
    with pytest.raises(FloatingPointError, match="non-finite logits in evaluation session 3 task 1"):
        dm.predict(params, table[:3], x, LOGIT, "evaluation session 3 task 1")


def test_checkpoint_round_trip_bit_exact(tiny, tmp_path):
    cfg, params, table = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table)
    loaded, loaded_table = dm.load_checkpoint(path)
    assert loaded.keys() == params.keys()
    for p in params:
        assert np.array_equal(loaded[p].data, params[p].data), p
    assert set(dm.candidate_paths(loaded)) == set(dm.candidate_paths(params))
    assert np.array_equal(loaded_table, table)


def test_checkpoint_without_table(tiny, tmp_path):
    _, params, _ = tiny
    path = tmp_path / "bare.ckpt"
    dm.save_checkpoint(path, params)
    loaded, table = dm.load_checkpoint(path)
    assert table is None
    assert loaded.keys() == params.keys()


def test_checkpoint_version_rejected(tiny, tmp_path):
    _, params, _ = tiny
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params)
    text = path.read_text()
    path.write_text(text.replace("dosapp-checkpoint v5", "dosapp-checkpoint v9", 1))
    with pytest.raises(ValueError, match="v9"):
        dm.load_checkpoint(path)


def _rewritten(path, edit):
    """The checkpoint at path, rewritten with edit(records) as its records."""
    records = read_records(path, dm.CHECKPOINT_MAGIC, np.float64)
    write_records(path, dm.CHECKPOINT_MAGIC, list(edit(records).items()))


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
    loaded, _ = dm.load_checkpoint(path)
    assert all(np.array_equal(loaded[p].data, t.data) for p, t in params.items())
