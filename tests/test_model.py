"""Encoder, class table, logits, and checkpoint round-trips."""

import numpy as np
import pytest

import dosapp.autodiff as ad
import dosapp.model as dm
from gradcheck import tiny_encoder_config

LOGIT = 0.07  # temperature


@pytest.fixture
def tiny():
    cfg = tiny_encoder_config()
    params = dm.init_model(cfg, seed=0)
    table = dm.init_class_table(6, cfg.embed_dim, seed=0)
    return cfg, params, table


def test_encoder_config_validation():
    with pytest.raises(ValueError, match="token_count"):
        dm.EncoderConfig(input_dim=8, token_count=3, token_dim=4, block_count=1,
                         mlp_hidden_dim=4, embed_dim=4)
    with pytest.raises(ValueError):
        dm.EncoderConfig(input_dim=8, token_count=2, token_dim=4, block_count=0,
                         mlp_hidden_dim=4, embed_dim=4)


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
    table.active_classes.update({0, 1, 2})
    path = tmp_path / "model.ckpt"
    dm.save_checkpoint(path, params, table, meta={"note": "fixture"})
    loaded, loaded_table, meta = dm.load_checkpoint(path)
    assert loaded.entries.keys() == params.entries.keys()
    for p in params.entries:
        assert np.array_equal(loaded.entries[p].data, params.entries[p].data), p
    assert set(loaded.candidate_paths()) == set(params.candidate_paths())
    assert np.array_equal(loaded_table.vectors, table.vectors)
    assert loaded_table.active_classes == {0, 1, 2}
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
    path.write_text(text.replace("dosapp-checkpoint v3", "dosapp-checkpoint v9", 1))
    with pytest.raises(ValueError, match="v9"):
        dm.load_checkpoint(path)
