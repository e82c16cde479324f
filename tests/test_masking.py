"""Gradient scoring, top-K selection, mask union/re-selection, mask persistence."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dosapp.autodiff as ad
import dosapp.masking as mk
import dosapp.model as dm
from dosapp.data import LabeledDataset
from gradcheck import tiny_encoder_config

LOGIT = 0.07  # temperature


def tiny_model(seed=0):
    cfg = tiny_encoder_config()
    return cfg, dm.init_model(cfg, seed), dm.init_class_table(6, cfg.embed_dim, seed)


def fc1_loss(params, xb, yb):
    # depends only on block0's candidate weight; labels unused
    return ad.mean(ad.matmul(xb, params["block0.mlp.fc1.weight"]))


def make_dataset(x):
    n = len(x)
    return LabeledDataset(x=np.asarray(x, dtype=np.float64),
                          y=np.zeros(n, dtype=np.int64),
                          ids=np.arange(n, dtype=np.int64))


# ------------------------------------------------------------ topk_count

def test_topk_count_matches_exact_rational_ceil():
    for c, frac in ((0.1, Fraction(1, 10)), (0.5, Fraction(1, 2)), (1.0, Fraction(1))):
        for n in range(1, 1001):
            assert mk.topk_count(c, n) == max(1, math.ceil(frac * n)), (c, n)


# ------------------------------------------------------------ scoring

def test_opposite_gradients_cancel_to_zero_score():
    # pins mean-then-abs over abs-then-mean: the per-sample gradient
    # magnitudes are ~1e-1, so any mixing of the readings shows immediately
    cfg, params, _ = tiny_model()
    a = np.random.default_rng(0).normal(size=(1, 4))
    ds = make_dataset(np.vstack([a, -a]))
    scores = mk.score_parameters(params, ds, fc1_loss, batch_size=2)
    batched = scores["block0.mlp.fc1.weight"]
    solo = mk.score_parameters(params, make_dataset(a), fc1_loss, batch_size=1)
    wrong_reading = solo["block0.mlp.fc1.weight"]  # = |g| = |-g|
    assert np.max(batched) <= 1e-15  # FMA in the fused matmul leaves sub-ulp dust
    assert np.max(batched) < 1e-12 * np.min(wrong_reading[wrong_reading > 0])
    # one sample per batch negates bitwise, so the mean cancels exactly
    split = mk.score_parameters(params, ds, fc1_loss, batch_size=1)
    assert np.array_equal(split["block0.mlp.fc1.weight"],
                          np.zeros((4, cfg.mlp_hidden_dim)))


def test_single_sample_score_is_gradient_magnitude():
    cfg, params, _ = tiny_model()
    x = np.random.default_rng(1).normal(size=(1, 4))
    ds = make_dataset(x)
    scores = mk.score_parameters(params, ds, fc1_loss, batch_size=4)
    for t in params.values():
        t.grad = None
    with ad.Graph() as g:
        loss = fc1_loss(params, ds.x, ds.y)
    ad.backward(loss, g)
    manual = np.abs(params["block0.mlp.fc1.weight"].grad)
    assert np.array_equal(scores["block0.mlp.fc1.weight"], manual)


def test_scoring_touches_no_parameters_or_grads():
    cfg, params, table = tiny_model()
    before = {p: t.data.copy() for p, t in params.items()}
    x = np.random.default_rng(2).normal(size=(7, cfg.input_dim))
    ds = LabeledDataset(x=x, y=np.array([0, 1, 2, 3, 0, 1, 2]), ids=np.arange(7))

    def loss_fn(p, xb, yb):
        return dm.model_loss(p, table[:4], xb, yb, LOGIT)

    scores = mk.score_parameters(params, ds, loss_fn, batch_size=3)
    for p, t in params.items():
        assert np.array_equal(t.data, before[p]), p
        assert t.grad is None, p
    assert set(scores) == set(dm.candidate_paths(params))
    assert all(np.all(s >= 0.0) for s in scores.values())
    again = mk.score_parameters(params, ds, loss_fn, batch_size=3)
    for p in scores:
        assert np.array_equal(scores[p], again[p])


def test_scoring_sample_cap_and_errors():
    cfg, params, _ = tiny_model()
    x = np.random.default_rng(3).normal(size=(2, 4))
    ds = make_dataset(x)
    capped = mk.score_parameters(params, ds, fc1_loss, batch_size=8, sample_cap=1)
    solo = mk.score_parameters(params, make_dataset(x[:1]), fc1_loss, batch_size=8)
    assert np.array_equal(capped["block0.mlp.fc1.weight"], solo["block0.mlp.fc1.weight"])


def test_a_non_finite_scoring_gradient_raises_naming_the_batch():
    cfg, params, _ = tiny_model()
    x = np.ones((3, 4))
    x[2, 0] = np.inf  # in the second batch of two
    with pytest.raises(FloatingPointError, match=r"^non-finite loss or gradient in scoring here batch 1$"):
        mk.score_parameters(params, make_dataset(x), fc1_loss, batch_size=2, where="scoring here")


# ------------------------------------------------------------ selection

def score_map(arrays):
    return {k: np.asarray(v, dtype=np.float64) for k, v in arrays.items()}


def test_full_selection_at_c_one():
    sm = score_map({"w": np.random.default_rng(0).uniform(size=(3, 5))})
    mask = mk.select_topk(sm, 1.0)
    assert mask["w"].sum() == 15


def test_single_argmax_at_c_tenth():
    scores = np.zeros(10)
    scores[6] = 3.0
    mask = mk.select_topk(score_map({"w": scores}), 0.1)
    assert np.array_equal(np.flatnonzero(mask["w"]), [6])


def test_tie_break_by_ascending_flat_index():
    mask = mk.select_topk(score_map({"w": np.array([5.0, 5.0, 3.0, 1.0])}), 0.5)
    assert np.array_equal(np.flatnonzero(mask["w"]), [0, 1])


def test_popcount_exact_per_layer():
    rng = np.random.default_rng(4)
    sm = score_map({"a": rng.uniform(size=(4, 6)), "b": rng.uniform(size=37)})
    for c in (0.1, 0.5, 1.0):
        mask = mk.select_topk(sm, c)
        for path, n in (("a", 24), ("b", 37)):
            expected = max(1, math.ceil(Fraction(str(c)) * n))
            assert mask[path].sum() == expected, (c, path)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.floats(0.05, 1.0))
def test_selected_scores_dominate_unselected(seed, n, c):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=n)
    mask = mk.select_topk(score_map({"w": scores}), c)
    sel = mask["w"]
    if sel.all():
        return
    assert scores[sel].min() >= scores[~sel].max() - 1e-15


def test_zero_scores_never_selected_with_enough_positive_competitors():
    scores = np.zeros(20)
    positives = [3, 7, 11, 15]
    scores[positives] = [0.5, 1.0, 2.0, 0.25]
    mask = mk.select_topk(score_map({"w": scores}), 0.2)  # k = 4
    assert np.array_equal(np.sort(np.flatnonzero(mask["w"])), positives)


# ------------------------------------------------------------ union + reselect

def history_from_bits(bit_rows, score_rows=None):
    """(masks, scores): one mask of tensor "w" per row of bits, and the scores it was selected from."""
    masks, scores = [], []
    for t, bits in enumerate(bit_rows):
        bits = np.asarray(bits, dtype=bool)
        masks.append({"w": bits})
        scores.append(score_map({"w": np.asarray(score_rows[t], dtype=np.float64) if score_rows
                                 else bits.astype(float)}))
    return masks, scores


def test_union_is_elementwise_or_and_monotone():
    rng = np.random.default_rng(5)
    rows = [rng.uniform(size=12) < 0.25 for _ in range(5)]
    prev = np.zeros(12, dtype=bool)
    for t in range(1, 6):
        union = mk.union_masks(history_from_bits(rows[:t])[0])["w"]
        assert np.array_equal(union, np.logical_or.reduce(rows[:t]))
        assert np.all(union >= prev)  # bits never clear
        prev = union


def test_union_fixtures():
    a = np.array([True, False, True, False])
    b = np.array([False, True, False, False])
    assert np.array_equal(mk.union_masks(history_from_bits([a])[0])["w"], a)
    assert mk.union_masks(history_from_bits([a, b])[0])["w"].sum() == 3
    assert mk.union_masks(history_from_bits([a, a])[0])["w"].sum() == 2
    with pytest.raises(ValueError):
        mk.union_masks([])
    with pytest.raises(ValueError):
        mk.reselect_topk({"w": a}, [], 0.5)


def test_reselect_identity_for_single_task_history():
    rng = np.random.default_rng(6)
    scores = rng.uniform(size=30)
    sm = score_map({"w": scores})
    mask = mk.select_topk(sm, 0.2)
    res = mk.reselect_topk(mk.union_masks([mask]), [sm], 0.2)
    assert np.array_equal(res["w"], mask["w"])


def test_reselect_prefers_higher_scoring_task():
    t1 = np.zeros(12, dtype=bool)
    t1[[0, 1, 2]] = True
    t2 = np.zeros(12, dtype=bool)
    t2[[6, 7, 8]] = True
    s1 = np.where(t1, 1.0, 0.0)
    s2 = np.where(t2, 5.0, 0.0)
    masks, scores = history_from_bits([t1, t2], [s1, s2])
    res = mk.reselect_topk(mk.union_masks(masks), scores, 0.25)  # k = 3 from pool of 6
    assert np.array_equal(np.flatnonzero(res["w"]), [6, 7, 8])


def test_reselect_uses_per_position_max_over_tasks():
    bits = np.ones(4, dtype=bool)
    masks, scores = history_from_bits([bits, bits], [[4.0, 1.0, 0.0, 0.0], [0.0, 0.0, 3.0, 1.0]])
    res = mk.reselect_topk(mk.union_masks(masks), scores, 0.5)  # k=2; maxes: 4,1,3,1
    assert np.array_equal(np.flatnonzero(res["w"]), [0, 2])


def test_reselect_at_c_one_equals_raw_union():
    rng = np.random.default_rng(7)
    rows = [rng.uniform(size=10) < 0.3 for _ in range(3)]
    masks, scores = history_from_bits(rows)
    union = mk.union_masks(masks)
    with pytest.warns(UserWarning):  # k = layer size exceeds the union pool
        res = mk.reselect_topk(union, scores, 1.0)
    assert np.array_equal(res["w"], union["w"])


_SPARSITY = st.floats(0.0, 1.0, exclude_min=True)


def random_score_map(rng, rows, cols):
    # small integer scores, so ties are common
    return {"a": rng.integers(0, 4, size=(rows, cols)).astype(float),
            "b": rng.integers(0, 4, size=cols).astype(float)}


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8), _SPARSITY)
def test_select_equals_reselect_over_a_full_pool(seed, rows, cols, c):
    sm = random_score_map(np.random.default_rng(seed), rows, cols)
    direct = mk.select_topk(sm, c)
    full = {path: np.ones(arr.shape, dtype=bool) for path, arr in sm.items()}
    pooled = mk.reselect_topk(full, [sm], c)
    for path, bits in direct.items():
        assert np.array_equal(pooled[path], bits), path


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8),
       st.lists(_SPARSITY, min_size=1, max_size=4), _SPARSITY)
def test_reselection_stays_inside_the_union(seed, rows, cols, task_cs, c):
    rng = np.random.default_rng(seed)
    score_maps = [random_score_map(rng, rows, cols) for _ in task_cs]
    union = mk.union_masks([mk.select_topk(sm, task_c) for sm, task_c in zip(score_maps, task_cs)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a small pool is kept whole
        res = mk.reselect_topk(union, score_maps, c)
    for path, pool in union.items():
        assert not (res[path] & ~pool).any(), path


def test_reselect_small_pool_keeps_pool_and_warns():
    t1 = np.zeros(24, dtype=bool)
    t1[[0, 5, 9]] = True  # per-task k at c=0.125 is 3
    masks, scores = history_from_bits([t1])
    union = mk.union_masks(masks)
    with pytest.warns(UserWarning, match="pool"):
        res = mk.reselect_topk(union, scores, 0.5)  # wants 12, pool has 3
    assert np.array_equal(res["w"], t1)


# ------------------------------------------------------------ persistence

def test_mask_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    mask = {"a": rng.uniform(size=9) < 0.4, "b": rng.uniform(size=(2, 3)) < 0.5}
    path = tmp_path / "m.mask"
    mk.save_mask(path, mask)
    loaded = mk.load_mask(path)
    assert list(loaded) == list(mask)
    for k in mask:
        assert loaded[k].dtype == bool and np.array_equal(loaded[k], mask[k])


def test_mask_header_rejected(tmp_path):
    path = tmp_path / "m.mask"
    mk.save_mask(path, {"w": np.array([True])})
    path.write_text(path.read_text().replace("dosapp-mask v5", "dosapp-mask v9", 1))
    with pytest.raises(ValueError):
        mk.load_mask(path)
