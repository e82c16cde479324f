"""Dual-momentum teacher smoothing: algebra, reductions, closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dosapp.ema as em
import dosapp.harness as hz
import dosapp.model as dm
from dosapp.config import RunConfig
from dosapp.harness import run_experiment
from dosapp.masking import Mask
from gradcheck import tiny_encoder_config


def make_mask(paths_bits):
    return Mask(bits={k: np.asarray(v, dtype=bool) for k, v in paths_bits.items()},
                sparsity=0.5, origin="per_task")


def tiny_pair(seed=0):
    cfg = tiny_encoder_config()
    student = dm.init_model(cfg, seed)
    teacher = student.clone()
    return cfg, student, teacher


def tiny_run_config(**kw):
    """One short task; a run takes a fraction of a second."""
    base = dict(total_classes=4, tasks=1, classes_per_task=4, samples_train=8, samples_ttl=12,
                samples_eval=6, input_dim=16, token_count=2, token_dim=8, block_count=1,
                mlp_hidden_dim=12, embed_dim=8, epochs=1, batch_size=16, ttl_batch_size=16)
    base.update(kw)
    return RunConfig(**base)


# ------------------------------------------------------------ config

def test_momentum_ordering_violation_warns_not_errors():
    with pytest.warns(UserWarning, match=r"ordering \[ema\] gamma < \[ema\] lambda < \[ema\] delta"):
        run_experiment(tiny_run_config(delta=0.9999, gamma=0.95, lam=0.9), seed=0)
    with pytest.warns(UserWarning, match="ordering"):
        run_experiment(tiny_run_config(delta=0.9999, gamma=0.9999, lam=0.9999), seed=0)


def test_valid_config_is_silent_and_phase_picks_low_momentum(monkeypatch, recwarn):
    calls = []

    def spy(mask, low, delta):
        calls.append((low, delta))
        return em.compute_pq(mask, low, delta)

    monkeypatch.setattr(hz, "compute_pq", spy)
    run_experiment(tiny_run_config(delta=0.9999, gamma=0.8, lam=0.9), seed=0)
    assert not [w for w in recwarn if "ordering" in str(w.message)]
    assert calls == [(0.8, 0.9999), (0.9, 0.9999)]  # supervised session, then adaptation


def test_momentum_range_validation():
    mask = make_mask({"w": [True, False]})
    edge = em.compute_pq(mask, 1.0, 1.0)
    assert np.array_equal(edge.p["w"], [1.0, 1.0]) and edge.q_default == 0.0


# ------------------------------------------------------------ compute_pq

def test_pq_partition_of_unity_over_random_draws():
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(1000):
        delta, gamma, lam = sorted(rng.uniform(0.01, 1.0, size=3))[::-1]
        phase = "supervised" if rng.uniform() < 0.5 else "ttl"
        m = rng.integers(0, 2, size=17).astype(bool)
        sv = em.compute_pq(make_mask({"w": m}), gamma if phase == "supervised" else lam, delta)
        worst = max(worst, float(np.max(np.abs(sv.p["w"] + sv.q["w"] - 1.0))))
        worst = max(worst, abs(sv.p_default + sv.q_default - 1.0))
    assert worst <= 1e-15


def test_pq_lanes_match_momenta():
    sv = em.compute_pq(make_mask({"w": [True, False]}), 0.8, 0.9999)
    assert sv.p["w"][0] == pytest.approx(0.8, abs=1e-15)   # selected: low momentum
    assert sv.p["w"][1] == 0.9999                          # frozen lane is exact
    assert sv.q["w"][1] == 1.0 - 0.9999
    ttl = em.compute_pq(make_mask({"w": [True]}), 0.9, 0.9999)
    assert ttl.p["w"][0] == pytest.approx(0.9, abs=1e-15)


def test_pq_without_mask_is_single_high_momentum():
    sv = em.compute_pq(None, 0.8, 0.9999)
    assert sv.p == {} and sv.q == {}
    assert sv.p_default == 0.9999
    assert sv.q_default == 1.0 - 0.9999


def test_gamma_equal_delta_collapses_to_single_momentum():
    sv = em.compute_pq(make_mask({"w": [True, False, True]}), 0.97, 0.97)
    assert np.array_equal(sv.p["w"], np.full(3, 0.97))
    assert np.array_equal(sv.q["w"], np.full(3, 1.0 - 0.97))


# ------------------------------------------------------------ ema_update

def test_update_fixture_and_fixed_points():
    _, student, teacher = tiny_pair()
    path = "proj.weight"
    teacher.entries[path].data[...] = 1.0
    student.entries[path].data[...] = 0.0
    shape = teacher.entries[path].shape
    sv = em.SmoothingVectors(p={path: np.full(shape, 0.8)}, q={path: np.full(shape, 0.2)},
                             p_default=0.8, q_default=0.2)
    em.ema_update(teacher, student, sv)
    assert np.allclose(teacher.entries[path].data, 0.8, atol=1e-15)

    # p=1, q=0 leaves the teacher alone regardless of the student
    ones = em.SmoothingVectors(p={}, q={}, p_default=1.0, q_default=0.0)
    before = {k: t.data.copy() for k, t in teacher.entries.items()}
    em.ema_update(teacher, student, ones)
    for k in before:
        assert np.array_equal(teacher.entries[k].data, before[k])


def test_identical_pair_is_near_fixed_point():
    # p*t + q*t re-rounds, so equality is to the ulp, not bitwise
    _, student, teacher = tiny_pair()
    sv = em.compute_pq(None, 0.8, 0.9999)
    before = {k: t.data.copy() for k, t in teacher.entries.items()}
    for _ in range(10):
        em.ema_update(teacher, student, sv)
    for k in before:
        assert np.allclose(teacher.entries[k].data, before[k], rtol=1e-12, atol=1e-15)


def test_alignment_errors():
    _, student, teacher = tiny_pair()
    sv = em.compute_pq(None, 0.8, 0.9999)
    del student.entries["proj.weight"]
    with pytest.raises(ValueError, match="paths"):
        em.ema_update(teacher, student, sv)


def test_single_momentum_reduction_matches_plain_ema_oracle():
    cfg, student, teacher = tiny_pair()
    delta = 0.97
    bits = np.random.default_rng(1).uniform(size=(cfg.token_dim, cfg.mlp_hidden_dim)) < 0.3
    sv = em.compute_pq(make_mask({"block0.mlp.fc1.weight": bits}), delta, delta)

    oracle = {k: t.data.copy() for k, t in teacher.entries.items()}
    rng = np.random.default_rng(2)
    for _ in range(100):
        for k, t in student.entries.items():
            t.data += rng.normal(scale=0.01, size=t.data.shape)
        em.ema_update(teacher, student, sv)
        for k in oracle:
            oracle[k] = delta * oracle[k] + (1.0 - delta) * student.entries[k].data
            assert np.max(np.abs(teacher.entries[k].data - oracle[k])) <= 1e-12, k


def test_non_candidate_closed_form():
    _, student, teacher = tiny_pair()
    path = "block1.mlp.fc2.weight"
    v = teacher.entries[path].data.copy()
    student.entries[path].data[...] = v + 0.5  # constant student from here on
    s = student.entries[path].data.copy()
    delta = 0.9999
    sv = em.compute_pq(None, 0.8, delta)
    checkpoints = {1, 10, 100, 1000}
    for n in range(1, 1001):
        em.ema_update(teacher, student, sv)
        if n in checkpoints:
            expected = delta**n * v + (1.0 - delta**n) * s
            assert np.max(np.abs(teacher.entries[path].data - expected)) <= 1e-9, n


def test_ttl_phase_moves_teacher_more_slowly():
    cfg, student, _ = tiny_pair()
    path = "block0.mlp.fc1.weight"
    bits = np.ones(student.entries[path].shape, dtype=bool)
    mask = make_mask({path: bits})
    student.entries[path].data += 1.0  # equal displacement for both phases

    moves = {}
    for phase, low in (("supervised", 0.8), ("ttl", 0.9)):
        teacher = student.clone()
        teacher.entries[path].data -= 1.0
        before = teacher.entries[path].data.copy()
        em.ema_update(teacher, student, em.compute_pq(mask, low, 0.9999))
        moves[phase] = np.abs(teacher.entries[path].data - before)
    assert np.all(moves["ttl"] < moves["supervised"])


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_teacher_stays_in_convex_hull(seed):
    rng = np.random.default_rng(seed)
    delta, gamma, lam = sorted(rng.uniform(0.01, 1.0, size=3))[::-1]
    _, student, teacher = tiny_pair()
    for t in student.entries.values():
        t.data += rng.normal(size=t.data.shape)
    bits = rng.uniform(size=teacher.entries["block0.mlp.fc1.weight"].shape) < 0.5
    sv = em.compute_pq(make_mask({"block0.mlp.fc1.weight": bits}), gamma, delta)
    before = {k: t.data.copy() for k, t in teacher.entries.items()}
    em.ema_update(teacher, student, sv)
    for k, t in teacher.entries.items():
        lo = np.minimum(before[k], student.entries[k].data) - 1e-15
        hi = np.maximum(before[k], student.entries[k].data) + 1e-15
        assert np.all(t.data >= lo) and np.all(t.data <= hi), k


# ------------------------------------------------------------ cloning

def test_clone_is_independent_and_idempotent(tmp_path):
    _, student, teacher = tiny_pair()
    snapshot = {k: t.data.copy() for k, t in student.entries.items()}
    for t in student.entries.values():
        t.data += 1.0
    for k in snapshot:
        assert np.array_equal(teacher.entries[k].data, snapshot[k])

    second = teacher.clone()
    for k in snapshot:
        assert np.array_equal(second.entries[k].data, teacher.entries[k].data)

    path = tmp_path / "teacher.ckpt"
    dm.save_checkpoint(path, teacher)
    loaded, _, _ = dm.load_checkpoint(path)
    for k in teacher.entries:
        assert np.array_equal(loaded.entries[k].data, teacher.entries[k].data)
