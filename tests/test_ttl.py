"""Test-time adaptation: routing oracle, single-pass discipline, mask gating."""

import numpy as np
import pytest

import dosapp.ema as em
import dosapp.model as dm
import dosapp.ttl as tt
from dosapp.autodiff import Optimizer
from dosapp.config import RunConfig
from dosapp.data import UnlabeledStream
from conftest import ids_seen
from dosapp.masking import Mask
from gradcheck import tiny_encoder_config


def oracle_route(t_row, s_row, ids):
    """Independent recomputation: scan both rows, larger max wins, tie -> teacher."""
    best_t, best_s = -np.inf, -np.inf
    arg_t = arg_s = 0
    for j, _ in enumerate(ids):
        if t_row[j] > best_t:
            best_t, arg_t = t_row[j], j
        if s_row[j] > best_s:
            best_s, arg_s = s_row[j], j
    if best_t >= best_s:
        return ids[arg_t], "teacher", best_t, best_s
    return ids[arg_s], "student", best_t, best_s


def ttl_fixture(seed=0, n=24):
    cfg = tiny_encoder_config()
    student = dm.init_model(cfg, seed)
    teacher = student.clone()
    table = dm.init_class_table(6, cfg.embed_dim, seed)
    rng = np.random.default_rng(seed + 100)
    stream = UnlabeledStream(x=rng.normal(size=(n, cfg.input_dim)),
                             ids=np.arange(n, dtype=np.int64))
    return cfg, student, teacher, table, stream


def session(student, teacher, mask, stream, table, ema_mask=None, classes=(0, 1, 2, 3),
            batch_size=8, **kw):
    """ttl_session at the fixture's settings; ema_mask picks the dual-momentum lane."""
    pq = em.compute_pq(ema_mask, 0.9, 0.9999)  # the default adaptation and high momenta
    return tt.ttl_session(student, teacher, mask, pq, stream, table, classes, 0.07,
                          Optimizer(RunConfig(learning_rate=0.05)), batch_size, **kw)


def full_candidate_mask(params):
    return Mask(bits={p: np.ones(params.entries[p].shape, dtype=bool)
                      for p in params.candidate_paths()},
                sparsity=1.0, origin="per_task")


def zero_candidate_mask(params):
    return Mask(bits={p: np.zeros(params.entries[p].shape, dtype=bool)
                      for p in params.candidate_paths()},
                sparsity=0.0, origin="per_task")


# ------------------------------------------------------------ routing

def test_routing_matches_brute_force_oracle():
    rng = np.random.default_rng(42)
    for trial in range(10_000):
        c = int(rng.integers(1, 9))
        ids = tuple(sorted(rng.choice(50, size=c, replace=False).tolist()))
        t_row = rng.normal(scale=3.0, size=c)
        s_row = rng.normal(scale=3.0, size=c)
        if trial % 10 == 0:
            s_row = t_row.copy()  # exact tie on the max
        labels, from_teacher, t_maxes, s_maxes = tt.route_pseudo_label(t_row[None], s_row[None], ids)
        label, source, t_max, s_max = oracle_route(t_row, s_row, ids)
        assert (labels[0], from_teacher[0]) == (label, source == "teacher"), trial
        assert t_maxes[0] == t_max and s_maxes[0] == s_max


def test_batch_routing_matches_oracle_row_by_row():
    rng = np.random.default_rng(11)
    ids = (3, 8, 14, 21, 40)
    t_log = rng.normal(scale=3.0, size=(64, len(ids)))
    s_log = rng.normal(scale=3.0, size=(64, len(ids)))
    s_log[::4] = t_log[::4]  # exact ties on every fourth row
    labels, from_teacher, t_maxes, s_maxes = tt.route_pseudo_label(t_log, s_log, ids)
    assert labels.shape == from_teacher.shape == t_maxes.shape == s_maxes.shape == (64,)
    for i in range(64):
        label, source, t_max, s_max = oracle_route(t_log[i], s_log[i], ids)
        assert (labels[i], from_teacher[i]) == (label, source == "teacher"), i
        assert t_maxes[i] == t_max and s_maxes[i] == s_max, i


def test_routing_without_teacher_labels_from_the_student():
    s_log = np.array([[0.1, 0.9, 0.0], [2.0, -1.0, 1.0]])
    labels, from_teacher, t_maxes, s_maxes = tt.route_pseudo_label(None, s_log, (5, 6, 7))
    assert labels.tolist() == [6, 5]
    assert not from_teacher.any()
    assert np.isnan(t_maxes).all() and s_maxes.tolist() == [0.9, 2.0]


def test_exact_tie_goes_to_teacher_even_when_argmaxes_differ():
    # same max value at different positions: teacher's position wins
    labels, from_teacher, _, _ = tt.route_pseudo_label([[1.0, 7.0, 0.0]], [[7.0, 1.0, 0.0]],
                                                       (10, 11, 12))
    assert from_teacher[0] and labels[0] == 11


def test_routing_is_confidence_not_agreement():
    t_row = np.array([0.2, 0.1, 0.0])
    s_row = np.array([0.0, 0.0, 0.3])
    labels, from_teacher, _, _ = tt.route_pseudo_label(t_row[None], s_row[None], (0, 1, 2))
    assert not from_teacher[0] and labels[0] == 2
    # scaling the teacher up flips the route but never the teacher's own argmax
    labels, from_teacher, _, _ = tt.route_pseudo_label(t_row[None] * 10.0, s_row[None], (0, 1, 2))
    assert from_teacher[0] and labels[0] == 0


def test_routing_validation():
    with pytest.raises(ValueError, match="class-set mismatch"):
        tt.route_pseudo_label([[1.0, 2.0]], [[1.0, 2.0]], (0, 1, 2))
    with pytest.raises(ValueError, match="class-set mismatch"):
        tt.route_pseudo_label([[1.0, 2.0, 3.0]], [[1.0, 2.0]], (0, 1, 2))
    with pytest.raises(ValueError, match="empty class set"):
        tt.route_pseudo_label(np.zeros((1, 0)), np.zeros((1, 0)), ())


def test_stream_config_validation():
    _, student, teacher, table, stream = ttl_fixture()
    with pytest.raises(ValueError, match="empty class"):
        session(student, teacher, None, stream, table, classes=())


# ------------------------------------------------------------ session mechanics

def test_stream_is_consumed_exactly_once():
    _, student, teacher, table, stream = ttl_fixture()
    mask = full_candidate_mask(student)
    session(student, teacher, mask, stream, table)
    with pytest.raises(RuntimeError, match="single-pass"):
        stream.take()
    with pytest.raises(RuntimeError, match="single-pass"):
        session(student, teacher, mask, stream, table)


def test_empty_stream_changes_nothing():
    cfg, student, teacher, table, _ = ttl_fixture()
    empty = UnlabeledStream(x=np.zeros((0, cfg.input_dim)), ids=np.zeros(0, dtype=np.int64))
    before = {k: t.data.copy() for k, t in student.entries.items()}
    rows = session(student, teacher, None, empty, table)
    assert rows == []
    for k in before:
        assert np.array_equal(student.entries[k].data, before[k])


def test_stream_carries_no_labels():
    _, _, _, _, stream = ttl_fixture()
    assert not hasattr(stream, "y")
    x, ids = stream.take()
    assert x.dtype == np.float64 and ids.dtype == np.int64  # features and ids only


def test_report_counts_sum_to_stream_length():
    _, student, teacher, table, stream = ttl_fixture(n=23)
    mask = full_candidate_mask(student)
    rows = session(student, teacher, mask, stream, table, ema_mask=mask)
    assert sum(r["size"] for r in rows) == 23
    for row in rows:
        assert row["type"] == "ttl_batch"
        assert row["teacher_fraction"] + row["student_fraction"] == pytest.approx(1.0)


def test_self_label_mode_skips_teacher_entirely():
    _, student, _, table, stream = ttl_fixture()
    mask = full_candidate_mask(student)
    rows = tt.ttl_session(student, None, mask, None, stream, table, (0, 1, 2, 3), 0.07,
                          Optimizer(RunConfig(learning_rate=0.05)), 8)
    assert sum(r["size"] for r in rows) > 0
    for row in rows:
        assert row["teacher_fraction"] == 0.0
        assert row["mean_max_logit_teacher"] is None
        assert row["student_fraction"] == 1.0


def test_adaptation_moves_only_masked_coordinates():
    _, student, teacher, table, stream = ttl_fixture()
    paths = student.candidate_paths()
    rng = np.random.default_rng(5)
    bits = {p: rng.uniform(size=student.entries[p].shape) < 0.4 for p in paths}
    mask = Mask(bits=bits, sparsity=0.4, origin="union_reselected")
    before = {k: t.data.copy() for k, t in student.entries.items()}
    session(student, teacher, mask, stream, table, ema_mask=mask)
    moved_somewhere = False
    for k, t in student.entries.items():
        if k in bits:
            frozen = ~bits[k]
            assert np.array_equal(t.data[frozen], before[k][frozen]), k
            moved_somewhere |= bool(np.any(t.data[bits[k]] != before[k][bits[k]]))
        else:
            assert np.array_equal(t.data, before[k]), k  # non-candidates never stepped
    assert moved_somewhere


def test_zero_mask_freezes_student_and_teacher_barely_drifts():
    # nothing is stepped, so the student is bit-exact; the teacher re-rounds
    # p*t + q*t once per batch, at most one ulp per step
    _, student, teacher, table, stream = ttl_fixture()
    mask = zero_candidate_mask(student)
    s_before = {k: t.data.copy() for k, t in student.entries.items()}
    t_before = {k: t.data.copy() for k, t in teacher.entries.items()}
    session(student, teacher, mask, stream, table, ema_mask=mask)
    for k in s_before:
        assert np.array_equal(student.entries[k].data, s_before[k]), k
        assert np.allclose(teacher.entries[k].data, t_before[k], rtol=1e-12, atol=1e-15), k


def test_audit_sees_every_stream_sample_once():
    from dosapp.harness import RunAudit

    _, student, teacher, table, stream = ttl_fixture(n=20)
    audit = RunAudit()
    mask = full_candidate_mask(student)
    session(student, teacher, mask, stream, table, ema_mask=mask, audit=audit, session=3)
    seen = ids_seen(audit, phase="ttl", session=3)
    assert sorted(seen) == list(range(20))
    counts = {}
    for _, _, ids in audit.events:
        for i in ids:
            counts[i] = counts.get(i, 0) + 1
    assert set(counts.values()) == {1}


def test_non_finite_loss_stops_adaptation_before_the_step():
    # batch 1 carries a NaN feature: the session must stop there, leaving
    # student and teacher exactly as batch 0 left them
    cfg, student, teacher, table, stream = ttl_fixture(n=16)
    _, ref_student, ref_teacher, _, _ = ttl_fixture(n=16)
    x, ids = stream.x.copy(), stream.ids.copy()
    mask = full_candidate_mask(student)
    session(ref_student, ref_teacher, mask, UnlabeledStream(x=x[:8], ids=ids[:8]), table,
            ema_mask=mask)
    x[10, 3] = np.nan
    with pytest.raises(FloatingPointError, match=r"ttl session 2 batch 1"):
        session(student, teacher, mask, UnlabeledStream(x=x, ids=ids), table,
                ema_mask=mask, session=2)
    for k in student.entries:
        assert np.array_equal(student.entries[k].data, ref_student.entries[k].data), k
        assert np.array_equal(teacher.entries[k].data, ref_teacher.entries[k].data), k
