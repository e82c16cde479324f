"""Experiment harness: metrics, evaluation, variant behavior, end-to-end runs."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import dosapp.harness as hz
import dosapp.masking as mk
import dosapp.model as dm
from conftest import copy_params, ids_seen
from dosapp.config import VARIANTS, RunConfig
from dosapp.data import generate_tasks
from dosapp.reporting import persist_run


def tiny_cfg(**kw):
    """Small but non-degenerate schedule; a run takes well under a second."""
    base = dict(total_classes=8, tasks=2, classes_per_task=4, samples_train=8,
                samples_ttl=12, samples_eval=6, input_dim=16, token_count=2,
                token_dim=8, block_count=2, mlp_hidden_dim=12, embed_dim=8,
                epochs=3, batch_size=16, ttl_batch_size=16, learning_rate=0.05,
                seeds=(0,))
    base.update(kw)
    return RunConfig(**base)


def metrics_oracle(r):
    """Loop recomputation of every metric, no vectorization shared with the library."""
    t = len(r)
    last = r[t - 1]
    out = {
        "avg_acc": sum(last) / t,
        "fta": last[0],
        "cta": sum(r[i][i] for i in range(t)) / t,
        "final_task_acc": r[t - 1][t - 1],
    }
    if t >= 2:
        drops = [r[i][i] - last[i] for i in range(t - 1)]
        out["forgetting"] = sum(drops) / len(drops)
    else:
        out["forgetting"] = None
    return out


# ------------------------------------------------------------ metrics

def test_metric_fixture_two_tasks():
    r = np.array([[0.8, np.nan], [0.6, 0.9]])
    m = hz.compute_metrics(r)
    assert m["avg_acc"] == pytest.approx(0.75, abs=1e-12)
    assert m["forgetting"] == pytest.approx(0.2, abs=1e-12)
    assert m["fta"] == pytest.approx(0.6, abs=1e-12)
    assert m["cta"] == pytest.approx(0.85, abs=1e-12)
    assert m["final_task_acc"] == pytest.approx(0.9, abs=1e-12)


def test_identical_rows_mean_zero_forgetting():
    row = [0.7, 0.5, 0.9]
    r = np.array([row, row, row])
    assert hz.compute_metrics(r)["forgetting"] == 0.0


def test_backward_transfer_shows_as_negative_forgetting():
    r = np.array([[0.5, np.nan], [0.8, 0.9]])
    assert hz.compute_metrics(r)["forgetting"] == pytest.approx(-0.3, abs=1e-12)


def test_single_task_forgetting_is_undefined():
    m = hz.compute_metrics(np.array([[0.6]]))
    assert m["forgetting"] is None
    assert m["avg_acc"] == 0.6 and m["cta"] == 0.6


def test_metrics_match_loop_oracle_on_random_matrices():
    rng = np.random.default_rng(0)
    for _ in range(25):
        t = int(rng.integers(2, 7))
        r = np.full((t, t), np.nan)
        for i in range(t):
            r[i, : i + 1] = rng.uniform(size=i + 1)
        got = hz.compute_metrics(r)
        want = metrics_oracle([list(row) for row in r])
        for k in ("avg_acc", "forgetting", "fta", "cta", "final_task_acc"):
            assert got[k] == pytest.approx(want[k], abs=1e-15), k


def test_metrics_reject_non_square():
    with pytest.raises(ValueError, match="square"):
        hz.compute_metrics(np.zeros((2, 3)))


# ------------------------------------------------------------ evaluation

def test_cloned_teacher_evaluates_identically():
    cfg = tiny_cfg()
    tasks = generate_tasks(cfg, 0)
    student = dm.init_model(cfg, 0)
    teacher = copy_params(student)
    table = dm.init_class_table(8, 8, 0)
    lc = cfg.temperature
    rs = hz.evaluate(student, table, tasks, 1, lc)
    rt = hz.evaluate(teacher, table, tasks, 1, lc)
    assert np.array_equal(rs, rt)
    assert not np.any(np.isnan(rs))


def test_the_teacher_a_run_builds_shares_no_array_with_the_student(monkeypatch):
    seen = []
    session = hz.run_supervised_session

    def first_look(student, teacher, *args, **kwargs):
        if not seen:  # the pair as run_experiment built it, before any step
            seen.append((student, teacher))
            assert list(teacher) == list(student)
            assert all(np.array_equal(t.data, student[p].data) for p, t in teacher.items())
        return session(student, teacher, *args, **kwargs)

    monkeypatch.setattr(hz, "run_supervised_session", first_look)
    res = hz.run_experiment(tiny_cfg(variant="dosapp"), seed=0)
    assert len(seen) == 1 and seen[0][0] is res.student and seen[0][1] is res.teacher
    for path, t in res.teacher.items():
        assert not np.shares_memory(t.data, res.student[path].data), path
        assert t.grad is None, path


def test_evaluate_leaves_future_tasks_nan():
    tasks = generate_tasks(tiny_cfg(), 0)
    student = dm.init_model(tiny_cfg(), 0)
    table = dm.init_class_table(8, 8, 0)
    row = hz.evaluate(student, table[:4], tasks, 0, 0.07)
    assert not np.isnan(row[0]) and np.isnan(row[1])


# ------------------------------------------------------------ variants

def test_finetune_variant_skips_adaptation_entirely():
    res = hz.run_experiment(tiny_cfg(variant="finetune_no_ttl"), seed=0)
    assert res.teacher is None and res.final_ttl_mask is None
    assert res.masks == [] and res.mask_scores == []
    assert np.array_equal(res.r_post_sup, res.r_post_ttl, equal_nan=True)
    assert not any(r["type"] == "ttl_batch" for r in res.metrics_rows)


def test_self_label_variant_has_no_teacher_but_adapts():
    res = hz.run_experiment(tiny_cfg(variant="self_label"), seed=0)
    assert res.teacher is None
    ttl_rows = [r for r in res.metrics_rows if r["type"] == "ttl_batch"]
    assert ttl_rows and all(r["student_fraction"] == 1.0 for r in ttl_rows)


def _same_mask(a, b):
    return a.keys() == b.keys() and all(np.array_equal(a[p], b[p]) for p in a)


def test_mask_origins_differ_between_sparse_and_union_variants():
    # plus_sparse adapts under the last session's own mask; dosapp re-selects within the union of all
    sparse = hz.run_experiment(tiny_cfg(variant="plus_sparse"), seed=0)
    full = hz.run_experiment(tiny_cfg(variant="dosapp"), seed=0)
    assert len(sparse.masks) == len(sparse.mask_scores) == len(full.masks) == len(full.mask_scores) == 2
    assert _same_mask(sparse.final_ttl_mask, sparse.masks[-1])
    assert _same_mask(full.final_ttl_mask,
                      mk.reselect_topk(mk.union_masks(full.masks), full.mask_scores, tiny_cfg().sparsity_c))
    assert not _same_mask(full.final_ttl_mask, full.masks[-1])


def test_weights_that_overflow_after_a_run_s_last_step_stop_it_at_evaluation():
    # AdamW's decoupled decay at learning_rate x weight_decay >> 1 multiplies the weights by about -2e4 a
    # step; after session 1's last step they are too large to embed, and evaluation used to score NaN logits
    cfg = RunConfig(variant="self_label", total_classes=2, tasks=2, classes_per_task=1, samples_train=1,
                    samples_ttl=1, samples_eval=1, input_dim=2, cluster_separation=0.0, token_count=1,
                    token_dim=2, block_count=1, mlp_hidden_dim=1, embed_dim=1, use_attention=False,
                    temperature=1.0, learning_rate=2.0, beta1=0.0, beta2=0.0, epsilon=1.0,
                    weight_decay=10111.0, epochs=3, batch_size=1, ttl_batch_size=1)
    with pytest.raises(FloatingPointError, match="non-finite logits in evaluation session 1 task 0"):
        hz.run_experiment(cfg, seed=0)


def test_teacher_student_only_trains_unmasked():
    res = hz.run_experiment(tiny_cfg(variant="teacher_student_only"), seed=0)
    assert res.teacher is not None
    assert res.final_ttl_mask is None and res.masks == [] and res.mask_scores == []


def test_non_candidate_parameters_never_move_in_masked_run():
    cfg = tiny_cfg(variant="dosapp")
    res = hz.run_experiment(cfg, seed=0)
    fresh = dm.init_model(cfg, 0)
    candidates = set(dm.candidate_paths(res.student))
    moved = []
    for path, entry in res.student.items():
        if path in candidates:
            continue
        assert np.array_equal(entry.data, fresh[path].data), path
    for path in candidates:  # sanity: training actually happened somewhere
        if not np.array_equal(res.student[path].data, fresh[path].data):
            moved.append(path)
    assert moved


def test_run_is_deterministic_per_seed():
    a = hz.run_experiment(tiny_cfg(), seed=0)
    b = hz.run_experiment(tiny_cfg(), seed=0)
    c = hz.run_experiment(tiny_cfg(), seed=1)
    assert np.array_equal(a.r_post_ttl, b.r_post_ttl, equal_nan=True)
    assert a.summary == b.summary
    for k in a.student:
        assert np.array_equal(a.student[k].data, b.student[k].data)
    assert not np.array_equal(a.r_post_ttl, c.r_post_ttl, equal_nan=True)


def test_zero_capacity_buffer_matches_no_buffer():
    a = hz.run_experiment(tiny_cfg(variant="dosapp", buffer_capacity=0), seed=0)
    b = hz.run_experiment(tiny_cfg(variant="dosapp"), seed=0)
    assert a.summary == b.summary
    for k in a.student:
        assert np.array_equal(a.student[k].data, b.student[k].data)


def test_replay_variant_sees_old_instances_again():
    audit = hz.RunAudit()
    hz.run_experiment(tiny_cfg(variant="dosapp_er", buffer_capacity=50), seed=0, audit=audit)
    task0_train = set(ids_seen(audit, phase="supervised", session=0))
    task1_train = set(ids_seen(audit, phase="supervised", session=1))
    assert task0_train & task1_train  # replayed ids reappear in session 1


def test_supervised_session_learns_the_task():
    # a single session should lift first-task accuracy far above chance
    gains = []
    for seed in range(5):
        res = hz.run_experiment(tiny_cfg(variant="finetune_no_ttl", tasks=1,
                                         total_classes=4, epochs=8), seed=seed)
        gains.append(res.summary["avg_acc"])
    assert float(np.median(gains)) >= 0.45  # chance is 0.25


def test_noiseless_single_task_is_solved_exactly():
    res = hz.run_experiment(tiny_cfg(variant="finetune_no_ttl", tasks=1, total_classes=4,
                                     noise_sigma=0.0, epochs=8), seed=0)
    assert res.r_post_ttl[0, 0] == 1.0


def test_eval_rows_present_at_both_checkpoints():
    res = hz.run_experiment(tiny_cfg(variant="dosapp"), seed=0)
    evals = [r for r in res.metrics_rows if r["type"] == "eval"]
    got = {(r["session"], r["checkpoint"]) for r in evals}
    assert got == {(0, "post_supervised"), (0, "post_ttl"),
                   (1, "post_supervised"), (1, "post_ttl")}
    summaries = [r for r in res.metrics_rows if r["type"] == "summary"]
    assert len(summaries) == 1
    assert summaries[0]["variant"] == "dosapp"


def test_restricting_to_fewer_classes_never_hurts_accuracy():
    # scoring against only the first task's classes 0..3 is an easier problem
    tasks = generate_tasks(tiny_cfg(), 3)
    params = dm.init_model(tiny_cfg(), 3)
    table = dm.init_class_table(8, 8, 3)
    lc = 0.07  # temperature
    ev = tasks[0].eval
    acc_narrow = float(np.mean(dm.predict(params, table[:4], ev.x, lc) == ev.y))
    acc_wide = float(np.mean(dm.predict(params, table, ev.x, lc) == ev.y))
    assert acc_narrow >= acc_wide


def test_non_finite_loss_stops_supervised_session_before_the_step():
    # one batch per epoch, so a NaN feature poisons the very first step;
    # student and teacher must keep their initial values
    cfg = tiny_cfg(variant="teacher_student_only", batch_size=64)
    task = generate_tasks(cfg, 0)[0]
    task.train.x[5, 2] = np.nan
    student = dm.init_model(cfg, 0)
    teacher = copy_params(student)
    fresh = copy_params(student)
    table = dm.init_class_table(8, 8, 0)
    with pytest.raises(FloatingPointError, match=r"supervised session 0 epoch 0 batch 0"):
        hz.run_supervised_session(student, teacher, table[:4], task, VARIANTS[cfg.variant], cfg, seed=0)
    for k in fresh:
        assert np.array_equal(student[k].data, fresh[k].data), k
        assert np.array_equal(teacher[k].data, fresh[k].data), k


# ------------------------------------------------------------ golden results

# SHA-256 of the result files of RunConfig(variant=v, tasks=2, epochs=2, samples_ttl=16) at seed 0.
# A change that moves results on purpose regenerates these and says so.
GOLDEN_DIGESTS = {
    "dosapp": {
        "R_postsup.csv": "d36c53e54695e87571d53324fefb19dbbdc69c7744f3f86f316d6ab42ae39521",
        "R_postttl.csv": "7ef0922714d8103451483bee2050ce9b81f498b090ae5a85d40729248992eea2",
        "summary.csv": "532c7a6e6a5601b909e10d9378ca22fd343d0bf24b156798ae2f65431d96c767",
        "metrics.jsonl": "d816ee5c76cac55cdd5af222f25e7f1576d9200968d47abea411aa8ddf6f4b43",
    },
    "dosapp_er": {
        "R_postsup.csv": "d36c53e54695e87571d53324fefb19dbbdc69c7744f3f86f316d6ab42ae39521",
        "R_postttl.csv": "7ef0922714d8103451483bee2050ce9b81f498b090ae5a85d40729248992eea2",
        "summary.csv": "240b8d2e3d5fc4e93808a340f240b3b7a69dbc6626b444d72e5c9e8d99108fe0",
        "metrics.jsonl": "e36a1d2257f46060ff60d7f4d9e395f270247235773284cf7417d3ad8df2bcda",
    },
    "finetune_no_ttl": {
        "R_postsup.csv": "984207cf0f09be9a3641a6f5890b3934423d6300eeb17ebd7c46ee5d0967ca76",
        "R_postttl.csv": "984207cf0f09be9a3641a6f5890b3934423d6300eeb17ebd7c46ee5d0967ca76",
        "summary.csv": "7661b7230c17f123aacf5298f2451bd8d390ba8d534fc8f6afe89bc7715fa1e9",
        "metrics.jsonl": "793ac09b54b76b19f539edc468cced4780ff1593fb29f33d93a3178db84842ed",
    },
    "plus_sparse": {
        "R_postsup.csv": "8784d6ddc3648f60b9fb61a5cb9e599adee01935844b90be19b1c26b49620e22",
        "R_postttl.csv": "8784d6ddc3648f60b9fb61a5cb9e599adee01935844b90be19b1c26b49620e22",
        "summary.csv": "dbd67710f460e902c4a9f28329957abcc7e17731b97cf40183553c09aae3931d",
        "metrics.jsonl": "701a45604e03fe9730533e7b569a83932820d0861108fbc753baee4edfe8b181",
    },
    "plus_union_single_momentum": {
        "R_postsup.csv": "8784d6ddc3648f60b9fb61a5cb9e599adee01935844b90be19b1c26b49620e22",
        "R_postttl.csv": "8784d6ddc3648f60b9fb61a5cb9e599adee01935844b90be19b1c26b49620e22",
        "summary.csv": "c9bc0aeae4e87f8f8f182d09bd4d08c891ab22fffaacae6bf9655b389d87015f",
        "metrics.jsonl": "55871c54f89fae8f4f6929ee47640e88dfd73b6d84886241dd35dc4506332c19",
    },
    "self_label": {
        "R_postsup.csv": "f6caa838a1f8216b1e19cb8b393b5af684dbef56378d9408a584ec6cdb274642",
        "R_postttl.csv": "68d674a452613a8170832109320e3fab2269f4ac510dbbc51157b85173022e99",
        "summary.csv": "610c65007047b81a2aeca0cddf95f0e38eb81d44ead42d7b656704d4b8af7656",
        "metrics.jsonl": "ad67e62ec8d352898e5ee2d2da48fa2cf35b78ab97d677a4ad63d72cf196bb65",
    },
    "teacher_student_only": {
        "R_postsup.csv": "8784d6ddc3648f60b9fb61a5cb9e599adee01935844b90be19b1c26b49620e22",
        "R_postttl.csv": "ecad593309d0d3e5dce0bab0314a6c0e2251bce5dc5daead2b44e6994be40de5",
        "summary.csv": "ec78e3ba13df6ddcd69e71e4ecf835191ed4eb42c98170d51f09e87b3702e45a",
        "metrics.jsonl": "024affc1b77729626b0c338717cc8d8ebb97396fe117f546ab23d48d2c416072",
    },
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_results_match_the_golden_digests(variant, tmp_path):
    cfg = RunConfig(variant=variant, tasks=2, epochs=2, samples_ttl=16)
    persist_run(tmp_path, {}, hz.run_experiment(cfg, 0))
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN_DIGESTS[variant]}
    assert got == GOLDEN_DIGESTS[variant]


def test_a_persisted_run_s_tensor_files_load_back_bit_for_bit(tmp_path):
    result = hz.run_experiment(RunConfig(tasks=2, epochs=2, samples_ttl=16), 0)
    persist_run(tmp_path, {}, result)
    for name, params in (("student.ckpt", result.student), ("teacher.ckpt", result.teacher)):
        loaded, table = dm.load_checkpoint(tmp_path / name)
        assert list(loaded) == list(params), name
        for path, t in params.items():
            assert loaded[path].data.tobytes() == t.data.tobytes(), (name, path)
        assert table.tobytes() == result.table.tobytes(), name
    masks = {f"task{t}.mask": mask for t, mask in enumerate(result.masks)}
    masks["ttl_final.mask"] = result.final_ttl_mask
    assert sorted(p.name for p in (tmp_path / "masks").iterdir()) == sorted(masks) and len(masks) == 3
    for name, mask in masks.items():
        loaded = mk.load_mask(tmp_path / "masks" / name)
        assert list(loaded) == list(mask), name
        for path, bits in mask.items():
            assert loaded[path].dtype == bits.dtype == bool and np.array_equal(loaded[path], bits), (name, path)


# ------------------------------------------------------------ traced counts

def test_a_traced_run_reports_the_counts_the_benchmark_reads(monkeypatch):
    # The tracer wraps ttl_session(student, ...) and encode(params, x) by argument position and
    # finds the others by name, so a renamed function or a reordered argument list must change
    # these counts here rather than only in a traced benchmark pass.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracer

    with tracer.Tracer() as active:
        result = hz.run_experiment(RunConfig(tasks=2, epochs=2, samples_ttl=16), 0)
    m = active.metrics()
    assert m["ttl.batches"] == sum(row["type"] == "ttl_batch" for row in result.metrics_rows) == 3
    assert m["ttl.student_forwards_per_batch"] == 1.0
    assert (m["model.encode_calls"], m["model.untaped_encode_calls"]) == (24, 9)
    assert (m["autodiff.backward_calls"], m["autodiff.tape_nodes"]) == (15, 135)
    assert m["harness.gradient_samples"] == 704
