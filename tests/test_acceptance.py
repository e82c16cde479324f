"""Acceptance gate: every release criterion, at its stated tolerance.

Each test covers one numbered criterion and reports a single PASS/FAIL line
in the terminal summary (see conftest.py). Numeric thresholds here are
contractual; loosening them is never the right fix.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from math import ceil
from types import SimpleNamespace

import numpy as np
import pytest

import dosapp.ema as em
import dosapp.masking as mk
import dosapp.model as dm
import dosapp.ttl as tt
from conftest import ACCEPTANCE_LINES, ids_seen, in_workers, timed_summary, timed_summary_that_warns
from dosapp.cli import main as cli_main
from dosapp.config import RunConfig, build_manifest, write_manifest
from dosapp.data import build_ttl_stream, generate_tasks
from dosapp.harness import RunAudit, compute_metrics, run_experiment
from dosapp.masking import Mask, MaskHistory
from gradcheck import FD_STEP, OP_CASES, REL_TOL, check_case, check_model_gradients, tiny_encoder_config

SEEDS = (0, 1, 2, 3, 4)


@contextmanager
def criterion(num, name):
    rec = SimpleNamespace(detail="")
    try:
        yield rec
    except BaseException as exc:
        ACCEPTANCE_LINES.append(
            f"ACCEPTANCE criterion {num:02d} ({name}): FAIL [{type(exc).__name__}]")
        raise
    ACCEPTANCE_LINES.append(f"ACCEPTANCE criterion {num:02d} ({name}): PASS - {rec.detail}")


@pytest.fixture(scope="module")
def ladder():
    """Full-size runs shared by the comparative criteria, in worker processes; per variant,
    its summaries and the summed wall time of its runs, each timed alone."""
    variants = ("dosapp", "finetune_no_ttl", "teacher_student_only", "plus_union_single_momentum")
    done = iter(in_workers(timed_summary, [(RunConfig(variant=v), s) for v in variants for s in SEEDS]))
    runs = {v: [next(done) for _ in SEEDS] for v in variants}
    return ({v: [summary for summary, _ in r] for v, r in runs.items()},
            {v: sum(wall for _, wall in r) for v, r in runs.items()})


@pytest.fixture(scope="module")
def single_momentum_runs():
    # the collapsed ordering warns by design; each worker checks that it does
    cfg = RunConfig(gamma=0.9999, lam=0.9999, delta=0.9999)
    jobs = [(cfg, s, "momentum ordering") for s in SEEDS]
    return [summary for summary, _ in in_workers(timed_summary_that_warns, jobs)]


# ------------------------------------------------------------ 1: gradients

def test_criterion_01_finite_difference_gradients():
    with criterion(1, "analytic gradients match finite differences") as rec:
        assert FD_STEP == 1e-5 and REL_TOL == 1e-4  # contractual step and tolerance
        t0 = time.perf_counter()
        for name in sorted(OP_CASES):
            for seed in (0, 1):
                check_case(name, seed)
        for use_attention in (True, False):
            check_model_gradients(seed=0, use_attention=use_attention)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
        rec.detail = (f"{len(OP_CASES)} ops x 2 seeds + composed model, "
                      f"h={FD_STEP:g}, rel<{REL_TOL:g}, {elapsed:.1f}s")


# ------------------------------------------------------------ 2: EMA algebra

def test_criterion_02_ema_algebra():
    with criterion(2, "teacher blend algebra") as rec:
        # (a) the two smoothing vectors always sum to one
        rng = np.random.default_rng(0)
        worst_pq = 0.0
        for _ in range(1000):
            gamma, lam, delta = sorted(rng.uniform(0.01, 1.0, size=3))
            low = gamma if rng.uniform() < 0.5 else lam  # the supervised or the ttl phase
            bits = rng.integers(0, 2, size=23).astype(bool)
            sv = em.compute_pq(Mask(bits={"w": bits}, sparsity=0.5, origin="per_task"), low, delta)
            worst_pq = max(worst_pq, float(np.max(np.abs(sv.p["w"] + sv.q["w"] - 1.0))))
            worst_pq = max(worst_pq, abs(sv.p_default + sv.q_default - 1.0))
        assert worst_pq <= 1e-15

        # (b) equal momenta collapse to a plain EMA, checked per step
        enc = tiny_encoder_config()
        student = dm.init_model(enc, 0)
        teacher = student.clone()
        delta = 0.97
        bits = np.random.default_rng(1).uniform(
            size=student.entries["block0.mlp.fc1.weight"].shape) < 0.3
        sv = em.compute_pq(Mask(bits={"block0.mlp.fc1.weight": bits},
                                sparsity=0.3, origin="per_task"), delta, delta)
        oracle = {k: t.data.copy() for k, t in teacher.entries.items()}
        walk = np.random.default_rng(2)
        worst_ema = 0.0
        for _ in range(100):
            for t in student.entries.values():
                t.data += walk.normal(scale=0.01, size=t.data.shape)
            em.ema_update(teacher, student, sv)
            for k in oracle:
                oracle[k] = delta * oracle[k] + (1.0 - delta) * student.entries[k].data
                worst_ema = max(worst_ema, float(np.max(np.abs(
                    teacher.entries[k].data - oracle[k]))))
        assert worst_ema <= 1e-12

        # (c) frozen-coordinate closed form at the default high momentum
        student = dm.init_model(enc, 3)
        teacher = student.clone()
        path = "block1.mlp.fc2.weight"
        v = teacher.entries[path].data.copy()
        student.entries[path].data[...] = v + 0.5
        s = student.entries[path].data.copy()
        delta = 0.9999
        sv = em.compute_pq(None, 0.8, delta)
        worst_closed = 0.0
        for n in range(1, 1001):
            em.ema_update(teacher, student, sv)
            expected = delta**n * v + (1.0 - delta**n) * s
            worst_closed = max(worst_closed, float(np.max(np.abs(
                teacher.entries[path].data - expected))))
        assert worst_closed <= 1e-9
        rec.detail = (f"p+q err {worst_pq:.1e} (<=1e-15), plain-EMA err {worst_ema:.1e} "
                      f"(<=1e-12/step), closed-form err {worst_closed:.1e} (<=1e-9, n<=1000)")


# ------------------------------------------------------------ 3: masks

def random_score_map(rng, shapes):
    return {k: rng.uniform(0.01, 1.0, size=sh) for k, sh in shapes.items()}


def test_criterion_03_mask_selection():
    with criterion(3, "sparse mask selection") as rec:
        # exact popcount per candidate layer at each sparsity level, real pipeline
        params = dm.init_model(RunConfig(embed_dim=16), 0)
        table = dm.init_class_table(4, 16, 0)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 64))
        y = rng.integers(0, 4, size=32).astype(np.int64)
        lc = 0.07  # temperature

        def loss_fn(p, xb, yb):
            return dm.model_loss(p, table, xb, yb, [0, 1, 2, 3], lc)

        from dosapp.data import LabeledDataset
        ds = LabeledDataset(x, y, np.arange(32, dtype=np.int64))
        sm = mk.score_parameters(params, ds, loss_fn, batch_size=16)
        checked = 0
        for c in (0.1, 0.5, 1.0):
            mask = mk.select_topk(sm, c)
            for path, bits in mask.bits.items():
                n = bits.size
                expected = int(ceil(Fraction(str(c)) * n))
                assert int(bits.sum()) == expected, (c, path)
                checked += 1

        # union growth over five task masks is monotone
        shapes = {p: params.entries[p].shape for p in params.candidate_paths()}
        rng = np.random.default_rng(1)
        history = MaskHistory()
        prev_union = None
        for _ in range(5):
            sm_t = random_score_map(rng, shapes)
            history.append(mk.select_topk(sm_t, 0.1), sm_t)
            union = mk.union_masks(history)
            if prev_union is not None:
                for k in union:
                    assert not np.any(prev_union[k] & ~union[k]), k  # nothing un-selected
            prev_union = union

        # re-selection over a one-mask history is the identity
        one = MaskHistory()
        sm_0 = random_score_map(np.random.default_rng(2), shapes)
        first = mk.select_topk(sm_0, 0.1)
        one.append(first, sm_0)
        re = mk.reselect_topk(mk.union_masks(one), one, 0.1)
        for k in first.bits:
            assert np.array_equal(re.bits[k], first.bits[k]), k

        # zero-scored entries lose to any positive competitor
        scores = {"w": np.array([0.0, 0.4, 0.0, 0.2, 0.9, 0.3])}
        zmask = mk.select_topk(scores, 0.5)
        assert int(zmask.bits["w"].sum()) == 3
        assert not zmask.bits["w"][0] and not zmask.bits["w"][2]
        rec.detail = (f"popcount exact on {checked} layer/c combos, union monotone over 5 "
                      f"tasks, reselect identity on singleton history, zeros excluded")


# ------------------------------------------------------------ 4: routing

def test_criterion_04_routing_oracle():
    with criterion(4, "max-logit routing vs brute force") as rec:
        rng = np.random.default_rng(7)
        ties = 0
        for trial in range(10_000):
            c = int(rng.integers(1, 9))
            ids = tuple(int(v) for v in rng.choice(40, size=c, replace=False))
            t_row = rng.normal(scale=2.0, size=c)
            s_row = t_row.copy() if trial % 8 == 0 else rng.normal(scale=2.0, size=c)
            labels, from_teacher, t_max, s_max = tt.route_pseudo_label(t_row[None], s_row[None], ids)

            bt = bs = -np.inf
            at = a_s = 0
            for j in range(c):
                if t_row[j] > bt:
                    bt, at = t_row[j], j
                if s_row[j] > bs:
                    bs, a_s = s_row[j], j
            if bt >= bs:
                want = (ids[at], "teacher")
            else:
                want = (ids[a_s], "student")
            if bt == bs:
                ties += 1
                assert from_teacher[0], trial
            assert (labels[0], "teacher" if from_teacher[0] else "student") == want, trial
            assert t_max[0] == bt and s_max[0] == bs, trial
        rec.detail = f"10000 random pairs (C<=8), {ties} exact ties, all routed identically"


# ------------------------------------------------------------ 5: metrics

def test_criterion_05_metric_fixtures():
    with criterion(5, "continual-learning metric fixtures") as rec:
        r = np.array([[0.8, np.nan], [0.6, 0.9]])
        m = compute_metrics(r)
        for key, want in (("avg_acc", 0.75), ("forgetting", 0.2), ("fta", 0.6), ("cta", 0.85)):
            assert abs(m[key] - want) <= 1e-12, key
        row = [0.3, 0.8, 0.55]
        assert compute_metrics(np.array([row, row, row]))["forgetting"] == 0.0
        rec.detail = "two-task fixture exact to 1e-12; identical rows give forgetting == 0.0"


# ------------------------------------------------------------ 6-8: comparisons

def test_criterion_06_adaptation_beats_plain_finetuning(ladder):
    with criterion(6, "full method vs plain fine-tuning, 5 seeds") as rec:
        runs, times = ladder
        f_full = float(np.median([r["forgetting"] for r in runs["dosapp"]]))
        f_ft = float(np.median([r["forgetting"] for r in runs["finetune_no_ttl"]]))
        a_full = float(np.median([r["avg_acc"] for r in runs["dosapp"]]))
        a_ft = float(np.median([r["avg_acc"] for r in runs["finetune_no_ttl"]]))
        elapsed = times["dosapp"] + times["finetune_no_ttl"]
        assert f_full < f_ft, (f_full, f_ft)
        assert a_full > a_ft, (a_full, a_ft)
        assert elapsed < 600.0, f"comparison took {elapsed:.0f}s"
        rec.detail = (f"median forgetting {f_full:.3f} < {f_ft:.3f}, median avg_acc "
                      f"{a_full:.3f} > {a_ft:.3f}, {elapsed:.0f}s on one core")


def test_criterion_07_each_ingredient_earns_its_keep(ladder):
    with criterion(7, "ablation ordering across seeds") as rec:
        runs, _ = ladder
        wins = sum(
            1 for d, p in zip(runs["dosapp"], runs["plus_union_single_momentum"])
            if d["avg_acc"] > p["avg_acc"])
        assert wins >= 4, f"strict wins {wins}/5"
        med_full = float(np.median([r["avg_acc"] for r in runs["dosapp"]]))
        med_ts = float(np.median([r["avg_acc"] for r in runs["teacher_student_only"]]))
        assert med_full >= med_ts, (med_full, med_ts)
        rec.detail = (f"beats single-momentum union in {wins}/5 seeds (need >=4); median "
                      f"{med_full:.3f} >= teacher/student-only {med_ts:.3f}")


def test_criterion_08_collapsed_momenta_lose(ladder, single_momentum_runs):
    with criterion(8, "dual momenta beat a single shared momentum") as rec:
        runs, _ = ladder
        med_single = float(np.median([r["avg_acc"] for r in single_momentum_runs]))
        med_dual = float(np.median([r["avg_acc"] for r in runs["dosapp"]]))
        assert med_single < med_dual, (med_single, med_dual)
        rec.detail = f"median avg_acc {med_single:.3f} (all 0.9999) < {med_dual:.3f} (0.8/0.9/0.9999)"


# ------------------------------------------------------------ 9: data discipline

def test_criterion_09_stream_and_label_discipline():
    with criterion(9, "single-pass streams, sealed labels, untouched holdouts") as rec:
        cfg = RunConfig()
        seed = 0
        audit = RunAudit()
        run_experiment(cfg, seed, audit=audit)

        schedule = generate_tasks(cfg, seed)

        # every adaptation-stream instance hits exactly one gradient step
        checked = 0
        for t in range(cfg.tasks):
            stream, _ = build_ttl_stream(schedule, t, seed, cfg.ttl_stream_scope)
            assert not hasattr(stream, "y")  # the stream type cannot carry labels
            got = sorted(ids_seen(audit, phase="ttl", session=t))
            assert got == sorted(stream.ids.tolist()), f"session {t}"
            checked += len(got)

        # holdout instances never reach any gradient step, in either phase
        eval_ids = set()
        for task in schedule.tasks:
            eval_ids.update(task.eval.ids.tolist())
        stepped = set(ids_seen(audit))
        assert not (eval_ids & stepped)

        # supervised steps draw only on labeled training splits
        train_ids = set()
        for task in schedule.tasks:
            train_ids.update(task.train.ids.tolist())
        assert set(ids_seen(audit, phase="supervised")) <= train_ids

        # adaptation steps draw only on the label-sealed pools
        pool_ids = set()
        for task in schedule.tasks:
            for _, ids in task.ttl_pool.values():
                pool_ids.update(ids.tolist())
        assert set(ids_seen(audit, phase="ttl")) <= pool_ids
        rec.detail = (f"{checked} stream instances each used exactly once; "
                      f"{len(eval_ids)} holdout ids untouched; phases stay in their splits")


# ------------------------------------------------------------ 10: reproducibility

def test_criterion_10_manifest_reproducibility(tmp_path):
    with criterion(10, "manifest reruns are byte-identical") as rec:
        manifest_path = tmp_path / "manifest.json"
        write_manifest(manifest_path, build_manifest(RunConfig(), seed=0))
        for sub in ("a", "b"):  # each replay in a fresh process of its own
            argv = ["run", "--config", str(manifest_path), "--out", str(tmp_path / sub)]
            (rc,) = in_workers(cli_main, [(argv,)])
            assert rc == 0
        names = ("R_postttl.csv", "R_postsup.csv", "summary.csv")
        for name in names:
            fa = (tmp_path / "a" / "dosapp" / "seed0" / name).read_bytes()
            fb = (tmp_path / "b" / "dosapp" / "seed0" / name).read_bytes()
            assert fa == fb, name
        rec.detail = f"two executions in two processes agree byte-for-byte on {', '.join(names)}"
