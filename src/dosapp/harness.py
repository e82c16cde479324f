"""Class-incremental experiment harness.

Runs alternating supervised sessions and test-time adaptation phases over a
synthetic task sequence, records the accuracy matrix at both checkpoints of
every session, and reduces it to the standard continual-learning metrics.
Method variants toggle masking, mask union, the dual-momentum blend, the
teacher, and replay.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import model as dm
from .autodiff import Optimizer, Tensor
from .config import VARIANTS, RunConfig, VariantKnobs, check_cross_keys
from .data import LabeledDataset, ReplayBuffer, TaskData, build_ttl_stream, generate_tasks
from .ema import compute_pq
from .masking import Mask, reselect_topk, score_parameters, select_topk, union_masks
from .seeding import substream
from .ttl import train_step, ttl_session


class RunAudit:
    """Records which instance ids reach gradient steps, per phase and session."""

    def __init__(self):
        self.events: list[tuple[str, int, tuple[int, ...]]] = []

    def record_gradient_batch(self, phase: str, session: int, ids) -> None:
        self.events.append((phase, int(session), tuple(int(i) for i in ids)))


@dataclass
class RunResult:
    r_post_sup: np.ndarray
    r_post_ttl: np.ndarray
    metrics_rows: list[dict]
    summary: dict
    masks: list[Mask]  # one per masked session, in session order
    mask_scores: list[dict[str, np.ndarray]]  # the scores masks[i] was selected from
    final_ttl_mask: Mask | None
    student: dm.Params
    teacher: dm.Params | None
    table: np.ndarray  # [total_classes, embed_dim]; row c is class c


def run_supervised_session(student: dm.Params, teacher: dm.Params | None, head: np.ndarray,
                           task: TaskData, knobs: VariantKnobs, cfg: RunConfig, seed: int,
                           buffer: ReplayBuffer | None = None, audit: RunAudit | None = None,
                           ) -> tuple[Mask | None, dict[str, np.ndarray] | None, list[dict]]:
    """One labeled session: (optional) score+select a mask, then train.

    Scoring runs before any update of this session, on this session's data
    only. The training loss competes every seen class (every row of head), so
    new embeddings must beat old class vectors, not just their within-task rivals.
    Returns the per-task mask and its scores (None without masking), and its train_epoch rows.
    """
    mask = None
    scores = None
    rows: list[dict] = []
    if knobs.use_mask:
        def loss_fn(p, xb, yb):
            return dm.model_loss(p, head, xb, yb, cfg.temperature)
        scores = score_parameters(student, task.train, loss_fn, cfg.batch_size,
                                  cfg.score_sample_cap, f"mask scoring session {task.task_id}")
        mask = select_topk(scores, cfg.sparsity_c)

    opt = Optimizer(cfg)
    pq = None if teacher is None else compute_pq(mask if knobs.dual_momentum else None, cfg.gamma, cfg.delta)

    train = task.train
    n = len(train)
    for epoch in range(cfg.epochs):
        order = substream(seed, "shuffle", f"train-task{task.task_id}", f"epoch{epoch}").permutation(n)
        losses = []
        for b, start in enumerate(range(0, n, cfg.batch_size)):
            pick = order[start : start + cfg.batch_size]
            xb, yb, idb = train.x[pick], train.y[pick], train.ids[pick]
            if buffer is not None and len(buffer) > 0:
                bx, by, bids = buffer.sample(len(pick))
                xb = np.concatenate([xb, bx])
                yb = np.concatenate([yb, by])
                idb = np.concatenate([idb, bids])
            if audit is not None:
                audit.record_gradient_batch("supervised", task.task_id, idb)
            loss = train_step(
                student, teacher, opt, mask, pq,
                lambda: dm.model_loss(student, head, xb, yb, cfg.temperature),
                where=f"supervised session {task.task_id} epoch {epoch} batch {b}")
            losses.append(loss.item())
            if buffer is not None and epoch == 0:
                # reservoir sees each labeled example once, on its first epoch
                for row, y, iid in zip(train.x[pick], train.y[pick], train.ids[pick]):
                    buffer.add(row, y, iid)
        rows.append({"type": "train_epoch", "session": task.task_id, "epoch": epoch,
                     "mean_loss": float(np.mean(losses))})
    return mask, scores, rows


def _accuracy(params: dm.Params, head: np.ndarray, ds: LabeledDataset, temperature: float, where: str,
              batch_size: int = 256) -> float:
    correct = 0
    for start in range(0, len(ds), batch_size):
        xb = ds.x[start : start + batch_size]
        yb = ds.y[start : start + batch_size]
        pred = dm.predict(params, head, xb, temperature, where)
        correct += int((pred == yb).sum())
    return correct / len(ds)


def evaluate(params: dm.Params, head: np.ndarray, tasks: list[TaskData], upto: int,
             temperature: float) -> np.ndarray:
    """Holdout accuracy on every task up to upto (NaN after it), logits over head's classes."""
    row = np.full(len(tasks), np.nan)
    for j in range(upto + 1):
        row[j] = _accuracy(params, head, tasks[j].eval, temperature, f"evaluation session {upto} task {j}")
    return row


def compute_metrics(r: np.ndarray) -> dict:
    """Average accuracy, forgetting, first-task accuracy, current-task accuracy.

    r[i, j] is accuracy on task j's holdout after session i. Forgetting is
    the mean drop from each task's own-session accuracy to its final-row
    accuracy, sign-flipped; undefined (None) with a single task.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"accuracy matrix must be square, got {r.shape}")
    t = r.shape[0]
    last = r[t - 1]
    forgetting = None
    if t >= 2:
        forgetting = float(-np.mean([last[i] - r[i, i] for i in range(t - 1)]))
    return {
        "avg_acc": float(np.mean(last)),
        "forgetting": forgetting,
        "fta": float(last[0]),
        "cta": float(np.mean(np.diag(r))),
        "final_task_acc": float(r[t - 1, t - 1]),
    }


def _row_json(row: np.ndarray) -> list:
    return [None if np.isnan(v) else float(v) for v in row]


def run_experiment(cfg: RunConfig, seed: int, audit: RunAudit | None = None) -> RunResult:
    """Full alternating schedule for one variant and one seed; writes nothing."""
    # each key was checked when cfg was built; the rules that tie keys together fail here, before any work
    check_cross_keys(cfg)
    knobs = VARIANTS[cfg.variant]
    if knobs.use_teacher and not (cfg.gamma < cfg.lam < cfg.delta or cfg.gamma == cfg.lam == cfg.delta):
        warnings.warn(f"momentum ordering [ema] gamma < [ema] lambda < [ema] delta violated "
                      f"({cfg.gamma}, {cfg.lam}, {cfg.delta}); proceeding anyway")
    tasks = generate_tasks(cfg, seed)
    student = dm.init_model(cfg, seed)
    teacher = {p: Tensor(t.data.copy()) for p, t in student.items()} if knobs.use_teacher else None
    table = dm.init_class_table(cfg.total_classes, cfg.embed_dim, seed)
    capacity = cfg.buffer_capacity if cfg.buffer_capacity > 0 else knobs.default_buffer
    buffer = ReplayBuffer(capacity, seed) if capacity > 0 else None

    masks: list[Mask] = []
    mask_scores: list[dict[str, np.ndarray]] = []
    final_ttl_mask: Mask | None = None
    t_count = cfg.tasks
    r_sup = np.full((t_count, t_count), np.nan)
    r_ttl = np.full((t_count, t_count), np.nan)
    metrics_rows: list[dict] = []

    for t, task in enumerate(tasks):
        # generate_tasks draws classes in id order, k per task, so task t holds the ids t*k..(t+1)*k-1:
        # the classes seen by session t are the table's first (t+1)*k rows, and class c is logit column c
        head = table[:(t + 1) * cfg.classes_per_task]
        mask, scores, rows = run_supervised_session(student, teacher, head, task, knobs, cfg, seed,
                                                    buffer=buffer, audit=audit)
        metrics_rows.extend(rows)
        if mask is not None:
            masks.append(mask)
            mask_scores.append(scores)

        eval_params = teacher if knobs.use_teacher else student
        r_sup[t] = evaluate(eval_params, head, tasks, t, cfg.temperature)
        metrics_rows.append({"type": "eval", "session": t, "checkpoint": "post_supervised",
                             "row": _row_json(r_sup[t])})

        if knobs.use_ttl:
            ttl_mask = None
            if knobs.use_mask:
                if knobs.use_union:
                    ttl_mask = reselect_topk(union_masks(masks), mask_scores, cfg.sparsity_c)
                else:
                    ttl_mask = masks[-1]
            final_ttl_mask = ttl_mask
            stream, composition = build_ttl_stream(tasks, t, seed, cfg.ttl_stream_scope,
                                                   cfg.ttl_imbalance, cfg.dirichlet_alpha)
            metrics_rows.append({"type": "ttl_stream", "session": t,
                                 "composition": {str(c): int(n) for c, n in sorted(composition.items())}})
            pq = None if teacher is None else compute_pq(ttl_mask if knobs.dual_momentum else None,
                                                         cfg.lam, cfg.delta)
            metrics_rows.extend(ttl_session(
                student, teacher, ttl_mask, pq, stream, head, cfg.temperature,
                Optimizer(cfg), cfg.ttl_batch_size, audit=audit, session=t))
            r_ttl[t] = evaluate(eval_params, head, tasks, t, cfg.temperature)
        else:
            r_ttl[t] = r_sup[t]
        metrics_rows.append({"type": "eval", "session": t, "checkpoint": "post_ttl",
                             "row": _row_json(r_ttl[t])})

    headline = compute_metrics(r_ttl)
    post_sup = compute_metrics(r_sup)
    summary = dict(headline)
    summary.update({f"post_sup_{k}": v for k, v in post_sup.items()})
    summary.update({"variant": cfg.variant, "seed": int(seed)})
    metrics_rows.append({"type": "summary", **summary})
    return RunResult(
        r_post_sup=r_sup, r_post_ttl=r_ttl,
        metrics_rows=metrics_rows, summary=summary, masks=masks, mask_scores=mask_scores,
        final_ttl_mask=final_ttl_mask, student=student, teacher=teacher, table=table,
    )
