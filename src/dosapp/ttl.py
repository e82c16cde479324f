"""The training step of both phases, and unsupervised test-time adaptation.

During adaptation, for every stream sample the teacher's and student's
highest raw logits are compared; whichever model is more confident supplies
the pseudo label (ties go to the teacher). Each stream is consumable exactly
once: adaptation is single-pass by construction.
"""

from __future__ import annotations

import math

import numpy as np

from . import model as dm
from .autodiff import Graph, Optimizer, backward, cross_entropy_from_logits
from .data import UnlabeledStream
from .ema import SmoothingVectors, ema_update


def gradients(params, wrt, build_loss, where: str):
    """Zero params' grads, tape build_loss() over the tensors wrt, backprop; returns the loss.

    A non-finite loss or gradient raises FloatingPointError naming `where`,
    in place of numpy's warnings.
    """
    for t in params.values():
        t.grad = None
    with np.errstate(all="ignore"):
        with Graph(wrt=wrt) as tape:
            loss = build_loss()
        backward(loss, tape)
    if not (math.isfinite(loss.item())
            and all(t.grad is None or np.isfinite(t.grad).all() for t in wrt)):
        raise FloatingPointError(f"non-finite loss or gradient in {where}")
    return loss


def train_step(student, teacher, opt: Optimizer, mask, pq, build_loss, where: str):
    """Gradients of the tensors the step changes, masked step, teacher blend.

    A non-finite loss or gradient raises in gradients() before anything is
    updated; a step that overflows leaves non-finite weights, which the next
    forward reports. teacher=None skips the blend. Returns the loss.
    """
    stepped = [student[p] for p in (student if mask is None else mask)]
    loss = gradients(student, stepped, build_loss, where)
    with np.errstate(all="ignore"):
        opt.step(student, mask)
        if teacher is not None:
            ema_update(teacher, student, pq)
    return loss


def route_pseudo_label(teacher_logits, student_logits):
    """Label each row of [n, C] logits from the model with the larger max logit.

    Returns (labels, from_teacher, teacher_max, student_max) arrays, one entry
    per row; a label is a logit column, which is its class id.
    teacher_logits=None labels every row from the student.
    """
    s = np.asarray(student_logits, dtype=np.float64)
    t = (np.full_like(s, np.nan) if teacher_logits is None
         else np.asarray(teacher_logits, dtype=np.float64))
    if s.ndim != 2 or s.shape[1] == 0 or t.shape != s.shape:
        raise ValueError(f"route_pseudo_label: logit shape mismatch or no class ({t.shape} / {s.shape})")
    t_max, s_max = t.max(axis=1), s.max(axis=1)
    from_teacher = t_max >= s_max  # tie goes to the teacher; a NaN teacher never wins
    labels = np.where(from_teacher, t.argmax(axis=1), s.argmax(axis=1))
    return labels, from_teacher, t_max, s_max


def _entropy(labels: np.ndarray) -> float:
    _, counts = np.unique(labels, return_counts=True)
    p = counts / counts.sum()
    return float(-(p * np.log(p)).sum())


def ttl_session(student, teacher, mask, pq: SmoothingVectors | None, stream: UnlabeledStream, head,
                temperature: float, opt: Optimizer, batch_size: int, audit=None,
                session: int = 0) -> list[dict]:
    """Adapt the student on one unlabeled stream; the teacher trails by EMA.

    opt, fresh for the session, steps the student where mask allows (None trains
    all); pq holds the teacher's blend weights (compute_pq at the adaptation low momentum).
    teacher=None self-labels from the student and skips the EMA entirely.
    Logits score the classes whose rows head holds. Mutates student/teacher in place and returns one
    routing row per batch of batch_size stream samples.
    """
    rows: list[dict] = []
    x_all, ids_all = stream.take()

    for b, start in enumerate(range(0, len(ids_all), batch_size)):
        xb = x_all[start : start + batch_size]
        idb = ids_all[start : start + batch_size]
        where = f"ttl session {session} batch {b}"
        t_log = None if teacher is None else dm.untaped_logits(teacher, head, xb, temperature, where)
        if audit is not None:
            audit.record_gradient_batch("ttl", session, idb)
        routed = []

        def build_loss():
            # one student forward serves both routing and the loss
            s_log = dm.logits(student, head, xb, temperature)
            routed.extend(route_pseudo_label(t_log, s_log.data))
            return cross_entropy_from_logits(s_log, routed[0])

        loss = train_step(student, teacher, opt, mask, pq, build_loss, where)
        pseudo, from_teacher, t_max, s_max = routed
        n_teacher = int(from_teacher.sum())
        rows.append({
            "type": "ttl_batch",
            "session": session,
            "batch": b,
            "size": len(idb),
            "loss": loss.item(),
            "teacher_fraction": n_teacher / len(idb),
            "student_fraction": (len(idb) - n_teacher) / len(idb),
            "pseudo_label_entropy": _entropy(pseudo),
            "mean_max_logit_teacher": float(np.mean(t_max[from_teacher])) if n_teacher else None,
            "mean_max_logit_student":
                float(np.mean(s_max[~from_teacher])) if n_teacher < len(idb) else None,
        })
    return rows
