"""Gradient-magnitude scoring and sparse mask selection for candidate tensors.

A score is the absolute value of the MEAN gradient over the scoring data
(mean first, then absolute value, so sign-cancelling gradients score zero).
Selection keeps the top ceil(c * N) entries per candidate tensor, ties
broken toward the lower flat index. Per-task masks are kept in memory with
their scores so later sessions can take the union and re-select within it;
only the masks are ever written.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .records import read_records, write_records
from .ttl import gradients

MASK_MAGIC = "dosapp-mask"


@dataclass
class Mask:
    """Binary selection per candidate tensor."""

    bits: dict[str, np.ndarray]
    sparsity: float
    origin: str  # "per_task" | "union_reselected"


@dataclass
class MaskHistory:
    """Each masked session's mask and the scores it was selected from, by candidate path."""

    masks: list[Mask] = field(default_factory=list)
    scores: list[dict[str, np.ndarray]] = field(default_factory=list)

    def append(self, mask: Mask, scores: dict[str, np.ndarray]) -> None:
        self.masks.append(mask)
        self.scores.append(scores)

    def __len__(self) -> int:
        return len(self.masks)


def topk_count(c: float, n: int) -> int:
    """ceil(c*n) with a tiny slack so float noise cannot bump the count up."""
    return max(1, min(n, math.ceil(c * n - 1e-12)))


def score_parameters(params, dataset, loss_fn, batch_size: int, sample_cap: int | None = None,
                     where: str = "mask scoring") -> dict[str, np.ndarray]:
    """One pass over the data accumulating mean gradients of candidate tensors.

    loss_fn(params, x, y) must build a scalar loss on the active graph.
    No parameter or optimizer state changes; only grads are touched. A
    non-finite loss or gradient raises FloatingPointError naming `where` and the batch.
    """
    n_used = len(dataset.y) if sample_cap is None else min(sample_cap, len(dataset.y))
    cand = params.candidate_paths()
    wrt = [params.entries[p] for p in cand]
    accum = {p: np.zeros_like(params.entries[p].data) for p in cand}
    for b, start in enumerate(range(0, n_used, batch_size)):
        take = min(batch_size, n_used - start)
        xb = dataset.x[start : start + take]
        yb = dataset.y[start : start + take]
        gradients(params, wrt, lambda: loss_fn(params, xb, yb), f"{where} batch {b}")
        for p in cand:
            grad = params.entries[p].grad
            if grad is not None:
                accum[p] += grad * take
    params.zero_grads()
    return {p: np.abs(a / n_used) for p, a in accum.items()}


def _topk_bits(scores: np.ndarray, pool: np.ndarray, c: float, path: str) -> np.ndarray:
    """Keep the top ceil(c*N) scores inside the boolean pool, N the tensor size.

    Ties go to the lower flat index. A pool smaller than that is kept whole,
    with a warning.
    """
    flat_pool = pool.ravel()
    k = topk_count(c, flat_pool.size)
    pool_idx = np.flatnonzero(flat_pool)
    if pool_idx.size < k:
        warnings.warn(f"union pool for '{path}' has {pool_idx.size} entries, fewer than the "
                      f"re-selection target {k}; keeping the whole pool")
        chosen = pool_idx
    else:
        order = np.argsort(-scores.ravel()[pool_idx], kind="stable")  # stable: lower index wins ties
        chosen = pool_idx[order[:k]]
    bits = np.zeros(flat_pool.size, dtype=bool)
    bits[chosen] = True
    return bits.reshape(pool.shape)


def _fold(dicts, op) -> dict[str, np.ndarray]:
    """Per path, op folded over the arrays the dicts hold for it, in order."""
    out: dict[str, np.ndarray] = {}
    for d in dicts:
        for path, arr in d.items():
            out[path] = op(out[path], arr) if path in out else arr.copy()
    return out


def select_topk(scores: dict[str, np.ndarray], c: float, origin: str = "per_task") -> Mask:
    """Keep the top ceil(c*N) scores per tensor; ties go to the lower index."""
    bits = {path: _topk_bits(arr, np.ones(arr.shape, dtype=bool), c, path)
            for path, arr in scores.items()}
    return Mask(bits=bits, sparsity=c, origin=origin)


def union_masks(history: MaskHistory) -> dict[str, np.ndarray]:
    """Elementwise OR of every stored per-task mask; raw, no sparsity target."""
    if len(history) == 0:
        raise ValueError("union_masks: empty history")
    return _fold((mask.bits for mask in history.masks), np.bitwise_or)


def reselect_topk(union_bits: dict[str, np.ndarray], history: MaskHistory, c: float) -> Mask:
    """Re-select within the union: per-entry score is the max over tasks.

    Keeps ceil(c*N) per tensor out of the union pool; if the pool is smaller
    than that, the whole pool is kept and a warning is emitted.
    """
    if len(history) == 0:
        raise ValueError("reselect_topk: empty history")
    best = _fold(history.scores, np.maximum)
    bits = {path: _topk_bits(best[path], pool, c, path) for path, pool in union_bits.items()}
    return Mask(bits=bits, sparsity=c, origin="union_reselected")


# ---------------------------------------------------------------- persistence

def save_mask(path, mask: Mask) -> None:
    write_records(path, MASK_MAGIC, {"origin": mask.origin, "sparsity": float(mask.sparsity)},
                  mask.bits.items())


def load_mask(path) -> Mask:
    attrs, bits = read_records(path, MASK_MAGIC, bool, {"origin": str, "sparsity": float})
    return Mask(bits=bits, **attrs)
