"""Gradient-magnitude scoring and sparse mask selection for candidate tensors.

A score is the absolute value of the MEAN gradient over the scoring data
(mean first, then absolute value, so sign-cancelling gradients score zero).
Selection keeps the top ceil(c * N) entries per candidate tensor, ties
broken toward the lower flat index. A mask is a plain dict from candidate
path to bool bits. A run keeps its per-task masks and their scores as two
lists in memory, so later sessions can take the union and re-select within
it; only the masks are ever written, as tensor-record files of their bits.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .model import candidate_paths
from .records import read_records, write_records
from .ttl import gradients

MASK_MAGIC = "dosapp-mask"


Mask = dict[str, np.ndarray]  # candidate path -> bool bits of the same shape


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
    cand = candidate_paths(params)
    wrt = [params[p] for p in cand]
    accum = {p: np.zeros_like(params[p].data) for p in cand}
    for b, start in enumerate(range(0, n_used, batch_size)):
        take = min(batch_size, n_used - start)
        xb = dataset.x[start : start + take]
        yb = dataset.y[start : start + take]
        gradients(params, wrt, lambda: loss_fn(params, xb, yb), f"{where} batch {b}")
        for p in cand:
            grad = params[p].grad
            if grad is not None:
                accum[p] += grad * take
    for t in params.values():
        t.grad = None
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


def select_topk(scores: dict[str, np.ndarray], c: float) -> Mask:
    """Keep the top ceil(c*N) scores per tensor; ties go to the lower index."""
    return {path: _topk_bits(arr, np.ones(arr.shape, dtype=bool), c, path) for path, arr in scores.items()}


def union_masks(masks: list[Mask]) -> Mask:
    """Elementwise OR of every per-task mask; raw, no sparsity target."""
    if not masks:
        raise ValueError("union_masks: no mask")
    return _fold(masks, np.bitwise_or)


def reselect_topk(union: Mask, scores: list[dict[str, np.ndarray]], c: float) -> Mask:
    """Re-select within the union: per-entry score is the max over the tasks' scores.

    Keeps ceil(c*N) per tensor out of the union pool; if the pool is smaller
    than that, the whole pool is kept and a warning is emitted.
    """
    if not scores:
        raise ValueError("reselect_topk: no scores")
    best = _fold(scores, np.maximum)
    return {path: _topk_bits(best[path], pool, c, path) for path, pool in union.items()}


# ---------------------------------------------------------------- persistence

def save_mask(path, mask: Mask) -> None:
    write_records(path, MASK_MAGIC, mask.items())


def load_mask(path) -> Mask:
    return read_records(path, MASK_MAGIC, bool)
