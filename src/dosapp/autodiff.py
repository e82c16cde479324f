"""Reverse-mode autodiff on dense float64 arrays, sized for toy models.

Define-by-run: ops executed while a Graph is active append tape nodes to it;
``backward`` replays the tape in reverse creation order (creation order is a
topological order by construction) and consumes it as it goes. With no
active graph an op returns its value before it builds a VJP, which is how
teacher and evaluation forwards run.

Each of an encoder block's residual branches is one op (``attention_residual``,
``mlp_residual``), which takes the batched tokens ``[batch, tokens, d]`` that
``encode`` gives it. The plain ops and the fused ones share one forward and
one VJP helper per kernel, so each formula exists once.

A graph names the tensors it differentiates, ``Graph(wrt=tensors)``, and
tapes only what depends on them: an op is taped only if one of its inputs
does, and it skips the vector-Jacobian product of every input that does not.
A ``.grad`` array may be shared with other tensors' grads, so grads are
replaced, never mutated in place.

Kernels work in place only on buffers they allocated themselves; inputs and
incoming gradients are never written. An in-place form keeps the operands of
the expression it stands for, in the same order, so it gives the same bits.
"""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5
# Weight-gradient stacks of per-item products larger than this many bytes are
# summed a chunk of at most this size at a time (_fold_products). Measured on
# a 2-core Xeon: the wide model's 4 MB [64, 32, 256] stacks summed 36-39%
# faster with a 1 MB budget than whole, and its 0.5 MB [64, 32, 32] stacks
# gained nothing from chunks and lost up to 80% in small ones.
FOLD_BYTES = 1 << 20


class Tensor:
    """Dense n-d float64 value plus an optional gradient of the same shape."""

    def __init__(self, data, grad=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None if grad is None else np.asarray(grad, dtype=np.float64)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


@dataclass
class Node:
    """One recorded op: inputs, output, and the local vector-Jacobian rule."""

    kind: str
    inputs: tuple[Tensor, ...]
    output: Tensor
    backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]


class Graph:
    """Tape of the ops that depend on the tensors wrt, in creation order; creation order is topological.

    ``live`` holds the wrt tensors and every taped output (a Tensor hashes
    by identity). An op is taped if any of its inputs is live, and its VJP
    skips every input that is not.

    ``backward`` consumes the tape: it empties ``live`` and pops each node
    once the node's gradients are passed on, which frees the activations its
    VJP saved and the intermediate grads no one else holds. Afterwards
    ``nodes`` is empty, ``consumed`` is set, and a second ``backward`` raises.
    """

    def __init__(self, *, wrt):
        self.nodes: list[Node] = []
        self.live: set[Tensor] = set(wrt)
        self.consumed = False

    def __enter__(self) -> "Graph":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> bool:
        _ACTIVE.pop()
        return False


_ACTIVE: list[Graph] = []


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _wanted(*inputs) -> tuple[bool, ...]:
    """Per input, whether the active graph wants its gradient; a graph must be active."""
    live = _ACTIVE[-1].live
    return tuple(t in live for t in inputs)


def _record(kind, inputs, out, backward_fn, needs) -> Tensor:
    """Tape out's node if the active graph wants the gradient of any input (needs, from _wanted)."""
    if any(needs):
        graph = _ACTIVE[-1]
        graph.nodes.append(Node(kind, tuple(inputs), out, backward_fn))
        graph.live.add(out)
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    # Sum gradient over axes that numpy broadcasting expanded.
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gd, sd) in enumerate(zip(g.shape, shape)) if sd == 1 and gd != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _fold_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.matmul(a, b).sum(axis=0) for a [B, n, k] and b [B, k, m], bit for bit.

    numpy sums axis 0 of the [B, n, m] stack as a left fold in batch order
    (pairwise only when n * m == 1). Above FOLD_BYTES the products are made a
    chunk at a time into a buffer whose first slot holds the running sum, and
    folded on from there, so the whole stack is never held.
    """
    batch, n, m = a.shape[0], a.shape[1], b.shape[2]
    item_bytes = n * m * 8
    if batch * item_bytes <= FOLD_BYTES or n * m == 1:
        return np.matmul(a, b).sum(axis=0)
    chunk = max(1, FOLD_BYTES // item_bytes)
    buf = np.empty((chunk + 1, n, m))
    acc = np.matmul(a[:chunk], b[:chunk], out=buf[1:]).sum(axis=0)
    for i in range(chunk, batch, chunk):
        k = min(chunk, batch - i)
        buf[0] = acc
        np.matmul(a[i:i + k], b[i:i + k], out=buf[1:k + 1])
        np.add.reduce(buf[:k + 1], axis=0, out=acc)
    return acc


def _shape_error(kind: str, *shapes) -> ValueError:
    pretty = " vs ".join(str(s) for s in shapes)
    return ValueError(f"{kind}: incompatible shapes {pretty}")


# ---------------------------------------------------------------- kernels
#
# The forward and backward expressions of the plain ops and of the fused
# residual branches, each in one place. A VJP helper takes the need flags of
# its inputs and returns None for every input that is not wanted.

def _matmul_vjp(g, ad, bd, transpose_b, need_a, need_b):
    """VJP of np.matmul(ad, bd, or bd with its last two axes swapped when transpose_b)."""
    ga = gb = None
    if need_a:
        ga = _unbroadcast(np.matmul(g, bd if transpose_b else np.swapaxes(bd, -1, -2)), ad.shape)
    if need_b:
        lhs, rhs = (np.swapaxes(g, -1, -2), ad) if transpose_b else (np.swapaxes(ad, -1, -2), g)
        if ad.ndim == 3 and bd.ndim == 2:
            gb = _fold_products(lhs, rhs)
        else:
            gb = _unbroadcast(np.matmul(lhs, rhs), bd.shape)
    return ga, gb


def _linear_fwd(xd, wd, bd):
    y = np.matmul(xd, wd)
    y += bd
    return y


def _linear_vjp(g, xd, wd, b_shape, need_x, need_w, need_b):
    """VJP of _linear_fwd for a batched xd [batch, tokens, n]."""
    # the fold's buffer is freed before the x-gradient exists (0.43 MB lower peak on the wide model)
    gw = _fold_products(np.swapaxes(xd, -1, -2), g) if need_w else None
    return (np.matmul(g, wd.T) if need_x else None, gw,
            _unbroadcast(g, b_shape) if need_b else None)


# The extension module that defines scipy's erf ufunc. On a 2-core Xeon VM
# (scipy 1.17) it loads in about 1 ms and 1.1 MB of peak RSS, where
# `from scipy.special import erf` imports the whole package: 0.22-0.27 s, 21 MB.
_ERF_MODULE = "scipy.special._special_ufuncs"


@functools.cache
def _scipy_erf():
    """scipy's erf ufunc, loaded at the first GELU without importing scipy.special.

    The extension is loaded and registered under its real dotted name, so a
    later ``import scipy.special`` reuses that module and exports this same
    ufunc. Without the extension (older scipy), the package import is used.
    """
    module = sys.modules.get(_ERF_MODULE) or _load_scipy_extension(_ERF_MODULE)
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _load_scipy_extension(name: str):
    """Load one compiled module of scipy by file, skipping its packages' __init__; None if absent."""
    import importlib.machinery
    import importlib.util

    scipy_spec = importlib.util.find_spec("scipy")   # locates scipy without running its __init__
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        return None
    stem = os.path.join(scipy_spec.submodule_search_locations[0], *name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(stem + suffix):
            spec = importlib.util.spec_from_file_location(name, stem + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
            return module
    return None


def _gelu_fwd(ad):
    """GELU of ad and the cdf its VJP reads: (0.5 * ad * (1 + erf(ad / sqrt 2)), that 0.5 * (1 + erf))."""
    erf = _scipy_erf()
    # cephes computes erf(-u) as -erf(u), so erf(|u|) with u's sign gives the
    # bits of erf(u) for every u but NaN (a NaN input gives a NaN output either
    # way). On the VM above, erf over a [64, 4, 64] normal input takes 222 us
    # with the signs folded away and 278 us without.
    cdf = np.absolute(ad, out=np.empty_like(ad))
    cdf *= _INV_SQRT2
    erf(cdf, out=cdf)
    np.copysign(cdf, ad, out=cdf)
    cdf += 1.0
    y = ad * 0.5
    y *= cdf
    cdf *= 0.5                            # 0.5 * (1 + erf(a / sqrt 2))
    return y, cdf


def _gelu_vjp(g, ad, cdf):
    # g * (cdf + a * pdf), pdf = exp(-0.5 * a * a) / sqrt(2 pi)
    d = np.multiply(ad, -0.5, out=np.empty_like(ad))
    d *= ad
    np.exp(d, out=d)
    d *= _INV_SQRT2PI
    d *= ad
    d += cdf
    d *= g
    return d


def _layer_norm_fwd(xd, gd, bd):
    """(xhat * gain + bias, xhat, inv) with xhat = (x - mean) * inv over the last axis."""
    n = xd.shape[-1]
    # np.add.reduce(...) / n is what .mean() computes, without its wrapper.
    mu = np.add.reduce(xd, axis=-1, keepdims=True)
    mu /= n
    xhat = xd - mu                        # centred here, standardized below
    var = np.add.reduce(xhat * xhat, axis=-1, keepdims=True)
    var /= n
    var += LAYER_NORM_EPS
    np.sqrt(var, out=var)
    inv = np.divide(1.0, var, out=var)
    xhat *= inv
    y = xhat * gd
    y += bd
    return y, xhat, inv


def _layer_norm_vjp(g, gd, xhat, inv, need_x, need_gain, need_bias):
    dx = None
    if need_x:
        # inv * (dxhat - s1 / n - xhat * (s2 / n)), s1 and s2 row sums
        n = xhat.shape[-1]
        dx = g * gd
        t = dx * xhat
        s1 = np.add.reduce(dx, axis=-1, keepdims=True)
        s1 /= n
        s2 = np.add.reduce(t, axis=-1, keepdims=True)
        s2 /= n
        dx -= s1
        dx -= np.multiply(xhat, s2, out=t)
        dx *= inv
    return (dx, _unbroadcast(g * xhat, gd.shape) if need_gain else None,
            _unbroadcast(g, gd.shape) if need_bias else None)


def _softmax_fwd(ad):
    shifted = ad - ad.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_vjp(g, y):
    dot = (g * y).sum(axis=-1, keepdims=True)
    return y * (g - dot)


# ---------------------------------------------------------------- ops
#
# With no active graph an op returns its value before it builds a VJP.

def matmul(a, b, transpose_b: bool = False) -> Tensor:
    """Matrix product; 2-d or batched 3-d operands, numpy broadcasting rules."""
    a, b = _as_tensor(a), _as_tensor(b)
    ad, bd = a.data, b.data
    if ad.ndim < 2 or bd.ndim < 2:
        raise _shape_error("matmul", ad.shape, bd.shape)
    b_eff = np.swapaxes(bd, -1, -2) if transpose_b else bd
    if ad.shape[-1] != b_eff.shape[-2]:
        raise _shape_error("matmul", ad.shape, bd.shape)
    try:
        out = Tensor(np.matmul(ad, b_eff))
    except ValueError:
        raise _shape_error("matmul", ad.shape, bd.shape)
    if not _ACTIVE:
        return out
    need_a, need_b = needs = _wanted(a, b)
    return _record("matmul", (a, b), out,
                   lambda g: _matmul_vjp(g, ad, bd, transpose_b, need_a, need_b), needs)


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise _shape_error("add", a.data.shape, b.data.shape)
    if not _ACTIVE:
        return out
    need_a, need_b = needs = _wanted(a, b)

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _record("add", (a, b), out, backward_fn, needs)


def scale(a, factor: float) -> Tensor:
    """Multiply by a python float constant (not a differentiable input)."""
    a = _as_tensor(a)
    factor = float(factor)
    out = Tensor(a.data * factor)
    if not _ACTIVE:
        return out
    return _record("scale", (a,), out, lambda g: (g * factor,), _wanted(a))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))
    if not _ACTIVE:
        return out
    return _record("relu", (a,), out, lambda g: (g * (a.data > 0.0),), _wanted(a))


def gelu(a) -> Tensor:
    """Exact erf-form GELU: 0.5 * a * (1 + erf(a / sqrt 2))."""
    a = _as_tensor(a)
    ad = a.data
    y, cdf = _gelu_fwd(ad)
    out = Tensor(y)
    if not _ACTIVE:
        return out
    return _record("gelu", (a,), out, lambda g: (_gelu_vjp(g, ad, cdf),), _wanted(a))


def layer_norm(x, gain, bias) -> Tensor:
    """Standardize the last axis, then apply elementwise gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise _shape_error("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    y, xhat, inv = _layer_norm_fwd(x.data, gain.data, bias.data)
    out = Tensor(y)
    if not _ACTIVE:
        return out
    needs = _wanted(x, gain, bias)
    return _record("layer_norm", (x, gain, bias), out,
                   lambda g: _layer_norm_vjp(g, gain.data, xhat, inv, *needs), needs)


def softmax(a) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = _as_tensor(a)
    y = _softmax_fwd(a.data)
    out = Tensor(y)
    if not _ACTIVE:
        return out
    return _record("softmax", (a,), out, lambda g: (_softmax_vjp(g, y),), _wanted(a))


def log(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.log(a.data))
    if not _ACTIVE:
        return out
    return _record("log", (a,), out, lambda g: (g / a.data,), _wanted(a))


def mean(a) -> Tensor:
    """Mean over every entry; returns a 0-d tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.mean())
    if not _ACTIVE:
        return out
    return _record("mean", (a,), out,
                   lambda g: (np.full(a.data.shape, float(g) / a.data.size),), _wanted(a))


def cosine_similarity_rows(a, b) -> Tensor:
    """All-pairs cosine similarity between rows of a [m,d] and rows of b [n,d].

    1-d inputs are treated as single rows. Rows must be nonzero.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    ad = a.data.reshape(1, -1) if a.data.ndim == 1 else a.data
    bd = b.data.reshape(1, -1) if b.data.ndim == 1 else b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[1]:
        raise _shape_error("cosine_similarity_rows", a.data.shape, b.data.shape)
    na = np.linalg.norm(ad, axis=1, keepdims=True)
    nb = np.linalg.norm(bd, axis=1, keepdims=True)
    ah = ad / na
    bh = bd / nb
    out = Tensor(ah @ bh.T)
    if not _ACTIVE:
        return out
    need_a, need_b = needs = _wanted(a, b)

    def backward_fn(g):
        da = db = None
        if need_a:
            dah = g @ bh
            da = ((dah - ah * (dah * ah).sum(axis=1, keepdims=True)) / na).reshape(a.data.shape)
        if need_b:
            dbh = g.T @ ah
            db = ((dbh - bh * (dbh * bh).sum(axis=1, keepdims=True)) / nb).reshape(b.data.shape)
        return da, db

    return _record("cosine_similarity_rows", (a, b), out, backward_fn, needs)


def gather_rows(a, ids) -> Tensor:
    """Pick a[i, ids[i]] from a 2-d tensor; ids is a plain int sequence."""
    a = _as_tensor(a)
    if a.data.ndim != 2:
        raise _shape_error("gather_rows", a.data.shape)
    ids = np.asarray(ids, dtype=np.int64)
    m, ncol = a.data.shape
    if ids.shape != (m,):
        raise _shape_error("gather_rows", a.data.shape, ids.shape)
    if ids.size and (ids.min() < 0 or ids.max() >= ncol):
        raise ValueError(f"gather_rows: column index out of range for shape {a.data.shape}")
    rows = np.arange(m)
    out = Tensor(a.data[rows, ids])
    if not _ACTIVE:
        return out

    def backward_fn(g):
        da = np.zeros_like(a.data)
        da[rows, ids] = g
        return (da,)

    return _record("gather_rows", (a,), out, backward_fn, _wanted(a))


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along one axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: empty input list")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError:
        raise _shape_error("concat", *[t.data.shape for t in ts])
    if not _ACTIVE:
        return out
    splits = np.cumsum([t.data.shape[axis] for t in ts])[:-1]
    needs = _wanted(*ts)

    def backward_fn(g):
        return tuple(gi if need else None for gi, need in zip(np.split(g, splits, axis=axis), needs))

    return _record("concat", tuple(ts), out, backward_fn, needs)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise _shape_error("reshape", a.data.shape, shape)
    if not _ACTIVE:
        return out
    return _record("reshape", (a,), out, lambda g: (g.reshape(a.data.shape),), _wanted(a))


def normalize_rows(a) -> Tensor:
    """Scale each row (last axis) to unit L2 norm; a row of zeros is a ValueError."""
    a = _as_tensor(a)
    n = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    if not n.all():                       # a NaN norm passes, to fail as a non-finite loss
        m = np.abs(a.data).max(axis=-1, keepdims=True)  # a tiny row's squares underflow: scale it by m
        if not m.all():
            raise ValueError(f"normalize_rows: row {np.flatnonzero(m == 0.0)[0]} has zero norm")
        n = np.where(n == 0.0, m * np.sqrt(((a.data / m) ** 2).sum(axis=-1, keepdims=True)), n)
    y = a.data / n
    out = Tensor(y)
    if not _ACTIVE:
        return out

    def backward_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / n,)

    return _record("normalize_rows", (a,), out, backward_fn, _wanted(a))


def cross_entropy_from_logits(logits, labels) -> Tensor:
    """Mean negative log-likelihood of integer labels under softmax(logits).

    One node whose forward and backward repeat, expression by expression,
    the chain scale(mean(gather_rows(log(softmax(logits)), labels)), -1).
    """
    logits = _as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy_from_logits: want [batch, classes], got {logits.data.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (logits.data.shape[0],):
        raise ValueError(
            f"cross_entropy_from_logits: {labels.shape} labels for {logits.data.shape[0]} rows"
        )
    ncol = logits.data.shape[1]
    if labels.size and (labels.min() < 0 or labels.max() >= ncol):
        raise ValueError(f"cross_entropy_from_logits: label out of range [0, {ncol})")
    y = _softmax_fwd(logits.data)
    logp = np.log(y)
    rows = np.arange(labels.size)
    picked = logp[rows, labels]
    out = Tensor(picked.mean() * -1.0)
    if not _ACTIVE:
        return out

    def backward_fn(g):
        dlogp = np.zeros_like(logp)
        dlogp[rows, labels] = np.full(picked.shape, float(g * -1.0) / picked.size)
        return (_softmax_vjp(dlogp / y, y),)

    return _record("cross_entropy_from_logits", (logits,), out, backward_fn, _wanted(logits))


def attention_residual(tokens, gain, bias, q, k, v, out) -> Tensor:
    """tokens [batch, tokens, d] + single-head self-attention over layer_norm(tokens): one node.

    Its forward and backward repeat, expression by expression, the chain
    hn = layer_norm(tokens, gain, bias); hq, hk, hv = matmul(hn, q), matmul(hn, k), matmul(hn, v);
    add(tokens, matmul(matmul(softmax(scale(matmul(hq, hk, transpose_b=True), 1 / sqrt d)), hv), out)),
    summing hn's gradient in the order reverse replay of that chain reaches its three matmuls.
    """
    tokens, gain, bias, q, k, v, out = map(_as_tensor, (tokens, gain, bias, q, k, v, out))
    td, gd, bd, qd, kd, vd, od = (t.data for t in (tokens, gain, bias, q, k, v, out))
    d = td.shape[-1]
    if td.ndim != 3 or gd.shape != (d,) or bd.shape != (d,) or \
            any(w.shape != (d, d) for w in (qd, kd, vd, od)):
        raise _shape_error("attention_residual", td.shape, gd.shape, bd.shape,
                           qd.shape, kd.shape, vd.shape, od.shape)
    factor = 1.0 / math.sqrt(d)
    hn, xhat, inv = _layer_norm_fwd(td, gd, bd)
    hq, hk, hv = np.matmul(hn, qd), np.matmul(hn, kd), np.matmul(hn, vd)
    scores = np.matmul(hq, np.swapaxes(hk, -1, -2))
    scores *= factor
    attn = _softmax_fwd(scores)
    del scores
    mixed = np.matmul(attn, hv)
    y = np.matmul(mixed, od)
    result = Tensor(np.add(td, y, out=y))
    if not _ACTIVE:
        return result
    needs = _wanted(tokens, gain, bias, q, k, v, out)
    need_t, need_gain, need_bias, need_q, need_k, need_v, need_out = needs

    def backward_fn(g):
        # Each saved array is dropped once its last use has passed, as the
        # chain's nodes were, so the branch never holds more at once.
        nonlocal hn, xhat, inv, hq, hk, hv, attn, mixed
        need_hn = need_t or need_gain or need_bias
        need_qk = need_hn or need_q or need_k
        g_mixed, g_out = _matmul_vjp(g, mixed, od, False, need_qk or need_v, need_out)
        del mixed
        g_attn = g_hv = g_hq = g_hk = None
        if g_mixed is not None:
            g_attn, g_hv = _matmul_vjp(g_mixed, attn, hv, False, need_qk, need_hn or need_v)
        del g_mixed, hv
        if g_attn is not None:
            g_scores = _softmax_vjp(g_attn, attn)
            del g_attn
            g_scores *= factor
            g_hq, g_hk = _matmul_vjp(g_scores, hq, hk, True, need_hn or need_q, need_hn or need_k)
            del g_scores
        del attn, hq, hk
        g_hn, g_v = (None, None) if g_hv is None else _matmul_vjp(g_hv, hn, vd, False, need_hn, need_v)
        del g_hv
        gk_hn, g_k = (None, None) if g_hk is None else _matmul_vjp(g_hk, hn, kd, False, need_hn, need_k)
        del g_hk
        gq_hn, g_q = (None, None) if g_hq is None else _matmul_vjp(g_hq, hn, qd, False, need_hn, need_q)
        del g_hq, hn
        g_tokens = g_gain = g_bias = None
        if need_hn:
            g_hn += gk_hn                 # (v + k) + q, hn's fresh sum
            g_hn += gq_hn
            del gk_hn, gq_hn
            g_tokens, g_gain, g_bias = _layer_norm_vjp(g_hn, gd, xhat, inv, need_t, need_gain, need_bias)
        del xhat, inv
        if g_tokens is not None:
            g_tokens = np.add(g, g_tokens, out=g_tokens)
        return g_tokens, g_gain, g_bias, g_q, g_k, g_v, g_out

    return _record("attention_residual", (tokens, gain, bias, q, k, v, out), result, backward_fn, needs)


def mlp_residual(tokens, gain, bias, w1, b1, w2, b2) -> Tensor:
    """tokens [batch, tokens, d] + the MLP over layer_norm(tokens, gain, bias): one node.

    Its forward and backward repeat, expression by expression, the chain
    hn = layer_norm(tokens, gain, bias); hidden = gelu(add(matmul(hn, w1), b1));
    add(tokens, add(matmul(hidden, w2), b2)).
    """
    tokens, gain, bias, w1, b1, w2, b2 = map(_as_tensor, (tokens, gain, bias, w1, b1, w2, b2))
    td, gd, bd, w1d, b1d, w2d, b2d = (t.data for t in (tokens, gain, bias, w1, b1, w2, b2))
    d = td.shape[-1]
    if td.ndim != 3 or gd.shape != (d,) or bd.shape != (d,) or w1d.ndim != 2 or \
            w1d.shape[0] != d or b1d.shape != w1d.shape[1:] or w2d.shape != w1d.shape[::-1] or \
            b2d.shape != (d,):
        raise _shape_error("mlp_residual", td.shape, gd.shape, bd.shape,
                           w1d.shape, b1d.shape, w2d.shape, b2d.shape)
    hn, xhat, inv = _layer_norm_fwd(td, gd, bd)
    pre = _linear_fwd(hn, w1d, b1d)
    hidden, cdf = _gelu_fwd(pre)
    y = _linear_fwd(hidden, w2d, b2d)
    result = Tensor(np.add(td, y, out=y))
    if not _ACTIVE:
        return result
    needs = _wanted(tokens, gain, bias, w1, b1, w2, b2)
    need_t, need_gain, need_bias, need_w1, need_b1, need_w2, need_b2 = needs

    def backward_fn(g):
        # Each saved array is dropped once its last use has passed (see attention_residual).
        nonlocal hn, xhat, inv, pre, cdf, hidden
        need_hn = need_t or need_gain or need_bias
        need_hidden = need_hn or need_w1 or need_b1
        g_hidden, g_w2, g_b2 = _linear_vjp(g, hidden, w2d, b2d.shape, need_hidden, need_w2, need_b2)
        del hidden
        g_hn = g_w1 = g_b1 = None
        if need_hidden:
            g_pre = _gelu_vjp(g_hidden, pre, cdf)
            del g_hidden
            g_hn, g_w1, g_b1 = _linear_vjp(g_pre, hn, w1d, b1d.shape, need_hn, need_w1, need_b1)
            del g_pre
        del pre, cdf, hn
        g_tokens = g_gain = g_bias = None
        if need_hn:
            g_tokens, g_gain, g_bias = _layer_norm_vjp(g_hn, gd, xhat, inv, need_t, need_gain, need_bias)
            del g_hn
        del xhat, inv
        if g_tokens is not None:
            g_tokens = np.add(g, g_tokens, out=g_tokens)
        return g_tokens, g_gain, g_bias, g_w1, g_b1, g_w2, g_b2

    return _record("mlp_residual", (tokens, gain, bias, w1, b1, w2, b2), result, backward_fn, needs)


# Each op kind is also the name of its function in this module.
_OP_KINDS = ("matmul", "add", "scale", "relu", "gelu", "layer_norm", "softmax", "log",
             "mean", "cosine_similarity_rows", "gather_rows", "concat", "reshape",
             "normalize_rows", "cross_entropy_from_logits", "attention_residual", "mlp_residual")


def op_kinds() -> tuple[str, ...]:
    return _OP_KINDS


def backward(loss: Tensor, graph: Graph) -> None:
    """Accumulate d(loss)/d(input) into .grad of every tensor on the tape.

    Grads add onto whatever is already stored, so callers zero parameter
    grads between passes; loss must be 0-d. A first gradient is stored as
    the op returned it, possibly shared with other grads; later ones make a
    new array. The tape is consumed, last node first, so a graph can be
    differentiated once.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    if graph.consumed:
        raise RuntimeError("backward: this graph's tape was consumed by an earlier backward")
    graph.consumed = True
    graph.live.clear()        # the taped outputs go as their nodes do
    loss.grad = np.ones((), dtype=np.float64)
    nodes = graph.nodes
    while nodes:
        node = nodes.pop()    # dropping the node frees what only its VJP held
        g = node.output.grad
        if g is not None:
            for t, gi in zip(node.inputs, node.backward_fn(g)):
                if gi is not None:
                    t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------- optimizers

class Optimizer:
    """SGD / AdamW over a dict of parameter tensors by path, set by a RunConfig's [optimizer] keys.

    With a mask, only mask=1 coordinates of the mask's tensors change and
    moment state exists only for those tensors; everything else is untouched
    bit for bit. Without a mask every parameter is stepped.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, params, mask=None) -> None:
        targets = [(path, None) for path in params] if mask is None else mask.items()
        for path, bits in targets:
            p = params[path]
            if p.grad is None:
                raise ValueError(f"optimizer step: no gradient for '{path}'")
            g = p.grad if bits is None else p.grad * bits
            upd = self._update(path, g, p.data)
            if bits is None:
                p.data -= upd
            else:
                p.data[bits] = p.data[bits] - upd[bits]

    def _update(self, path: str, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.optimizer_kind == "sgd":
            return cfg.learning_rate * g
        if path not in self._m:
            self._m[path], self._v[path] = np.zeros_like(theta), np.zeros_like(theta)
        m, v = self._m[path], self._v[path]
        t = self._t.get(path, 0) + 1
        self._t[path] = t
        buf = np.multiply(g, 1.0 - cfg.beta1, out=np.empty_like(theta))
        m *= cfg.beta1
        m += buf                              # m = beta1 * m + (1 - beta1) * g
        np.multiply(g, g, out=buf)
        buf *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += buf                              # v = beta2 * v + (1 - beta2) * g * g
        np.divide(v, 1.0 - cfg.beta2 ** t, out=buf)
        np.sqrt(buf, out=buf)
        buf += cfg.epsilon                    # sqrt(vhat) + epsilon
        step = np.divide(m, 1.0 - cfg.beta1 ** t, out=np.empty_like(theta))
        step /= buf                           # mhat / (sqrt(vhat) + epsilon)
        step += np.multiply(theta, cfg.weight_decay, out=buf)
        step *= cfg.learning_rate
        return step
