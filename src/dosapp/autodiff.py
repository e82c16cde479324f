"""Reverse-mode autodiff on dense float64 arrays, sized for toy models.

Define-by-run: ops executed while a Graph is active append tape nodes to it;
``backward`` replays the tape in reverse creation order (creation order is a
topological order by construction). Ops executed with no active graph just
compute values, which is how evaluation paths run.

``Graph(wrt=tensors)`` differentiates only what depends on those tensors: an
op is taped only if one of its inputs does, and it skips the vector-Jacobian
product of every input that does not. The gradients of the ``wrt`` tensors
are bit-identical to those of a full ``Graph()``. A ``.grad`` array may be
shared with other tensors' grads, so grads are replaced, never mutated in
place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)
LAYER_NORM_EPS = 1e-5


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

    def zero_grad(self) -> None:
        self.grad = None

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
    """Tape of nodes in creation order; creation order is topological.

    wrt=None tapes every op and differentiates every input. Otherwise ``live``
    holds the ids of the wrt tensors and of every taped output, all kept
    alive by the graph, so an id in it cannot be reused.
    """

    def __init__(self, wrt=None):
        self.nodes: list[Node] = []
        self.wrt = None if wrt is None else tuple(wrt)
        self.live = None if wrt is None else {id(t) for t in self.wrt}

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
    """Per input, whether the active graph wants its gradient."""
    live = _ACTIVE[-1].live if _ACTIVE else None
    if live is None:
        return (True,) * len(inputs)
    return tuple(id(t) in live for t in inputs)


def _record(kind, inputs, out, backward_fn) -> Tensor:
    if _ACTIVE and any(_wanted(*inputs)):
        graph = _ACTIVE[-1]
        graph.nodes.append(Node(kind, tuple(inputs), out, backward_fn))
        if graph.live is not None:
            graph.live.add(id(out))
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


def _shape_error(kind: str, *shapes) -> ValueError:
    pretty = " vs ".join(str(s) for s in shapes)
    return ValueError(f"{kind}: incompatible shapes {pretty}")


# ---------------------------------------------------------------- ops

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
    need_a, need_b = _wanted(a, b)

    def backward_fn(g):
        ga = gb = None
        if need_a:
            ga = _unbroadcast(np.matmul(g, bd if transpose_b else np.swapaxes(bd, -1, -2)), ad.shape)
        if need_b:
            gb = (np.matmul(np.swapaxes(g, -1, -2), ad) if transpose_b
                  else np.matmul(np.swapaxes(ad, -1, -2), g))
            gb = _unbroadcast(gb, bd.shape)
        return ga, gb

    return _record("matmul", (a, b), out, backward_fn)


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = Tensor(a.data + b.data)
    except ValueError:
        raise _shape_error("add", a.data.shape, b.data.shape)
    need_a, need_b = _wanted(a, b)

    def backward_fn(g):
        return (_unbroadcast(g, a.data.shape) if need_a else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _record("add", (a, b), out, backward_fn)


def linear(x, w, b) -> Tensor:
    """x @ w + b for x [..., n], w [n, m] and b [m]: one node for matmul then add."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xd, wd = x.data, w.data
    if xd.ndim < 2 or wd.ndim != 2 or xd.shape[-1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise _shape_error("linear", xd.shape, wd.shape, b.data.shape)
    out = Tensor(np.matmul(xd, wd) + b.data)
    need_x, need_w, need_b = _wanted(x, w, b)

    def backward_fn(g):
        return (_unbroadcast(np.matmul(g, wd.T), xd.shape) if need_x else None,
                _unbroadcast(np.matmul(np.swapaxes(xd, -1, -2), g), wd.shape) if need_w else None,
                _unbroadcast(g, b.data.shape) if need_b else None)

    return _record("linear", (x, w, b), out, backward_fn)


def scale(a, factor: float) -> Tensor:
    """Multiply by a python float constant (not a differentiable input)."""
    a = _as_tensor(a)
    factor = float(factor)
    out = Tensor(a.data * factor)

    def backward_fn(g):
        return (g * factor,)

    return _record("scale", (a,), out, backward_fn)


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.maximum(a.data, 0.0))

    def backward_fn(g):
        return (g * (a.data > 0.0),)

    return _record("relu", (a,), out, backward_fn)


def gelu(a) -> Tensor:
    """Exact erf-form GELU."""
    a = _as_tensor(a)
    e = erf(a.data * _INV_SQRT2)
    out = Tensor(0.5 * a.data * (1.0 + e))

    def backward_fn(g):
        pdf = np.exp(-0.5 * a.data * a.data) * _INV_SQRT2PI
        return (g * (0.5 * (1.0 + e) + a.data * pdf),)

    return _record("gelu", (a,), out, backward_fn)


def layer_norm(x, gain, bias) -> Tensor:
    """Standardize the last axis, then apply elementwise gain and bias."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    n = x.data.shape[-1]
    if gain.data.shape != (n,) or bias.data.shape != (n,):
        raise _shape_error("layer_norm", x.data.shape, gain.data.shape, bias.data.shape)
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + LAYER_NORM_EPS)
    xhat = xc * inv
    out = Tensor(xhat * gain.data + bias.data)
    need_x, need_gain, need_bias = _wanted(x, gain, bias)

    def backward_fn(g):
        dx = None
        if need_x:
            dxhat = g * gain.data
            s1 = dxhat.sum(axis=-1, keepdims=True)
            s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
            dx = inv * (dxhat - s1 / n - xhat * (s2 / n))
        return (dx, _unbroadcast(g * xhat, gain.data.shape) if need_gain else None,
                _unbroadcast(g, bias.data.shape) if need_bias else None)

    return _record("layer_norm", (x, gain, bias), out, backward_fn)


def softmax(a) -> Tensor:
    """Softmax over the last axis, max-shifted for stability."""
    a = _as_tensor(a)
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y)

    def backward_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _record("softmax", (a,), out, backward_fn)


def log(a) -> Tensor:
    a = _as_tensor(a)
    out = Tensor(np.log(a.data))

    def backward_fn(g):
        return (g / a.data,)

    return _record("log", (a,), out, backward_fn)


def mean(a) -> Tensor:
    """Mean over every entry; returns a 0-d tensor."""
    a = _as_tensor(a)
    out = Tensor(a.data.mean())

    def backward_fn(g):
        return (np.full(a.data.shape, float(g) / a.data.size),)

    return _record("mean", (a,), out, backward_fn)


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
    need_a, need_b = _wanted(a, b)

    def backward_fn(g):
        da = db = None
        if need_a:
            dah = g @ bh
            da = ((dah - ah * (dah * ah).sum(axis=1, keepdims=True)) / na).reshape(a.data.shape)
        if need_b:
            dbh = g.T @ ah
            db = ((dbh - bh * (dbh * bh).sum(axis=1, keepdims=True)) / nb).reshape(b.data.shape)
        return da, db

    return _record("cosine_similarity_rows", (a, b), out, backward_fn)


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

    def backward_fn(g):
        da = np.zeros_like(a.data)
        da[rows, ids] = g
        return (da,)

    return _record("gather_rows", (a,), out, backward_fn)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate along one axis."""
    ts = [_as_tensor(t) for t in tensors]
    if not ts:
        raise ValueError("concat: empty input list")
    try:
        out = Tensor(np.concatenate([t.data for t in ts], axis=axis))
    except ValueError:
        raise _shape_error("concat", *[t.data.shape for t in ts])
    sizes = [t.data.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]
    needs = _wanted(*ts)

    def backward_fn(g):
        return tuple(gi if need else None for gi, need in zip(np.split(g, splits, axis=axis), needs))

    return _record("concat", tuple(ts), out, backward_fn)


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    try:
        out = Tensor(a.data.reshape(shape))
    except ValueError:
        raise _shape_error("reshape", a.data.shape, shape)

    def backward_fn(g):
        return (g.reshape(a.data.shape),)

    return _record("reshape", (a,), out, backward_fn)


def normalize_rows(a) -> Tensor:
    """Scale each row (last axis) to unit L2 norm; rows must be nonzero."""
    a = _as_tensor(a)
    n = np.sqrt((a.data * a.data).sum(axis=-1, keepdims=True))
    y = a.data / n
    out = Tensor(y)

    def backward_fn(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / n,)

    return _record("normalize_rows", (a,), out, backward_fn)


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
    shifted = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    logp = np.log(y)
    rows = np.arange(labels.size)
    picked = logp[rows, labels]
    out = Tensor(picked.mean() * -1.0)

    def backward_fn(g):
        dlogp = np.zeros_like(logp)
        dlogp[rows, labels] = np.full(picked.shape, float(g * -1.0) / picked.size)
        dy = dlogp / y
        dot = (dy * y).sum(axis=-1, keepdims=True)
        return (y * (dy - dot),)

    return _record("cross_entropy_from_logits", (logits,), out, backward_fn)


_OPS: dict[str, Callable[..., Tensor]] = {
    "matmul": matmul,
    "linear": linear,
    "add": add,
    "scale": scale,
    "relu": relu,
    "gelu": gelu,
    "layer_norm": layer_norm,
    "softmax": softmax,
    "log": log,
    "mean": mean,
    "cosine_similarity_rows": cosine_similarity_rows,
    "gather_rows": gather_rows,
    "concat": concat,
    "reshape": reshape,
    "normalize_rows": normalize_rows,
    "cross_entropy_from_logits": cross_entropy_from_logits,
}


def op_kinds() -> tuple[str, ...]:
    return tuple(_OPS)


def forward_op(kind: str, inputs, **attrs) -> Tensor:
    """Dispatch one op by kind name; unknown kinds are an error."""
    if kind not in _OPS:
        raise ValueError(f"unknown op kind '{kind}'")
    if kind == "concat":
        return concat(list(inputs), **attrs)
    return _OPS[kind](*inputs, **attrs)


def backward(loss: Tensor, graph: Graph) -> None:
    """Accumulate d(loss)/d(input) into .grad of every tensor on the tape.

    Grads add onto whatever is already stored, so callers zero parameter
    grads between passes; loss must be 0-d. A first gradient is stored as
    the op returned it, possibly shared with other grads; later ones make a
    new array.
    """
    if loss.data.ndim != 0:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.data.shape}")
    loss.grad = np.ones((), dtype=np.float64)
    for node in reversed(graph.nodes):
        g = node.output.grad
        if g is None:
            continue
        grads = node.backward_fn(g)
        for t, gi in zip(node.inputs, grads):
            if gi is not None:
                t.grad = gi if t.grad is None else t.grad + gi


# ---------------------------------------------------------------- optimizers

OPTIMIZER_KINDS = ("adamw", "sgd")


@dataclass(frozen=True)
class OptimizerConfig:
    learning_rate: float
    kind: str = "adamw"  # one of OPTIMIZER_KINDS
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ValueError(f"unknown optimizer kind '{self.kind}'")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be positive")
        if self.weight_decay < 0.0:
            raise ValueError("weight_decay must be nonnegative")


class Optimizer:
    """SGD / AdamW over a ParameterSet, optionally gated by a binary mask.

    With a mask, only mask=1 coordinates of the mask's tensors change and
    moment state exists only for those tensors; everything else is untouched
    bit for bit. Without a mask every parameter is stepped.
    """

    def __init__(self, cfg: OptimizerConfig):
        self.cfg = cfg
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t: dict[str, int] = {}

    def step(self, params, mask=None) -> None:
        if mask is None:
            targets = [(path, None) for path in params.entries]
        else:
            targets = [(path, bits) for path, bits in mask.bits.items()]
        for path, bits in targets:
            p = params.entries[path]
            if p.grad is None:
                raise ValueError(f"optimizer step: no gradient for '{path}'")
            g = p.grad if bits is None else p.grad * bits
            upd = self._update(path, g, p.data)
            if bits is None:
                p.data -= upd
            else:
                sel = bits
                p.data[sel] = p.data[sel] - upd[sel]

    def _update(self, path: str, g: np.ndarray, theta: np.ndarray) -> np.ndarray:
        cfg = self.cfg
        if cfg.kind == "sgd":
            return cfg.learning_rate * g
        m = self._m.setdefault(path, np.zeros_like(theta))
        v = self._v.setdefault(path, np.zeros_like(theta))
        t = self._t.get(path, 0) + 1
        self._t[path] = t
        m[...] = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v[...] = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        mhat = m / (1.0 - cfg.beta1 ** t)
        vhat = v / (1.0 - cfg.beta2 ** t)
        return cfg.learning_rate * (mhat / (np.sqrt(vhat) + cfg.epsilon) + cfg.weight_decay * theta)
