"""Finite-difference gradient oracle, independent of the library's backward.

The forward passes reuse the library ops (run outside any Graph they do not
record), but every derivative here comes from central differences, never from
the tape. check_case / check_model_gradients are shared by the unit tests and
the acceptance gate.
"""

import zlib

import numpy as np

import dosapp.autodiff as ad
import dosapp.model as dm
from dosapp.config import RunConfig

REL_TOL = 1e-4
ABS_FLOOR = 1e-8
FD_STEP = 1e-5


def finite_difference(f, arrays, h=FD_STEP):
    """Central-difference gradients of the scalar f() w.r.t. each array.

    Perturbs the arrays in place and restores them, so f may close over the
    same storage the arrays live in.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat, gf = arr.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = f()
            flat[i] = orig - h
            fm = f()
            flat[i] = orig
            gf[i] = (fp - fm) / (2.0 * h)
        grads.append(g)
    return grads


def assert_grads_close(analytic, numeric, rel=REL_TOL, floor=ABS_FLOOR, label=""):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    tol = np.maximum(rel * np.maximum(np.abs(a), np.abs(n)), floor)
    err = np.abs(a - n)
    if not np.all(err <= tol):
        worst = int(np.argmax(err - tol))
        raise AssertionError(
            f"gradient mismatch{' in ' + label if label else ''}: "
            f"analytic {a.flat[worst]:.10g} vs numeric {n.flat[worst]:.10g} "
            f"(abs err {err.flat[worst]:.3g}, tol {tol.flat[worst]:.3g})"
        )


def _project(out, w):
    # random linear functional; uniform mean alone can hide sign errors
    flat = ad.reshape(out, (1, out.size))
    return ad.mean(ad.matmul(flat, w))


def _proj_weights(rng, size):
    return rng.normal(size=(size, 1))


def _away_from_zero(rng, shape, low=0.1, high=1.5):
    # relu/gelu kinks make FD invalid near 0
    mag = rng.uniform(low, high, size=shape)
    sign = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return mag * sign


def _case_matmul_2d(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = ad.Tensor(rng.normal(size=(4, 2)))
    w = _proj_weights(rng, 6)
    return lambda: _project(ad.matmul(a, b), w), [a, b]


def _case_matmul_transpose_b(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = ad.Tensor(rng.normal(size=(2, 4)))
    w = _proj_weights(rng, 6)
    return lambda: _project(ad.matmul(a, b, transpose_b=True), w), [a, b]


def _case_matmul_batched_2d_rhs(rng):
    a = ad.Tensor(rng.normal(size=(2, 3, 4)))
    b = ad.Tensor(rng.normal(size=(4, 2)))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.matmul(a, b), w), [a, b]


def _case_matmul_batched_pair(rng):
    a = ad.Tensor(rng.normal(size=(2, 3, 4)))
    b = ad.Tensor(rng.normal(size=(2, 4, 5)))
    w = _proj_weights(rng, 30)
    return lambda: _project(ad.matmul(a, b), w), [a, b]


def _case_matmul_batched_transpose_b(rng):
    a = ad.Tensor(rng.normal(size=(2, 3, 4)))
    b = ad.Tensor(rng.normal(size=(2, 3, 4)))
    w = _proj_weights(rng, 18)
    return lambda: _project(ad.matmul(a, b, transpose_b=True), w), [a, b]


def _case_linear_2d(rng):
    x = ad.Tensor(rng.normal(size=(3, 4)))
    w = ad.Tensor(rng.normal(size=(4, 2)))
    b = ad.Tensor(rng.normal(size=(2,)))
    p = _proj_weights(rng, 6)
    return lambda: _project(ad.linear(x, w, b), p), [x, w, b]


def _case_linear_batched(rng):
    x = ad.Tensor(rng.normal(size=(2, 3, 4)))
    w = ad.Tensor(rng.normal(size=(4, 5)))
    b = ad.Tensor(rng.normal(size=(5,)))
    p = _proj_weights(rng, 30)
    return lambda: _project(ad.linear(x, w, b), p), [x, w, b]


def _case_add(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.add(a, b), w), [a, b]


def _case_add_broadcast_bias(rng):
    a = ad.Tensor(rng.normal(size=(3, 4)))
    b = ad.Tensor(rng.normal(size=(4,)))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.add(a, b), w), [a, b]


def _case_scale(rng):
    a = ad.Tensor(rng.normal(size=(5,)))
    w = _proj_weights(rng, 5)
    return lambda: _project(ad.scale(a, -1.7), w), [a]


def _case_relu(rng):
    a = ad.Tensor(_away_from_zero(rng, (7,)))
    w = _proj_weights(rng, 7)
    return lambda: _project(ad.relu(a), w), [a]


def _case_gelu(rng):
    a = ad.Tensor(_away_from_zero(rng, (7,)))
    w = _proj_weights(rng, 7)
    return lambda: _project(ad.gelu(a), w), [a]


def _case_layer_norm(rng):
    x = ad.Tensor(rng.normal(size=(4, 6)))
    gain = ad.Tensor(rng.uniform(0.5, 1.5, size=(6,)))
    bias = ad.Tensor(rng.normal(size=(6,)))
    w = _proj_weights(rng, 24)
    return lambda: _project(ad.layer_norm(x, gain, bias), w), [x, gain, bias]


def _case_softmax(rng):
    a = ad.Tensor(rng.normal(size=(3, 5)))
    w = _proj_weights(rng, 15)
    return lambda: _project(ad.softmax(a), w), [a]


def _case_log(rng):
    a = ad.Tensor(rng.uniform(0.2, 3.0, size=(6,)))
    w = _proj_weights(rng, 6)
    return lambda: _project(ad.log(a), w), [a]


def _case_mean(rng):
    a = ad.Tensor(rng.normal(size=(4, 3)))
    return lambda: ad.mean(a), [a]


def _case_cosine_similarity_rows(rng):
    a = ad.Tensor(rng.normal(size=(3, 5)))
    b = ad.Tensor(rng.normal(size=(4, 5)))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.cosine_similarity_rows(a, b), w), [a, b]


def _case_gather_rows(rng):
    a = ad.Tensor(rng.normal(size=(4, 6)))
    ids = np.array([2, 0, 5, 3])
    w = _proj_weights(rng, 4)
    return lambda: _project(ad.gather_rows(a, ids), w), [a]


def _case_concat_axis0(rng):
    a = ad.Tensor(rng.normal(size=(2, 3)))
    b = ad.Tensor(rng.normal(size=(4, 3)))
    w = _proj_weights(rng, 18)
    return lambda: _project(ad.concat([a, b], axis=0), w), [a, b]


def _case_concat_axis1(rng):
    a = ad.Tensor(rng.normal(size=(3, 2)))
    b = ad.Tensor(rng.normal(size=(3, 4)))
    w = _proj_weights(rng, 18)
    return lambda: _project(ad.concat([a, b], axis=1), w), [a, b]


def _case_reshape(rng):
    a = ad.Tensor(rng.normal(size=(2, 6)))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.reshape(a, (3, 4)), w), [a]


def _case_normalize_rows(rng):
    a = ad.Tensor(rng.normal(size=(3, 5)))
    w = _proj_weights(rng, 15)
    return lambda: _project(ad.normalize_rows(a), w), [a]


def _case_cross_entropy(rng):
    logits = ad.Tensor(rng.normal(size=(4, 7)))
    labels = np.array([3, 0, 6, 2])
    return lambda: ad.cross_entropy_from_logits(logits, labels), [logits]


def _attention_inputs(rng, tokens_shape):
    d = tokens_shape[-1]
    tokens = ad.Tensor(rng.normal(size=tokens_shape))
    gain = ad.Tensor(rng.uniform(0.5, 1.5, size=(d,)))
    bias = ad.Tensor(rng.normal(size=(d,)))
    weights = [ad.Tensor(rng.normal(size=(d, d))) for _ in range(4)]
    return [tokens, gain, bias, *weights]


def _case_attention_residual_batched(rng):
    inputs = _attention_inputs(rng, (2, 3, 4))
    w = _proj_weights(rng, 24)
    return lambda: _project(ad.attention_residual(*inputs), w), inputs


def _case_attention_residual_2d(rng):
    inputs = _attention_inputs(rng, (3, 4))
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.attention_residual(*inputs), w), inputs


def _mlp_inputs(rng, tokens_shape, hidden):
    d = tokens_shape[-1]
    tokens = ad.Tensor(rng.normal(size=tokens_shape))
    gain = ad.Tensor(rng.uniform(0.5, 1.5, size=(d,)))
    bias = ad.Tensor(rng.normal(size=(d,)))
    w1 = ad.Tensor(rng.normal(size=(d, hidden)))
    b1 = ad.Tensor(rng.normal(size=(hidden,)))
    w2 = ad.Tensor(rng.normal(size=(hidden, d)))
    b2 = ad.Tensor(rng.normal(size=(d,)))
    return [tokens, gain, bias, w1, b1, w2, b2]


def _case_mlp_residual_batched(rng):
    inputs = _mlp_inputs(rng, (2, 3, 4), 5)
    w = _proj_weights(rng, 24)
    return lambda: _project(ad.mlp_residual(*inputs), w), inputs


def _case_mlp_residual_2d(rng):
    inputs = _mlp_inputs(rng, (3, 4), 5)
    w = _proj_weights(rng, 12)
    return lambda: _project(ad.mlp_residual(*inputs), w), inputs


# Each case is named after the op kind it checks, alone or as a prefix ("<kind>_...").
OP_CASES = {
    "matmul_2d": _case_matmul_2d,
    "matmul_transpose_b": _case_matmul_transpose_b,
    "matmul_batched_2d_rhs": _case_matmul_batched_2d_rhs,
    "matmul_batched_pair": _case_matmul_batched_pair,
    "matmul_batched_transpose_b": _case_matmul_batched_transpose_b,
    "linear_2d": _case_linear_2d,
    "linear_batched": _case_linear_batched,
    "add": _case_add,
    "add_broadcast_bias": _case_add_broadcast_bias,
    "scale": _case_scale,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "layer_norm": _case_layer_norm,
    "softmax": _case_softmax,
    "log": _case_log,
    "mean": _case_mean,
    "cosine_similarity_rows": _case_cosine_similarity_rows,
    "gather_rows": _case_gather_rows,
    "concat_axis0": _case_concat_axis0,
    "concat_axis1": _case_concat_axis1,
    "reshape": _case_reshape,
    "normalize_rows": _case_normalize_rows,
    "cross_entropy_from_logits": _case_cross_entropy,
    "attention_residual_batched": _case_attention_residual_batched,
    "attention_residual_2d": _case_attention_residual_2d,
    "mlp_residual_batched": _case_mlp_residual_batched,
    "mlp_residual_2d": _case_mlp_residual_2d,
}


def case_rng(name, seed=0):
    """The generator that op case `name` draws its inputs from.

    Seeded from a CRC of the name, not hash(): str hashes change from one
    process to the next.
    """
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def check_case(name, seed=0):
    """FD-check one op case; raises AssertionError on mismatch."""
    build, tensors = OP_CASES[name](case_rng(name, seed))
    with ad.Graph() as g:
        loss = build()
    ad.backward(loss, g)
    analytic = [t.grad.copy() for t in tensors]
    numeric = finite_difference(lambda: build().item(), [t.data for t in tensors])
    for i, (a, n) in enumerate(zip(analytic, numeric)):
        assert_grads_close(a, n, label=f"{name} input {i}")


def check_all_ops(seed=0):
    for name in OP_CASES:
        check_case(name, seed)


def tiny_encoder_config(use_attention=True):
    """A RunConfig whose encoder is a tiny 2-block one."""
    return RunConfig(input_dim=8, token_count=2, token_dim=4, block_count=2,
                     mlp_hidden_dim=6, embed_dim=5, use_attention=use_attention)


def check_model_gradients(seed=0, use_attention=True):
    """FD over every parameter of a randomized 2-block model."""
    cfg = tiny_encoder_config(use_attention)
    params = dm.init_model(cfg, seed)
    table = dm.init_class_table(4, cfg.embed_dim, seed)
    rng = np.random.default_rng([seed, 77])
    x = rng.normal(size=(3, cfg.input_dim))
    labels = np.array([0, 2, 3])
    temperature = 0.07

    def build():
        return dm.model_loss(params, table, x, labels, temperature)

    for t in params.values():
        t.grad = None
    with ad.Graph() as g:
        loss = build()
    ad.backward(loss, g)
    paths = sorted(params)
    analytic = [params[p].grad.copy() for p in paths]
    numeric = finite_difference(lambda: build().item(),
                                [params[p].data for p in paths])
    for path, a, n in zip(paths, analytic, numeric):
        assert_grads_close(a, n, label=path)
