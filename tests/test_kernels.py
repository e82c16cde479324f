"""The lean kernels give the same bits as the plain expressions they replace.

Each reference below is the straightforward numpy form of a kernel in
``autodiff``: one temporary per operation, whole stacks summed at once. The
kernels must match it with ``np.array_equal``, not within a tolerance, and
must leave their inputs and incoming gradients unwritten.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays
from scipy.special import erf

import dosapp.autodiff as ad
from dosapp.config import RunConfig


def params_of(**arrays) -> dict[str, ad.Tensor]:
    """A parameter dict of (copies of) the named arrays."""
    return {k: ad.Tensor(np.array(v, dtype=np.float64)) for k, v in arrays.items()}


@contextlib.contextmanager
def fold_budget(nbytes):
    saved = ad.FOLD_BYTES
    ad.FOLD_BYTES = nbytes
    try:
        yield
    finally:
        ad.FOLD_BYTES = saved


def spread(rng, shape):
    # magnitudes over many binades, so a change of summation order shows
    return rng.normal(size=shape) * 10.0 ** rng.uniform(-4, 4, size=shape)


def backward_of(op, arrays, g, **attrs):
    """Run op on tensors of arrays under a Graph of them all; return its output and its VJP of g."""
    inputs = [ad.Tensor(a) for a in arrays]
    with ad.Graph(wrt=inputs) as graph:
        out = op(*inputs, **attrs)
    return out.data, graph.nodes[-1].backward_fn(g)


finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


# ------------------------------------------------------------ chunked fold

def left_fold(stack):
    acc = stack[0].copy()
    for item in stack[1:]:
        acc = acc + item
    return acc


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 5), st.integers(1, 4),
       st.integers(1, 5), st.integers(1, 45))
def test_fold_matches_the_summed_stack(seed, batch, n, k, m, chunk):
    rng = np.random.default_rng(seed)
    a, b = spread(rng, (batch, n, k)), spread(rng, (batch, k, m))
    stack = np.matmul(a, b)
    # numpy sums axis 0 as a left fold in batch order, which the fold relies
    # on, except for one-element items, which it sums pairwise
    if n * m > 1:
        assert np.array_equal(stack.sum(axis=0), left_fold(stack))
    # chunk >= batch keeps the whole stack, chunk < batch folds it in pieces
    with fold_budget(chunk * n * m * 8):
        got = ad._fold_products(a, b)
    assert np.array_equal(got, stack.sum(axis=0))


@pytest.mark.parametrize("batch", [1, 15, 16, 17, 50, 64])
@pytest.mark.parametrize("n,m", [(32, 256), (256, 32), (32, 32)])
def test_fold_at_model_sizes(batch, n, m):
    # with the real budget, [.., 32, 256] folds 16 items a chunk and [.., 32, 32]
    # stays whole up to 512 items
    rng = np.random.default_rng(batch * n)
    xt = np.swapaxes(spread(rng, (batch, 4, n)), -1, -2)
    g = spread(rng, (batch, 4, m))
    assert np.array_equal(ad._fold_products(xt, g), np.matmul(xt, g).sum(axis=0))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 4), st.integers(1, 5),
       st.integers(1, 5), st.integers(1, 13), st.booleans())
def test_weight_gradients_match_the_summed_stack(seed, batch, t, n, m, chunk, transpose_b):
    rng = np.random.default_rng(seed)
    x, g = spread(rng, (batch, t, n)), spread(rng, (batch, t, m))
    w = spread(rng, (m, n) if transpose_b else (n, m))
    with fold_budget(chunk * n * m * 8):
        _, (_, gw) = backward_of(ad.matmul, [x, w], g, transpose_b=transpose_b)
    lhs, rhs = (np.swapaxes(g, -1, -2), x) if transpose_b else (np.swapaxes(x, -1, -2), g)
    assert np.array_equal(gw, np.matmul(lhs, rhs).sum(axis=0))


# ------------------------------------------------------------ gelu

@settings(max_examples=80, deadline=None)
@given(arrays(np.float64, array_shapes(min_dims=0, max_dims=3, max_side=5), elements=finite),
       st.integers(0, 2**32 - 1))
def test_gelu_matches_the_plain_expressions(a, seed):
    g = spread(np.random.default_rng(seed), a.shape)
    with np.errstate(all="ignore"):
        out, (da,) = backward_of(ad.gelu, [a], g)
        e = erf(a * (1.0 / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * a * a) * (1.0 / np.sqrt(2.0 * np.pi))
        want_out = 0.5 * a * (1.0 + e)
        want_da = g * (0.5 * (1.0 + e) + a * pdf)
    assert np.array_equal(out, want_out, equal_nan=True)
    assert np.array_equal(da, want_da, equal_nan=True)


def test_gelu_sign_fold_matches_the_plain_erf_at_the_edges():
    # the kernel runs erf on |a| / sqrt 2 and copies a's sign back
    tiny = np.nextafter(0.0, 1.0)
    one = np.sqrt(2.0)                    # |a / sqrt 2| = 1 here, where erf changes method
    edges = [0.0, tiny, 2 * tiny, 3 * tiny, np.finfo(float).tiny,
             np.nextafter(one, 0.0), one, np.nextafter(one, 3.0), 6.0, 40.0, np.inf]
    rng = np.random.default_rng(20161008)
    spread_out = rng.normal(size=10**6) * 10.0 ** rng.uniform(-300, 300, size=10**6)
    a = np.concatenate([edges, np.negative(edges), spread_out])
    g = rng.normal(size=a.shape)
    with np.errstate(all="ignore"):
        out, (da,) = backward_of(ad.gelu, [a], g)
        e = erf(a * (1.0 / np.sqrt(2.0)))
        pdf = np.exp(-0.5 * a * a) * (1.0 / np.sqrt(2.0 * np.pi))
        want_out = 0.5 * a * (1.0 + e)
        want_da = g * (0.5 * (1.0 + e) + a * pdf)
    assert np.array_equal(out, want_out, equal_nan=True)
    assert np.array_equal(np.signbit(out), np.signbit(want_out))
    assert np.array_equal(da, want_da, equal_nan=True)
    assert np.array_equal(np.signbit(da), np.signbit(want_da))


# ------------------------------------------------------------ layer_norm

@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1), array_shapes(min_dims=1, max_dims=3, max_side=6))
def test_layer_norm_matches_the_plain_expressions(seed, shape):
    rng = np.random.default_rng(seed)
    n = shape[-1]
    x, g = spread(rng, shape), spread(rng, shape)
    gain, bias = rng.normal(size=n), rng.normal(size=n)
    assert np.array_equal(np.add.reduce(x, axis=-1, keepdims=True) / n, x.mean(axis=-1, keepdims=True))

    out, (dx, dgain, dbias) = backward_of(ad.layer_norm, [x, gain, bias], g)
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + ad.LAYER_NORM_EPS)
    xhat = xc * inv
    dxhat = g * gain
    s1 = dxhat.sum(axis=-1, keepdims=True)
    s2 = (dxhat * xhat).sum(axis=-1, keepdims=True)
    lead = tuple(range(x.ndim - 1))
    assert np.array_equal(out, xhat * gain + bias)
    assert np.array_equal(dx, inv * (dxhat - s1 / n - xhat * (s2 / n)))
    assert np.array_equal(dgain, (g * xhat).sum(axis=lead) if lead else g * xhat)
    assert np.array_equal(dbias, g.sum(axis=lead) if lead else g)


# ------------------------------------------------------------ fused residual branches

def attention_chain(tokens, gain, bias, q, k, v, out):
    # the attention half of a block as encode wrote it before the fused op
    d = tokens.shape[-1]
    hn = ad.layer_norm(tokens, gain, bias)
    hq = ad.matmul(hn, q)
    hk = ad.matmul(hn, k)
    hv = ad.matmul(hn, v)
    scores = ad.scale(ad.matmul(hq, hk, transpose_b=True), 1.0 / math.sqrt(d))
    mixed = ad.matmul(ad.softmax(scores), hv)
    return ad.add(tokens, ad.matmul(mixed, out))


def mlp_chain(tokens, gain, bias, w1, b1, w2, b2):
    # the MLP half of a block as encode wrote it before the fused op
    hn = ad.layer_norm(tokens, gain, bias)
    hidden = ad.gelu(ad.add(ad.matmul(hn, w1), b1))
    return ad.add(tokens, ad.add(ad.matmul(hidden, w2), b2))


def branch_inputs(kind, tokens_shape, hidden, seed):
    rng = np.random.default_rng(seed)
    d = tokens_shape[-1]
    if kind == "attention_residual":
        shapes = [(d,), (d,), (d, d), (d, d), (d, d), (d, d)]
    else:
        shapes = [(d,), (d,), (d, hidden), (hidden,), (hidden, d), (d,)]
    arrays = [rng.normal(size=tokens_shape) * 3.0]
    arrays += [rng.normal(size=s) / math.sqrt(s[0]) + (1.0 if i == 0 else 0.0) for i, s in enumerate(shapes)]
    return arrays, rng.normal(size=tokens_shape)


def branch_grads(op, arrays, g, wrt_ids):
    """Output, taped node kinds and every input's .grad after backward seeds the output with g.

    The graph differentiates the inputs numbered wrt_ids.
    """
    inputs = [ad.Tensor(a.copy()) for a in arrays]
    with ad.Graph(wrt=[inputs[i] for i in wrt_ids]) as graph:
        out = op(*inputs)
    kinds = [n.kind for n in graph.nodes]
    loss = ad.Tensor(0.0)           # a seed node hands g to the output as it is
    graph.nodes.append(ad.Node("seed", (out,), loss, lambda _: (g,)))
    ad.backward(loss, graph)
    return out.data, kinds, [t.grad for t in inputs]


BRANCHES = {"attention_residual": (ad.attention_residual, attention_chain),
            "mlp_residual": (ad.mlp_residual, mlp_chain)}
# (tokens shape, MLP hidden width): the default model and the wide one, batch 64 of 4 tokens
BRANCH_SHAPES = {"default": ((64, 4, 16), 64), "wide": ((64, 4, 32), 256)}


@pytest.mark.parametrize("shape", sorted(BRANCH_SHAPES))
@pytest.mark.parametrize("kind", sorted(BRANCHES))
def test_fused_branch_matches_the_chain_of_plain_ops_bit_for_bit(kind, shape):
    fused, chain = BRANCHES[kind]
    tokens_shape, hidden = BRANCH_SHAPES[shape]
    arrays, g = branch_inputs(kind, tokens_shape, hidden, seed=len(kind) + hidden)
    kept, kept_g = [a.copy() for a in arrays], g.copy()

    untaped = fused(*[ad.Tensor(a) for a in arrays]).data
    assert np.array_equal(untaped, chain(*[ad.Tensor(a) for a in arrays]).data)
    subsets = [s for r in range(1, 8) for s in itertools.combinations(range(7), r)]
    assert len(subsets) == 127
    for wrt in subsets:
        out, kinds, grads = branch_grads(fused, arrays, g, wrt)
        want_out, _, want_grads = branch_grads(chain, arrays, g, wrt)
        assert kinds == [kind], wrt
        assert np.array_equal(out, want_out) and np.array_equal(out, untaped), wrt
        for i, (got, want) in enumerate(zip(grads, want_grads)):
            if i in wrt:
                assert got is not None and np.array_equal(got, want), (wrt, i)
            else:
                assert got is None and want is None, (wrt, i)
    assert all(np.array_equal(a, b) for a, b in zip(arrays, kept))
    assert np.array_equal(g, kept_g)


@pytest.mark.parametrize("kind", sorted(BRANCHES))
def test_fused_branch_rejects_an_unbatched_sequence(kind):
    # encode gives a branch [batch, tokens, d]; a bare [tokens, d] is a shape error
    fused, _ = BRANCHES[kind]
    arrays, _ = branch_inputs(kind, (5, 8), 12, seed=3)
    with pytest.raises(ValueError, match=rf"{kind}: incompatible shapes \(5, 8\) vs \(8,\)"):
        fused(*arrays)


# ------------------------------------------------------------ AdamW

def adamw_reference(cfg, steps, theta, grads):
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t, g in enumerate(grads[:steps], start=1):
        m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
        v = cfg.beta2 * v + (1.0 - cfg.beta2) * (g * g)
        mhat = m / (1.0 - cfg.beta1 ** t)
        vhat = v / (1.0 - cfg.beta2 ** t)
        theta = theta - cfg.learning_rate * (mhat / (np.sqrt(vhat) + cfg.epsilon) + cfg.weight_decay * theta)
    return theta, m, v


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), array_shapes(min_dims=1, max_dims=2, max_side=6),
       st.floats(1e-6, 1.0), st.floats(0.0, 0.99), st.floats(0.0, 0.9999), st.floats(1e-10, 1e-2),
       st.floats(1e-4, 0.5), st.integers(1, 6))
def test_adamw_matches_the_plain_expressions(seed, shape, lr, beta1, beta2, eps, decay, steps):
    cfg = RunConfig(learning_rate=lr, beta1=beta1, beta2=beta2, epsilon=eps, weight_decay=decay)
    rng = np.random.default_rng(seed)
    theta0 = spread(rng, shape)
    grads = [spread(rng, shape) for _ in range(steps)]
    bag, opt = params_of(w=theta0), ad.Optimizer(cfg)
    for step, g in enumerate(grads, start=1):
        bag["w"].grad = g
        opt.step(bag)
        want_theta, want_m, want_v = adamw_reference(cfg, step, theta0, grads)
        assert np.array_equal(bag["w"].data, want_theta)
        assert np.array_equal(opt._m["w"], want_m) and np.array_equal(opt._v["w"], want_v)


# ------------------------------------------------------------ no writes

REWRITTEN = {
    "matmul": (ad.matmul, [(5, 3, 4), (4, 6)], (5, 3, 6), {}),
    "matmul_transpose_b": (ad.matmul, [(5, 3, 4), (6, 4)], (5, 3, 6), {"transpose_b": True}),
    "gelu": (ad.gelu, [(5, 3, 4)], (5, 3, 4), {}),
    "layer_norm": (ad.layer_norm, [(5, 3, 4), (4,), (4,)], (5, 3, 4), {}),
    "attention_residual": (ad.attention_residual, [(5, 3, 4), (4,), (4,), (4, 4), (4, 4), (4, 4), (4, 4)],
                           (5, 3, 4), {}),
    "mlp_residual": (ad.mlp_residual, [(5, 3, 4), (4,), (4,), (4, 6), (6,), (6, 4), (4,)], (5, 3, 4), {}),
}


@pytest.mark.parametrize("case", sorted(REWRITTEN))
def test_rewritten_ops_write_neither_inputs_nor_gradient(case):
    op, in_shapes, out_shape, attrs = REWRITTEN[case]
    rng = np.random.default_rng(7)
    inputs = [spread(rng, shape) for shape in in_shapes]
    g = spread(rng, out_shape)
    kept, kept_g = [a.copy() for a in inputs], g.copy()
    with fold_budget(2 * 6 * 8):   # two items a chunk, so the 3-d products fold
        backward_of(op, inputs, g, **attrs)
    assert all(np.array_equal(a, b) for a, b in zip(inputs, kept))
    assert np.array_equal(g, kept_g)


def test_adamw_leaves_a_shared_gradient_alone():
    rng = np.random.default_rng(3)
    shared = spread(rng, (4, 3))
    bag = params_of(a=spread(rng, (4, 3)), b=spread(rng, (4, 3)))
    kept = shared.copy()
    opt = ad.Optimizer(RunConfig(learning_rate=0.1, weight_decay=0.01))
    for _ in range(3):
        bag["a"].grad = bag["b"].grad = shared   # grads may alias
        opt.step(bag)
    assert np.array_equal(shared, kept)
