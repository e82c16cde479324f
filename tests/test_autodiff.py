"""Tape, ops, backward, and optimizers against independent oracles."""

import json
import math
import os
import subprocess
import sys
import textwrap
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dosapp.autodiff as ad
import dosapp.model as dm
from dosapp.config import RunConfig
from dosapp.masking import Mask
from gradcheck import OP_CASES, check_case, check_model_gradients, tiny_encoder_config


class Bag:
    """Minimal stand-in for a ParameterSet: just named tensors."""

    def __init__(self, **arrays):
        self.entries = {k: ad.Tensor(np.asarray(v, dtype=np.float64)) for k, v in arrays.items()}


# ------------------------------------------------------------ gradients

@pytest.mark.parametrize("case", sorted(OP_CASES))
@pytest.mark.parametrize("seed", [0, 1])
def test_op_gradient_matches_finite_differences(case, seed):
    check_case(case, seed)


def test_op_case_inputs_are_the_same_in_every_process():
    # str hashes are salted per process unless PYTHONHASHSEED fixes them
    code = ("import gradcheck; _, ts = gradcheck.OP_CASES['gelu'](gradcheck.case_rng('gelu', 1)); "
            "print(ts[0].data.tobytes().hex())")
    path = os.pathsep.join([str(Path(__file__).parent), str(Path(ad.__file__).parents[1])])
    drawn = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed)).stdout
             for seed in ("1", "2")]
    assert drawn[0] and drawn[0] == drawn[1]


@pytest.mark.parametrize("use_attention", [True, False])
def test_model_gradients_match_finite_differences(use_attention):
    check_model_gradients(seed=3, use_attention=use_attention)


def _model_grads(params, table, wrt, input_dim):
    rng = np.random.default_rng(11)
    x = rng.normal(size=(6, input_dim))
    params.zero_grads()
    with ad.Graph(wrt=wrt) as g:
        loss = dm.model_loss(params, table, x, [0, 1, 2, 3, 1, 0], [0, 1, 2, 3],
                             temperature=0.07)
    taped = len(g.nodes)   # read before backward, which consumes the tape
    ad.backward(loss, g)
    return taped, {p: None if t.grad is None else t.grad.copy() for p, t in params.entries.items()}


@pytest.mark.parametrize("wanted", ["candidates", "every_parameter", "one_late_tensor"])
@pytest.mark.parametrize("cfg", [tiny_encoder_config(), RunConfig()], ids=["tiny", "default"])
def test_wrt_graph_gives_the_same_gradients_on_a_shorter_tape(cfg, wanted):
    params = dm.init_model(cfg, 4)
    table = dm.init_class_table(4, cfg.embed_dim, 4)
    paths = {"candidates": params.candidate_paths(), "every_parameter": list(params.entries),
             "one_late_tensor": ["block1.attn.q.weight"]}[wanted]
    full_nodes, full = _model_grads(params, table, None, cfg.input_dim)
    nodes, grads = _model_grads(params, table, [params.entries[p] for p in paths], cfg.input_dim)
    assert nodes < full_nodes
    for path in params.entries:
        if path in paths:
            assert np.array_equal(grads[path], full[path]), path
        else:
            assert grads[path] is None, path


def test_wrt_graph_tapes_nothing_that_does_not_depend_on_wrt():
    a, b, frozen = ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0]), ad.Tensor([5.0, 6.0])
    with ad.Graph(wrt=[a]) as g:
        c = ad.add(frozen, b)
        loss = ad.mean(ad.add(ad.scale(c, 2.0), a))
    assert [n.kind for n in g.nodes] == ["add", "mean"]
    ad.backward(loss, g)
    assert np.array_equal(a.grad, [0.5, 0.5])
    assert b.grad is None and frozen.grad is None and c.grad is None


def _saved_by_vjp(node):
    """The arrays a node's VJP closes over that are not its inputs' values."""
    inputs = {id(t.data) for t in node.inputs}
    cells = node.backward_fn.__closure__ or ()
    return [c.cell_contents for c in cells
            if isinstance(c.cell_contents, np.ndarray) and id(c.cell_contents) not in inputs]


def test_backward_frees_what_each_node_saved_once_it_has_passed_the_node():
    rng = np.random.default_rng(2)
    x, w = ad.Tensor(rng.normal(size=(3, 4))), ad.Tensor(rng.normal(size=(4, 4)))
    with ad.Graph() as g:
        loss = ad.cross_entropy_from_logits(ad.gelu(ad.matmul(x, w)), [0, 1, 2])
    assert [n.kind for n in g.nodes] == ["matmul", "gelu", "cross_entropy_from_logits"]
    # the arrays the gelu and loss VJPs saved, the gelu output (its grad is an
    # intermediate grad) and, last, the matmul output
    refs = [weakref.ref(a) for n in g.nodes[1:] for a in _saved_by_vjp(n)]
    refs += [weakref.ref(g.nodes[1].output), weakref.ref(g.nodes[0].output)]
    assert len(refs) >= 6
    first = g.nodes[0]
    original, alive = first.backward_fn, []

    def probe(grad):   # runs last, after backward has passed every other node
        alive.extend(r() is not None for r in refs[:-1])
        return original(grad)

    first.backward_fn = probe
    del first
    ad.backward(loss, g)
    assert alive and not any(alive)
    assert refs[-1]() is None   # the matmul output, once its own node is gone
    assert g.nodes == [] and w.grad is not None
    with pytest.raises(RuntimeError, match="consumed"):
        ad.backward(loss, g)


def test_shared_first_gradients_are_never_mutated_in_place():
    a, b = ad.Tensor([1.0, 2.0]), ad.Tensor([3.0, 4.0])
    with ad.Graph() as g:
        s = ad.add(a, b)
        loss = ad.mean(ad.add(s, a))
    ad.backward(loss, g)
    # the outer add hands one array to s and a; b's is s's too, and a's second
    # contribution (from the inner add) must leave that shared array alone
    assert b.grad is s.grad
    assert np.array_equal(s.grad, [0.5, 0.5]) and np.array_equal(b.grad, [0.5, 0.5])
    assert np.array_equal(a.grad, [1.0, 1.0])


def test_grads_accumulate_across_fresh_passes():
    a = ad.Tensor([1.0, -2.0, 3.0])

    def one_pass():
        with ad.Graph() as g:
            loss = ad.mean(ad.scale(a, 2.0))
        ad.backward(loss, g)

    one_pass()
    once = a.grad.copy()
    one_pass()
    assert np.array_equal(a.grad, 2.0 * once)
    a.grad = None
    one_pass()
    assert np.array_equal(a.grad, once)


def test_unreachable_tensor_grad_untouched():
    a = ad.Tensor([1.0, 2.0])
    b = ad.Tensor([5.0, 6.0])
    with ad.Graph() as g:
        loss = ad.mean(a)
    ad.backward(loss, g)
    assert a.grad is not None
    assert b.grad is None


def test_backward_rejects_non_scalar_loss():
    a = ad.Tensor([[1.0, 2.0]])
    with ad.Graph() as g:
        out = ad.relu(a)
    with pytest.raises(ValueError, match="scalar"):
        ad.backward(out, g)


def test_ops_outside_graph_do_not_record():
    a = ad.Tensor([1.0, -1.0])
    g = ad.Graph()
    with g:
        pass
    out = ad.relu(a)
    assert isinstance(out, ad.Tensor)
    assert g.nodes == []


def test_linear_and_dead_relu_gradients():
    w = ad.Tensor([2.0])
    with ad.Graph() as g:
        loss = ad.mean(ad.matmul(ad.reshape(w, (1, 1)), np.array([[3.0]])))
    ad.backward(loss, g)
    assert w.grad.reshape(()) == pytest.approx(3.0, abs=1e-12)

    v = ad.Tensor([-1.0])
    with ad.Graph() as g:
        loss = ad.mean(ad.relu(v))
    ad.backward(loss, g)
    assert v.grad[0] == 0.0


def test_normalize_rows_rejects_a_row_of_zero_norm():
    with pytest.raises(ValueError, match="normalize_rows: row 2 has zero norm"):
        ad.normalize_rows(np.array([[[1.0, 2.0], [3.0, 0.0]], [[0.0, 0.0], [0.0, -1e-3]]]))


def test_normalize_rows_keeps_the_bits_of_nonzero_rows_and_passes_nan_rows_on():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(7, 5)) * 10.0 ** rng.uniform(-150, 150, size=(7, 1))
    assert np.array_equal(ad.normalize_rows(a).data, a / np.sqrt((a * a).sum(axis=-1, keepdims=True)))
    a[3, 1] = np.nan
    out = ad.normalize_rows(a).data
    assert np.isnan(out[3]).all() and np.isfinite(np.delete(out, 3, axis=0)).all()


def test_predict_on_an_all_zero_input_row_raises_instead_of_guessing():
    # zero biases map a zero input to a zero embedding, which has no direction
    cfg = RunConfig()
    params = dm.init_model(cfg, 0)
    table = dm.init_class_table(4, cfg.embed_dim, 0)
    x = np.random.default_rng(1).normal(size=(3, cfg.input_dim))
    x[1] = 0.0
    with pytest.raises(ValueError, match="zero norm"):
        dm.predict(params, table, x, [0, 1, 2, 3], temperature=0.07)


# ------------------------------------------------------------ forward fixtures

def test_matmul_identity():
    out = ad.matmul(np.array([[1.0, 2.0], [3.0, 4.0]]), np.eye(2))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_relu_definition():
    out = ad.relu(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_cosine_self_similarity_is_one():
    out = ad.cosine_similarity_rows(np.array([[3.0, 4.0]]), np.array([[3.0, 4.0]]))
    assert out.data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_gelu_matches_gaussian_cdf_form():
    x = np.linspace(-3.0, 3.0, 13)
    out = ad.gelu(x).data
    from scipy.stats import norm
    assert np.allclose(out, x * norm.cdf(x), atol=1e-12)


def run_fresh_python(tmp_path, body: str) -> dict:
    """Run `body` in a new interpreter that imports dosapp from this tree; return its JSON line."""
    code = textwrap.dedent("""
        import json, math, sys
        import numpy as np

        def scipy_modules():
            return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

        x = np.linspace(-6.0, 6.0, 97)

        def plain_gelu(erf):
            return 0.5 * x * (1.0 + erf(x * (1.0 / math.sqrt(2.0))))
    """) + textwrap.dedent(body)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(Path(ad.__file__).parents[1])))
    return json.loads(done.stdout)


def test_scipy_is_loaded_at_the_first_gelu_only(tmp_path):
    # import dosapp and a config error exit stay on numpy; the first gelu loads
    # scipy's erf extension alone, and a later scipy.special reuses that ufunc
    got = run_fresh_python(tmp_path, """
        import dosapp, dosapp.cli
        rc = dosapp.cli.main(["run", "--override", "ema.gamma=2"])
        before = scipy_modules()
        import dosapp.autodiff as ad
        out = ad.gelu(x).data.tobytes()
        after = scipy_modules()
        used = ad._scipy_erf()
        import scipy.special
        print(json.dumps({"rc": rc, "before": before, "after": after,
                          "same_erf": scipy.special.erf is used,
                          "same_bits": out == plain_gelu(scipy.special.erf).tobytes(),
                          "again": out == ad.gelu(x).data.tobytes()}))
    """)
    assert got == {"rc": 2, "before": [], "after": ["scipy.special._special_ufuncs"],
                   "same_erf": True, "same_bits": True, "again": True}


def test_gelu_after_scipy_special_uses_its_erf(tmp_path):
    got = run_fresh_python(tmp_path, """
        import scipy.special
        before = scipy_modules()
        import dosapp.autodiff as ad
        out = ad.gelu(x).data.tobytes()
        print(json.dumps({"same_erf": ad._scipy_erf() is scipy.special.erf,
                          "new_modules": sorted(set(scipy_modules()) - set(before)),
                          "same_bits": out == plain_gelu(scipy.special.erf).tobytes()}))
    """)
    assert got == {"same_erf": True, "new_modules": [], "same_bits": True}


def test_gelu_without_the_erf_extension_imports_scipy_special(tmp_path):
    # a scipy that lacks the extension (older releases) takes the package import
    got = run_fresh_python(tmp_path, """
        import dosapp.autodiff as ad
        ad._ERF_MODULE = "scipy.special._no_such_ufuncs"
        out = ad.gelu(x).data.tobytes()
        loaded = "scipy.special" in sys.modules
        import scipy.special
        print(json.dumps({"loaded": loaded, "same_erf": ad._scipy_erf() is scipy.special.erf,
                          "same_bits": out == plain_gelu(scipy.special.erf).tobytes()}))
    """)
    assert got == {"loaded": True, "same_erf": True, "same_bits": True}


def test_shape_errors_name_op_and_shapes():
    with pytest.raises(ValueError, match=r"matmul.*\(2, 3\)"):
        ad.matmul(np.zeros((2, 3)), np.zeros((2, 3)))
    with pytest.raises(ValueError, match="gather_rows"):
        ad.gather_rows(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="concat"):
        ad.concat([ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((2, 4)))], axis=0)
    with pytest.raises(ValueError, match="reshape"):
        ad.reshape(np.zeros((2, 3)), (4, 2))


_ROWS = np.array([[0.5, -1.0, 2.0], [1.5, 0.25, -0.75]])
OP_INPUTS = {
    "matmul": ([_ROWS, _ROWS], {"transpose_b": True}),
    "linear": ([_ROWS, _ROWS.T, np.ones(2)], {}),
    "add": ([_ROWS, _ROWS], {}),
    "scale": ([_ROWS], {"factor": -2.0}),
    "relu": ([_ROWS], {}),
    "gelu": ([_ROWS], {}),
    "layer_norm": ([_ROWS, np.ones(3), np.zeros(3)], {}),
    "softmax": ([_ROWS], {}),
    "log": ([np.abs(_ROWS)], {}),
    "mean": ([_ROWS], {}),
    "cosine_similarity_rows": ([_ROWS, _ROWS], {}),
    "gather_rows": ([_ROWS], {"ids": [2, 0]}),
    "concat": ([[_ROWS, _ROWS]], {"axis": 1}),
    "reshape": ([_ROWS], {"shape": (3, 2)}),
    "normalize_rows": ([_ROWS], {}),
    "cross_entropy_from_logits": ([_ROWS], {"labels": [1, 2]}),
}


def test_op_kind_contract():
    # The benchmark's tracer times op kinds as same-named module attributes and
    # backward time by node kind; both must name the same function.
    assert set(OP_INPUTS) == set(ad.op_kinds())
    for kind in ad.op_kinds():
        op = getattr(ad, kind)
        assert op.__name__ == kind
        assert any(case == kind or case.startswith(kind + "_") for case in OP_CASES), kind
        inputs, attrs = OP_INPUTS[kind]
        with ad.Graph() as g:
            out = op(*inputs, **attrs)
        assert g.nodes[-1].kind == kind and g.nodes[-1].output is out


def test_benchmark_per_op_metrics_name_live_op_kinds():
    # The tracer derives its per-op metric names from op_kinds(), so a kind
    # that BENCHMARK.json lists but op_kinds() lacks is a metric never reported.
    spec = json.loads((Path(__file__).parents[1] / "BENCHMARK.json").read_text())
    kinds = {m["name"].split(".")[2] for m in spec["per_layer"] if m["name"].startswith("autodiff.op.")}
    assert kinds and kinds <= set(ad.op_kinds()), sorted(kinds - set(ad.op_kinds()))


def test_benchmark_tracer_patches_and_restores_live_names(monkeypatch):
    # The tracer patches dosapp functions by name, so deleting or renaming one
    # must fail here rather than only in a traced benchmark pass.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import tracer

    with tracer.Tracer() as active:
        assert active.patched
    assert active.unrestored() == []


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 6))
def test_softmax_rows_sum_to_one(seed, rows, cols):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=5.0, size=(rows, cols))
    out = ad.softmax(x).data
    assert np.max(np.abs(out.sum(axis=-1) - 1.0)) <= 1e-12
    shifted = ad.softmax(x + 3.7).data
    assert np.allclose(out, shifted, atol=1e-12)


def test_values_and_grads_finite_on_finite_inputs():
    rng = np.random.default_rng(9)
    x = ad.Tensor(rng.normal(size=(4, 6)))
    w = ad.Tensor(rng.normal(size=(6, 6)))
    gain = ad.Tensor(np.ones(6))
    bias = ad.Tensor(np.zeros(6))
    with ad.Graph() as g:
        h = ad.layer_norm(ad.gelu(ad.matmul(x, w)), gain, bias)
        loss = ad.cross_entropy_from_logits(ad.softmax(h), np.array([0, 1, 2, 3]))
    ad.backward(loss, g)
    for t in (x, w, gain, bias):
        assert np.all(np.isfinite(t.data))
        assert np.all(np.isfinite(t.grad))
    assert np.isfinite(loss.item())


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(123)
        x = ad.Tensor(rng.normal(size=(3, 4)))
        w = ad.Tensor(rng.normal(size=(4, 2)))
        with ad.Graph() as g:
            loss = ad.cross_entropy_from_logits(ad.matmul(x, w), np.array([0, 1, 0]))
        ad.backward(loss, g)
        return loss.item(), w.grad.copy()

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert np.array_equal(g1, g2)


# ------------------------------------------------------------ cross entropy

def test_cross_entropy_fixtures():
    sat = ad.cross_entropy_from_logits(np.array([[10.0, -10.0]]), [0]).item()
    assert sat == pytest.approx(0.0, abs=1e-4)

    unif = ad.cross_entropy_from_logits(np.array([[0.0, 0.0]]), [0]).item()
    assert unif == pytest.approx(math.log(2.0), abs=1e-12)

    val = ad.cross_entropy_from_logits(np.array([[1.0, 2.0, 3.0]]), [2]).item()
    z = np.array([1.0, 2.0, 3.0])
    oracle = float(-(z[2] - np.log(np.exp(z - z.max()).sum()) - z.max()))
    assert val == pytest.approx(oracle, abs=1e-12)
    assert val == pytest.approx(0.40760596444438046, abs=1e-12)


def test_cross_entropy_single_class_is_zero():
    val = ad.cross_entropy_from_logits(np.array([[4.2]]), [0]).item()
    assert val == pytest.approx(0.0, abs=1e-15)


def test_cross_entropy_label_range_errors():
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy_from_logits(np.array([[0.0, 1.0]]), [2])
    with pytest.raises(ValueError, match="label out of range"):
        ad.cross_entropy_from_logits(np.array([[0.0, 1.0]]), [-1])


# ------------------------------------------------------------ optimizers

def test_sgd_step_definition():
    bag = Bag(w=[1.0])
    bag.entries["w"].grad = np.array([2.0])
    opt = ad.Optimizer(RunConfig(optimizer_kind="sgd", learning_rate=0.1))
    opt.step(bag)
    assert bag.entries["w"].data[0] == 1.0 - 0.1 * 2.0
    assert bag.entries["w"].data[0] == pytest.approx(0.8, abs=1e-12)


def test_sgd_masked_out_parameter_frozen():
    bag = Bag(w=[1.0, 1.0])
    bag.entries["w"].grad = np.array([2.0, 2.0])
    mask = Mask(bits={"w": np.array([False, True])}, sparsity=0.5, origin="per_task")
    opt = ad.Optimizer(RunConfig(optimizer_kind="sgd", learning_rate=0.1))
    opt.step(bag, mask)
    assert bag.entries["w"].data[0] == 1.0
    assert bag.entries["w"].data[1] == pytest.approx(0.8, abs=1e-12)


def test_adamw_first_step_matches_hand_recurrence():
    lr, b1, b2, eps = 7.5e-6, 0.9, 0.999, 1e-8
    bag = Bag(w=[1.0])
    bag.entries["w"].grad = np.array([1.0])
    opt = ad.Optimizer(RunConfig(optimizer_kind="adamw", learning_rate=lr,
                                 beta1=b1, beta2=b2, epsilon=eps))
    opt.step(bag)
    # independent recompute of one bias-corrected Adam step
    m = (1.0 - b1) * 1.0
    v = (1.0 - b2) * 1.0
    mhat = m / (1.0 - b1)
    vhat = v / (1.0 - b2)
    expected = 1.0 - lr * (mhat / (math.sqrt(vhat) + eps))
    got = bag.entries["w"].data[0]
    assert got == pytest.approx(expected, rel=1e-15)
    assert got == pytest.approx(1.0 - lr, rel=1e-7)


def test_adamw_masked_freeze_is_bit_exact_with_weight_decay():
    rng = np.random.default_rng(5)
    init = rng.normal(size=8)
    bag = Bag(w=init.copy())
    bits = np.zeros(8, dtype=bool)
    bits[[1, 4, 6]] = True
    mask = Mask(bits={"w": bits}, sparsity=3 / 8, origin="per_task")
    opt = ad.Optimizer(RunConfig(optimizer_kind="adamw", learning_rate=0.05, weight_decay=0.01))
    for _ in range(25):
        bag.entries["w"].grad = rng.normal(size=8)
        opt.step(bag, mask)
    frozen = ~bits
    assert np.array_equal(bag.entries["w"].data[frozen], init[frozen])
    assert np.all(bag.entries["w"].data[bits] != init[bits])


def test_optimizer_state_allocated_only_for_stepped_paths():
    bag = Bag(a=[1.0], b=[1.0])
    bag.entries["a"].grad = np.array([1.0])
    bag.entries["b"].grad = np.array([1.0])
    mask = Mask(bits={"a": np.array([True])}, sparsity=1.0, origin="per_task")
    opt = ad.Optimizer(RunConfig(optimizer_kind="adamw", learning_rate=0.1))
    opt.step(bag, mask)
    assert set(opt._m) == {"a"}
    assert bag.entries["b"].data[0] == 1.0


def test_missing_grad_raises_with_path():
    bag = Bag(w=[1.0])
    opt = ad.Optimizer(RunConfig(optimizer_kind="sgd", learning_rate=0.1))
    with pytest.raises(ValueError, match="'w'"):
        opt.step(bag)


def test_optimizer_config_validation():
    # a RunConfig is checked when it is built, so no other kind can reach Optimizer and run AdamW
    with pytest.raises(ValueError, match="rmsprop"):
        ad.Optimizer(RunConfig(optimizer_kind="rmsprop", learning_rate=0.1))


def test_sgd_loss_decreases_on_separable_problem():
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(loc=(3.0, 0.0), scale=0.2, size=(4, 2)),
                        rng.normal(loc=(-3.0, 0.0), scale=0.2, size=(4, 2))])
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    bag = Bag(w=rng.normal(scale=0.1, size=(2, 2)))
    opt = ad.Optimizer(RunConfig(optimizer_kind="sgd", learning_rate=0.5))
    losses = []
    for _ in range(20):
        bag.entries["w"].grad = None
        with ad.Graph() as g:
            loss = ad.cross_entropy_from_logits(ad.matmul(x, bag.entries["w"]), y)
        ad.backward(loss, g)
        losses.append(loss.item())
        opt.step(bag)
    for prev, cur in zip(losses, losses[1:]):
        assert cur <= prev + 1e-9
    assert losses[-1] < losses[0]
