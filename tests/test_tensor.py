import inspect
import json
import math
import os
import signal
import sys
import threading
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from clipforge import tensor as T
from clipforge.errors import DimensionError, GraphError
from fdcheck import max_rel_error, numeric_grads

RNG = np.random.default_rng(12345)
N_INSTANCES = 20
GRAD_TOL = 1e-4


def _weighted_scalar(out, w):
    """Reduce an op output to a scalar with fixed random weights so the
    upstream gradient is non-trivial."""
    return T.sum_(T.mul(out, T.Tensor(w, dtype=out.dtype)))


def _gradcheck(build, arrays, eps=1e-5, tol=GRAD_TOL):
    """build(list of float64 Tensors) -> scalar Tensor. Checks every input."""
    leaves = [T.Tensor(a, requires_grad=True, dtype=np.float64) for a in arrays]
    loss = build(leaves)
    loss.backward()

    def f(arrs):
        return build([T.Tensor(a, dtype=np.float64) for a in arrs]).item()

    numeric = numeric_grads(f, arrays, eps=eps)
    for leaf, num in zip(leaves, numeric):
        assert leaf.grad is not None
        err = max_rel_error(leaf.grad, num)
        assert err < tol, f"gradient mismatch: rel error {err:.3e}"


# ---------------------------------------------------------------------------
# matmul
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = T.Tensor([[1.0, 0.0], [0.0, 1.0]])
    b = T.Tensor([[3.0, 4.0], [5.0, 6.0]])
    np.testing.assert_array_equal(T.matmul(a, b).data, b.data)


def test_matmul_hand():
    out = T.matmul(T.Tensor([[1.0, 2.0]]), T.Tensor([[3.0], [4.0]]))
    np.testing.assert_allclose(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        T.matmul(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)


def test_matmul_gradcheck():
    for _ in range(N_INSTANCES):
        a = RNG.uniform(-1, 1, (3, 4))
        b = RNG.uniform(-1, 1, (4, 2))
        w = RNG.uniform(-1, 1, (3, 2))
        # linear op: central differences are exact even at a coarse step
        _gradcheck(lambda ts: _weighted_scalar(T.matmul(ts[0], ts[1]), w), [a, b], eps=1e-3)


def test_matmul_batched_gradcheck():
    for _ in range(N_INSTANCES):
        a = RNG.uniform(-1, 1, (2, 3, 4))
        b = RNG.uniform(-1, 1, (2, 4, 3))
        w = RNG.uniform(-1, 1, (2, 3, 3))
        _gradcheck(lambda ts: _weighted_scalar(T.matmul(ts[0], ts[1]), w), [a, b], eps=1e-3)


def test_matmul_linear_layer_gradcheck():
    # 3-D activations against a shared 2-D weight
    for _ in range(N_INSTANCES):
        a = RNG.uniform(-1, 1, (2, 3, 4))
        b = RNG.uniform(-1, 1, (4, 5))
        w = RNG.uniform(-1, 1, (2, 3, 5))
        _gradcheck(lambda ts: _weighted_scalar(T.matmul(ts[0], ts[1]), w), [a, b], eps=1e-3)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("x_shape", [(3, 4), (2, 3, 4)], ids=["2d", "3d"])
def test_linear_gradcheck(x_shape, bias):
    rng = np.random.default_rng([len(x_shape), bias])
    for _ in range(N_INSTANCES):
        arrays = [rng.uniform(-1, 1, x_shape), rng.uniform(-1, 1, (4, 5))]
        if bias:
            arrays.append(rng.uniform(-1, 1, (5,)))
        w = rng.uniform(-1, 1, x_shape[:-1] + (5,))
        _gradcheck(lambda ts: _weighted_scalar(T.linear(*ts), w), arrays, eps=1e-3)


def test_linear_forward_matches_matmul_plus_add():
    rng = np.random.default_rng(21)
    x = T.Tensor(rng.standard_normal((4, 6, 8)))
    w = T.Tensor(rng.standard_normal((8, 5)))
    b = T.Tensor(rng.standard_normal(5))
    out = T.linear(x, w, b)
    assert out.shape == (4, 6, 5) and out.dtype == np.float32
    np.testing.assert_allclose(out.data, T.add(T.matmul(x, w), b).data, rtol=1e-6, atol=1e-6)
    np.testing.assert_allclose(T.linear(x, w).data, T.matmul(x, w).data, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("frozen", [0, 1, 2], ids=["x", "w", "b"])
def test_linear_returns_no_gradient_for_non_grad_parent(frozen):
    rng = np.random.default_rng(22)
    leaves = [
        T.Tensor(rng.standard_normal(shape), requires_grad=i != frozen)
        for i, shape in enumerate([(2, 3, 4), (4, 5), (5,)])
    ]
    out = T.linear(*leaves)
    grads = out._backward(np.ones(out.shape, dtype=out.dtype))
    assert [g is None for g in grads] == [i == frozen for i in range(3)]
    T.sum_(out).backward()
    for i, leaf in enumerate(leaves):
        assert (leaf.grad is None) == (i == frozen)
        assert leaf.grad is None or leaf.grad.shape == leaf.shape


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("x_shape", [(6, 8), (4, 6, 8)], ids=["2d", "3d"])
def test_linear_residual_bitwise_equals_linear_plus_add(x_shape, bias):
    rng = np.random.default_rng([len(x_shape), bias, 23])
    shapes = [x_shape, (8, 5)] + ([(5,)] if bias else []) + [x_shape[:-1] + (5,)]
    arrays = [rng.standard_normal(shape).astype(np.float32) for shape in shapes]
    g = rng.standard_normal(shapes[-1]).astype(np.float32)
    outcomes = []
    for fused in (True, False):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        *operands, residual = leaves
        if fused:
            out = T.linear(*operands, residual=residual)
        else:
            out = T.add(residual, T.linear(*operands))
        T.sum_(T.mul(out, T.Tensor(g))).backward()
        outcomes.append([out.data] + [leaf.grad for leaf in leaves])
    assert outcomes[0][0].dtype == np.float32
    assert all(np.array_equal(f, u) for f, u in zip(*outcomes))


@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
def test_linear_residual_gradcheck(bias):
    rng = np.random.default_rng([bias, 24])
    for _ in range(N_INSTANCES):
        arrays = [rng.uniform(-1, 1, (2, 3, 4)), rng.uniform(-1, 1, (4, 5))]
        if bias:
            arrays.append(rng.uniform(-1, 1, (5,)))
        arrays.append(rng.uniform(-1, 1, (2, 3, 5)))
        w = rng.uniform(-1, 1, (2, 3, 5))
        _gradcheck(lambda ts: _weighted_scalar(T.linear(*ts[:-1], residual=ts[-1]), w), arrays, eps=1e-3)


@pytest.mark.parametrize(
    "x_shape, w_shape, b_shape",
    [((2, 3), (4, 5), None), ((2, 4), (4, 5), (4,)), ((2, 4), (4,), None), ((2, 4), (4, 5), (1, 5))],
)
def test_linear_shape_error_names_the_shapes(x_shape, w_shape, b_shape):
    b = None if b_shape is None else T.Tensor(np.zeros(b_shape))
    with pytest.raises(DimensionError) as exc:
        T.linear(T.Tensor(np.zeros(x_shape)), T.Tensor(np.zeros(w_shape)), b)
    message = str(exc.value)
    assert str(x_shape) in message and str(w_shape) in message
    assert b_shape is None or str(b_shape) in message


@pytest.mark.parametrize("r_shape", [(2, 4), (5,), (1, 2, 5)])
def test_linear_residual_shape_error_names_the_shapes(r_shape):
    with pytest.raises(DimensionError) as exc:
        T.linear(T.Tensor(np.zeros((2, 4))), T.Tensor(np.zeros((4, 5))), residual=T.Tensor(np.zeros(r_shape)))
    assert str(r_shape) in str(exc.value) and str((2, 5)) in str(exc.value)


def _mlp_leaves(x_shape, hidden, bias, residual, frozen, seed):
    """Leaves x, w1 (, b1), w2 (, b2) (, residual) in float32; the one named frozen needs no gradient."""
    rng = np.random.default_rng(seed)
    shapes = {"x": x_shape, "w1": (x_shape[-1], hidden)}
    if bias:
        shapes["b1"] = (hidden,)
    shapes["w2"] = (hidden, 5)
    if bias:
        shapes["b2"] = (5,)
    if residual:
        shapes["residual"] = x_shape[:-1] + (5,)
    return {
        name: T.Tensor((rng.standard_normal(shape) * 2).astype(np.float32), requires_grad=name != frozen)
        for name, shape in shapes.items()
    }


@pytest.mark.parametrize("frozen", [None, "x", "w1", "w2"], ids=["all-grad", "x-frozen", "w1-frozen", "w2-frozen"])
@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize(
    "x_shape, hidden", [((6, 8), 12), ((3, 200, 16), 64)], ids=["2d", "3d-two-gelu-blocks"]
)
def test_mlp_bitwise_equals_chain(x_shape, hidden, bias, residual, frozen):
    # the chain linear -> gelu -> linear; the 3-D case's hidden array spans two gelu blocks
    assert (math.prod(x_shape[:-1]) * hidden > T._GELU_BLOCK) == (len(x_shape) == 3)
    seed = [len(x_shape), bias, residual, [None, "x", "w1", "w2"].index(frozen)]
    g = np.random.default_rng(seed + [1]).standard_normal(x_shape[:-1] + (5,)).astype(np.float32)
    outcomes = []
    for fused in (True, False):
        leaves = _mlp_leaves(x_shape, hidden, bias, residual, frozen, seed)
        x, w1, b1, w2, b2, r = (leaves.get(name) for name in ("x", "w1", "b1", "w2", "b2", "residual"))
        if fused:
            out = T.mlp(x, w1, b1, w2, b2, r)
        else:
            out = T.linear(T.gelu(T.linear(x, w1, b1)), w2, b2, r)
        T.sum_(T.mul(out, T.Tensor(g))).backward()
        outcomes.append([out.data] + [leaf.grad for leaf in leaves.values()])
    fused, reference = outcomes
    assert fused[0].dtype == np.float32 and fused[0].shape == x_shape[:-1] + (5,)
    assert [a is None for a in fused] == [a is None for a in reference]
    missing = [name for name, a in zip(leaves, fused[1:]) if a is None]
    assert missing == ([] if frozen is None else [frozen])
    assert all(a is None or (a.dtype == np.float32 and np.array_equal(a, r)) for a, r in zip(fused, reference))


def _gelu_linear_leaves(x_shape, bias, residual, frozen, seed):
    """Leaves h, w (, b) (, residual) in float32; the one at index frozen needs no gradient."""
    rng = np.random.default_rng(seed)
    shapes = [x_shape, (x_shape[-1], 5)] + ([(5,)] if bias else []) + ([x_shape[:-1] + (5,)] if residual else [])
    arrays = [(rng.standard_normal(shape) * 2).astype(np.float32) for shape in shapes]
    return [T.Tensor(a, requires_grad=i != frozen) for i, a in enumerate(arrays)]


@pytest.mark.parametrize("frozen", [None, 0, 1], ids=["all-grad", "h-frozen", "w-frozen"])
@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
@pytest.mark.parametrize("bias", [True, False], ids=["bias", "no-bias"])
@pytest.mark.parametrize("x_shape", [(6, 8), (3, 200, 64)], ids=["2d", "3d-two-gelu-blocks"])
def test_gelu_linear_bitwise_equals_linear_of_gelu(x_shape, bias, residual, frozen):
    # mlp's gelu -> fc2 half: with a constant identity w1 and no b1, fc1 hands h
    # through exactly (each GEMM entry is h times 1 plus zeros), so mlp(h, I, None,
    # w, b, r) matches linear(gelu(h), w, b, r) bit for bit, h's gradient included
    assert (math.prod(x_shape) > T._GELU_BLOCK) == (len(x_shape) == 3)
    seed = [len(x_shape), bias, residual, 2 if frozen is None else frozen]
    g = np.random.default_rng(seed + [1]).standard_normal(x_shape[:-1] + (5,)).astype(np.float32)
    identity = T.Tensor(np.eye(x_shape[-1], dtype=np.float32))
    outcomes = []
    for fused in (True, False):
        leaves = _gelu_linear_leaves(x_shape, bias, residual, frozen, seed)
        h, w, *rest = leaves
        b = rest.pop(0) if bias else None
        r = rest.pop(0) if residual else None
        out = T.mlp(h, identity, None, w, b, r) if fused else T.linear(T.gelu(h), w, b, r)
        T.sum_(T.mul(out, T.Tensor(g))).backward()
        outcomes.append([out.data] + [leaf.grad for leaf in leaves])
    assert identity.grad is None
    fused, reference = outcomes
    assert fused[0].dtype == np.float32 and fused[0].shape == x_shape[:-1] + (5,)
    assert [a is None for a in fused] == [a is None for a in reference]
    assert [i for i, a in enumerate(fused) if a is None] == ([] if frozen is None else [frozen + 1])
    assert all(a is None or (a.dtype == np.float32 and np.array_equal(a, r)) for a, r in zip(fused, reference))


@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
def test_mlp_gradcheck(residual):
    rng = np.random.default_rng([residual, 25])
    for _ in range(N_INSTANCES):
        arrays = [rng.uniform(-2, 2, (2, 3, 4)), rng.uniform(-1, 1, (4, 6)), rng.uniform(-1, 1, (6,))]
        arrays += [rng.uniform(-1, 1, (6, 5)), rng.uniform(-1, 1, (5,))]
        if residual:
            arrays.append(rng.uniform(-1, 1, (2, 3, 5)))
        w = rng.uniform(-1, 1, (2, 3, 5))
        _gradcheck(lambda ts: _weighted_scalar(T.mlp(*ts), w), arrays)


@pytest.mark.parametrize(
    "w1_shape, w2_shape, r_shape",
    [((4, 6), (6, 5), None), ((3, 6), (7, 5), None), ((3, 6), (6, 5), (2, 4))],
    ids=["first-layer", "second-layer", "residual"],
)
def test_mlp_shape_error_names_the_op_and_shapes(w1_shape, w2_shape, r_shape):
    r = None if r_shape is None else T.Tensor(np.zeros(r_shape))
    with pytest.raises(DimensionError) as exc:
        T.mlp(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros(w1_shape)), None, T.Tensor(np.zeros(w2_shape)), None, r)
    bad = r_shape or (w1_shape if w1_shape[0] != 3 else w2_shape)
    assert "mlp" in str(exc.value) and str(bad) in str(exc.value)


# ---------------------------------------------------------------------------
# layer norm
# ---------------------------------------------------------------------------

def test_layer_norm_constant_row():
    out = T.layer_norm(T.Tensor([[5.0, 5.0, 5.0]]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
    np.testing.assert_allclose(out.data, np.zeros((1, 3)), atol=1e-6)


def test_layer_norm_centers():
    out = T.layer_norm(T.Tensor([[1.0, 2.0, 3.0]]), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
    assert abs(float(out.data.mean())) < 1e-6


def test_layer_norm_dim_error():
    with pytest.raises(DimensionError):
        T.layer_norm(T.Tensor(np.zeros((2, 3))), T.Tensor(np.ones(4)), T.Tensor(np.zeros(4)))


def test_layer_norm_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (3, 5))
        g = RNG.uniform(0.5, 1.5, 5)
        b = RNG.uniform(-0.5, 0.5, 5)
        w = RNG.uniform(-1, 1, (3, 5))
        _gradcheck(
            lambda ts: _weighted_scalar(T.layer_norm(ts[0], ts[1], ts[2]), w), [x, g, b]
        )


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_layer_norm_bitwise_equals_textbook_formula(dtype):
    # the op reuses two buffers; these are the out-of-place formulas it must reproduce
    rng = np.random.default_rng(29)
    x = (rng.standard_normal((8, 16, 64)) * 3 + 1).astype(dtype)
    x[0, 0] = 5.0  # a constant row
    gain = rng.uniform(0.5, 1.5, 64).astype(dtype)
    bias = rng.uniform(-0.5, 0.5, 64).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    xc = x - x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + np.asarray(1e-5, dtype=dtype))
    xhat = xc * inv
    dxhat = g * gain
    dx = (dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)) * inv

    leaves = [T.Tensor(a, requires_grad=True, dtype=dtype) for a in (x, gain, bias)]
    out = T.layer_norm(*leaves)
    T.sum_(T.mul(out, T.Tensor(g, dtype=dtype))).backward()
    assert out.dtype == dtype and all(leaf.grad.dtype == dtype for leaf in leaves)
    assert np.array_equal(out.data, xhat * gain + bias)
    assert np.array_equal(leaves[0].grad, dx)
    assert np.array_equal(leaves[1].grad, (g * xhat).reshape(-1, 64).sum(axis=0))
    assert np.array_equal(leaves[2].grad, g.reshape(-1, 64).sum(axis=0))


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

def _attention_chain(q, k, v, heads, bias):
    """The public-op chain T.attention fuses."""
    batch, seq, dim = q.shape

    def split(t):
        return T.swap_axes(T.reshape(t, (batch, seq, heads, dim // heads)), 1, 2)

    q, k, v = split(q), split(k), split(v)
    scores = T.scale(T.matmul(q, T.swap_axes(k, 2, 3)), 1.0 / math.sqrt(dim // heads))
    if bias is not None:
        scores = T.add(scores, T.Tensor(np.broadcast_to(bias, scores.shape), dtype=scores.dtype))
    ctx = T.matmul(T.softmax(scores), v)
    return T.reshape(T.swap_axes(ctx, 1, 2), (batch, seq, dim))


def _key_mask(lengths, seq):
    """Additive [batch, 1, 1, seq] bias hiding keys at or past each row's length."""
    valid = np.arange(seq)[None, :] < np.asarray(lengths)[:, None]
    return np.where(valid, 0.0, -1e9)[:, None, None, :]


@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_attention_bitwise_equals_unfused_chain(masked):
    rng = np.random.default_rng(31)
    arrays = [rng.standard_normal((4, 16, 64)).astype(np.float32) for _ in range(3)]
    g = rng.standard_normal((4, 16, 64)).astype(np.float32)
    bias = _key_mask([16, 3, 9, 1], 16).astype(np.float32) if masked else None
    runs = []
    for op in (T.attention, _attention_chain):
        leaves = [T.Tensor(a, requires_grad=True) for a in arrays]
        out = op(*leaves, 4, bias)
        T.sum_(T.mul(out, T.Tensor(g))).backward()
        runs.append([out.data] + [leaf.grad for leaf in leaves])
    for fused, chain in zip(*runs):
        assert fused.dtype == np.float32
        assert np.array_equal(fused, chain)


@pytest.mark.parametrize(
    "seq, bias",
    [
        (1, None),
        (4, None),
        (4, _key_mask([4, 2], 4)),
        (4, np.where(np.arange(4) == 2, -1e9, 0.0)[None, None, None, :]),  # one key hidden from every query
    ],
    ids=["seq1", "unmasked", "padded-row", "masked-key-column"],
)
def test_attention_gradcheck(seq, bias):
    for _ in range(N_INSTANCES // 4):
        arrays = [RNG.uniform(-1, 1, (2, seq, 6)) for _ in range(3)]
        w = RNG.uniform(-1, 1, (2, seq, 6))
        _gradcheck(lambda ts: _weighted_scalar(T.attention(*ts, 3, bias), w), arrays)


def test_attention_shape_error_names_the_shapes():
    q = T.Tensor(np.zeros((2, 3, 6)))
    with pytest.raises(DimensionError, match=r"\(2, 3, 6\)"):
        T.attention(q, q, q, 4)
    with pytest.raises(DimensionError, match=r"\(2, 4, 6\)"):
        T.attention(q, T.Tensor(np.zeros((2, 4, 6))), q, 3)


# ---------------------------------------------------------------------------
# softmax cross entropy
# ---------------------------------------------------------------------------

def test_sce_uniform_logits():
    loss = T.softmax_cross_entropy(T.Tensor(np.zeros((4, 4))), [0, 1, 2, 3])
    assert abs(loss.item() - math.log(4)) < 1e-6


def test_sce_saturated_diagonal():
    logits = np.zeros((4, 4), dtype=np.float32)
    np.fill_diagonal(logits, 50.0)
    loss = T.softmax_cross_entropy(T.Tensor(logits), [0, 1, 2, 3])
    assert loss.item() < 1e-6


def test_sce_two_by_two():
    # -ln(e^2 / (e^2 + 1)) = ln(1 + e^-2), identical for both rows
    expected = math.log(1.0 + math.exp(-2.0))
    loss = T.softmax_cross_entropy(T.Tensor([[2.0, 0.0], [0.0, 2.0]]), [0, 1])
    assert abs(loss.item() - expected) < 1e-6
    assert abs(expected - 0.1269) < 5e-5


def test_sce_target_out_of_range():
    with pytest.raises(IndexError):
        T.softmax_cross_entropy(T.Tensor(np.zeros((2, 2))), [0, 2])


def test_sce_gradcheck():
    for _ in range(N_INSTANCES):
        logits = RNG.uniform(-1, 1, (4, 5))
        targets = RNG.integers(0, 5, 4)
        _gradcheck(lambda ts: T.softmax_cross_entropy(ts[0], targets), [logits])


# ---------------------------------------------------------------------------
# remaining ops: elementwise, reductions, shape, nn blocks
# ---------------------------------------------------------------------------

def test_add_mul_broadcast_gradcheck():
    for _ in range(N_INSTANCES):
        a = RNG.uniform(-1, 1, (2, 3, 4))
        b = RNG.uniform(-1, 1, (4,))
        w = RNG.uniform(-1, 1, (2, 3, 4))
        _gradcheck(lambda ts: _weighted_scalar(T.add(ts[0], ts[1]), w), [a, b])
        _gradcheck(lambda ts: _weighted_scalar(T.mul(ts[0], ts[1]), w), [a, b])


def test_add_shape_error():
    with pytest.raises(DimensionError):
        T.add(T.Tensor(np.zeros((2, 3))), T.Tensor(np.zeros((2,))))


def test_scalar_broadcast_multiplies_everything():
    a = T.Tensor(np.full((2, 2), 3.0))
    s = T.Tensor(np.asarray(2.0))
    np.testing.assert_allclose(T.mul(a, s).data, np.full((2, 2), 6.0))


def test_gelu_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (3, 4))
        w = RNG.uniform(-1, 1, (3, 4))
        _gradcheck(lambda ts: _weighted_scalar(T.gelu(ts[0]), w), [x])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_bitwise_equals_textbook_formulas(dtype):
    # the op computes in place; these are the out-of-place formulas it must reproduce
    rng = np.random.default_rng(23)
    x = (rng.standard_normal((8, 16, 64)) * 3).astype(dtype)
    x.flat[:4] = [0.0, 30.0, -30.0, np.finfo(dtype).tiny / 4]
    g = rng.standard_normal(x.shape).astype(dtype)
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    dinner = c * (1.0 + 3 * 0.044715 * x * x)
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * dinner

    a = T.Tensor(x, requires_grad=True, dtype=dtype)
    out = T.gelu(a)
    T.sum_(T.mul(out, T.Tensor(g, dtype=dtype))).backward()
    assert out.dtype == dtype and a.grad.dtype == dtype
    assert np.array_equal(out.data, 0.5 * x * (1.0 + t))
    assert np.array_equal(a.grad, g * local)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_blocks_bitwise_equal_one_pass(dtype):
    # over two forward blocks plus a ragged tail, read from a transposed input
    rng = np.random.default_rng(37)
    x = (rng.standard_normal((64, 2 * T._GELU_BLOCK // 64 + 3)) * 3).astype(dtype).T
    g = rng.standard_normal(x.shape).astype(dtype)
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (x + 0.044715 * x * x * x))
    local = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (c * (1.0 + 3 * 0.044715 * x * x))

    a = T.Tensor(x, requires_grad=True, dtype=dtype)
    out = T.gelu(a)
    T.sum_(T.mul(out, T.Tensor(g, dtype=dtype))).backward()
    assert np.array_equal(out.data, 0.5 * x * (1.0 + t))
    assert np.array_equal(a.grad, g * local)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_helpers_in_place_bitwise_equal_separate_buffers(dtype):
    # over two blocks plus a ragged tail
    rng = np.random.default_rng(41)
    x = (rng.standard_normal(2 * T._GELU_BLOCK + 77) * 3).astype(dtype)
    g = rng.standard_normal(x.shape).astype(dtype)
    y, grad = np.empty_like(x), np.empty_like(x)
    T._gelu_grad_into(x, g, grad, y)
    forward = T._gelu_into(x, np.empty_like(x))
    assert np.array_equal(forward, y)

    inplace = x.copy()
    assert T._gelu_into(inplace, inplace) is inplace and np.array_equal(inplace, forward)
    inplace, grad_inplace = x.copy(), g.copy()
    T._gelu_grad_into(inplace, grad_inplace, grad_inplace, inplace)  # out is g, y is x
    assert np.array_equal(grad_inplace, grad) and np.array_equal(inplace, y)


def test_exp_clamp_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (4,))
        w = RNG.uniform(-1, 1, (4,))
        _gradcheck(lambda ts: _weighted_scalar(T.exp(ts[0]), w), [x])
        # clamp boundary at 0.5 exercises both regimes
        _gradcheck(lambda ts: _weighted_scalar(T.clamp_max(ts[0], 0.5), w), [x])


def test_softmax_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (3, 6))
        w = RNG.uniform(-1, 1, (3, 6))
        _gradcheck(lambda ts: _weighted_scalar(T.softmax(ts[0]), w), [x])


def test_reductions_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (3, 4))
        _gradcheck(lambda ts: T.sum_(ts[0]), [x])
        _gradcheck(lambda ts: T.mean_(ts[0]), [x])
        w = RNG.uniform(-1, 1, (4,))
        _gradcheck(lambda ts: _weighted_scalar(T.mean_(ts[0], axis=0), w), [x])
        w2 = RNG.uniform(-1, 1, (3,))
        _gradcheck(lambda ts: _weighted_scalar(T.sum_(ts[0], axis=1), w2), [x])


def test_shape_ops_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (2, 3, 4))
        w = RNG.uniform(-1, 1, (2, 4, 3))
        _gradcheck(
            lambda ts: _weighted_scalar(T.swap_axes(T.reshape(ts[0], (2, 3, 4)), 1, 2), w),
            [x],
        )


def test_narrow_rows_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (5, 3))
        w = RNG.uniform(-1, 1, (2, 3))
        _gradcheck(lambda ts: _weighted_scalar(T.narrow_rows(ts[0], 2), w), [x])


def test_embedding_gradcheck_and_unused_rows():
    ids = np.array([[0, 2], [2, 1]])
    table = RNG.uniform(-1, 1, (4, 3))
    w = RNG.uniform(-1, 1, (2, 2, 3))
    _gradcheck(lambda ts: _weighted_scalar(T.embedding(ts[0], ids), w), [table])
    # row 3 is never looked up: its gradient must be exactly zero
    leaf = T.Tensor(table, requires_grad=True, dtype=np.float64)
    _weighted_scalar(T.embedding(leaf, ids), w).backward()
    np.testing.assert_array_equal(leaf.grad[3], np.zeros(3))
    assert np.abs(leaf.grad[:3]).sum() > 0


def test_embedding_id_out_of_range():
    with pytest.raises(IndexError):
        T.embedding(T.Tensor(np.zeros((4, 3))), np.array([[4]]))


def test_masked_mean_gradcheck():
    mask = np.array([[1, 1, 0], [1, 0, 0]], dtype=np.float64)
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (2, 3, 4))
        w = RNG.uniform(-1, 1, (2, 4))
        _gradcheck(lambda ts: _weighted_scalar(T.masked_mean(ts[0], mask), w), [x])


def test_l2_normalize_gradcheck():
    for _ in range(N_INSTANCES):
        x = RNG.uniform(-1, 1, (3, 4)) + np.sign(RNG.uniform(-1, 1, (3, 4))) * 0.1
        w = RNG.uniform(-1, 1, (3, 4))
        _gradcheck(lambda ts: _weighted_scalar(T.l2_normalize(ts[0]), w), [x])


def test_l2_normalize_unit_rows():
    x = T.Tensor(RNG.uniform(-1, 1, (5, 8)))
    norms = np.linalg.norm(T.l2_normalize(x).data, axis=-1)
    np.testing.assert_allclose(norms, np.ones(5), atol=1e-5)


# ---------------------------------------------------------------------------
# graph semantics
# ---------------------------------------------------------------------------

def test_backward_identity():
    x = T.Tensor(np.asarray(3.0), requires_grad=True)
    x.backward()
    np.testing.assert_array_equal(x.grad, np.asarray(1.0, dtype=np.float32))


def test_backward_sum_of_squares():
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    T.sum_(T.mul(x, x)).backward()
    np.testing.assert_allclose(x.grad, 2 * x.data, rtol=1e-6)


def test_backward_shared_subexpression_accumulates():
    base = np.array([0.5, -1.5, 2.0], dtype=np.float32)
    x1 = T.Tensor(base, requires_grad=True)
    z = T.mul(x1, x1)
    T.sum_(T.add(z, z)).backward()  # z reused: fan-out of 2

    x2 = T.Tensor(base, requires_grad=True)
    T.sum_(T.add(T.mul(x2, x2), T.mul(x2, x2))).backward()  # expanded

    np.testing.assert_array_equal(x1.grad, x2.grad)
    np.testing.assert_allclose(x1.grad, 4 * base, rtol=1e-6)
    assert z.grad is None  # only leaves keep a gradient


def test_backward_shared_gradient_array_not_added_in_place():
    # add() hands one gradient array to both parents when nothing broadcasts;
    # adding b's second contribution into it must leave z's share alone
    a = T.Tensor(np.array([1.0, 2.0]), requires_grad=True, dtype=np.float64)
    b = T.Tensor(np.array([3.0, 4.0]), requires_grad=True, dtype=np.float64)
    w = np.array([0.5, -2.0])
    z = T.add(T.scale(a, 1.5), b)
    T.sum_(T.mul(T.add(z, b), T.Tensor(w, dtype=np.float64))).backward()
    np.testing.assert_array_equal(a.grad, 1.5 * w)
    np.testing.assert_array_equal(b.grad, 2.0 * w)


@pytest.mark.parametrize("seed", range(60))
def test_random_add_mul_scale_graph_gradcheck(seed):
    # node i may reuse any earlier node, so fan-out and shared gradient
    # arrays occur in many shapes; the final sum reaches all three leaves
    rng = np.random.default_rng(seed)
    recipe = []
    for i in range(3, 9):
        op = ("add", "mul", "scale")[rng.integers(3)]
        recipe.append((op, int(rng.integers(i)), int(rng.integers(i)), float(rng.uniform(-2, 2))))
    arrays = [rng.uniform(-1, 1, (2, 3)) for _ in range(3)]
    w = rng.uniform(-1, 1, (2, 3))

    def build(leaves):
        nodes = list(leaves)
        for op, i, j, s in recipe:
            if op == "scale":
                nodes.append(T.scale(nodes[i], s))
            else:
                nodes.append(getattr(T, op)(nodes[i], nodes[j]))
        out = nodes[-1]
        for leaf in leaves:
            out = T.add(out, leaf)
        return _weighted_scalar(out, w)

    _gradcheck(build, arrays)


def test_result_without_gradient_keeps_no_parents():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones(3), requires_grad=True)
    frozen = T.layer_norm(T.gelu(T.add(a, a)), T.Tensor(np.ones(3)), T.Tensor(np.zeros(3)))
    assert frozen._parents == () and frozen._backward is None and not frozen.requires_grad
    assert T.add(frozen, b)._parents == (frozen, b)
    # the float64 dtype of a result with no gradient is kept
    assert T.scale(T.Tensor(np.ones(2), dtype=np.float64), 2.0).dtype == np.float64


def test_backward_frees_intermediate_results_while_the_root_lives():
    x = T.Tensor(RNG.uniform(-1, 1, (4, 8)), requires_grad=True)
    hidden = T.gelu(T.mul(x, x))
    alive = weakref.ref(hidden.data)
    root = T.sum_(T.layer_norm(hidden, T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))))
    del hidden
    assert alive() is not None  # the graph holds it until the walk has passed it
    root.backward()
    assert alive() is None
    assert root._parents == () and root._backward is None and x.grad is not None


def test_backward_refuses_a_consumed_graph():
    x = T.Tensor([1.0, -2.0, 3.0], requires_grad=True)
    z = T.mul(x, x)
    root = T.sum_(z)
    root.backward()
    first = x.grad.copy()
    with pytest.raises(GraphError, match="already used by backward"):
        root.backward()
    with pytest.raises(GraphError, match="already used by backward"):
        T.sum_(T.add(z, x)).backward()  # a new root over a consumed node
    np.testing.assert_array_equal(x.grad, first)  # neither refused walk touched a gradient
    T.sum_(T.mul(x, x)).backward()  # a new graph over the same leaf accumulates
    np.testing.assert_array_equal(x.grad, 2 * first)


@pytest.fixture
def split_on(monkeypatch):
    """``_in_halves`` splits, whatever the cores and the BLAS of this process."""
    monkeypatch.setattr(T, "_split", True)


@pytest.mark.parametrize("nested", [False, True], ids=["three-parts", "nested"])
def test_join_rows_gradcheck_with_an_odd_number_of_parts(nested, split_on):
    # three parts share w: the caller walks the first two, the worker thread
    # the third; nested, the worker walks a join of the last two on its own
    for _ in range(N_INSTANCES):
        arrays = [RNG.uniform(-1, 1, s) for s in ((2, 4), (1, 4), (3, 4), (4, 3), (3,), (3,))]
        g = RNG.normal(size=(6, 3))

        def build(ts):
            x0, x1, x2, w, gain, bias = ts
            parts = [T.matmul(x0, w), T.gelu(T.matmul(x1, w)), T.layer_norm(T.matmul(x2, w), gain, bias)]
            if nested:
                parts = [parts[0], T.join_rows(parts[1:])]
            return _weighted_scalar(T.join_rows(parts), g)

        _gradcheck(build, arrays)


class _BlockError(Exception):
    pass


def test_an_error_in_the_worker_half_reaches_the_caller(split_on):
    def run(half):
        if half == [1]:
            raise _BlockError(f"block {half[0]} failed on {threading.current_thread().name}")
        return half

    with pytest.raises(_BlockError) as exc:
        T._in_halves(run, [0, 1])
    assert type(exc.value) is _BlockError and str(exc.value) == "block 1 failed on clipforge-half_0"

    ended = []

    def run_caller_fails(half):
        if half == [0]:
            raise _BlockError("block 0 failed")
        time.sleep(0.05)
        ended.append(half)
        return half

    with pytest.raises(_BlockError, match="^block 0 failed$"):
        T._in_halves(run_caller_fails, [0, 1])
    assert ended == [[1]]  # the caller's error left only once the worker's half had ended

    x = T.Tensor(RNG.uniform(-1, 1, (2, 3)), requires_grad=True)
    parts = [T.scale(x, 2.0), T.scale(x, 3.0)]
    caller = threading.current_thread().name

    def failing(g):
        raise _BlockError(f"backward of block 1 failed on {threading.current_thread().name}")

    parts[1]._backward = failing
    with pytest.raises(_BlockError, match="^backward of block 1 failed on clipforge-half_0$"):
        T.sum_(T.join_rows(parts)).backward()
    assert caller != "clipforge-half_0" and x.grad is None


def test_join_rows_refuses_a_second_walk_and_consumed_parts():
    x = T.Tensor(RNG.uniform(-1, 1, (2, 3)), requires_grad=True)
    parts = [T.mul(x, x), T.scale(x, 3.0)]
    root = T.sum_(T.join_rows(parts))
    root.backward()
    np.testing.assert_array_equal(x.grad, 2 * x.data + 3.0)
    with pytest.raises(GraphError, match="already used by backward"):
        root.backward()
    with pytest.raises(GraphError, match="already used by backward"):
        T.join_rows(parts)  # their graphs were consumed by the walk


def test_join_rows_refuses_parts_that_share_an_op_result():
    x = T.Tensor(RNG.uniform(-1, 1, (2, 3)), requires_grad=True)
    shared = T.scale(x, 2.0)
    for parts in ([shared, shared], [T.mul(shared, shared), T.scale(shared, 3.0)]):
        with pytest.raises(GraphError, match="share an op result"):
            T.join_rows(parts)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_joins_on_a_worker_of_its_own(split_on):
    assert T._in_halves(lambda half: [i * 2 for i in half], [1, 2, 3]) == [2, 4, 6]  # the worker runs
    pid = os.fork()
    if pid == 0:  # the child has no copy of the parent's worker thread
        code = 1
        try:
            signal.alarm(10)  # a join waiting on a worker that does not exist ends here
            x = T.Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
            T.sum_(T.join_rows([T.scale(x, 2.0), T.mul(x, x)])).backward()
            code = 0 if np.array_equal(x.grad, 2.0 + 2 * x.data) else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_joins_from_several_threads_give_the_serial_bits(split_on):
    rng = np.random.default_rng(31)
    xs = [rng.standard_normal((3, 4)).astype(np.float32) for _ in range(4)]
    w0 = rng.standard_normal((4, 5)).astype(np.float32)

    def weight_grad(joined):
        w = T.Tensor(w0, requires_grad=True)
        parts = [T.gelu(T.matmul(T.Tensor(x), w)) for x in xs]
        for root in [T.join_rows(parts)] if joined else parts:  # serial: summed into .grad in part order
            T.sum_(root).backward()
        return w.grad

    reference, results = weight_grad(joined=False), []

    def caller():
        results.extend(weight_grad(joined=True) for _ in range(10))

    # four callers share the one worker thread, switching as often as the interpreter allows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    assert len(results) == 40 and all(np.array_equal(g, reference) for g in results)


def _bytes_kept_by(build):
    """Bytes still allocated after build() returns, with the result alive."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates beyond what is live before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("transposed", [False, True], ids=["contiguous", "transposed"])
def test_gelu_node_keeps_only_its_input_and_output(transposed):
    x = RNG.standard_normal((256, 1024)).astype(np.float32)
    a = T.Tensor(x.T if transposed else x, requires_grad=True)
    out, kept = _bytes_kept_by(lambda: T.gelu(a))
    extra = kept - out.data.nbytes
    assert extra < 4096, f"gelu node keeps {extra} B beyond its input and output"


def _mlp_tensors(rows, k, hidden, n, residual):
    rng = np.random.default_rng([rows, hidden, residual])
    shapes = [(rows, k), (k, hidden), (hidden,), (hidden, n), (n,)] + ([(rows, n)] if residual else [])
    return [T.Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True) for shape in shapes]


@pytest.mark.parametrize("residual", [True, False], ids=["residual", "no-residual"])
def test_mlp_node_keeps_only_its_input(residual):
    # the hidden array is 1 MiB here; the node may keep its input and output, nothing of hidden width
    tensors = _mlp_tensors(256, 32, 1024, 8, residual)
    out, kept = _bytes_kept_by(lambda: T.mlp(*tensors))
    extra = kept - out.data.nbytes
    assert extra < 4096, f"mlp node keeps {extra} B beyond its input and output"


@pytest.mark.parametrize("w2_grad", [True, False], ids=["w2-grad", "w2-frozen"])
def test_mlp_backward_holds_at_most_two_hidden_arrays(w2_grad):
    rows, hidden = 4096, 256
    tensors = _mlp_tensors(rows, 64, hidden, 64, False)
    tensors[3].requires_grad = w2_grad
    out = T.mlp(*tensors)
    g = np.ones(out.shape, np.float32)
    peak = _traced_peak(lambda: out._backward(g))
    hidden_bytes = rows * hidden * 4  # 4 MiB
    assert peak <= 2 * hidden_bytes + (1 << 20), f"mlp backward peaked at {peak} B"


def test_layer_norm_node_keeps_only_row_statistics_beyond_input_and_output():
    rows, d = 4096, 64
    x = T.Tensor(RNG.standard_normal((64, rows // 64, d)), requires_grad=True)
    gain = T.Tensor(RNG.uniform(0.5, 1.5, d), requires_grad=True)
    bias = T.Tensor(RNG.uniform(-0.5, 0.5, d), requires_grad=True)
    out, kept = _bytes_kept_by(lambda: T.layer_norm(x, gain, bias))
    extra = kept - out.data.nbytes
    stats = 2 * rows * x.data.itemsize  # mean and inverse std, one each per row
    assert extra < stats + 4096, f"layer_norm node keeps {extra} B beyond its input and output"


def test_backward_nonscalar_root_rejected():
    x = T.Tensor(np.zeros((2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        T.backward(x)


def test_topo_order_parents_precede_consumers():
    x = T.Tensor(np.ones(3), requires_grad=True)
    z = T.mul(x, x)
    root = T.sum_(T.add(z, z))
    order = T.topo_order(root)
    pos = {id(n): i for i, n in enumerate(order)}
    assert len(pos) == len(order)  # each node visited exactly once
    for node in order:
        for parent in node._parents:
            assert pos[id(parent)] < pos[id(node)]


def test_benchmark_ops_are_public_tensor_functions():
    # the benchmark reads per-op metrics by these names and fails on one it cannot measure
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    public = {
        name.rstrip("_")  # sum_ / mean_ are measured as sum / mean
        for name, fn in vars(T).items()
        if inspect.isfunction(fn) and fn.__module__ == T.__name__ and not name.startswith("_")
    }
    named = {
        entry["name"].split(".", 2)[2]
        for entry in spec["per_layer"]
        if entry["name"].startswith(("tensor.fwd_ms.", "tensor.calls."))
    }
    assert named, "BENCHMARK.json names no tensor op"
    assert named <= public, f"BENCHMARK.json names ops clipforge.tensor lacks: {sorted(named - public)}"


def test_ops_deterministic_and_finite():
    x = RNG.uniform(-1, 1, (4, 6)).astype(np.float32)
    g = np.ones(6, dtype=np.float32)
    b = np.zeros(6, dtype=np.float32)

    def run():
        t = T.Tensor(x, requires_grad=True)
        out = T.layer_norm(T.gelu(T.matmul(t, T.Tensor(RNG_FIXED))), T.Tensor(g), T.Tensor(b))
        loss = T.mean_(out)
        loss.backward()
        return out.data.copy(), t.grad.copy(), loss.item()

    o1, g1, l1 = run()
    o2, g2, l2 = run()
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(g1, g2)
    assert l1 == l2
    assert np.isfinite(o1).all() and np.isfinite(g1).all()


RNG_FIXED = np.random.default_rng(7).uniform(-1, 1, (6, 6)).astype(np.float32)
