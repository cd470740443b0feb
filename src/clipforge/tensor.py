"""Minimal reverse-mode autodiff engine on dense numpy arrays.

Covers the operations a small pre-norm transformer dual encoder composes:
linear (matmul plus bias, optionally plus a residual added into the GEMM
output buffer), mlp (linear, gelu, linear as one node that keeps only its
input and parameters and recomputes the hidden array in its backward),
elementwise arithmetic with trailing-shape broadcast, embedding lookup, row
narrowing, axis swap, layer norm, multi-head attention (one node from q/k/v to
the merged heads), the 2-D matmul of the similarity matrix, softmax cross
entropy, masked mean pooling, L2 normalization, and the join of row blocks
whose graphs are walked on two threads.  ``reshape``, ``softmax``,
``sum_``, ``mean_``, ``gelu`` and ``matmul``'s batched branch are called by no
model code: the tests and the benchmark use them.

Arrays are float32 by default. Ops preserve the dtype of their inputs, so
a graph built from float64 leaves runs end to end in float64 (used by the
gradient-check suite); all production paths construct float32 tensors.

Broadcasting is restricted: in binary ops the second operand's shape must
equal a trailing suffix of the first operand's shape. Anything else needs
an explicit reshape.

Row blocks on two threads: ``_joined_blocks`` runs a tower's row blocks and
joins their pooled rows with ``join_rows``, each block the root of a graph of
its own. Where the process may use two or more cores and numpy's bundled
OpenBLAS can be set to one thread, the calling thread runs the first half of
the blocks, forward and backward, and one worker thread, started by the first
such pass, runs the second half; that first pass also sets OpenBLAS to one
thread for the rest of the process, so the two halves and BLAS's own threads
do not contend for the cores. Anywhere else the blocks run one after another
on the calling thread. Each block runs its ops on one thread, in the order a
serial run uses, and ``join_rows`` sums each leaf's gradient over the blocks
in block order on the caller, so no result depends on the thread schedule,
the core count or the BLAS thread count. A process forked after the worker
started has no copy of it, and decides and starts anew on its first split.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DimensionError, GraphError

_GELU_C = math.sqrt(2.0 / math.pi)
# elements per gelu block: the forward's two slices and one scratch block, and
# the backward's three or four slices and three or four scratch blocks, stay in
# a core's L2 across their passes instead of streaming from memory
_GELU_BLOCK = 1 << 15


class Tensor:
    """A dense n-dimensional array with an optional gradient.

    Leaf tensors (op "leaf") are created directly from data; op results
    carry a backward rule and references to their parent tensors, forming an
    implicit computation graph rooted at the final output. Only leaves
    keep a ``.grad`` after backward(); op results never get one. backward()
    consumes the graph: an op result it has passed keeps its data but no
    rule and no parents, and a second walk over it is refused.
    """

    __slots__ = ("data", "requires_grad", "grad", "op", "_parents", "_backward")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        dtype=np.float32,
        _parents: tuple = (),
        _backward: Optional[Callable] = None,
        op: str = "leaf",
    ):
        if isinstance(data, np.ndarray) and op != "leaf":
            self.data = data  # op results are already materialized
        else:
            self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = requires_grad
        self.grad: Optional[np.ndarray] = None
        self.op = op
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def backward(self) -> None:
        backward(self)


def _result(data, parents, backward_fn, op):
    # a result no gradient flows through keeps no parents, so a forward
    # without gradients frees each activation once its consumer has run
    req = any(p.requires_grad for p in parents)
    return Tensor(
        np.asarray(data),  # reductions yield numpy scalars; keep their dtype
        requires_grad=req,
        _parents=tuple(parents) if req else (),
        _backward=backward_fn if req else None,
        op=op,
    )


def _check_suffix(a: Tensor, b: Tensor, op: str) -> None:
    """b must match a trailing suffix of a's shape (leading-batch broadcast)."""
    if b.ndim > a.ndim or (b.ndim and a.shape[a.ndim - b.ndim :] != b.shape):
        raise DimensionError(f"{op}: shape {b.shape} is not a trailing suffix of {a.shape}")


def _reduce_to(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum grad over the leading axes that were broadcast away."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    return grad


# ---------------------------------------------------------------------------
# elementwise and linear algebra
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a, b, "add")
    out = a.data + b.data

    def bwd(g):
        return g, _reduce_to(g, b.shape)

    return _result(out, (a, b), bwd, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix(a, b, "mul")
    out = a.data * b.data

    def bwd(g):
        return g * b.data, _reduce_to(g * a.data, b.shape)

    return _result(out, (a, b), bwd, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    out = a.data * np.asarray(s, dtype=a.dtype)

    def bwd(g):
        return (g * np.asarray(s, dtype=a.dtype),)

    return _result(out, (a,), bwd, "scale")


def _gemm(x: Tensor, w: Tensor, b: Optional[Tensor], op: str, residual: Optional[Tensor] = None) -> Tensor:
    """x @ w (+ b) (+ residual) over x's last axis; both passes run as 2-D GEMMs."""
    k, n = w.shape
    out = x.data.reshape(-1, k) @ w.data
    if b is not None:
        out += b.data
    if residual is not None:
        out += residual.data.reshape(-1, n)

    def bwd(g):
        g2 = g.reshape(-1, n)
        grads = [
            (g2 @ w.data.T).reshape(x.shape) if x.requires_grad else None,
            x.data.reshape(-1, k).T @ g2 if w.requires_grad else None,
        ]
        if b is not None:
            grads.append(g2.sum(axis=0) if b.requires_grad else None)
        if residual is not None:
            grads.append(g)  # handed through as it is, as add does
        return grads

    parents = tuple(t for t in (x, w, b, residual) if t is not None)
    return _result(out.reshape(*x.shape[:-1], n), parents, bwd, op)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product. Either both operands share identical leading batch
    dims, or b is a plain 2-D matrix applied along a's last axis."""
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"matmul: operands must be >= 2-D, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: inner dimensions disagree between {a.shape} and {b.shape}")
    if b.ndim == 2:
        return _gemm(a, b, None, "matmul")
    if a.shape[:-2] != b.shape[:-2]:
        raise DimensionError(f"matmul: batch dimensions disagree between {a.shape} and {b.shape}")
    out = a.data @ b.data

    def bwd(g):
        return g @ b.data.swapaxes(-1, -2), a.data.swapaxes(-1, -2) @ g

    return _result(out, (a, b), bwd, "matmul")


def _check_linear(x_shape: tuple, w: Tensor, b: Optional[Tensor], residual: Optional[Tensor], op: str) -> None:
    bias = None if b is None else b.shape
    if w.ndim != 2 or x_shape[-1:] != w.shape[:1] or bias not in (None, w.shape[1:]):
        raise DimensionError(f"{op}: input {x_shape}, weight {w.shape} and bias {bias} disagree")
    out_shape = x_shape[:-1] + w.shape[1:]
    if residual is not None and residual.shape != out_shape:
        raise DimensionError(f"{op}: residual {residual.shape} does not match the output {out_shape}")


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None, residual: Optional[Tensor] = None) -> Tensor:
    """x @ w + b (+ residual) over x's last axis as one node; w is (in, out), b is (out,).

    A residual shaped like the output is added into the GEMM output buffer
    after the bias: bitwise equal to add(residual, linear(x, w, b)), since
    IEEE addition commutes, without a second full-size array or node."""
    _check_linear(x.shape, w, b, residual, "linear")
    return _gemm(x, w, b, "linear", residual)


def mlp(x: Tensor, w1: Tensor, b1: Optional[Tensor], w2: Tensor, b2: Optional[Tensor],
        residual: Optional[Tensor] = None) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2, residual) as one node, bitwise
    equal in the output and every gradient.

    The node keeps x and the parameters but no hidden-width array. Its
    forward applies gelu to the hidden array h in place and frees it after
    the second GEMM. Its backward recomputes h with one GEMM, scales
    g @ w2.T by gelu'(h) in place and writes gelu(h) over h (for w2's
    gradient), so it holds at most two hidden-width arrays."""
    _check_linear(x.shape, w1, b1, None, "mlp")
    _check_linear(x.shape[:-1] + w1.shape[1:], w2, b2, residual, "mlp")
    k, n = w1.shape[0], w2.shape[1]
    x2 = x.data.reshape(-1, k)

    def fc1():
        h = x2 @ w1.data
        if b1 is not None:
            h += b1.data
        return h

    act = fc1()
    out = _gelu_into(act, act) @ w2.data
    del act
    if b2 is not None:
        out += b2.data
    if residual is not None:
        out += residual.data.reshape(-1, n)

    def bwd(g):
        g2 = g.reshape(-1, n)
        hidden_grad = any(t is not None and t.requires_grad for t in (x, w1, b1))
        act = fc1() if hidden_grad or w2.requires_grad else None
        gh = g2 @ w2.data.T if hidden_grad else None
        if gh is not None:
            _gelu_grad_into(act, gh, gh, act if w2.requires_grad else None)
        elif act is not None:
            _gelu_into(act, act)
        gw2 = act.T @ g2 if w2.requires_grad else None
        del act
        grads = [
            (gh @ w1.data.T).reshape(x.shape) if x.requires_grad else None,
            x2.T @ gh if w1.requires_grad else None,
        ]
        if b1 is not None:
            grads.append(gh.sum(axis=0) if b1.requires_grad else None)
        grads.append(gw2)
        if b2 is not None:
            grads.append(g2.sum(axis=0) if b2.requires_grad else None)
        if residual is not None:
            grads.append(g)  # handed through as it is, as add does
        return grads

    parents = tuple(t for t in (x, w1, b1, w2, b2, residual) if t is not None)
    return _result(out.reshape(*x.shape[:-1], n), parents, bwd, "mlp")


def reshape(a: Tensor, shape) -> Tensor:
    shape = (shape,) if isinstance(shape, int) else tuple(shape)
    if int(np.prod(shape)) != a.size:
        raise DimensionError(f"reshape: cannot view {a.shape} as {shape}")
    out = a.data.reshape(shape)

    def bwd(g):
        return (g.reshape(a.shape),)

    return _result(out, (a,), bwd, "reshape")


def swap_axes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    out = a.data.swapaxes(ax1, ax2)

    def bwd(g):
        return (g.swapaxes(ax1, ax2),)

    return _result(out, (a,), bwd, "swap_axes")


def narrow_rows(a: Tensor, n: int) -> Tensor:
    """First n rows along axis 0 (used to slice position embeddings)."""
    if n > a.shape[0]:
        raise DimensionError(f"narrow_rows: {n} rows requested from shape {a.shape}")
    out = a.data[:n]

    def bwd(g):
        full = np.zeros_like(a.data)
        full[:n] = g
        return (full,)

    return _result(out, (a,), bwd, "narrow_rows")


def gelu(a: Tensor) -> Tensor:
    """tanh-approximation GELU, computed in place in the textbook formulas' order: bitwise equal.

    The node keeps only its input: the backward recomputes each block's tanh."""
    out = _gelu_into(a.data, np.empty(a.shape, a.dtype))

    def bwd(g):
        return (_gelu_grad_into(a.data, g, np.empty(a.shape, a.dtype)),)

    return _result(out, (a,), bwd, "gelu")


# gelu and mlp run their passes block by block over the flattened array;
# every element still sees the same operations in the same order


def _gelu_into(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """gelu(x) = 0.5 * x * (1 + t) into out, a C-contiguous array of x's shape
    and dtype, which may be x itself."""
    xf, of = x.reshape(-1), out.reshape(-1)
    scratch = np.empty(min(xf.size, _GELU_BLOCK), x.dtype)
    for i in range(0, xf.size, _GELU_BLOCK):
        xs, ys = xf[i : i + _GELU_BLOCK], of[i : i + _GELU_BLOCK]
        ts = _gelu_tanh(xs, scratch[: xs.size])
        np.multiply(xs, 0.5, out=ys)  # x is read for the last time
        ts += 1.0
        ys *= ts
    return out


def _gelu_grad_into(x: np.ndarray, g: np.ndarray, out: np.ndarray, y: Optional[np.ndarray] = None) -> np.ndarray:
    """g * gelu'(x) into out, which may be g itself; with y, also gelu(x) into y
    from the same tanh. y may be x itself: a fourth scratch block holds each
    block's gelu(x) until the block's last read of x. out and y are
    C-contiguous arrays of x's shape and dtype."""
    xf, gf, of = x.reshape(-1), g.reshape(-1), out.reshape(-1)
    yf = None if y is None else y.reshape(-1)
    scratch = np.empty((4 if y is x else 3, min(xf.size, _GELU_BLOCK)), x.dtype)
    for i in range(0, xf.size, _GELU_BLOCK):
        block = slice(i, i + _GELU_BLOCK)
        xs = xf[block]
        ts, sl, di = _gelu_tanh(xs, scratch[0, : xs.size]), scratch[1, : xs.size], scratch[2, : xs.size]
        np.multiply(ts, ts, out=di)
        np.subtract(1.0, di, out=di)
        np.multiply(xs, 0.5, out=sl)
        ts += 1.0  # t is read for the last time
        if yf is not None:
            ys = scratch[3, : xs.size] if y is x else yf[block]
            np.multiply(sl, ts, out=ys)
        sl *= di
        ts *= 0.5
        np.multiply(xs, 3 * 0.044715, out=di)  # the derivative of the tanh argument
        di *= xs  # x is read for the last time
        if y is x:
            yf[block] = ys
        di += 1.0
        di *= _GELU_C
        sl *= di
        ts += sl
        np.multiply(ts, gf[block], out=of[block])
    return out


def _gelu_tanh(xs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """tanh(c * (x + 0.044715 * x^3)) into out, in the textbook formula's order."""
    np.multiply(xs, 0.044715, out=out)
    out *= xs
    out *= xs
    out += xs
    out *= _GELU_C
    return np.tanh(out, out=out)


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _result(out, (a,), bwd, "exp")


def clamp_max(a: Tensor, bound: float) -> Tensor:
    """min(a, bound); gradient passes only through unclamped entries."""
    mask = a.data <= bound
    out = np.where(mask, a.data, np.asarray(bound, dtype=a.dtype))

    def bwd(g):
        return (g * mask.astype(a.dtype),)

    return _result(out, (a,), bwd, "clamp_max")


def sum_(a: Tensor, axis: Optional[int] = None) -> Tensor:
    out = a.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(g, axis), a.shape).copy(),)

    return _result(out, (a,), bwd, "sum")


def mean_(a: Tensor, axis: Optional[int] = None) -> Tensor:
    n = a.size if axis is None else a.shape[axis]
    out = a.data.mean(axis=axis)

    def bwd(g):
        gb = g / np.asarray(n, dtype=a.dtype)
        if axis is None:
            return (np.broadcast_to(gb, a.shape).copy(),)
        return (np.broadcast_to(np.expand_dims(gb, axis), a.shape).copy(),)

    return _result(out, (a,), bwd, "mean")


# ---------------------------------------------------------------------------
# neural net blocks
# ---------------------------------------------------------------------------

def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather: out[..., :] = table[ids[...]]."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table with {table.shape[0]} rows "
            f"(got min {ids.min()}, max {ids.max()})"
        )
    out = table.data[ids]

    def bwd(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.ravel(), g.reshape(-1, table.shape[1]))
        return (gt,)

    return _result(out, (table,), bwd, "embedding")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise DimensionError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match last axis {d}"
        )
    # two buffers, in the textbook formulas' operation order: bitwise equal.
    # The node keeps the row statistics mu and inv, not xhat: the backward
    # rebuilds xhat with the same two operations
    mu = x.data.mean(axis=-1, keepdims=True)
    xhat = np.subtract(x.data, mu)
    out = np.multiply(xhat, xhat)
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + np.asarray(eps, dtype=x.dtype))
    xhat *= inv
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def bwd(g):
        # dx = (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)) * inv
        xhat = np.subtract(x.data, mu)
        xhat *= inv
        t = np.multiply(g, xhat)
        dgain = t.reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dx = np.multiply(g, gain.data)
        np.multiply(dx, xhat, out=t)
        xhat *= t.mean(axis=-1, keepdims=True)
        del t
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= xhat
        dx *= inv
        return dx, dgain, dbias

    return _result(out, (x, gain, bias), bwd, "layer_norm")


def softmax(x: Tensor) -> Tensor:
    """Row softmax along the last axis, stabilized by max subtraction."""
    z = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - dot),)

    return _result(out, (x,), bwd, "softmax")


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int, bias: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head scaled dot-product attention as one node.

    q, k, v are [batch, seq, dim] with dim split evenly into ``heads``; bias
    is an optional additive score mask broadcastable to [batch, heads, seq,
    seq].  Bitwise equal, forward and backward, to the public-op chain
    reshape, swap_axes, matmul, scale, add, softmax, matmul, swap_axes,
    reshape: every product runs on the same operand layout and the softmax
    in the same operation order, on one score buffer updated in place.
    """
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[2] % heads:
        raise DimensionError(
            f"attention: q/k/v shapes {q.shape}/{k.shape}/{v.shape} are not equal"
            f" [batch, seq, dim] with dim divisible by {heads} heads"
        )
    batch, seq, dim = q.shape
    split = (batch, seq, heads, dim // heads)
    q4, k4, v4 = (t.data.reshape(split).swapaxes(1, 2) for t in (q, k, v))
    s = np.asarray(1.0 / math.sqrt(split[3]), dtype=q.dtype)
    p = q4 @ k4.swapaxes(2, 3)
    p *= s
    if bias is not None:
        p += np.asarray(bias, dtype=p.dtype)
    # row max by a loop over the short last axis: exact, and cheaper than max(axis=-1)
    m = p[..., 0].copy()
    for j in range(1, seq):
        np.maximum(m, p[..., j], out=m)
    p -= m[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = (p @ v4).swapaxes(1, 2).reshape(q.shape)

    def bwd(g):
        gctx = g.reshape(split).swapaxes(1, 2)
        gv = p.swapaxes(-1, -2) @ gctx
        gs = gctx @ v4.swapaxes(-1, -2)
        dot = np.multiply(gs, p).sum(axis=-1, keepdims=True)
        gs -= dot
        gs *= p
        gs *= s
        gq = gs @ k4
        gk = (q4.swapaxes(-1, -2) @ gs).swapaxes(-1, -2)
        return tuple(t.swapaxes(1, 2).reshape(q.shape) for t in (gq, gk, gv))

    return _result(out, (q, k, v), bwd, "attention")


def softmax_cross_entropy(logits: Tensor, targets: Sequence[int]) -> Tensor:
    """Mean over rows of -log softmax(row)[target]."""
    if logits.ndim != 2:
        raise DimensionError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    targets = np.asarray(targets, dtype=np.int64)
    n, m = logits.shape
    if targets.shape != (n,):
        raise DimensionError(
            f"softmax_cross_entropy: {n} logit rows but {targets.shape} targets"
        )
    if targets.size and (targets.min() < 0 or targets.max() >= m):
        raise IndexError(f"softmax_cross_entropy: target out of range [0, {m})")
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    e = np.exp(z)
    denom = e.sum(axis=-1, keepdims=True)
    logp = z - np.log(denom)
    rows = np.arange(n)
    out = np.asarray(-logp[rows, targets].mean(), dtype=logits.dtype)

    def bwd(g):
        p = e / denom
        p[rows, targets] -= 1.0
        return (p * (g / np.asarray(n, dtype=logits.dtype)),)

    return _result(out, (logits,), bwd, "softmax_cross_entropy")


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of x[b, t, :] over positions t where mask[b, t] is nonzero."""
    if x.ndim != 3 or mask.shape != x.shape[:2]:
        raise DimensionError(f"masked_mean: mask {mask.shape} does not match {x.shape}")
    m = np.asarray(mask, dtype=x.dtype)
    counts = m.sum(axis=1)
    if (counts == 0).any():
        raise DimensionError("masked_mean: a row has no valid positions")
    out = (x.data * m[:, :, None]).sum(axis=1) / counts[:, None]

    def bwd(g):
        return ((g[:, None, :] / counts[:, None, None]) * m[:, :, None],)

    return _result(out, (x,), bwd, "masked_mean")


def l2_normalize(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Scale each row (last axis) to unit L2 norm."""
    norm = np.sqrt((x.data * x.data).sum(axis=-1, keepdims=True))
    norm = np.maximum(norm, np.asarray(eps, dtype=x.dtype))
    out = x.data / norm

    def bwd(g):
        dot = (g * out).sum(axis=-1, keepdims=True)
        return ((g - out * dot) / norm,)

    return _result(out, (x,), bwd, "l2_normalize")


def join_rows(parts: Sequence[Tensor]) -> Tensor:
    """The rows of ``parts`` concatenated along axis 0, as one node.

    Each part is the root of a graph of its own, and the graphs meet only in
    leaves; the node's parents are those leaves that require a gradient. Its
    backward walks each part from the part's own rows of the gradient, the
    parts split by ``_in_halves``, then sums each leaf's gradient over the
    parts in part order, so the bits do not depend on which thread ends
    first. The walks consume the parts' graphs, as ``backward`` does; parts
    that share an op result are refused with GraphError."""
    nodes = [n for part in parts for n in _walk_order(part) if n.requires_grad]
    inner = [id(n) for n in nodes if n.op != "leaf"]
    if len(set(inner)) < len(inner):
        raise GraphError("join_rows: the parts share an op result; their graphs may meet only in leaves")
    leaves = dict.fromkeys(n for n in nodes if n.op == "leaf")
    ends = np.cumsum([part.shape[0] for part in parts]).tolist()
    blocks = list(zip(parts, [0] + ends[:-1], ends))
    out = np.concatenate([part.data for part in parts])

    def bwd(g):
        walks = _in_halves(lambda half: [_walk(part, g[a:b]) for part, a, b in half], blocks)
        return [reduce(operator.add, [walk[leaf] for walk in walks if leaf in walk]) for leaf in leaves]

    return _result(out, tuple(leaves), bwd, "join_rows")


_split: Optional[bool] = None  # whether _in_halves splits; its first split decides
_worker = None  # the ThreadPoolExecutor of _in_halves
_worker_ident: Optional[int] = None
_worker_lock = threading.Lock()


def _joined_blocks(forward: Callable[[int, int], Tensor], bounds: list) -> Tensor:
    """``join_rows`` of ``forward(a, b)`` for every ``(a, b)`` in ``bounds``,
    the blocks split by ``_in_halves``."""
    return join_rows(_in_halves(lambda half: [forward(a, b) for a, b in half], bounds))


def _in_halves(run: Callable[[list], list], items: list) -> list:
    """``run(items[:h]) + run(items[h:])`` with h = ceil(len(items) / 2): the
    first half on the calling thread, the second on the one worker thread, or
    ``run(items)`` on the calling thread where the split is off (see the module
    docstring). A call made on the worker itself (a join inside a worker's
    block) runs both halves there. An error in the worker's half is raised here
    as it was raised there, once both halves have ended."""
    global _split, _worker, _worker_ident
    if len(items) < 2 or threading.get_ident() == _worker_ident:
        return run(items)
    with _worker_lock:
        if _split is None:
            _split = _usable_cores() >= 2 and _one_blas_thread()
        if _split and _worker is None:
            # imported here: it imports logging, 0.8 MB of RSS a graph-free process never needs
            from concurrent.futures import ThreadPoolExecutor

            _worker = ThreadPoolExecutor(1, thread_name_prefix="clipforge-half")
            _worker_ident = _worker.submit(threading.get_ident).result()
    if not _split:
        return run(items)
    h = (len(items) + 1) // 2
    theirs = _worker.submit(run, items[h:])
    try:
        mine = run(items[:h])
    except BaseException:
        theirs.exception()  # the worker's half ends before this error leaves
        raise
    return mine + theirs.result()


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _one_blas_thread() -> bool:
    """Set numpy's bundled OpenBLAS to one thread for this process; whether
    it now runs one. False where no such library or call is found."""
    import ctypes
    import glob

    for path in glob.glob(os.path.join(np.__path__[0] + ".libs", "*openblas*")) + glob.glob(
        os.path.join(np.__path__[0], ".dylibs", "*openblas*")
    ):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                set_threads = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if set_threads is not None and get_threads is not None:
                    set_threads(1)
                    return get_threads() == 1
    return False


def _forget_worker() -> None:
    # a forked child has no copy of the worker thread: its first split decides and starts anew
    global _split, _worker, _worker_ident, _worker_lock
    _split, _worker, _worker_ident, _worker_lock = None, None, None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


# ---------------------------------------------------------------------------
# graph traversal
# ---------------------------------------------------------------------------

def topo_order(root: Tensor) -> list:
    """Topologically ordered node list: every parent precedes its consumer."""
    order: list = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _walk_order(root: Tensor) -> list:
    """``topo_order(root)``; a graph holding a node a walk has consumed is refused."""
    order = topo_order(root)
    if any(n.requires_grad and n.op != "leaf" and n._backward is None for n in order):
        raise GraphError("backward: this graph was already used by backward(); build it again")
    return order


def _walk(root: Tensor, grad: np.ndarray) -> dict:
    """{leaf: d(root)/d(leaf) contracted with ``grad``} for every requires_grad
    leaf reachable from ``root``, consuming the graph as ``backward`` does."""
    order = _walk_order(root)
    grads: dict = {id(root): grad}
    leaves: dict = {}
    while order:
        node = order.pop()
        g = grads.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node.op == "leaf":
            leaves[node] = g
            continue
        for parent, pg in zip(node._parents, node._backward(g)):
            if parent.requires_grad:
                key = id(parent)
                grads[key] = grads[key] + pg if key in grads else pg
        node._backward, node._parents = None, ()
    return leaves


def backward(root: Tensor) -> None:
    """Add d(root)/d(leaf) to the .grad of every requires_grad leaf reachable
    from a scalar root; a leaf is a tensor built from data (op "leaf"). Op
    results get no .grad: their gradients live only until their own rule has
    run. Fan-out contributions are summed into new arrays, never in place,
    since a rule may hand one array to several parents. A rule may return None
    for a parent that does not require a gradient.

    The walk consumes the graph: once a node's rule has run, the node drops
    its rule and its parents, so the arrays the rule kept and each
    intermediate result are freed as soon as the walk has passed them, and
    only the root is left. A graph holding a consumed node is refused with
    GraphError; build it again for another walk. Leaf gradients accumulate
    across separate graphs (reset .grad to None between steps)."""
    if root.size != 1:
        raise GraphError(f"backward: root must be a scalar, got shape {root.shape}")
    for leaf, g in _walk(root, np.ones_like(root.data)).items():
        leaf.grad = g if leaf.grad is None else leaf.grad + g
