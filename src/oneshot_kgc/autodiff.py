"""Minimal reverse-mode automatic differentiation over 1-D/2-D float64 arrays.

Just enough machinery for the matching model: affine maps, concatenation,
pointwise nonlinearities, row reductions, cosine similarity, dropout and an
LSTM cell composed from the primitives. Gradients accumulate additively and
are replayed in exact reverse execution order.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import NumericError

# When True, every op output is checked for NaN/Inf and trips NumericError.
CHECK_FINITE = True

# Grad mode is per thread (and per async task), so one thread's no_grad block
# never switches recording off for another.
_grad_enabled = contextvars.ContextVar("grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation fast path)."""
    token = _grad_enabled.set(False)
    try:
        yield
    finally:
        _grad_enabled.reset(token)


def grad_enabled():
    return _grad_enabled.get()


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done", "_op")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim > 2:
            raise ValueError("only scalar, 1-D and 2-D tensors are supported, got shape %s" % (arr.shape,))
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = np.zeros_like(arr) if requires_grad else None
        self._parents = ()
        self._backward = None
        self._done = False
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def zero_grad(self):
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self):
        return "Tensor(shape=%s, op=%s, requires_grad=%s)" % (self.shape, self._op, self.requires_grad)


def _to_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t):
    return t.requires_grad or t._backward is not None


def _make(data, op, parents, backward):
    """Create an op output, recording the backward closure when needed."""
    if CHECK_FINITE and not np.all(np.isfinite(data)):
        raise NumericError("non-finite values produced by op '%s'" % op)
    out = Tensor(data)
    out._op = op
    if _grad_enabled.get() and any(_tracked(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    t.grad += g


def _unbroadcast(g, shape):
    """Reduce gradient ``g`` back to ``shape`` after a broadcasting forward."""
    if g.shape == shape:
        return g
    if shape == ():
        return np.asarray(g.sum())
    if len(shape) == 1 and g.ndim == 2 and shape[0] == g.shape[1]:
        return g.sum(axis=0)
    if len(shape) == 2 and shape[0] == g.shape[0] and shape[1] == 1:
        return g.sum(axis=1, keepdims=True)
    if len(shape) == 2 and shape[1] == g.shape[1] and shape[0] == 1:
        return g.sum(axis=0, keepdims=True)
    raise NumericError("cannot reduce gradient of shape %s to %s" % (g.shape, shape))


def _check_elementwise(a, b, op):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise NumericError("op '%s': incompatible shapes %s and %s" % (op, a.shape, b.shape))


# ---------------------------------------------------------------------------
# elementwise ops


def add(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    _check_elementwise(a, b, "add")

    def backward(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g, a.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, "add", (a, b), backward)


def sub(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    _check_elementwise(a, b, "sub")

    def backward(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g, a.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, "sub", (a, b), backward)


def mul(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    _check_elementwise(a, b, "mul")

    def backward(g):
        if _tracked(a):
            _accum(a, _unbroadcast(g * b.data, a.shape))
        if _tracked(b):
            _accum(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, "mul", (a, b), backward)


def tanh(x):
    x = _to_tensor(x)
    out_data = np.tanh(x.data)

    def backward(g):
        if _tracked(x):
            _accum(x, g * (1.0 - out_data * out_data))

    return _make(out_data, "tanh", (x,), backward)


def sigmoid(x):
    x = _to_tensor(x)
    out_data = 1.0 / (1.0 + np.exp(-x.data))

    def backward(g):
        if _tracked(x):
            _accum(x, g * out_data * (1.0 - out_data))

    return _make(out_data, "sigmoid", (x,), backward)


def relu(x):
    x = _to_tensor(x)
    mask = x.data > 0

    def backward(g):
        if _tracked(x):
            _accum(x, g * mask)

    return _make(np.where(mask, x.data, 0.0), "relu", (x,), backward)


# ---------------------------------------------------------------------------
# structural ops


def matmul(a, b):
    a, b = _to_tensor(a), _to_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise NumericError("matmul: incompatible shapes %s and %s" % (a.shape, b.shape))

    def backward(g):
        if _tracked(a):
            _accum(a, g @ b.data.T)
        if _tracked(b):
            _accum(b, a.data.T @ g)

    return _make(a.data @ b.data, "matmul", (a, b), backward)


def affine(x, w, b):
    """x @ w + b with bias broadcast over rows."""
    return add(matmul(x, w), b)


def concat(a, b):
    """Concatenate along the last axis (columns for 2-D, entries for 1-D)."""
    a, b = _to_tensor(a), _to_tensor(b)
    if a.ndim != b.ndim:
        raise NumericError("concat: rank mismatch %s vs %s" % (a.shape, b.shape))
    axis = a.ndim - 1
    if a.ndim == 2 and a.shape[0] != b.shape[0]:
        raise NumericError("concat: row mismatch %s vs %s" % (a.shape, b.shape))
    split = a.shape[axis]

    def backward(g):
        if axis == 0:
            ga, gb = g[:split], g[split:]
        else:
            ga, gb = g[:, :split], g[:, split:]
        if _tracked(a):
            _accum(a, ga)
        if _tracked(b):
            _accum(b, gb)

    return _make(np.concatenate([a.data, b.data], axis=axis), "concat", (a, b), backward)


def reshape(x, shape):
    x = _to_tensor(x)

    def backward(g):
        if _tracked(x):
            _accum(x, g.reshape(x.shape))

    return _make(x.data.reshape(shape), "reshape", (x,), backward)


def broadcast_rows(s, n):
    """Tile a 1-D vector into n identical rows; backward sums over rows."""
    s = _to_tensor(s)
    if s.ndim != 1:
        raise NumericError("broadcast_rows expects a 1-D tensor, got %s" % (s.shape,))

    def backward(g):
        if _tracked(s):
            _accum(s, g.sum(axis=0))

    return _make(np.broadcast_to(s.data, (n, s.shape[0])).copy(), "broadcast_rows", (s,), backward)


def sum_all(x):
    x = _to_tensor(x)

    def backward(g):
        if _tracked(x):
            _accum(x, np.broadcast_to(g, x.shape).copy())

    return _make(np.asarray(x.data.sum()), "sum_all", (x,), backward)


def mean_rows(x):
    """Mean over rows of a 2-D tensor -> 1-D vector."""
    x = _to_tensor(x)
    if x.ndim != 2:
        raise NumericError("mean_rows expects a 2-D tensor, got %s" % (x.shape,))
    n = x.shape[0]

    def backward(g):
        if _tracked(x):
            _accum(x, np.broadcast_to(g / n, x.shape).copy())

    return _make(x.data.mean(axis=0), "mean_rows", (x,), backward)


def gather_rows(table, indices):
    """Select rows of a 2-D table; index -1 yields a zero row (dummy entry)."""
    table = _to_tensor(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2 or idx.ndim != 1:
        raise NumericError("gather_rows expects 2-D table and 1-D indices")
    valid = idx >= 0
    out_data = np.zeros((idx.shape[0], table.shape[1]))
    out_data[valid] = table.data[idx[valid]]

    def backward(g):
        if _tracked(table):
            if table.grad is None:
                table.grad = np.zeros_like(table.data)
            np.add.at(table.grad, idx[valid], g[valid])

    return _make(out_data, "gather_rows", (table,), backward)


def block_mean_rows(x, block, counts, scale=True):
    """Reduce consecutive row blocks of fixed length to one row each.

    ``x`` has shape (B*block, d); block i covers rows [i*block, (i+1)*block).
    ``counts[i]`` is the number of real (non-dummy) rows in block i. With
    ``scale`` the block sum is divided by counts[i]; otherwise the raw sum is
    returned. Blocks with count 0 reduce to zero rows either way.
    """
    x = _to_tensor(x)
    counts = np.asarray(counts, dtype=np.float64)
    nblocks = counts.shape[0]
    if x.ndim != 2 or x.shape[0] != nblocks * block:
        raise NumericError("block_mean_rows: shape %s does not match %d blocks of %d"
                           % (x.shape, nblocks, block))
    sums = x.data.reshape(nblocks, block, x.shape[1]).sum(axis=1)
    denom = np.where(counts > 0, counts, 1.0)[:, None]
    out_data = sums / denom if scale else sums
    out_data = np.where(counts[:, None] > 0, out_data, 0.0)

    def backward(g):
        if _tracked(x):
            gb = g / denom if scale else g
            gb = np.where(counts[:, None] > 0, gb, 0.0)
            _accum(x, np.repeat(gb, block, axis=0))

    return _make(out_data, "block_mean_rows", (x,), backward)


def dropout(x, rate, rng, train):
    """Inverted dropout: scales by 1/keep at train time, identity otherwise."""
    if not 0.0 <= rate < 1.0:
        raise NumericError("dropout rate must be in [0, 1), got %r" % rate)
    x = _to_tensor(x)
    if not train or rate == 0.0:
        return x
    keep = 1.0 - rate
    mask = (rng.random(x.shape) < keep) / keep

    def backward(g):
        if _tracked(x):
            _accum(x, g * mask)

    return _make(x.data * mask, "dropout", (x,), backward)


def rowwise_cosine(x, s):
    """Cosine similarity between each row of ``x`` and the vector ``s``.

    Rows with zero norm (or a zero-norm ``s``) score -1 and receive no
    gradient. Returns ``(scores, number of such rows)``.
    """
    x, s = _to_tensor(x), _to_tensor(s)
    if x.ndim != 2 or s.ndim != 1 or x.shape[1] != s.shape[0]:
        raise NumericError("rowwise_cosine: incompatible shapes %s and %s" % (x.shape, s.shape))
    nx = np.linalg.norm(x.data, axis=1)
    ns = np.linalg.norm(s.data)
    valid = (nx > 0) & (ns > 0)
    denom = np.where(valid, nx * ns, 1.0)
    dots = x.data @ s.data
    out_data = np.where(valid, dots / denom, -1.0)

    def backward(g):
        gv = np.where(valid, g, 0.0)
        if _tracked(x):
            safe_nx = np.where(nx > 0, nx, 1.0)
            gx = (gv / denom)[:, None] * s.data[None, :] \
                - (gv * out_data / (safe_nx * safe_nx))[:, None] * x.data
            gx[~valid] = 0.0
            _accum(x, gx)
        if _tracked(s):
            if ns > 0:
                gs = (gv / denom) @ x.data - (gv * out_data).sum() * s.data / (ns * ns)
            else:
                gs = np.zeros_like(s.data)
            _accum(s, gs)

    out = _make(out_data, "rowwise_cosine", (x, s), backward)
    return out, int((~valid).sum())


def cosine(x, y):
    """Cosine similarity of two 1-D vectors as a scalar tensor."""
    x = _to_tensor(x)
    row = reshape(x, (1, x.shape[0]))
    scores, _ = rowwise_cosine(row, y)
    return reshape(scores, ())


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LSTMParams:
    """Gate parameters for one LSTM cell (input size I, hidden input size J, state size H)."""
    w_xi: Tensor
    w_hi: Tensor
    b_i: Tensor
    w_xf: Tensor
    w_hf: Tensor
    b_f: Tensor
    w_xo: Tensor
    w_ho: Tensor
    b_o: Tensor
    w_xg: Tensor
    w_hg: Tensor
    b_g: Tensor

    def tensors(self):
        return [self.w_xi, self.w_hi, self.b_i, self.w_xf, self.w_hf, self.b_f,
                self.w_xo, self.w_ho, self.b_o, self.w_xg, self.w_hg, self.b_g]

    def named(self, prefix="lstm"):
        names = ["w_xi", "w_hi", "b_i", "w_xf", "w_hf", "b_f",
                 "w_xo", "w_ho", "b_o", "w_xg", "w_hg", "b_g"]
        return {"%s.%s" % (prefix, n): t for n, t in zip(names, self.tensors())}


def init_lstm(input_size, hidden_input_size, state_size, rng):
    """Glorot-uniform weights, zero biases, forget-gate bias 1."""
    def w(n_in, n_out):
        return Tensor(glorot_uniform(rng, n_in, n_out), requires_grad=True)

    def b(value=0.0):
        return Tensor(np.full(state_size, value), requires_grad=True)

    return LSTMParams(
        w_xi=w(input_size, state_size), w_hi=w(hidden_input_size, state_size), b_i=b(),
        w_xf=w(input_size, state_size), w_hf=w(hidden_input_size, state_size), b_f=b(1.0),
        w_xo=w(input_size, state_size), w_ho=w(hidden_input_size, state_size), b_o=b(),
        w_xg=w(input_size, state_size), w_hg=w(hidden_input_size, state_size), b_g=b(),
    )


def lstm_cell(x, h, c, params):
    """One step of a standard LSTM cell; returns (h', c')."""
    def gate(w_x, w_h, b):
        return add(add(matmul(x, w_x), matmul(h, w_h)), b)

    i = sigmoid(gate(params.w_xi, params.w_hi, params.b_i))
    f = sigmoid(gate(params.w_xf, params.w_hf, params.b_f))
    o = sigmoid(gate(params.w_xo, params.w_ho, params.b_o))
    g = tanh(gate(params.w_xg, params.w_hg, params.b_g))
    c_new = add(mul(f, c), mul(i, g))
    h_new = mul(o, tanh(c_new))
    return h_new, c_new


# ---------------------------------------------------------------------------
# backward pass


def backward(loss):
    """Populate gradients of everything the scalar ``loss`` depends on."""
    if not isinstance(loss, Tensor):
        raise NumericError("backward expects a Tensor")
    if loss.data.size != 1:
        raise NumericError("backward expects a scalar loss, got shape %s" % (loss.shape,))
    if loss._backward is None and not loss._parents:
        raise NumericError("backward called on a tensor with no recorded graph")
    if loss._done:
        raise NumericError("backward already called on this loss; build a fresh graph")

    topo = []
    seen = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and (p._parents or p._backward is not None):
                stack.append((p, False))

    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
    loss._done = True


# ---------------------------------------------------------------------------
# initialization and optimization


def glorot_uniform(rng, fan_in, fan_out):
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def halving_schedule(half_every):
    """Learning-rate multiplier that halves after every ``half_every`` steps."""
    def schedule(step):
        return 0.5 ** ((step - 1) // half_every)
    return schedule


class Adam:
    """Adam with bias correction over a list of parameter tensors."""

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, schedule=None):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.schedule = schedule
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def current_lr(self):
        lr = self.lr
        if self.schedule is not None:
            lr *= self.schedule(self.t if self.t > 0 else 1)
        return lr

    def step(self):
        self.t += 1
        lr = self.lr * (self.schedule(self.t) if self.schedule is not None else 1.0)
        for p, m, v in zip(self.params, self._m, self._v):
            g = p.grad
            if g is None:
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


# ---------------------------------------------------------------------------
# checkpoint format: one binary blob of float64 values plus a JSON index


def save_checkpoint(path, arrays, metadata=None):
    """Write named arrays to ``path.bin`` with a JSON index at ``path.json``."""
    index = {}
    offset = 0
    with open(path + ".bin", "wb") as fh:
        for name in sorted(arrays):
            arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
            fh.write(arr.tobytes())
            index[name] = {"offset": offset, "shape": list(arr.shape)}
            offset += arr.nbytes
    with open(path + ".json", "w") as fh:
        json.dump({"params": index, "metadata": metadata or {}}, fh, indent=2, sort_keys=True)


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`; returns (arrays, metadata)."""
    with open(path + ".json") as fh:
        header = json.load(fh)
    blob = np.fromfile(path + ".bin", dtype=np.float64)
    arrays = {}
    for name, entry in header["params"].items():
        shape = tuple(entry["shape"])
        start = entry["offset"] // 8
        count = int(np.prod(shape)) if shape else 1
        arrays[name] = blob[start:start + count].reshape(shape).copy()
    return arrays, header.get("metadata", {})


def checkpoint_exists(path):
    return os.path.exists(path + ".bin") and os.path.exists(path + ".json")
