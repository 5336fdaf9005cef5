"""Minimal reverse-mode automatic differentiation over 1-D/2-D float64 arrays.

Just enough machinery for the matching model: matrix products, concatenation
and column slices, pointwise nonlinearities, segment means, row-wise cosine
similarity, dropout and a fused-gate LSTM cell composed from the primitives.
Gradients accumulate additively and are replayed in exact reverse execution
order.

A tensor's gradient is ``None`` until something flows into it. Gathering rows
of a leaf table records a row-sparse :class:`RowGrad` (row ids and rows), so
a step that reads a few rows of a large embedding table never materialises a
table-sized gradient; every other gradient is a dense array of the tensor's
shape. :class:`Adam` updates only the rows a gradient holds.
"""

from __future__ import annotations

import contextlib
import contextvars
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError, writing

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
        self.grad = None
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
        self.grad = None

    def dense_grad(self):
        """The gradient as an array of the tensor's shape (zeros when there is none)."""
        if self.grad is None:
            return np.zeros_like(self.data)
        if isinstance(self.grad, RowGrad):
            return self.grad.dense(self.data.shape)
        return self.grad

    def grad_norm(self):
        """L2 norm of the gradient (0 when there is none)."""
        if self.grad is None:
            return 0.0
        if isinstance(self.grad, RowGrad):
            return float(np.linalg.norm(self.grad.coalesce()[1]))
        return float(np.linalg.norm(self.grad))

    def __repr__(self):
        return "Tensor(shape=%s, op=%s, requires_grad=%s)" % (self.shape, self._op, self.requires_grad)


class RowGrad:
    """Row-sparse gradient of a 2-D leaf table: the sum of recorded (ids, rows) chunks.

    :meth:`coalesce` merges the chunks into one row per distinct id, ids
    ascending. Rows of a repeated id are summed in the order they were
    recorded, so the result is deterministic and equal to scattering the
    chunks one by one into a zero table.
    """
    __slots__ = ("_ids", "_rows", "_merged")

    def __init__(self):
        self._ids = []
        self._rows = []
        self._merged = None

    def add(self, ids, rows):
        self._ids.append(ids)
        self._rows.append(rows)
        self._merged = None

    def coalesce(self):
        """``(ids, rows)``: distinct ids ascending and each id's summed gradient row."""
        if self._merged is None:
            ids = np.concatenate(self._ids)
            rows = np.concatenate(self._rows)
            order = np.argsort(ids, kind="stable")
            ids, rows = ids[order], rows[order]
            first = np.flatnonzero(np.diff(ids, prepend=-1))
            if ids.size:
                rows = np.add.reduceat(rows, first, axis=0)
            ids = ids[first]
            self._ids, self._rows = [ids], [rows]
            self._merged = (ids, rows)
        return self._merged

    def dense(self, shape):
        out = np.zeros(shape)
        ids, rows = self.coalesce()
        out[ids] = rows
        return out


def _to_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(t):
    return t.requires_grad or t._backward is not None


def _make(data, op, parents, backward):
    """Create an op output, recording the backward closure when needed."""
    if not np.all(np.isfinite(data)):
        raise NumericError("non-finite values produced by op '%s'" % op)
    out = Tensor(data)
    out._op = op
    if _grad_enabled.get() and any(_tracked(p) for p in parents):
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _grad_buffer(t):
    """The dense gradient array of ``t``, made (or densified from a RowGrad) on first use."""
    if t.grad is None:
        t.grad = np.zeros_like(t.data)
    elif isinstance(t.grad, RowGrad):
        t.grad = t.grad.dense(t.data.shape)
    return t.grad


def _accum(t, g):
    _grad_buffer(t)[...] += g


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


def sum_all(x):
    x = _to_tensor(x)

    def backward(g):
        if _tracked(x):
            _accum(x, np.broadcast_to(g, x.shape).copy())

    return _make(np.asarray(x.data.sum()), "sum_all", (x,), backward)


def gather_rows(table, indices):
    """Select rows of a 2-D table; index -1 yields a zero row (dummy entry).

    A leaf table receives its gradient as a :class:`RowGrad` over the gathered
    ids (dummy entries dropped); any other table receives a dense one.
    """
    table = _to_tensor(table)
    idx = np.asarray(indices, dtype=np.intp)
    if table.ndim != 2 or idx.ndim != 1:
        raise NumericError("gather_rows expects 2-D table and 1-D indices")
    valid = idx >= 0
    out_data = np.zeros((idx.shape[0], table.shape[1]))
    out_data[valid] = table.data[idx[valid]]

    def backward(g):
        if not _tracked(table):
            return
        if table._backward is None and not isinstance(table.grad, np.ndarray):
            if table.grad is None:
                table.grad = RowGrad()
            table.grad.add(idx[valid], g[valid])
        else:
            np.add.at(_grad_buffer(table), idx[valid], g[valid])

    return _make(out_data, "gather_rows", (table,), backward)


def columns(x, start, stop):
    """Columns ``start:stop`` of a 2-D tensor."""
    x = _to_tensor(x)
    if x.ndim != 2 or not 0 <= start < stop <= x.shape[1]:
        raise NumericError("columns %d:%d of a tensor of shape %s" % (start, stop, x.shape))

    def backward(g):
        if _tracked(x):
            _grad_buffer(x)[:, start:stop] += g

    return _make(x.data[:, start:stop], "columns", (x,), backward)


def segment_mean(x, counts, scale=True):
    """Reduce consecutive row segments of ``x`` to one row each.

    Segment i covers the next ``counts[i]`` rows, so ``x`` has ``sum(counts)``
    rows. With ``scale`` the segment sum is divided by counts[i]; otherwise
    the raw sum is returned. Empty segments reduce to zero rows either way.
    """
    x = _to_tensor(x)
    counts = np.asarray(counts, dtype=np.intp)
    if x.ndim != 2 or counts.ndim != 1 or np.any(counts < 0) or x.shape[0] != counts.sum():
        raise NumericError("segment_mean: shape %s does not match segment sizes summing to %d"
                           % (x.shape, counts.sum()))
    nonempty = counts > 0
    out_data = np.zeros((counts.shape[0], x.shape[1]))
    if x.shape[0]:
        starts = np.cumsum(counts) - counts
        out_data[nonempty] = np.add.reduceat(x.data, starts[nonempty], axis=0)
    denom = np.where(nonempty, counts, 1).astype(np.float64)[:, None]
    if scale:
        out_data /= denom

    def backward(g):
        if _tracked(x):
            _accum(x, np.repeat(g / denom if scale else g, counts, axis=0))

    return _make(out_data, "segment_mean", (x,), backward)


def dropout(x, rate, rng):
    """Inverted dropout with a mask drawn from ``rng``, scaled by 1/keep;
    the identity when ``rng`` is None (evaluation)."""
    if not 0.0 <= rate < 1.0:
        raise NumericError("dropout rate must be in [0, 1), got %r" % rate)
    x = _to_tensor(x)
    if rng is None or rate == 0.0:
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


# ---------------------------------------------------------------------------
# LSTM cell


@dataclass
class LSTMParams:
    """Fused gate parameters of an LSTM cell with a side input.

    Each matrix has 4H columns in ``torch.nn.LSTM`` gate order (input,
    forget, cell, output): ``W_x`` (I, 4H) maps the step input, ``W_h``
    (H, 4H) the recurrent state and ``W_s`` (S, 4H) a side input that is the
    same at every step; ``b`` (4H,) is the bias.
    """
    W_x: Tensor
    W_h: Tensor
    W_s: Tensor
    b: Tensor

    def tensors(self):
        return [self.W_x, self.W_h, self.W_s, self.b]

    def named(self, prefix="lstm"):
        return {"%s.%s" % (prefix, n): t
                for n, t in zip(("W_x", "W_h", "W_s", "b"), self.tensors())}


def init_lstm(input_size, state_size, side_size, rng):
    """Glorot-uniform weights, zero biases, forget-gate bias 1.

    Gate by gate, in (input, forget, output, cell) order, one Glorot matrix
    is drawn for the step input and one for the stacked recurrent and side
    inputs; a seed thus gives the weights of a cell that keeps a separate
    matrix pair per gate and draws them in that order.
    """
    h = state_size
    drawn = {gate: (glorot_uniform(rng, input_size, h), glorot_uniform(rng, h + side_size, h))
             for gate in "ifog"}
    w_x = np.hstack([drawn[gate][0] for gate in "ifgo"])
    w_hs = np.hstack([drawn[gate][1] for gate in "ifgo"])
    b = np.zeros(4 * h)
    b[h:2 * h] = 1.0
    return LSTMParams(*(Tensor(a, requires_grad=True)
                        for a in (w_x, w_hs[:h].copy(), w_hs[h:].copy(), b)))


def lstm_cell(z, c=None):
    """One LSTM step from fused gate pre-activations ``z`` (B, 4H); returns (h', c').

    ``c=None`` stands for the zero state, which has no forget term.
    """
    h = z.shape[1] // 4
    i = sigmoid(columns(z, 0, h))
    g = tanh(columns(z, 2 * h, 3 * h))
    o = sigmoid(columns(z, 3 * h, 4 * h))
    c_new = mul(i, g)
    if c is not None:
        c_new = add(mul(sigmoid(columns(z, h, 2 * h)), c), c_new)
    return mul(o, tanh(c_new)), c_new


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


# the layout of Adam.state_arrays, recorded in a training state's metadata
MOMENT_LAYOUT = "touched-rows"


class _Moments:
    """Adam's first and second moments of one parameter.

    They start row-sparse: ``slot`` maps each row of the parameter to its row
    of the compact ``m`` and ``v`` (-1 until the row's first gradient), whose
    first ``n`` rows are in use and which grow geometrically. A dense gradient
    makes them dense for good: ``slot`` is None, and ``m`` and ``v`` have the
    parameter's shape. A scalar has no rows, so its moments start dense.
    """
    __slots__ = ("slot", "n", "m", "v")

    def __init__(self, shape):
        self.n = 0
        if shape:
            self.slot = np.full(shape[0], -1, dtype=np.intp)
            self.m, self.v = np.zeros((0,) + shape[1:]), np.zeros((0,) + shape[1:])
        else:
            self.slot, self.m, self.v = None, np.zeros(()), np.zeros(())

    def slots(self, ids):
        """The compact rows of the distinct row ``ids``; a row's first use
        takes the next free slot, whose moments are zero."""
        at = self.slot[ids]
        new = at < 0
        if new.any():
            fresh = ids[new]
            end = self.n + fresh.size
            if end > len(self.m):
                size = min(max(end, 2 * len(self.m)), self.slot.size)
                self.m, self.v = (np.concatenate([a[:self.n],
                                                  np.zeros((size - self.n,) + a.shape[1:])])
                                  for a in (self.m, self.v))
            at[new] = self.slot[fresh] = np.arange(self.n, end)
            self.n = end
        return at

    def densify(self, shape):
        ids = np.flatnonzero(self.slot >= 0)
        at = self.slot[ids]
        m, v = np.zeros(shape), np.zeros(shape)
        m[ids], v[ids] = self.m[at], self.v[at]
        self.slot, self.m, self.v = None, m, v


class Adam:
    """Adam with bias correction over a list of parameter tensors.

    Each step updates the rows a gradient holds: every row of a dense
    gradient, the recorded rows of a :class:`RowGrad`. A row without a
    gradient keeps its value and its moments, and bias correction uses the
    global step count, as in ``torch.optim.SparseAdam`` and LazyAdam. A
    tensor without a gradient is left alone.

    A parameter's moments follow the form of its gradients. While it gets
    only row-sparse gradients, its moments are held for the rows they touched
    (a row -> slot map and compact rows, see :class:`_Moments`), so a large
    embedding table costs its touched rows, not two table-sized arrays. Its
    first dense gradient gives it dense moments from then on. Both forms
    compute every value with the same operations in the same order.
    """

    def __init__(self, params, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8, schedule=None):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.schedule = schedule
        self.t = 0
        self._moments = [_Moments(p.data.shape) for p in self.params]

    def current_lr(self):
        """Learning rate of the latest step (of the first one before any step)."""
        if self.schedule is None:
            return self.lr
        return self.lr * self.schedule(max(self.t, 1))

    def step(self):
        self.t += 1
        lr = self.current_lr()
        bias1, bias2 = 1.0 - self.beta1 ** self.t, 1.0 - self.beta2 ** self.t
        for p, mom in zip(self.params, self._moments):
            if p.grad is None:
                continue
            if isinstance(p.grad, RowGrad):
                rows, g = p.grad.coalesce()
                at = rows if mom.slot is None else mom.slots(rows)
                m, v = mom.m, mom.v
                m_r, v_r, p_r = m[at], v[at], p.data[rows]
            else:
                if mom.slot is not None:
                    mom.densify(p.data.shape)
                rows, g = None, p.grad
                m_r, v_r, p_r = mom.m, mom.v, p.data
            # in place: the moments, then p -= lr * m_hat / (sqrt(v_hat) + eps)
            m_r *= self.beta1
            m_r += (1.0 - self.beta1) * g
            v_r *= self.beta2
            v_r += (1.0 - self.beta2) * g * g
            update = m_r / bias1
            update *= lr
            denom = np.sqrt(v_r / bias2)
            denom += self.eps
            update /= denom
            p_r -= update
            if rows is not None:
                m[at], v[at], p.data[rows] = m_r, v_r, p_r

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def state_arrays(self):
        """The moments by name, as a training state stores them.

        Parameter i's moments are ``adam_m.i`` and ``adam_v.i``. Row-sparse
        moments hold only the touched rows, in ascending row order, and
        ``adam_rows.i`` lists those rows' ids as float64 (exact below 2**53).
        The arrays therefore do not depend on the order rows were first
        touched in. Dense moments are returned without a copy.
        """
        arrays = {}
        for i, mom in enumerate(self._moments):
            if mom.slot is None:
                m, v = mom.m, mom.v
            else:
                ids = np.flatnonzero(mom.slot >= 0)
                at = mom.slot[ids]
                m, v = mom.m[at], mom.v[at]
                arrays["adam_rows.%d" % i] = ids.astype(np.float64)
            arrays["adam_m.%d" % i], arrays["adam_v.%d" % i] = m, v
        return arrays

    def load_state_arrays(self, arrays, path):
        """Take over the moments of :meth:`state_arrays` read from the
        checkpoint at ``path``, adopting the arrays without a copy.

        Raises :class:`DataError` when a parameter's moments are missing or of
        the wrong shape, or when its row ids are not distinct integer rows of
        the parameter in ascending order.
        """
        for i, (p, mom) in enumerate(zip(self.params, self._moments)):
            shape, ids = p.data.shape, arrays.get("adam_rows.%d" % i)
            if ids is not None:
                if not (shape and ids.ndim == 1 and np.all((0 <= ids) & (ids < shape[0]))
                        and np.all(ids == np.floor(ids)) and np.all(np.diff(ids) > 0)):
                    raise DataError("checkpoint %s: adam_rows.%d must list distinct integer "
                                    "row ids below %d in ascending order"
                                    % (path, i, shape[0] if shape else 0))
                shape = (ids.size,) + shape[1:]
            m, v = arrays.get("adam_m.%d" % i), arrays.get("adam_v.%d" % i)
            for name, arr in (("adam_m", m), ("adam_v", v)):
                if arr is None or arr.shape != shape:
                    raise DataError("checkpoint %s: %s.%d has shape %s, expected %s"
                                    % (path, name, i, None if arr is None else arr.shape, shape))
            if ids is None:
                mom.slot, mom.n = None, 0
            else:
                mom.slot = np.full(p.data.shape[0], -1, dtype=np.intp)
                mom.slot[ids.astype(np.intp)] = np.arange(ids.size)
                mom.n = ids.size
            mom.m, mom.v = m, v


# ---------------------------------------------------------------------------
# checkpoint format: one file of a magic line giving the JSON header's length,
# the header (spaces pad it to an 8-byte boundary), then the float64 arrays

MAGIC = b"oneshot-kgc-checkpoint "
MAGIC_LINE = len(MAGIC) + 11            # the magic, a 10-digit header length, "\n"


def save_checkpoint(path, arrays, metadata=None):
    """Write named arrays, their index and ``metadata`` to the file ``path``.

    The arrays go back to back in name order, each written from its own
    buffer. The file is written under a temporary name and renamed into
    place once, so a failed write (a DataError naming the file) leaves the
    previous checkpoint whole.
    """
    tmp = path + ".tmp"
    try:
        with writing(tmp):
            arrays = {name: np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
                      for name in sorted(arrays)}
            offsets = np.cumsum([0] + [arr.nbytes for arr in arrays.values()]).tolist()
            index = {name: {"offset": offset, "shape": list(arr.shape)}
                     for (name, arr), offset in zip(arrays.items(), offsets)}
            header = json.dumps({"params": index, "metadata": metadata or {}},
                                indent=2, sort_keys=True).encode()
            header += b" " * (-(MAGIC_LINE + len(header)) % 8)
            with open(tmp, "wb") as fh:
                fh.write(b"%s%010d\n%s" % (MAGIC, len(header), header))
                for arr in arrays.values():
                    fh.write(arr)
            os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def load_checkpoint(path, format_version=None, into=None):
    """Read a checkpoint written by :func:`save_checkpoint`; returns (arrays, metadata).

    Each array is read into its own buffer, or, when ``into`` maps its name
    to a C-contiguous float64 array, straight into that array, which
    ``arrays`` then holds: a model's parameters are read in place. Before
    any array is read, the header is checked by :func:`read_checkpoint_index`
    and every array of ``into`` must have an entry of its shape; a
    :class:`DataError` names the file.
    """
    entries, metadata, start = read_checkpoint_index(path, format_version)
    into = into or {}
    shapes = {name: shape for _, shape, name in entries}
    for name, target in into.items():
        if shapes.get(name) != target.shape:
            raise DataError("checkpoint %s: %s has shape %s, expected %s"
                            % (path, name, shapes.get(name), target.shape))
    arrays = {}
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            for _, shape, name in entries:
                arr = into[name] if name in into else np.empty(shape)
                if fh.readinto(arr) != arr.nbytes:
                    raise DataError("checkpoint %s: %s runs past the end of the file"
                                    % (path, name))
                arrays[name] = arr
    except (OSError, ValueError) as exc:        # ValueError: a shape too large to allocate
        raise DataError("cannot read checkpoint %s: %s" % (path, exc))
    return arrays, metadata


def read_checkpoint_index(path, format_version=None):
    """A checkpoint's header, checked without reading an array; returns
    (entries ``(offset, shape, name)`` in offset order, metadata, the byte
    at which the arrays start).

    Raises :class:`DataError` when the file is missing, unreadable, without
    the magic line or shorter than its header, when the index does not tile
    the arrays exactly (integer shapes and offsets, each entry starting
    where the one before it ends, the last at the end of the file), or when
    ``format_version`` is given and the metadata records another one.
    """
    try:
        with open(path, "rb") as fh:
            magic, size = fh.read(MAGIC_LINE), os.fstat(fh.fileno()).st_size
            if not (magic.startswith(MAGIC) and magic.endswith(b"\n")
                    and magic[len(MAGIC):-1].isdigit()):
                raise DataError("cannot read checkpoint %s: it does not start with %r"
                                % (path, MAGIC.decode()))
            start = MAGIC_LINE + int(magic[len(MAGIC):-1])
            if start > size:
                raise DataError("checkpoint %s: its header runs past the end of the file" % path)
            header = json.loads(fh.read(start - MAGIC_LINE))
        index, metadata = header["params"], header.get("metadata", {})
        entries = [(e["offset"], tuple(e["shape"]), name) for name, e in index.items()]
        version = metadata.get("format_version")
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError("cannot read checkpoint %s: %s" % (path, exc))
    if format_version is not None and version != format_version:
        raise DataError("checkpoint %s has format version %r, expected %r"
                        % (path, version, format_version))
    for offset, shape, name in entries:
        if not all(type(n) is int and n >= 0 for n in (offset,) + shape):
            raise DataError("checkpoint %s: %s has offset %r and shape %r; both must be "
                            "non-negative integers" % (path, name, offset, list(shape)))
    # in offset order (an empty entry before a full one at the same offset)
    entries.sort(key=lambda e: (e[0], math.prod(e[1]), e[2]))
    n_bytes, end = size - start, 0
    for offset, shape, name in entries:
        if offset != end:
            raise DataError("checkpoint %s: %s starts at byte %d, not at byte %d "
                            "where the entry before it ends" % (path, name, offset, end))
        end += 8 * math.prod(shape)
        if end > n_bytes:
            raise DataError("checkpoint %s: %s runs past the end of its %d bytes of arrays"
                            % (path, name, n_bytes))
    if end != n_bytes:
        raise DataError("checkpoint %s: the file holds %d bytes of arrays, its index "
                        "describes %d" % (path, n_bytes, end))
    return entries, metadata, start
