"""Dense tensors with tape-based reverse-mode automatic differentiation.

Values are float64 numpy arrays, always. Gradients are recorded on an
explicit :class:`Tape`: every operation that consumes a tensor requiring
gradients appends one node (output, parents, vjp closure) in execution order,
so the tape is topologically sorted by construction and the backward pass is
a single reverse sweep that visits each node exactly once.

Broadcasting is deliberately narrow: equal shapes, scalars, and a
trailing-suffix ("leading batch") case. Anything fancier is rejected so every
gradient rule stays auditable.
"""

from __future__ import annotations

import math
import threading
import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, NumericsError, OracleError, ShapeError

_DEBUG_CHECKS = False

_tls = threading.local()


def set_debug_checks(enabled: bool) -> None:
    """When enabled, every op output is checked for NaN/Inf."""
    global _DEBUG_CHECKS
    _DEBUG_CHECKS = bool(enabled)


def _tape_stack() -> list:
    stack = getattr(_tls, "tapes", None)
    if stack is None:
        stack = []
        _tls.tapes = stack
    return stack


def active_tape() -> Optional["Tape"]:
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tensor:
    """A dense multi-dimensional array that can participate in gradients."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "_tape_ref", "__weakref__")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self.node_id: Optional[int] = None
        self._tape_ref = None

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs; finiteness only checked in debug mode.
        if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
            raise NumericsError("operation produced NaN or Inf")
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
        t.grad = None
        t.node_id = None
        t._tape_ref = None
        return t

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0]) if self.data.size == 1 else _scalar_err(self)

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor._wrap(self.data)

    def __repr__(self) -> str:
        req = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{req})"

    # arithmetic sugar; scalars are wrapped as constant tensors
    def __add__(self, other):
        return add(self, _as_tensor(other))

    def __radd__(self, other):
        return add(_as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, _as_tensor(other))

    def __rsub__(self, other):
        return sub(_as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, _as_tensor(other))

    def __rmul__(self, other):
        return mul(_as_tensor(other), self)

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return mul(self, _as_tensor(1.0 / other))
        raise TypeError("tensor division only supports python scalars")

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, axes: Optional[Sequence[int]] = None) -> "Tensor":
        return transpose(self, axes)

    @property
    def T(self) -> "Tensor":
        return transpose(self)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)


def _scalar_err(t: Tensor):
    raise ContractError(f"expected a scalar tensor, got shape {t.shape}")


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(x)


def init_weight(rng, shape: tuple, fan_in: int, requires_grad: bool = True) -> Tensor:
    """Normal draws from ``rng`` with std 1/sqrt(fan_in); every module's weight init."""
    return Tensor(rng.normal(shape, std=1.0 / math.sqrt(fan_in)), requires_grad=requires_grad)


GradientMap = dict  # Tensor -> np.ndarray, keyed by identity


class _Node:
    # Outputs are held strongly: the tape owns every intermediate for its
    # lifetime, which keeps the id()-keyed bookkeeping collision-free.
    __slots__ = ("out", "parents", "vjp")

    def __init__(self, out: Tensor, parents: tuple, vjp: Callable):
        self.out = out
        self.parents = parents
        self.vjp = vjp


class Tape:
    """Ordered record of executed operations for one backward pass.

    Use as a context manager; operations executed inside record themselves
    when any input requires gradients. Parents always precede children in
    ``nodes``, so reversing the list is a valid backward order.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._produced: set[int] = set()
        self._leaves: dict[int, Tensor] = {}

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()

    def _record(self, out: Tensor, parents: tuple, vjp: Callable) -> None:
        for p in parents:
            if p.requires_grad and id(p) not in self._produced:
                self._leaves.setdefault(id(p), p)
        out.requires_grad = True
        out.node_id = len(self.nodes)
        out._tape_ref = weakref.ref(self)
        self._produced.add(id(out))
        self.nodes.append(_Node(out, parents, vjp))

    def backward(self, loss: Tensor, params: Optional[Iterable[Tensor]] = None) -> GradientMap:
        """Reverse-sweep the tape from ``loss`` and return gradients per leaf.

        Parameters listed in ``params`` but absent from the path receive zero
        gradients. Two calls on the same tape give bit-identical results.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if loss.node_id is None or loss._tape_ref is None or loss._tape_ref() is not self:
            raise ContractError("loss is not recorded on this tape")

        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for node in reversed(self.nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            parent_grads = node.vjp(g)
            for p, pg in zip(node.parents, parent_grads):
                if pg is None or not p.requires_grad:
                    continue
                acc = grads.get(id(p))
                grads[id(p)] = pg if acc is None else acc + pg

        result: GradientMap = {}
        for t in self._leaves.values():
            g = grads.get(id(t))
            t.grad = g if g is not None else np.zeros_like(t.data)
            result[t] = t.grad
        if params is not None:
            for t in params:
                if t not in result:
                    t.grad = np.zeros_like(t.data)
                    result[t] = t.grad
        return result


def backward(loss: Tensor, params: Optional[Iterable[Tensor]] = None) -> GradientMap:
    """Backward through the tape that recorded ``loss``."""
    if loss._tape_ref is None or loss._tape_ref() is None:
        raise ContractError("loss is not recorded on any tape")
    return loss._tape_ref().backward(loss, params)


def _recording(*parents: Tensor) -> Optional[Tape]:
    tape = active_tape()
    if tape is None:
        return None
    for p in parents:
        if p.requires_grad:
            return tape
    return None


# --- broadcasting (equal / scalar / trailing-suffix only) ---

def _broadcast_ok(sa: tuple, sb: tuple) -> bool:
    if sa == sb:
        return True
    na, nb = int(np.prod(sa or (1,))), int(np.prod(sb or (1,)))
    if na == 1 or nb == 1:
        return True
    short, long = (sa, sb) if len(sa) < len(sb) else (sb, sa)
    return len(short) < len(long) and long[len(long) - len(short):] == short


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    if not _broadcast_ok(a.shape, b.shape):
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable "
                         "(only equal, scalar, and leading-batch cases are allowed)")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    if g.shape == shape:
        return g
    if int(np.prod(shape or (1,))) == 1:
        return g.sum().reshape(shape)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    return g


# --- elementwise ---

def add(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("add", a, b)
    out = Tensor._wrap(a.data + b.data)
    tape = _recording(a, b)
    if tape is not None:
        def vjp(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(g, b.shape) if b.requires_grad else None)
        tape._record(out, (a, b), vjp)
    return out


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("sub", a, b)
    out = Tensor._wrap(a.data - b.data)
    tape = _recording(a, b)
    if tape is not None:
        def vjp(g):
            return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                    _unbroadcast(-g, b.shape) if b.requires_grad else None)
        tape._record(out, (a, b), vjp)
    return out


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_broadcast("mul", a, b)
    out = Tensor._wrap(a.data * b.data)
    tape = _recording(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        def vjp(g):
            return (_unbroadcast(g * bd, a.shape) if a.requires_grad else None,
                    _unbroadcast(g * ad, b.shape) if b.requires_grad else None)
        tape._record(out, (a, b), vjp)
    return out


def neg(a: Tensor) -> Tensor:
    out = Tensor._wrap(-a.data)
    tape = _recording(a)
    if tape is not None:
        tape._record(out, (a,), lambda g: (-g,))
    return out


def relu(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.maximum(a.data, 0.0))
    tape = _recording(a)
    if tape is not None:
        mask = a.data > 0.0
        tape._record(out, (a,), lambda g: (g * mask,))
    return out


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)
    out = Tensor._wrap(e)
    tape = _recording(a)
    if tape is not None:
        tape._record(out, (a,), lambda g: (g * e,))
    return out


def log(a: Tensor) -> Tensor:
    out = Tensor._wrap(np.log(a.data))
    tape = _recording(a)
    if tape is not None:
        ad = a.data
        tape._record(out, (a,), lambda g: (g / ad,))
    return out


def softplus(a: Tensor) -> Tensor:
    # log(1 + e^x), computed without overflow
    x = a.data
    e = np.exp(-np.abs(x))
    out = Tensor._wrap(np.maximum(x, 0.0) + np.log1p(e))
    tape = _recording(a)
    if tape is not None:
        s = _sigmoid_np(x, e)
        tape._record(out, (a,), lambda g: (g * s,))
    return out


def _sigmoid_np(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, given e = exp(-|x|)
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Tensor) -> Tensor:
    s = _sigmoid_np(a.data, np.exp(-np.abs(a.data)))
    out = Tensor._wrap(s)
    tape = _recording(a)
    if tape is not None:
        tape._record(out, (a,), lambda g: (g * s * (1.0 - s),))
    return out


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)
    out = Tensor._wrap(t)
    tape = _recording(a)
    if tape is not None:
        tape._record(out, (a,), lambda g: (g * (1.0 - t * t),))
    return out


# --- reductions / shape ---

def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = Tensor._wrap(a.data.sum(axis=axis, keepdims=keepdims))
    tape = _recording(a)
    if tape is not None:
        shape = a.shape
        def vjp(g):
            if axis is None:
                return (np.broadcast_to(g.reshape(()), shape).copy() if not keepdims
                        else np.broadcast_to(g, shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, shape).copy(),)
        tape._record(out, (a,), vjp)
    return out


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    count = a.data.size if axis is None else a.shape[axis]
    out = Tensor._wrap(a.data.mean(axis=axis, keepdims=keepdims))
    tape = _recording(a)
    if tape is not None:
        shape = a.shape
        def vjp(g):
            if axis is None:
                g2 = g.reshape(()) if not keepdims else g
            else:
                g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, shape) / count,)
        tape._record(out, (a,), vjp)
    return out


def reshape(a: Tensor, shape: tuple) -> Tensor:
    out = Tensor._wrap(a.data.reshape(shape))
    tape = _recording(a)
    if tape is not None:
        orig = a.shape
        tape._record(out, (a,), lambda g: (g.reshape(orig),))
    return out


def transpose(a: Tensor, axes: Optional[Sequence[int]] = None) -> Tensor:
    out = Tensor._wrap(np.ascontiguousarray(a.data.transpose(axes)))
    tape = _recording(a)
    if tape is not None:
        inv = None if axes is None else tuple(np.argsort(axes))
        tape._record(out, (a,), lambda g: (g.transpose(inv),))
    return out


def getitem(a: Tensor, idx) -> Tensor:
    # np.array (not ascontiguousarray): 0-d results must stay 0-d
    out = Tensor._wrap(np.array(a.data[idx], order="C"))
    tape = _recording(a)
    if tape is not None:
        shape = a.shape
        def vjp(g):
            full = np.zeros(shape, dtype=g.dtype)
            full[idx] = g
            return (full,)
        tape._record(out, (a,), vjp)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    out = Tensor._wrap(np.concatenate([t.data for t in tensors], axis=axis))
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in tensors):
        sizes = [t.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)
        def vjp(g):
            pieces = []
            for i, t in enumerate(tensors):
                if t.requires_grad:
                    sl = [slice(None)] * g.ndim
                    sl[axis] = slice(offsets[i], offsets[i + 1])
                    pieces.append(np.ascontiguousarray(g[tuple(sl)]))
                else:
                    pieces.append(None)
            return tuple(pieces)
        tape._record(out, tuple(tensors), vjp)
    return out


# --- linear algebra ---

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: (m,k)@(k,n) -> (m,n) or (m,k)@(k,) -> (m,)."""
    sa, sb = a.shape, b.shape
    if len(sa) != 2 or len(sb) not in (1, 2) or sa[1] != sb[0]:
        raise ShapeError(f"matmul: incompatible shapes {sa} and {sb}")
    out = Tensor._wrap(a.data @ b.data)
    tape = _recording(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        if len(sb) == 2:
            def vjp(g):
                return (g @ bd.T if a.requires_grad else None,
                        ad.T @ g if b.requires_grad else None)
        else:
            def vjp(g):
                return (np.outer(g, bd) if a.requires_grad else None,
                        ad.T @ g if b.requires_grad else None)
        tape._record(out, (a, b), vjp)
    return out


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: (B,m,k)@(B,k,n) -> (B,m,n)."""
    sa, sb = a.shape, b.shape
    if len(sa) != 3 or len(sb) != 3 or sa[0] != sb[0] or sa[2] != sb[1]:
        raise ShapeError(f"bmm: incompatible shapes {sa} and {sb}")
    out = Tensor._wrap(a.data @ b.data)
    tape = _recording(a, b)
    if tape is not None:
        ad, bd = a.data, b.data
        def vjp(g):
            return (g @ bd.transpose(0, 2, 1) if a.requires_grad else None,
                    ad.transpose(0, 2, 1) @ g if b.requires_grad else None)
        tape._record(out, (a, b), vjp)
    return out


def bmv(a: Tensor, x: Tensor) -> Tensor:
    """Batched matrix-vector product: (B,n,m)@(B,m) -> (B,n)."""
    sa, sx = a.shape, x.shape
    if len(sa) != 3 or len(sx) != 2 or sa[0] != sx[0] or sa[2] != sx[1]:
        raise ShapeError(f"bmv: incompatible shapes {sa} and {sx}")
    out = Tensor._wrap(np.einsum("bnm,bm->bn", a.data, x.data))
    tape = _recording(a, x)
    if tape is not None:
        ad, xd = a.data, x.data
        def vjp(g):
            return (np.einsum("bn,bm->bnm", g, xd) if a.requires_grad else None,
                    np.einsum("bnm,bn->bm", ad, g) if x.requires_grad else None)
        tape._record(out, (a, x), vjp)
    return out


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map on the last axis: x[..., d_in] @ w[d_out, d_in].T + b."""
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    val = x.data @ w.data.T
    if b is not None:
        val = val + b.data
    out = Tensor._wrap(val)
    parents = (x, w) if b is None else (x, w, b)
    tape = _recording(*parents)
    if tape is not None:
        xd, wd = x.data, w.data
        def vjp(g):
            g2 = g.reshape(-1, wd.shape[0])
            gx = (g @ wd) if x.requires_grad else None
            gw = (g2.T @ xd.reshape(-1, wd.shape[1])) if w.requires_grad else None
            gb = g2.sum(axis=0) if (b is not None and b.requires_grad) else None
            return (gx, gw) if b is None else (gx, gw, gb)
        tape._record(out, parents, vjp)
    return out


# --- normalizations ---

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis`` (row-max subtracted)."""
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(y)
    tape = _recording(a)
    if tape is not None:
        def vjp(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            return ((g - dot) * y,)
        tape._record(out, (a,), vjp)
    return out


def softmax_rows(a: Tensor) -> Tensor:
    """Softmax over the rows of a 2-D tensor; each output row sums to 1."""
    if a.ndim != 2:
        raise ShapeError(f"softmax_rows expects a 2-D tensor, got shape {a.shape}")
    return softmax(a, axis=-1)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    x = a.data
    m = x.max(axis=axis, keepdims=True)
    shifted = x - m
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    y = shifted - lse
    out = Tensor._wrap(y)
    tape = _recording(a)
    if tape is not None:
        def vjp(g):
            return (g - np.exp(y) * g.sum(axis=axis, keepdims=True),)
        tape._record(out, (a,), vjp)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    xd = x.data
    mu = xd.mean(axis=-1, keepdims=True)
    xc = xd - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = xc * ivar
    out = Tensor._wrap(gamma.data * xhat + beta.data)
    tape = _recording(x, gamma, beta)
    if tape is not None:
        gd = gamma.data
        def vjp(g):
            dxhat = g * gd
            lead = tuple(range(g.ndim - 1))
            gx = None
            if x.requires_grad:
                m1 = dxhat.mean(axis=-1, keepdims=True)
                m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
                gx = ivar * (dxhat - m1 - xhat * m2)
            gg = (g * xhat).sum(axis=lead) if gamma.requires_grad else None
            gb = g.sum(axis=lead) if beta.requires_grad else None
            return (gx, gg, gb)
        tape._record(out, (x, gamma, beta), vjp)
    return out


# --- lookups ---

def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: table[(V, d)] indexed by an integer id array."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.min(initial=0) < 0 or (ids.size and ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range for table of {table.shape[0]} rows")
    out = Tensor._wrap(table.data[ids])
    tape = _recording(table)
    if tape is not None:
        shape = table.shape
        def vjp(g):
            gt = np.zeros(shape, dtype=g.dtype)
            np.add.at(gt, ids, g)
            return (gt,)
        tape._record(out, (table,), vjp)
    return out


# --- structured ops ---

def grouped_conv1d(x: Tensor, kernel_size: int, weights: Tensor,
                   group_count: int, bias: Optional[Tensor] = None) -> Tensor:
    """Grouped temporal convolution with zero padding and same output length.

    ``x`` is (T, C) with channels split into ``group_count`` groups. Weights
    are (G, c_out, c_in_g, K); a leading extent of 1 with G > 1 means one
    kernel set shared by every group. Output is (T, G * c_out), group-major,
    and each group's outputs depend only on that group's inputs.
    """
    if kernel_size < 1 or kernel_size % 2 == 0:
        raise ConfigError(f"kernel_size must be a positive odd integer, got {kernel_size}")
    if x.ndim != 2:
        raise ShapeError(f"grouped_conv1d expects (T, C) input, got shape {x.shape}")
    T, C = x.shape
    if group_count < 1 or C % group_count != 0:
        raise ConfigError(f"group_count {group_count} does not divide channel count {C}")
    if T < kernel_size:
        raise ShapeError(f"input too short: T={T} < kernel_size={kernel_size}")
    G = group_count
    cin_g = C // G
    if weights.ndim != 4 or weights.shape[3] != kernel_size or weights.shape[2] != cin_g:
        raise ShapeError(f"weights shape {weights.shape} does not match "
                         f"(G|1, c_out, {cin_g}, {kernel_size})")
    shared = weights.shape[0] == 1 and G > 1
    if not shared and weights.shape[0] != G:
        raise ShapeError(f"weights leading extent {weights.shape[0]} must be 1 or {G}")
    c_out = weights.shape[1]

    pad = (kernel_size - 1) // 2
    xp = np.zeros((T + 2 * pad, C), dtype=x.data.dtype)
    xp[pad:pad + T] = x.data
    win = sliding_window_view(xp, kernel_size, axis=0)  # (T, C, K)
    win = win.reshape(T, G, cin_g, kernel_size)
    if shared:
        val = np.einsum("tgik,oik->tgo", win, weights.data[0])
    else:
        val = np.einsum("tgik,goik->tgo", win, weights.data)
    if bias is not None:
        val = val + (bias.data if shared else bias.data.reshape(G, c_out))
    out = Tensor._wrap(np.ascontiguousarray(val.reshape(T, G * c_out)))

    parents = (x, weights) if bias is None else (x, weights, bias)
    tape = _recording(*parents)
    if tape is not None:
        wd = weights.data
        win_saved = win.copy()
        def vjp(g):
            g3 = g.reshape(T, G, c_out)
            gx = gw = gb = None
            if weights.requires_grad:
                if shared:
                    gw = np.einsum("tgo,tgik->oik", g3, win_saved)[None]
                else:
                    gw = np.einsum("tgo,tgik->goik", g3, win_saved)
            if x.requires_grad:
                gxp = np.zeros((T + 2 * pad, C), dtype=g.dtype)
                for k in range(kernel_size):
                    if shared:
                        contrib = np.einsum("tgo,oi->tgi", g3, wd[0, :, :, k])
                    else:
                        contrib = np.einsum("tgo,goi->tgi", g3, wd[:, :, :, k])
                    gxp[k:k + T] += contrib.reshape(T, C)
                gx = gxp[pad:pad + T]
            if bias is not None and bias.requires_grad:
                gb = g3.sum(axis=(0, 1)) if shared else g3.sum(axis=0).reshape(-1)
            return (gx, gw) if bias is None else (gx, gw, gb)
        tape._record(out, parents, vjp)
    return out


def scaled_self_outer(h: Tensor) -> Tensor:
    """Pairwise scaled dot products: (N,d) -> (N,N) or (T,N,d) -> (T,N,N).

    Each pair's dot product is computed once and mirrored, so the output is
    symmetric bit-for-bit. Entry (i, j) is <h_i, h_j> / sqrt(d).
    """
    if h.ndim not in (2, 3):
        raise ShapeError(f"scaled_self_outer expects (N,d) or (T,N,d), got {h.shape}")
    d = h.shape[-1]
    scale = 1.0 / math.sqrt(d)
    hd = h.data
    if h.ndim == 2:
        raw = (hd @ hd.T) * scale
    else:
        raw = (hd @ hd.transpose(0, 2, 1)) * scale
    upper = np.triu(raw)
    strict = np.triu(raw, 1)
    sym = upper + (strict.transpose(0, 2, 1) if h.ndim == 3 else strict.T)
    out = Tensor._wrap(np.ascontiguousarray(sym))
    tape = _recording(h)
    if tape is not None:
        def vjp(g):
            gs = g + (g.transpose(0, 2, 1) if g.ndim == 3 else g.T)
            return ((gs @ hd) * scale,)
        tape._record(out, (h,), vjp)
    return out


def _chunked_scan(a: np.ndarray, b: np.ndarray, chunk: int) -> np.ndarray:
    """Inclusive scan s_t = a_t * s_{t-1} + b_t from s_{-1} = 0 along axis 0.

    The (T, d) inputs are cut into chunks of ``chunk`` steps; identity steps
    (a = 1, b = 0) pad the last one and change no earlier state. Pass 1 scans
    inside every chunk, vectorised across chunks; pass 2 carries the state
    across the chunk ends; pass 3 adds each chunk's incoming state, scaled by
    the chunk's running product of a. Chunk 0 takes no incoming state, so
    ``chunk >= T`` performs the left-to-right loop's operations exactly.
    """
    T, d = a.shape
    nc = -(-T // chunk)
    pad = nc * chunk - T
    if pad:
        a = np.concatenate([a, np.ones((pad, d), dtype=a.dtype)])
        b = np.concatenate([b, np.zeros((pad, d), dtype=b.dtype)])
    # (chunk, nc, d): step i of every chunk is one contiguous row block
    a = a.reshape(nc, chunk, d).transpose(1, 0, 2).copy()
    s = b.reshape(nc, chunk, d).transpose(1, 0, 2).copy()
    s[0] += a[0] * 0.0   # the loop's first step from a zero state, signed zeros included
    for i in range(1, chunk):
        s[i] += a[i] * s[i - 1]
        if nc > 1:
            a[i] *= a[i - 1]   # running product of a over steps 0..i of each chunk
    if nc > 1:
        incoming = np.empty((nc - 1, d), dtype=s.dtype)
        incoming[0] = s[-1, 0]
        for k in range(1, nc - 1):
            incoming[k] = a[-1, k] * incoming[k - 1] + s[-1, k]
        s[:, 1:] += a[:, 1:] * incoming
    return s.transpose(1, 0, 2).reshape(nc * chunk, d)[:T]


def selective_scan(a_seq: Tensor, b_seq: Tensor, chunk: Optional[int] = None) -> Tensor:
    """Linear recurrence s_t = a_t * s_{t-1} + b_t with s_0 = 0.

    Both inputs are (T, d). The scan runs in chunks of ``chunk`` steps,
    isqrt(T) by default, so it takes about 2*sqrt(T) vectorised steps. The
    backward pass is the mirrored recurrence c_t = g_t + a_{t+1} c_{t+1}, run
    through the same chunked scan on flipped inputs. ``chunk=T`` evaluates
    both directions in plain step order.
    """
    if a_seq.shape != b_seq.shape or a_seq.ndim != 2:
        raise ShapeError(f"selective_scan expects matching (T,d) inputs, "
                         f"got {a_seq.shape} and {b_seq.shape}")
    if chunk is not None and chunk < 1:
        raise ConfigError(f"scan chunk must be at least 1, got {chunk}")
    T = a_seq.shape[0]
    chunk = max(1, min(math.isqrt(T) if chunk is None else chunk, T))
    ad = a_seq.data
    states = _chunked_scan(ad, b_seq.data, chunk)
    out = Tensor._wrap(states)
    tape = _recording(a_seq, b_seq)
    if tape is not None:
        def vjp(g):
            a_next = np.empty_like(ad)
            a_next[:-1] = ad[1:]
            a_next[-1:] = 0.0
            c = _chunked_scan(a_next[::-1], g[::-1], chunk)[::-1]
            ga = None
            if a_seq.requires_grad:
                ga = np.zeros_like(c)
                ga[1:] = c[1:] * states[:-1]
            return (ga, c if b_seq.requires_grad else None)
        tape._record(out, (a_seq, b_seq), vjp)
    return out


# --- verification oracle ---

def finite_diff_check(fn: Callable[[Sequence[Tensor]], Tensor],
                      params: Sequence[Tensor],
                      eps: float = 1e-5,
                      coord_limit: Optional[int] = None,
                      atol: float = 1e-9) -> float:
    """Compare analytic gradients of ``fn(params)`` against central differences.

    Returns the max relative error over parameter coordinates, where the
    relative error denominator is max(|analytic|, |numeric|, 1e-8). Raises
    OracleError if two evaluations of ``fn`` disagree (non-determinism).
    ``coord_limit`` caps the number of probed coordinates per parameter
    (evenly strided); None probes every coordinate.

    Central differences at 64-bit carry ~|f|*ulp/eps of roundoff, so
    coordinates whose analytic/numeric gap is under ``atol`` (default well
    above that noise, far below any real gradient-rule error) count as
    agreeing; otherwise mathematically-zero gradients would read as failures.
    """
    if eps <= 0:
        raise ConfigError("eps must be positive")
    v1 = fn(params).item()
    v2 = fn(params).item()
    if v1 != v2:
        raise OracleError(f"function is not deterministic: {v1} != {v2}")

    with Tape() as tape:
        loss = fn(params)
        if loss.data.size != 1:
            raise ContractError(f"fn must return a scalar, got shape {loss.shape}")
        grads = tape.backward(loss, params=params)

    worst = 0.0
    for p in params:
        analytic = grads[p].reshape(-1)
        flat = p.data.reshape(-1)
        n = flat.size
        if coord_limit is not None and n > coord_limit:
            idxs = np.linspace(0, n - 1, coord_limit).astype(int)
        else:
            idxs = range(n)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + eps
            fp = fn(params).item()
            flat[i] = orig - eps
            fm = fn(params).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * eps)
            gap = abs(analytic[i] - numeric)
            if gap < atol:
                continue
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, gap / denom)
    return worst
