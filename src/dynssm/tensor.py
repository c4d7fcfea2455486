"""Dense tensors with tape-based reverse-mode automatic differentiation.

Values are float64 numpy arrays, always. Gradients are recorded on an
explicit :class:`Tape`: every operation that consumes a tensor requiring
gradients appends one node (output, parents, vjp closure) in execution order,
so the tape is topologically sorted by construction and the backward pass is
a single reverse sweep that visits each node exactly once.

Broadcasting is deliberately narrow: equal shapes, scalars, and a
trailing-suffix ("leading batch") case. Anything fancier is rejected so every
gradient rule stays auditable.

On import, glibc's malloc is told to keep freed memory: arrays below 32 MiB
(``M_MMAP_THRESHOLD``, glibc's own ceiling for its sliding threshold on 64-bit)
come from the heap rather than fresh mmaps, and the heap top is returned to
the kernel only above 64 MiB of free space (``M_TRIM_THRESHOLD``, twice that,
and above the largest training step's working set, ~58 MB for a paper batch
of 8). Otherwise glibc hands back each step's peak heap when the step ends,
and the next step faults every page of it in again: ~3.5k minor faults per
T=4096 SSM training step, a quarter of its time. Both values must be set;
setting the trim threshold alone also pins the mmap threshold at 128 kB. No
arithmetic changes. Where the C library has no ``mallopt`` nothing is set.
"""

from __future__ import annotations

import ctypes
import math
import threading
from typing import Callable, Iterable, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, ContractError, NumericsError, OracleError, ShapeError

_DEBUG_CHECKS = False

_M_TRIM_THRESHOLD = -1   # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_memory() -> bool:
    """Pin glibc's mmap and trim thresholds (see the module docstring).

    Returns whether both were set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):   # not glibc, or no C library by name
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    # The trim threshold alone would pin the mmap threshold at 128 kB, so it
    # is set only once the mmap threshold is.
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 64 << 20))


_keep_freed_memory()

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

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericsError("tensor data contains NaN or Inf")
        self.data = arr
        self.requires_grad = bool(requires_grad)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Internal fast path for op outputs; finiteness only checked in debug mode.
        if _DEBUG_CHECKS and not np.all(np.isfinite(arr)):
            raise NumericsError("operation produced NaN or Inf")
        t = cls.__new__(cls)
        t.data = arr
        t.requires_grad = False
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
        self._memo: dict[int, tuple] = {}   # id(owner) -> (owner, value), see ``per_tape``

    def __enter__(self) -> "Tape":
        _tape_stack().append(self)
        return self

    def __exit__(self, *exc) -> None:
        stack = _tape_stack()
        if not stack or stack[-1] is not self:
            raise ContractError("tape context exited out of order")
        stack.pop()

    def _record(self, out: Tensor, parents: tuple, vjp: Callable) -> None:
        out.requires_grad = True
        self.nodes.append(_Node(out, parents, vjp))

    def backward(self, loss: Tensor, params: Iterable[Tensor]) -> GradientMap:
        """Reverse-sweep the tape from ``loss``; return the gradient of each of ``params``.

        ``params`` are leaves. The result holds one entry for each of them and
        no other, keyed by the tensor itself, with zeros where the loss does
        not reach it; that includes every tensor that requires no gradient.
        Two calls on the same tape give bit-identical results. The loss must
        be an output recorded on this tape; a leaf or another tape's output
        is a ContractError. The tape holds every output it recorded, so no
        other live tensor can share one of their ids.
        """
        if loss.data.size != 1:
            raise ContractError(f"loss must be scalar, got shape {loss.shape}")
        if not any(node.out is loss for node in reversed(self.nodes)):
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
        for t in params:
            g = grads.get(id(t))
            result[t] = g if g is not None else np.zeros_like(t.data)
        return result


def per_tape(owner, build: Callable[[], object]):
    """``build()``, formed once per active tape and ``owner``, and shared.

    For values that depend on parameters only, such as derived weights: every
    forward recorded on one tape then shares one set of their nodes, and
    their gradients flow back through those nodes once. This is sound because
    parameters do not change while a tape records, which every vjp already
    assumes by capturing ``.data``. The tape holds ``owner`` with the value,
    so the owner's id names it for the tape's lifetime; an owner has one
    value per tape. With no tape active, it builds on every call, so an
    untaped forward always reads the current parameters.
    """
    tape = active_tape()
    if tape is None:
        return build()
    held = tape._memo.get(id(owner))
    if held is None:
        held = tape._memo[id(owner)] = (owner, build())
    return held[1]


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


def _mapped(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x wᵀ`` on the last axis, with the leading axes flattened into one GEMM."""
    return (x.reshape(-1, w.shape[1]) @ w.T).reshape(x.shape[:-1] + w.shape[:1])


def linear(x: Tensor, w: Tensor, b: Optional[Tensor] = None) -> Tensor:
    """Affine map on the last axis: x[..., d_in] @ w[d_out, d_in].T + b.

    The leading axes are flattened, so the product is one GEMM, and the bias
    is added in place.
    """
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    d_out, d_in = w.shape
    val = _mapped(x.data, w.data)
    if b is not None:
        val += b.data
    out = Tensor._wrap(val)
    parents = (x, w) if b is None else (x, w, b)
    tape = _recording(*parents)
    if tape is not None:
        xd, wd = x.data, w.data
        def vjp(g):
            g2 = g.reshape(-1, d_out)
            gx = (g2 @ wd).reshape(xd.shape) if x.requires_grad else None
            gw = (g2.T @ xd.reshape(-1, d_in)) if w.requires_grad else None
            gb = g2.sum(axis=0) if (b is not None and b.requires_grad) else None
            return (gx, gw) if b is None else (gx, gw, gb)
        tape._record(out, parents, vjp)
    return out


# --- normalizations ---

def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stabilized softmax along ``axis`` (max subtracted)."""
    y = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(y, out=y)
    y /= y.sum(axis=axis, keepdims=True)
    out = Tensor._wrap(y)
    tape = _recording(a)
    if tape is not None:
        def vjp(g):
            return ((g - (g * y).sum(axis=axis, keepdims=True)) * y,)
        tape._record(out, (a,), vjp)
    return out


def _heads(x: np.ndarray, heads: int) -> np.ndarray:
    """View (..., L, H·w) as (..., H, L, w): head h is columns h·w to (h+1)·w."""
    return np.swapaxes(x.reshape(x.shape[:-1] + (heads, x.shape[-1] // heads)), -2, -3)


# Score entries per forward chunk of ``attention``: 1 MB of float64, so one
# chunk's scores stay in a 2 MB L2 between passes. The desk graph stage
# sizes its time blocks by the same budget: two of a block's (steps, N,
# d_lat) arrays hold ``_CHUNK`` floats (``graph._block_steps``).
_CHUNK = 1 << 17


def attention(q: Tensor, k: Tensor, v: Tensor, scale: float,
              mask: Optional[np.ndarray] = None, heads: int = 1,
              q_map: Optional[Tensor] = None) -> Tensor:
    """Multi-head scaled dot-product attention as one tape node.

    ``q`` is (..., m, H·d), ``k`` (..., n, H·d) and ``v`` (..., n, H·dv), with
    H = ``heads`` and optional leading axes; the output is (..., m, H·dv).
    Head h is columns h·d to (h+1)·d of q and k and h·dv to (h+1)·dv of v
    and the output: softmax(q kᵀ·scale + mask) v, with ``mask`` a constant
    (m, n) array. Heads are views, and every product is written through
    views, so no head-major copy of q, k, v or the output is made.

    Keys and values may be shared by all heads (multi-query attention,
    Shazeer 2019): when H > 1 and k is one head wide, (..., n, d), v is one
    head's values, (..., n, dv), and every head reads both through a
    stride-0 view; their gradients are summed over the heads.

    With ``q_map``, an (H·d, d_q) Tensor and the node's fourth parent, the
    queries are q·q_mapᵀ for a (..., m, d_q) ``q``: the op forms them
    itself and drops them before it returns, and the vjp forms them again
    with one GEMM (recomputation, Chen et al. 2016).

    The scores are stored key-outer, as E of shape (n, ..., H, m): E[j] is
    key j's slab, written by ``k qᵀ`` through a view. The row max and row sum
    are then elementwise maxima and sums of n contiguous slabs. The forward
    walks the first leading axis in chunks of about ``_CHUNK`` scores and
    reuses one chunk's buffers, so a chunk's passes run from L2 and the full
    E is never formed, taped or not.

    The node keeps only O and the row statistics, the max and the sum l, each
    (steps, ..., H, m). The backward is FlashAttention's (Dao et al. 2022),
    in the same layout. It walks the steps in chunks of about ``_CHUNK // 2``
    scores, with two score buffers, E and dS. Per chunk it forms E again with
    the forward's own operations and stored max, so bit for bit; then, with
    G = dO / l, dV = E G and dS = E ⊙ (v Gᵀ - rowsum(G ⊙ O)) · scale, and
    dK and dQ follow. No probabilities are formed, and the row sum runs over
    dv, not over n. Each step's E depends on that step only, so the chunking
    changes no result; the ``q_map`` gradient is one GEMM over the whole dQ.
    """
    lead = q.shape[:-2]
    if q_map is not None and (q_map.ndim != 2 or q.shape[-1:] != q_map.shape[1:]):
        raise ShapeError(f"attention: q_map {q_map.shape} must be (H·d, d_q) for q {q.shape}")
    width = q.shape[-1] if q_map is None else q_map.shape[0]   # H·d
    shared = heads > 1 and k.shape[-1:] == (width // heads,)
    if (heads < 1 or width % heads or min(q.ndim, k.ndim, v.ndim) < 2
            or k.shape[:-2] != lead or v.shape[:-2] != lead or k.shape[-2] != v.shape[-2]
            or k.shape[-1] not in (width, width // heads) or (not shared and v.shape[-1] % heads)):
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} must be "
                         f"(...,m,H·d), (...,n,H·d or d) and (...,n,H·dv or dv) with H={heads}")
    m, n = q.shape[-2], k.shape[-2]
    if mask is not None and mask.shape != (m, n):
        raise ShapeError(f"attention: mask {mask.shape} does not match scores {(m, n)}")
    parents = (q, k, v) if q_map is None else (q, k, v, q_map)

    def lead1(a: np.ndarray) -> np.ndarray:
        # with no leading axis, work on a leading axis of one
        return a if lead else a[None]

    def queries() -> np.ndarray:
        return _heads(lead1(q.data if q_map is None else _mapped(q.data, q_map.data)), heads)

    # shared k and v are one head that the stacked products broadcast over all H
    kh, vh = (_heads(lead1(a), 1 if shared else heads) for a in (k.data, v.data))
    qh = queries()
    steps, slab = qh.shape[0], qh.shape[1:-1]   # slab: (..., H, m) per step
    per_step = n * math.prod(slab)
    qt_tail = qh.shape[1:-2] + (qh.shape[-1], m)   # scale·qᵀ per step
    mask_t = None if mask is None else mask.T.reshape((n,) + (1,) * len(slab) + (m,))

    def buffers(budget: int) -> tuple[int, np.ndarray, np.ndarray]:
        """Steps per chunk for ``budget`` scores, a score buffer and a scale·qᵀ buffer.

        qᵀ is made contiguous: numpy's stacked product runs several times
        slower on a transposed view, and on q = k it takes a syrk path.
        """
        chunk = max(1, min(steps, budget // per_step))
        return chunk, np.empty((n, chunk) + slab), np.empty((chunk,) + qt_tail)

    def shifted_scores(qh: np.ndarray, s0: int, s1: int, e: np.ndarray, q_t: np.ndarray,
                       fill_max: bool) -> np.ndarray:
        """E - max for steps s0..s1 in ``e``'s first s1 - s0 columns; fills the max if asked."""
        ec, qc = e[:, :s1 - s0], q_t[:s1 - s0]
        np.multiply(np.swapaxes(qh[s0:s1], -1, -2), scale, out=qc)
        np.matmul(kh[s0:s1], qc, out=np.moveaxis(ec, 0, -2))
        if mask_t is not None:
            ec += mask_t
        if fill_max:
            np.maximum.reduce(ec, axis=0, out=rmax[s0:s1])
        ec -= rmax[s0:s1]
        return ec

    o = np.empty(q.shape[:-1] + (v.shape[-1] * (heads if shared else 1),))
    oh = _heads(lead1(o), heads)
    rmax, norm = np.empty((steps,) + slab), np.empty((steps,) + slab)
    chunk, e, q_t = buffers(_CHUNK)
    for s0 in range(0, steps, chunk):
        s1 = min(s0 + chunk, steps)
        ec = shifted_scores(qh, s0, s1, e, q_t, fill_max=True)
        np.exp(ec, out=ec)
        np.add.reduce(ec, axis=0, out=norm[s0:s1])
        np.matmul(np.swapaxes(np.moveaxis(ec, 0, -2), -1, -2), vh[s0:s1], out=oh[s0:s1])
        oh[s0:s1] /= norm[s0:s1, ..., None]
    out = Tensor._wrap(o)
    tape = _recording(*parents)
    if tape is not None:
        def merged(a: np.ndarray, b: np.ndarray, res: np.ndarray, s0: int, s1: int) -> None:
            # a @ b per head, into the heads' columns of steps s0..s1 of (..., L, H·w)
            np.matmul(a, b, out=_heads(lead1(res), heads)[s0:s1])

        def summed(a: np.ndarray, b: np.ndarray, res: np.ndarray, s0: int, s1: int) -> None:
            # a @ b per head, summed over the heads: a shared k's or v's gradient
            np.add.reduce(np.matmul(a, b), axis=-3, out=lead1(res)[s0:s1])

        kv_grad = summed if shared else merged
        map_grad = q_map is not None and q_map.requires_grad

        def vjp(g):
            gh = _heads(lead1(g), heads)
            gv = np.empty(v.shape) if v.requires_grad else None
            gk = np.empty(k.shape) if k.requires_grad else None
            gq = np.empty(q.shape[:-1] + (width,)) if q.requires_grad or map_grad else None
            qh = queries()
            chunk, e, q_t = buffers(_CHUNK // 2)
            ds = np.empty_like(e) if gk is not None or gq is not None else None
            for s0 in range(0, steps, chunk):
                s1 = min(s0 + chunk, steps)
                ec = shifted_scores(qh, s0, s1, e, q_t, fill_max=False)
                np.exp(ec, out=ec)
                gl = gh[s0:s1] / norm[s0:s1, ..., None]
                if gv is not None:
                    kv_grad(np.moveaxis(ec, 0, -2), gl, gv, s0, s1)
                if ds is None:
                    continue
                dc = ds[:, :s1 - s0]
                dsk = np.moveaxis(dc, 0, -2)   # (..., H, n, m)
                # Gᵀ contiguous, as qᵀ in the forward; dSᵀ below stays a
                # view, because copying it measured slower
                np.matmul(vh[s0:s1], np.ascontiguousarray(np.swapaxes(gl, -1, -2)), out=dsk)
                dc -= np.add.reduce(gl * oh[s0:s1], axis=-1)
                dc *= ec
                dc *= scale
                if gk is not None:
                    kv_grad(dsk, qh[s0:s1], gk, s0, s1)
                if gq is not None:
                    merged(np.swapaxes(dsk, -1, -2), kh[s0:s1], gq, s0, s1)
            gm = None
            if q_map is not None and gq is not None:   # back through the map, as ``linear``'s vjp
                g2 = gq.reshape(-1, width)
                gm = g2.T @ q.data.reshape(-1, q.shape[-1]) if map_grad else None
                gq = (g2 @ q_map.data).reshape(q.shape) if q.requires_grad else None
            return (gq, gk, gv) if q_map is None else (gq, gk, gv, gm)
        tape._record(out, parents, vjp)
    return out


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
        val += bias.data if shared else bias.data.reshape(G, c_out)
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


def scaled_self_outer(h: Tensor, gram: Optional[Tensor] = None) -> Tensor:
    """Pairwise scaled products: (N,d) -> (N,N) or (T,N,d) -> (T,N,N).

    Entry (i, j) is h_i G h_jᵀ, where G is ``gram`` (a symmetric (d, d)) or,
    by default, I/sqrt(d): <h_i, h_j> / sqrt(d). Each pair is computed once
    and mirrored, so the output is symmetric bit-for-bit.
    """
    if h.ndim not in (2, 3):
        raise ShapeError(f"scaled_self_outer expects (N,d) or (T,N,d), got {h.shape}")
    d = h.shape[-1]
    if gram is not None and gram.shape != (d, d):
        raise ShapeError(f"scaled_self_outer: gram {gram.shape} does not match width {d}")
    scale = 1.0 / math.sqrt(d)
    hd = h.data
    hg = hd if gram is None else hd @ gram.data
    raw = hg @ np.swapaxes(hd, -1, -2)
    if gram is None:
        raw *= scale
    for i in range(1, h.shape[-2]):   # the strict upper triangle onto the lower, in place
        raw[..., i, :i] = raw[..., :i, i]
    out = Tensor._wrap(raw)
    parents = (h,) if gram is None else (h, gram)
    tape = _recording(*parents)
    if tape is not None:
        def vjp(g):
            gs = g + np.swapaxes(g, -1, -2)
            if gram is None:
                return ((gs @ hd) * scale,)
            gg = None
            if gram.requires_grad:
                gg = hd.reshape(-1, d).T @ (g @ hd).reshape(-1, d)
            return (gs @ hg if h.requires_grad else None, gg)
        tape._record(out, parents, vjp)
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


def _scan_chunk(T: int, chunk: Optional[int]) -> int:
    """The scan's chunk length for T steps: isqrt(T) by default, at most T."""
    if chunk is not None and chunk < 1:
        raise ConfigError(f"scan chunk must be at least 1, got {chunk}")
    return max(1, min(math.isqrt(T) if chunk is None else chunk, T))


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
    chunk = _scan_chunk(a_seq.shape[0], chunk)
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

# Central differences at 64-bit carry ~|f|*ulp/_FD_STEP of roundoff, so a
# coordinate whose analytic/numeric gap is under _FD_ATOL (well above that
# noise, far below any real gradient-rule error) counts as agreeing; otherwise
# mathematically-zero gradients would read as failures.
_FD_STEP = 1e-5
_FD_ATOL = 1e-9


def finite_diff_check(fn: Callable[[Sequence[Tensor]], Tensor],
                      params: Sequence[Tensor]) -> float:
    """Compare analytic gradients of ``fn(params)`` against central differences.

    Every coordinate of every parameter is probed with a step of ``_FD_STEP``.
    Returns the max relative error over those coordinates, where the relative
    error denominator is max(|analytic|, |numeric|, 1e-8) and a gap under
    ``_FD_ATOL`` counts as zero. Raises OracleError if two evaluations of
    ``fn`` disagree (non-determinism).
    """
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
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + _FD_STEP
            fp = fn(params).item()
            flat[i] = orig - _FD_STEP
            fm = fn(params).item()
            flat[i] = orig
            numeric = (fp - fm) / (2.0 * _FD_STEP)
            gap = abs(analytic[i] - numeric)
            if gap < _FD_ATOL:
                continue
            denom = max(abs(analytic[i]), abs(numeric), 1e-8)
            worst = max(worst, gap / denom)
    return worst
