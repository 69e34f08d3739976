"""Dense float64 tensors with reverse-mode autodiff, the tape ops the model
records, and the numpy kernels its block nodes run (conv, softplus, norm).

The engine is a recorded tape over numpy arrays: each op that
``_records`` admits produces a new Tensor that remembers its parents and
a closure computing the local vector-Jacobian product. ``backward()``
replays the interior nodes in reverse topological order, accumulating
gradients additively into ``.grad`` buffers. Each interior node's
gradient, closure and parent links are dropped as soon as its closure
has run, so a graph can be swept only once; leaves keep their gradients.
All storage is 64-bit; there is no broadcasting API beyond what the
primitives themselves need (bias vectors over trailing dims).

Sets of independent sequences travel as one flat (L, ...) array, the
sequences laid end to end, plus a ``Runs`` value built once per set: the
conv, the flip, segment pooling and the scan take it and rebuild no
index. Several patients' sets join into one by laying their rows and
runs end to end (``join_rows``, ``Runs.join``) and part again by rows
(``split_rows``).
"""

from __future__ import annotations

import itertools
import math
import threading
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConsumedGraphError, NonFiniteError, ShapeError


class _Recording(threading.local):
    on = True  # each thread starts recording


_recording = _Recording()


def _records(parents: tuple) -> bool:
    """Whether an op goes on the tape: this thread records and a parent needs a gradient."""
    return _recording.on and any(p.requires_grad for p in parents)


class no_grad:
    """Context manager that disables tape recording (per thread)."""

    def __enter__(self):
        self._prev, _recording.on = _recording.on, False
        return self

    def __exit__(self, *exc):
        _recording.on = self._prev


class Tensor:
    """A dense n-dimensional float64 array with an optional gradient buffer.

    Invariants: ``grad`` (when present) has the same shape as ``data``;
    gradients accumulate additively, so callers zero them explicitly
    before each backward pass.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def _accum(self, g: np.ndarray):
        if self.grad is None:
            # copy: g may be a view into another node's grad buffer
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self):
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(f"backward() needs a scalar, got shape {self.shape}")
        topo: list[Tensor] = []
        seen: set[Tensor] = set()  # Tensors hash by identity
        stack: list[tuple[Tensor, bool]] = [(self, False)] if self._backward is not None else []
        while stack:  # iterative DFS over interior nodes; graphs can be deep
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if node in seen:
                continue
            seen.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p._backward is not None and p not in seen:
                    stack.append((p, False))
        del seen  # so each swept node is freed as the sweep passes it
        self._accum(np.ones_like(self.data))
        while topo:  # reverse topological order, dropping each node once swept
            node = topo.pop()
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._backward = _consumed
            node._parents = ()

    # -- arithmetic sugar ------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, _wrap(other))

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __sub__(self, other):
        return add(self, neg(_wrap(other)))

    def __rsub__(self, other):
        return add(_wrap(other), neg(self))

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _consumed(g):
    """Stands in for the closure of a node that backward() has swept."""
    raise ConsumedGraphError(
        "backward: the graph was already consumed by an earlier backward(); "
        "run the forward pass again to build a new one"
    )


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _node(data: np.ndarray, parents: tuple, backward) -> Tensor:
    """Build an op output, recording the tape only when a parent needs it."""
    out = Tensor(data)
    if _records(parents):
        out.requires_grad = True
        out._parents = parents
        out._backward = backward
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient back down to the shape it was broadcast from."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


# -- elementwise primitives ----------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(out, (a, b), backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def backward(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _node(out, (a, b), backward)


def neg(a: Tensor) -> Tensor:
    def backward(g):
        a._accum(-g)

    return _node(-a.data, (a,), backward)


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid_np(a.data)

    def backward(g):
        a._accum(g * out * (1.0 - out))

    return _node(out, (a,), backward)


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp may overflow to inf for very negative x; 1/(1+inf) = 0 is the
    # right saturation, so just silence the warning.
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def silu(a: Tensor) -> Tensor:
    """Elementwise x * sigmoid(x)."""
    s = _sigmoid_np(a.data)
    out = a.data * s

    def backward(g):
        a._accum(g * s * (1.0 + a.data * (1.0 - s)))

    return _node(out, (a,), backward)


def _softplus_np(x: np.ndarray) -> np.ndarray:
    """Overflow-safe ln(1 + e^x): ~x for large x, ~0 for very negative x."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def log_clamped(a: Tensor, floor: float = 1e-12) -> Tensor:
    """log(max(a, floor)); the clamp keeps survival losses finite.

    Gradient is 1/a where a > floor and 0 in the clamped region.
    """
    clamped = np.maximum(a.data, floor)
    out = np.log(clamped)

    def backward(g):
        a._accum(np.where(a.data > floor, g / clamped, 0.0))

    return _node(out, (a,), backward)


# -- linear algebra --------------------------------------------------------


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y[..., j] = sum_i x[..., i] * w[i, j] (+ b[j]).

    w has shape (d_in, d_out); x may carry any number of leading dims.
    """
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeError(
            f"linear: x trailing dim {x.data.shape} does not match weight {w.data.shape}"
        )
    lead = x.data.shape[:-1]
    x2 = x.data.reshape(-1, x.data.shape[-1])
    y2 = x2 @ w.data
    out = y2.reshape(lead + (w.data.shape[1],))
    if b is not None:
        if b.data.shape != (w.data.shape[1],):
            raise ShapeError(f"linear: bias {b.data.shape} does not match weight {w.data.shape}")
        out = out + b.data

    def backward(g):
        g2 = g.reshape(-1, w.data.shape[1])
        if x.requires_grad:
            x._accum((g2 @ w.data.T).reshape(x.data.shape))
        if w.requires_grad:
            w._accum(x2.T @ g2)
        if b is not None and b.requires_grad:
            b._accum(g2.sum(axis=0))

    parents = (x, w) if b is None else (x, w, b)
    return _node(out, parents, backward)


def stacked_linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Per-row affine maps: out[..., f] = x[..., f] @ w[f] + b[f].

    x is (..., F, I), w is (F, I, O), b is (F, O); each row gets its own
    weight matrix (used to run many small MLPs in one call), and leading
    axes of x (a stack of inputs) share them.
    """
    if x.data.ndim < 2 or w.data.ndim != 3 or x.data.shape[-2:] != w.data.shape[:2]:
        raise ShapeError(f"stacked_linear: x {x.data.shape} vs w {w.data.shape}")
    out = np.matmul(x.data[..., None, :], w.data)[..., 0, :] + b.data

    def backward(g):
        if x.requires_grad:
            x._accum(np.matmul(g[..., None, :], w.data.transpose(0, 2, 1))[..., 0, :])
        if w.requires_grad:
            w._accum(_unbroadcast(x.data[..., :, None] * g[..., None, :], w.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _node(out, (x, w, b), backward)


def _layer_norm(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float) -> tuple:
    """Each row of x normalized over the last axis to zero mean and unit
    (population) variance, then scaled and shifted: (out, xhat, inv), the
    last two for ``_layer_norm_grads``. A row whose variance overflows
    comes out NaN, not scaled to zero."""
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d  # each mean as ndarray.mean forms it
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = np.where(np.isfinite(var), 1.0 / np.sqrt(var + eps), np.nan)
    xhat = xc * inv
    return xhat * gamma + beta, xhat, inv


def _layer_norm_grads(g: np.ndarray, gamma: np.ndarray, xhat: np.ndarray, inv: np.ndarray, need_x: bool) -> tuple:
    """(dx, dgamma, dbeta) of ``_layer_norm`` for the output gradient g;
    dx is None unless need_x."""
    d = xhat.shape[-1]
    dgamma = (g * xhat).reshape(-1, d).sum(axis=0)
    dbeta = g.reshape(-1, d).sum(axis=0)
    if not need_x:
        return None, dgamma, dbeta
    gx = g * gamma
    # d/dx of (x - mu) * inv with mu, inv functions of the row
    mean_gx = np.add.reduce(gx, axis=-1, keepdims=True) / d
    mean_gx_xhat = np.add.reduce(gx * xhat, axis=-1, keepdims=True) / d
    return inv * (gx - mean_gx - xhat * mean_gx_xhat), dgamma, dbeta


def _conv_tap(cross, k, a, b, buf):
    """a * b for tap k of a causal conv in buf, the tap's run-crossing rows
    (``Runs.conv_cross``) zeroed."""
    np.multiply(a, b, out=buf)
    if cross[k].size:
        buf[..., cross[k], :] = 0.0
    return buf


def _conv_pad(x: np.ndarray, w: int) -> np.ndarray:
    """x (..., L, E) after w - 1 rows of zeros, so tap k reads rows k..k+L-1."""
    xp = np.zeros(x.shape[:-2] + (x.shape[-2] + w - 1, x.shape[-1]))
    xp[..., w - 1 :, :] = x
    return xp


def _conv1d(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray, runs: Runs) -> np.ndarray:
    """Causal depthwise conv over each run of flat (L, E) x, off the tape:
    y[l, e] = bias[e] + sum_k kernel[e, k] * x[l - W + 1 + k, e], rows before
    the run's start read as zero; a (G, L, E) stack takes a kernel (G, E, W)
    and a bias (G, E), one per leading index."""
    lead = kernel.shape[:-2]
    if x.ndim != len(lead) + 2 or x.shape[:-2] != lead:
        raise ShapeError(f"conv1d: expected flat (L, E) runs, got {x.shape}")
    runs.check("conv1d", x.shape[-2])
    n, e = x.shape[-2:]
    if kernel.ndim < 2 or kernel.shape[-2] != e:
        raise ShapeError(f"conv1d: kernel {kernel.shape} does not match channels {e}")
    w = kernel.shape[-1]
    cross, xp, buf = runs.conv_cross(w), _conv_pad(x, w), np.empty(x.shape)
    out = np.broadcast_to(bias[..., None, :], x.shape).copy()
    for k in range(w):
        out += _conv_tap(cross, k, kernel[..., None, :, k], xp[..., k : k + n, :], buf)
    return out


def _conv1d_grads(g: np.ndarray, x: np.ndarray, kernel: np.ndarray, runs: Runs, need_x: bool):
    """(dx, dkernel, dbias) of the causal depthwise conv for the output
    gradient g, shaped as ``_conv1d`` takes them; dx is None unless
    need_x. The padded input is formed again rather than kept."""
    n = x.shape[-2]
    w = kernel.shape[-1]
    cross, xp, buf = runs.conv_cross(w), _conv_pad(x, w), np.empty(x.shape)
    db = g.sum(axis=-2)
    dk = np.empty(kernel.shape)
    for k in range(w):
        dk[..., k] = _conv_tap(cross, k, g, xp[..., k : k + n, :], buf).sum(axis=-2)
    if not need_x:
        return None, dk, db
    dxp = np.zeros_like(xp)
    for k in range(w):
        dxp[..., k : k + n, :] += _conv_tap(cross, k, g, kernel[..., None, :, k], buf)
    return dxp[..., w - 1 :, :], dk, db


# -- shape ops --------------------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    def backward(g):
        a._accum(g.reshape(a.data.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    datas = [t.data for t in tensors]
    out = np.concatenate(datas, axis=axis)
    sizes = [d.shape[axis] for d in datas]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                t._accum(g[tuple(idx)])

    return _node(out, tuple(tensors), backward)


def join_rows(tensors: list[Tensor]) -> Tensor:
    """The tensors' rows end to end; a single tensor is returned as is."""
    return tensors[0] if len(tensors) == 1 else concat(tensors, axis=0)


def split_rows(a: Tensor, sizes) -> list:
    """Consecutive row blocks of the given sizes, the inverse of
    ``join_rows``; a single block is the tensor itself."""
    if len(sizes) == 1:
        return [a]
    ends = list(itertools.accumulate(sizes))
    return [a[lo:hi] for lo, hi in zip([0] + ends[:-1], ends)]


def getitem(a: Tensor, key) -> Tensor:
    out = a.data[key]

    def backward(g):
        buf = np.zeros_like(a.data)
        if isinstance(key, np.ndarray):
            np.add.at(buf, key, g)  # a repeated index gathers its row twice
        else:
            buf[key] = g
        a._accum(buf)

    return _node(out, (a,), backward)


def tsum(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def backward(g):
        if axis is None:
            a._accum(np.broadcast_to(g, a.data.shape).copy())
        else:
            a._accum(np.broadcast_to(np.expand_dims(g, axis), a.data.shape).copy())

    return _node(out, (a,), backward)


def cumprod(a: Tensor) -> Tensor:
    """Running products along the last axis, S_k = a_0 * ... * a_k. The
    backward runs the reverse recurrence G_k = g_k + a_{k+1} * G_{k+1} and
    gives da_k = S_{k-1} * G_k (S_{-1} = 1); it divides by nothing, so a
    zero factor is safe."""
    out = np.cumprod(a.data, axis=-1)

    def backward(g):
        acc = np.array(g, dtype=np.float64)
        for k in range(acc.shape[-1] - 2, -1, -1):
            acc[..., k] += a.data[..., k + 1] * acc[..., k + 1]
        acc[..., 1:] *= out[..., :-1]
        a._accum(acc)

    return _node(out, (a,), backward)


def tmean(a: Tensor, axis=None) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    out = a.data.mean(axis=axis)

    def backward(g):
        if axis is None:
            a._accum(np.broadcast_to(g / n, a.data.shape).copy())
        else:
            a._accum(np.broadcast_to(np.expand_dims(g / n, axis), a.data.shape).copy())

    return _node(out, (a,), backward)


RUNS_CACHED = 512  # distinct sizes Runs.cached keeps; scoring 60 ragged patients in 5 folds uses 164-167


class Runs:
    """Independent sequences ("runs") laid end to end along axis 0 of a
    flat (L, ...) array: the one layout of every sequence op. Built once
    per set of run lengths, which the constructor validates; what the ops
    need is formed on first use and kept. The scan's time-major packing
    sorts the runs longest first (stable) and puts the width[t] runs still
    running at step t in packed rows off[t]..off[t+1]-1, as PyTorch's
    PackedSequence does. Packing, unpacking and the flip are each one
    gather, whatever the run lengths."""

    def __init__(self, sizes):
        arr = np.asarray(sizes)
        if arr.ndim != 1 or (arr.size and arr.dtype.kind not in "iu"):
            raise ShapeError(f"runs: group sizes must be integers, one per group; got {arr.dtype} {arr.shape}")
        if arr.size == 0:
            raise ShapeError("runs: need at least one group")
        bad = np.flatnonzero(arr < 1)
        if bad.size:
            raise ShapeError(f"runs: group {bad[0]} has size {arr[bad[0]]}; every group needs at least one row")
        self.sizes = arr.astype(np.int64, copy=False)
        self.rows = int(self.sizes.sum())
        self.starts = np.cumsum(self.sizes) - self.sizes
        self._cross = {}

    def __len__(self) -> int:
        return len(self.sizes)

    def check(self, where: str, rows: int):
        if rows != self.rows:
            raise ShapeError(f"{where}: runs cover {self.rows} rows, input has {rows}")

    @classmethod
    @lru_cache(maxsize=RUNS_CACHED)
    def cached(cls, sizes: tuple) -> Runs:
        """The Runs of a tuple of int sizes, built on its first use and
        shared, with everything its ops have formed, while it stays among
        the ``RUNS_CACHED`` most recently used sizes."""
        return cls(sizes)

    @classmethod
    def join(cls, parts: list) -> Runs:
        """The runs of several sets laid end to end, in order (shared as
        ``cached``); a single set is returned as is."""
        if len(parts) == 1:
            return parts[0]
        return cls.cached(tuple(np.concatenate([p.sizes for p in parts]).tolist()))

    @cached_property
    def width(self) -> list:
        return (len(self.sizes) - np.cumsum(np.bincount(self.sizes))[:-1]).tolist()

    @cached_property
    def off(self) -> list:
        return list(itertools.accumulate(self.width, initial=0))

    @cached_property
    def _ends(self) -> list:
        return sorted(set(self.sizes.tolist()))  # the step width changes where a run ends

    def spans(self, lo: int, hi: int) -> list:
        """Steps lo..hi-1 as (r0, r1, k) spans of equal width k, in packed
        rows counted from row off[lo]."""
        base, ends = self.off[lo], self._ends
        return [(self.off[max(t0, lo)] - base, self.off[min(t1, hi)] - base, self.width[t0])
                for t0, t1 in zip([0] + ends[:-1], ends) if t0 < hi and t1 > lo]

    @cached_property
    def _gathers(self) -> tuple:
        """The input row of each packed row and of each flipped row, and
        the packed row of each input row."""
        order = np.argsort(-self.sizes, kind="stable")
        steps = np.arange(self.sizes[order[0]])[:, None]
        packed = (self.starts[order] + steps)[steps < self.sizes[order]]
        flipped = np.repeat(2 * self.starts + self.sizes - 1, self.sizes) - np.arange(self.rows)
        return packed, flipped, np.argsort(packed)

    def pack(self, a: np.ndarray) -> np.ndarray:
        """Flat (..., L, C) rows -> time-major packed rows, on the same axis."""
        return a.take(self._gathers[0], axis=-2)

    def unpack(self, p: np.ndarray) -> np.ndarray:
        """Time-major packed (..., L, C) rows -> flat rows in input order."""
        return p.take(self._gathers[2], axis=-2)

    def flip(self, a: np.ndarray) -> np.ndarray:
        """a (L, ...) with each run reversed in time."""
        return a[self._gathers[1]]

    def conv_cross(self, w: int) -> list:
        """Per tap k of a width-w causal conv, which reads w - 1 - k rows
        back, the rows whose read crosses into the run before: the first
        w - 1 - k rows of every run after the first."""
        cross = self._cross.get(w)
        if cross is None:
            rest = np.arange(int(self.sizes[0]), self.rows)
            back = rest - np.repeat(self.starts[1:], self.sizes[1:])  # steps since the run's start
            cross = self._cross[w] = [rest[back < w - 1 - k] for k in range(w)]
        return cross


def segment_mean(a: Tensor, runs: Runs) -> Tensor:
    """Mean-pool each run of a flat (L, D) tensor: output row s is the mean
    of run s."""
    runs.check("segment_mean", a.data.shape[0])
    sums = np.add.reduceat(a.data, runs.starts, axis=0)
    sz = runs.sizes.astype(np.float64)[:, None]
    out = sums / sz

    def backward(g):
        a._accum(np.repeat(g / sz, runs.sizes, axis=0))

    return _node(out, (a,), backward)


# -- parameter registry ------------------------------------------------------


class Module:
    """Minimal parameter container: attributes that are grad-requiring
    Tensors register as parameters, Module attributes as children, and
    dotted paths give every parameter a unique name.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_children", {})

    def __setattr__(self, name, value):
        if isinstance(value, Tensor) and value.requires_grad:
            self._params[name] = value
        elif isinstance(value, Module):
            self._children[name] = value
        object.__setattr__(self, name, value)

    def named_parameters(self, prefix: str = ""):
        for name, p in self._params.items():
            yield (prefix + name, p)
        for name, child in self._children.items():
            yield from child.named_parameters(prefix + name + ".")

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def param_count(self) -> int:
        return sum(p.size for p in self.parameters())


class Namespace(Module):
    """Pure container used to build dotted parameter paths."""


def uniform_init(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class LinearLayer(Module):
    """Learnable affine map x @ weight + bias, weight shaped (d_in, d_out)."""

    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, zero_init: bool = False):
        super().__init__()
        if zero_init:
            w = np.zeros((d_in, d_out))
        else:
            w = uniform_init(rng, (d_in, d_out), d_in)
        self.weight = Tensor(w, requires_grad=True)
        self.bias = Tensor(np.zeros(d_out), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return linear(x, self.weight, self.bias)


class LayerNorm(Module):
    """The scale gamma, shift beta and eps of a layer norm, which the
    blocks run inside their nodes (``_layer_norm``)."""

    def __init__(self, d: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps


# -- gradient verification ----------------------------------------------------


def grad_check(f, params, h: float = 1e-5) -> float:
    """Compare reverse-mode gradients of scalar f() against central finite
    differences, entry by entry, over every given parameter.

    params: iterable of (name, Tensor). Returns the worst relative error,
    |a - n| / max(1e-8, |a| + |n|). Raises NonFiniteError if any
    evaluation of f is non-finite.
    """
    params = list(params)
    for _, p in params:
        p.zero_grad()
    out = f()
    val = out.item()
    if not math.isfinite(val):
        raise NonFiniteError(f"grad_check: f evaluated to {val}")
    out.backward()
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for name, p in params}

    worst = 0.0
    with no_grad():
        for name, p in params:
            flat = p.data.reshape(-1)
            aflat = analytic[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                fp = f().item()
                flat[i] = orig - h
                fm = f().item()
                flat[i] = orig
                if not (math.isfinite(fp) and math.isfinite(fm)):
                    raise NonFiniteError(f"grad_check: non-finite f near {name}[{i}]")
                num = (fp - fm) / (2.0 * h)
                a = aflat[i]
                rel = abs(a - num) / max(1e-8, abs(a) + abs(num))
                if rel > worst:
                    worst = rel
    return worst
