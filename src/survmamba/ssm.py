"""Selective state-space scan kernels.

Three mutually verifying routes through the same linear recurrence
h_t = Abar_t * h_{t-1} + Bbar_t * x_t, y_t = <C_t, h_t>:

* ``selective_scan_recurrent`` - the sequential reference, O(M*E*N) work;
  the one differentiable route.
* ``selective_scan_parallel``  - Blelloch up/down sweep over the
  associative operator (a1, b1) o (a2, b2) = (a1*a2, a2*b1 + b2).
* ``lti_kernel`` + convolution - valid only for time-invariant parameters.

The last two are forward-only cross-checks that record no tape node.

Discretization converts the continuous pair (A, delta) into the step
operators: Abar = exp(delta * A) always; Bbar = delta * B ("euler") or
Bbar = ((exp(delta * A) - 1) / A) * B ("zoh").

``discretize`` checks and records its sources and computes nothing;
``DiscreteParams.Abar`` and ``DiscreteParams.Bbar`` are formed as
(B, M, E, N) arrays on first read, for the cross-checks. The recurrent
scan never forms either: it is one tape node with parents
(x, delta, A, Bproj, Cproj) that works time-major and state before
channel. Its inputs are transposed once per call to (M, B, .), and it
runs in slabs of time steps, held as (S, B, N, E) arrays. Per slab it
writes Abar into one reused buffer and Bbar * x into one reused state
buffer, then steps the states there over contiguous (B, N, E) blocks;
forward does this in chunks of at most ``CHUNK_BYTES`` per array, so
that its buffers stay in cache between passes. It keeps only the hidden
state entering each slab. Backward walks the slabs in reverse with its
own reused buffers: it recomputes Abar and the slab's states from that
checkpoint, runs the adjoint recurrence over the same contiguous blocks
and contracts through B and C once per slab into the five input
gradients. A slab holds ``SLAB_BYTES`` per (S, B, N, E) array, so short
sequences are a single slab. Under ``no_grad`` nothing is recorded and
no checkpoint is kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, _grad_enabled, _node

DISCRETIZE_MODES = ("euler", "zoh")
SLAB_BYTES = 4 << 20  # bytes per (S, B, N, E) float64 array in the scan
CHUNK_BYTES = 256 << 10  # bytes per forward chunk array: a few fit in a 1-2 MiB L2 cache


def _zoh_q(abar: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """q = (Abar - 1) / A, the zoh factor of Bbar, in out if given."""
    out = np.subtract(abar, 1.0, out=out)
    return np.divide(out, a, out=out)


@dataclass
class DiscreteParams:
    """The sources of the step operators: delta (B, M, E), A (E, N),
    Bproj (B, M, N) and the mode. ``Abar`` (B, M, E, N), 0 < Abar < 1,
    and ``Bbar`` are computed off the tape on first read and cached; the
    recurrent scan reads neither."""

    delta: Tensor
    A: Tensor
    Bproj: Tensor
    mode: str

    @cached_property
    def Abar(self) -> Tensor:
        return Tensor(np.exp(self.delta.data[..., None] * self.A.data))

    @cached_property
    def Bbar(self) -> Tensor:
        if self.mode == "euler":
            return Tensor(self.delta.data[..., None] * self.Bproj.data[:, :, None, :])
        return Tensor(_zoh_q(self.Abar.data, self.A.data) * self.Bproj.data[:, :, None, :])


def _check_a(where: str, delta: Tensor, A: Tensor, Bproj: Tensor):
    """A must be (E, N), with E from delta (B, M, E) and N from Bproj (B, M, N)."""
    en = delta.shape[-1:] + Bproj.shape[-1:]
    if len(en) != 2 or A.shape != en:
        raise ShapeError(f"{where}: A {A.shape} is not (E, N) = {en}, taking E from delta "
                         f"{delta.shape} and N from Bproj {Bproj.shape}")


def discretize(delta: Tensor, A: Tensor, Bproj: Tensor, mode: str = "euler") -> DiscreteParams:
    """Bundle delta (B, M, E), A (E, N) and Bproj (B, M, N) for the scan,
    which forms the step operators per slab itself."""
    if mode not in DISCRETIZE_MODES:
        raise ConfigError(f"discretize: unknown mode {mode!r}, expected one of {DISCRETIZE_MODES}")
    _check_a("discretize", delta, A, Bproj)
    return DiscreteParams(delta=delta, A=A, Bproj=Bproj, mode=mode)


def _tm(a: np.ndarray) -> np.ndarray:
    """Time-major contiguous (M, B, ...) copy of a (B, M, ...) array; a view when B = 1."""
    return np.ascontiguousarray(a.swapaxes(0, 1))


def _slab_states(hs, abar, delta, at, bproj, x, mode, tmp):
    """Fill abar (S, B, N, E) with the slab's step operators and hs
    (S + 1, B, N, E), whose slot 0 holds the entry state, with its states:
    Bbar * x goes into slots 1..S, then each step adds Abar_t * h_{t-1} in
    place. delta and x are (S, B, E) and bproj (S, B, N) time-major slab
    slices, at is A transposed to (N, E) and tmp a (B, N, E) scratch."""
    np.exp(np.einsum("tbe,ne->tbne", delta, at, out=abar), out=abar)
    bx = hs[1:]
    if mode == "euler":
        np.einsum("tbe,tbn->tbne", delta, bproj, out=bx)
    else:
        _zoh_q(abar, at, out=bx)
        bx *= bproj[..., None]
    bx *= x[:, :, None, :]
    for a_t, h_prev, h in zip(abar, hs, bx):
        np.multiply(a_t, h_prev, out=tmp)
        h += tmp


def _scan_parallel_states_impl(abar, bx):
    """All hidden states via a Blelloch sweep over the scan operator.

    Elements are pairs (a_t, b_t); composing "first then second" gives
    (a1*a2, a2*b1 + b2). The up/down sweep computes exclusive prefixes;
    one extra combine per element makes them inclusive, whose b component
    is h_t (h starts at zero). Padding to a power-of-two length uses the
    operator identity (a=1, b=0).
    """
    b, m, e, n = abar.shape
    p = 1
    while p < m:
        p *= 2
    a = np.ones((b, p, e, n))
    v = np.zeros((b, p, e, n))
    a[:, :m] = abar
    v[:, :m] = bx
    levels = p.bit_length() - 1
    for d in range(levels):
        s = 1 << d
        la, lv = a[:, s - 1 : p : 2 * s], v[:, s - 1 : p : 2 * s]
        ra, rv = a[:, 2 * s - 1 : p : 2 * s], v[:, 2 * s - 1 : p : 2 * s]
        k = ra.shape[1]
        # (left o right): a = la*ra, b = ra*lv + rv
        v[:, 2 * s - 1 : p : 2 * s] = ra * lv[:, :k] + rv
        a[:, 2 * s - 1 : p : 2 * s] = la[:, :k] * ra
    a[:, p - 1] = 1.0
    v[:, p - 1] = 0.0
    for d in range(levels - 1, -1, -1):
        s = 1 << d
        li = np.arange(s - 1, p, 2 * s)
        ri = np.arange(2 * s - 1, p, 2 * s)
        li = li[: ri.size]
        ta, tv = a[:, li].copy(), v[:, li].copy()
        a[:, li] = a[:, ri]
        v[:, li] = v[:, ri]
        # right child prefix = parent_prefix o left_subtree_sum
        v[:, ri] = ta * v[:, ri] + tv
        a[:, ri] = a[:, ri] * ta
    # inclusive_t = exclusive_t o elem_t: h = a_t * b_ex + b_t
    return abar * v[:, :m] + bx


def _check_shapes(x: Tensor, dp: DiscreteParams, cproj: Tensor):
    if x.ndim != 3:
        raise ShapeError(f"scan: expected (B, M, E) input, got {x.shape}")
    _check_a("scan", dp.delta, dp.A, dp.Bproj)
    bmn = x.shape[:2] + dp.A.shape[-1:]
    if dp.delta.shape != x.shape or dp.Bproj.shape != bmn:
        raise ShapeError(f"scan: delta {dp.delta.shape} / Bproj {dp.Bproj.shape} do not match x {x.shape}")
    if cproj.shape != bmn:
        raise ShapeError(f"scan: Cproj {cproj.shape} does not match (B, M, N)")


def _slab_grads(g, src, at, mode, slabs, checkpoints):
    """The scan's input gradients (dx, ddelta, dA, dBproj, dCproj) for the
    output gradient g (B, M, E), shaped like the inputs. src holds the
    (B, M, .) arrays of x, delta, Bproj and Cproj, at is A transposed to
    (N, E) and checkpoints the state entering each slab. Walks the slabs
    in reverse in the forward's time-major layout; the slab buffers are
    freed on return."""
    xt, dt, bt, ct, gt = map(_tm, src + (g,))  # transposed again rather than kept on the tape
    m, b, e = xt.shape
    n = at.shape[0]
    step = slabs[0].stop  # the first slab is a full one
    dx, ddelta = np.empty((m, b, e)), np.zeros((m, b, e))
    dbp, dc = np.empty((m, b, n)), np.empty((m, b, n))
    da = np.zeros((n, e))
    abar_buf, dh_buf = np.empty((step, b, n, e)), np.empty((step, b, n, e))
    hs = np.empty((step + 1, b, n, e))
    q_buf = np.empty((step, b, n, e)) if mode == "zoh" else None
    tmp = np.empty((b, n, e))
    carry = np.zeros((b, n, e))  # dL/dh_t flowing back into h_{t-1}, times Abar_t
    for sl, h0 in zip(reversed(slabs), reversed(checkpoints)):
        s = sl.stop - sl.start
        ds, xs, bs, gs, cs = dt[sl], xt[sl], bt[sl], gt[sl], ct[sl]
        ab, h = abar_buf[:s], hs[: s + 1]
        h[0] = h0
        _slab_states(h, ab, ds, at, bs, xs, mode, tmp)
        dh = np.einsum("tbe,tbn->tbne", gs, cs, out=dh_buf[:s])  # dL/dh_t from y_t
        dh[-1] += carry
        for d, a_t, d_prev in zip(dh[:0:-1], ab[:0:-1], dh[-2::-1]):  # in reverse
            np.multiply(d, a_t, out=tmp)
            d_prev += tmp
        np.multiply(dh[0], ab[0], out=carry)
        np.matmul(h[1:], gs[..., None], out=dc[sl, :, :, None])
        if mode == "euler":
            gb = np.matmul(bs[:, :, None, :], dh)[:, :, 0, :]  # sum_n Bproj * dh
            np.multiply(ds, gb, out=dx[sl])
            np.multiply(xs, gb, out=ddelta[sl])  # through Bbar = delta * Bproj
            np.matmul(dh, (ds * xs)[..., None], out=dbp[sl, :, :, None])
            dh *= h[:-1]  # dL/dAbar
        else:
            dhq = _zoh_q(ab, at, out=q_buf[:s])
            dhq *= dh
            np.matmul(bs[:, :, None, :], dhq, out=dx[sl, :, None, :])  # sum_n Bproj * dh * q
            np.matmul(dhq, xs[..., None], out=dbp[sl, :, :, None])
            dhq *= bs[..., None]
            # dL/dA through q, where dq/dA = -q / A and dL/dq = dh * x * Bproj
            da -= np.einsum("tbne,tbe->ne", dhq, xs) / at
            # dL/dAbar = dh * (h_{t-1} + x * Bproj / A): the recurrence and q
            w = np.einsum("tbe,tbn->tbne", xs, bs, out=q_buf[:s])
            w /= at
            w += h[:-1]
            dh *= w
        dh *= ab  # dL/d(delta * A)
        ddelta[sl] += np.einsum("tbne,ne->tbe", dh, at)
        da += np.einsum("tbne,tbe->ne", dh, ds)
    return dx.swapaxes(0, 1), ddelta.swapaxes(0, 1), da.T, dbp.swapaxes(0, 1), dc.swapaxes(0, 1)


def selective_scan_recurrent(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Sequential scan from h_0 = 0; the reference and the one route that
    records a tape node."""
    _check_shapes(x, dp, cproj)
    parents = (x, dp.delta, dp.A, dp.Bproj, cproj)
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    mode = dp.mode
    # time-major, state before channel: x, delta (M, B, E); Bproj, Cproj (M, B, N); A^T (N, E)
    src = (x.data, dp.delta.data, dp.Bproj.data, cproj.data)
    xt, dt, bt, ct = map(_tm, src)
    at = np.ascontiguousarray(dp.A.data.T)
    m, b, e = xt.shape
    n = at.shape[0]
    step_bytes = 8 * b * e * n
    step = min(m, max(1, SLAB_BYTES // step_bytes))
    chunk = min(step, max(1, CHUNK_BYTES // step_bytes))
    slabs = [slice(s0, min(m, s0 + step)) for s0 in range(0, m, step)]
    checkpoints = []  # the state entering each slab, kept only when recording
    y = np.empty((m, b, e))
    abar_buf = np.empty((chunk, b, n, e))
    hs = np.empty((chunk + 1, b, n, e))  # slot 0 holds the state entering the chunk
    hs[0] = 0.0
    tmp = np.empty((b, n, e))
    for sl in slabs:
        if record:
            checkpoints.append(hs[0].copy())
        for c0 in range(sl.start, sl.stop, chunk):
            ck = slice(c0, min(sl.stop, c0 + chunk))
            s = ck.stop - c0
            _slab_states(hs[: s + 1], abar_buf[:s], dt[ck], at, bt[ck], xt[ck], mode, tmp)
            # y[t,b,e] = sum_n c[t,b,n] * h[t,b,n,e]
            np.matmul(ct[ck, :, None, :], hs[1 : s + 1], out=y[ck, :, None, :])
            hs[0] = hs[s]

    def backward(g):
        for p, grad in zip(parents, _slab_grads(g, src, at, mode, slabs, checkpoints)):
            if p.requires_grad:
                p._accum(grad)

    return _node(y.swapaxes(0, 1), parents, backward)


def selective_scan_parallel(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Work-efficient parallel-scan route, forward only: a cross-check on
    the recurrent scan that records no tape node. Matches the recurrent
    output to ~1e-10 (same math, different summation bracketing)."""
    _check_shapes(x, dp, cproj)
    h_all = _scan_parallel_states_impl(dp.Abar.data, dp.Bbar.data * x.data[..., None])
    return Tensor(np.matmul(h_all[:, :, :, None, :], cproj.data[:, :, None, :, None])[..., 0, 0])


def lti_kernel(abar: np.ndarray, bbar: np.ndarray, c: np.ndarray, length: int) -> np.ndarray:
    """Kernel of the time-invariant system: K[e, k] = sum_n C[n] * Abar[e,n]^k * Bbar[e,n],
    i.e. (C Bbar, C Abar Bbar, ..., C Abar^{M-1} Bbar)."""
    e, n = abar.shape
    powers = np.empty((e, n, length))
    powers[:, :, 0] = 1.0
    for k in range(1, length):
        powers[:, :, k] = powers[:, :, k - 1] * abar
    return np.einsum("n,enk,en->ek", c, powers, bbar)


def apply_lti_kernel(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Causal per-channel convolution of x (B, M, E) with kernel (E, M)."""
    b, m, e = x.shape
    out = np.empty_like(x)
    for bi in range(b):
        for ei in range(e):
            out[bi, :, ei] = np.convolve(x[bi, :, ei], kernel[ei])[:m]
    return out


# -- benchmarking (scan-bench CLI backend) ----------------------------------


def bench_scan(lengths, channels: int = 8, state: int = 8, modes=("recurrent", "parallel", "conv"), reps: int = 5, seed: int = 0, reduce: str = "median"):
    """Time each scan route on a shared LTI instance per length. Both scan
    routes run a fresh ``discretize`` inside each timed call, so each pays
    for forming its own step operators.

    Returns a list of row dicts {mode, length, seconds, max_dev}; max_dev
    is each mode's worst absolute deviation from the recurrent output.
    reduce picks the per-mode statistic over reps: "median" (default) or
    "min" (noise-robust, for scaling fits).
    """
    rng = np.random.default_rng(seed)
    cells = []  # one per (length, mode), timed reps interleaved below
    for m in lengths:
        a_cont = -np.exp(rng.uniform(0.0, np.log(max(state, 2)), size=(channels, state)))
        delta0 = rng.uniform(0.05, 0.5, size=channels)
        bproj0 = rng.normal(size=state)
        c0 = rng.normal(size=state)
        x = rng.normal(size=(1, m, channels))
        delta = Tensor(np.broadcast_to(delta0, (1, m, channels)).copy())
        bproj = Tensor(np.broadcast_to(bproj0, (1, m, state)).copy())
        cproj = Tensor(np.broadcast_to(c0, (1, m, state)).copy())
        src = (delta, Tensor(a_cont), bproj, "euler")
        dp = discretize(*src)
        xt = Tensor(x)
        ref = selective_scan_recurrent(xt, dp, cproj).data
        kern = lti_kernel(dp.Abar.data[0, 0], dp.Bbar.data[0, 0], c0, m)
        routes = {
            "recurrent": lambda xt=xt, src=src, cproj=cproj: selective_scan_recurrent(xt, discretize(*src), cproj).data,
            "parallel": lambda xt=xt, src=src, cproj=cproj: selective_scan_parallel(xt, discretize(*src), cproj).data,
            "conv": lambda x=x, kern=kern: apply_lti_kernel(x, kern),
        }
        for mode in modes:
            if mode not in routes:
                raise ConfigError(f"scan-bench: unknown mode {mode!r}")
            fn = routes[mode]
            fn()  # warm up
            cells.append({"mode": mode, "length": int(m), "fn": fn, "times": [], "ref": ref})
    # interleave reps across cells so a transient system stall cannot
    # poison every repetition of one cell
    for _ in range(reps):
        for cell in cells:
            t0 = time.perf_counter()
            out = cell["fn"]()
            cell["times"].append(time.perf_counter() - t0)
            cell["out"] = out
    stat = np.min if reduce == "min" else np.median
    return [
        {
            "mode": c["mode"],
            "length": c["length"],
            "seconds": float(stat(c["times"])),
            "max_dev": float(np.max(np.abs(c["out"] - c["ref"]))),
        }
        for c in cells
    ]
