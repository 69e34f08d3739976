"""Selective state-space scan: discretization and the sequential
recurrence h_t = Abar_t * h_{t-1} + Bbar_t * x_t, y_t = <C_t, h_t>,
O(M*E*N) work, recorded as one differentiable tape node.

Discretization converts the continuous pair (A, delta) into the step
operators: Abar = exp(delta * A) always; Bbar = delta * B ("euler") or
Bbar = ((exp(delta * A) - 1) / A) * B ("zoh").

``discretize`` bundles its sources as a ``DiscreteParams``, which checks
them when it is built, and computes nothing; the scan then checks only x
against delta and Cproj against Bproj. ``DiscreteParams.Abar`` and
``DiscreteParams.Bbar`` are formed as (..., L, E, N) arrays on first
read, for references and instrumentation outside the scan. The scan
never forms either: it is one tape node with parents (x, delta, A,
Bproj, Cproj) that works time-major and state before channel.

It takes flat (L, E) rows holding independent sequences ("runs") laid
end to end, with their ``numerics.Runs`` passed through
``discretize(..., runs=)``. A stack of G scans over the same runs, such
as a block's two branches, puts one leading axis on every input: x and
delta (G, L, E), Bproj and Cproj (G, L, N) and A (G, E, N). The stack
runs in the same code path as a lone scan, each array op taking the
leading axis with it, so the Python-level work per time step is paid
once for the stack (the blocks stack their two branches only where
that work is what the scan's time goes to; see ``blocks``). It packs
its inputs once per call, time-major as the Runs lays out: runs sorted
longest first (stable), step t one contiguous block of the n_t runs
still running, rows [:n_t] of the step before. No padding is formed, so forward and backward step only the
rows still running and every (..., N, E) array covers real steps only.

The scan runs in slabs of time steps, held as (..., rows, N, E) arrays.
Per slab it writes Abar into one reused buffer and Bbar * x into one
reused state buffer, then steps the states there, one (..., n_t, N, E)
block per step; forward does this in chunks of at most ``CHUNK_BYTES``
per array and per scan of the stack (sized for n_0 rows a step), so
that a stack's chunks are those each scan would have alone and its
buffers stay in cache between passes. It keeps the hidden state
entering each slab. Backward walks the slabs in reverse with its own
reused buffers: it recomputes Abar and the slab's states from that
checkpoint, runs the adjoint recurrence over the same blocks and
contracts through B and C once per slab into the five input gradients,
unpacked to the input layout. A slab holds ``SLAB_BYTES`` per array and
scan, so short sequences are a single slab. A scan whose steps all fit
one forward chunk (each of the six stacked scans of a desk training
step) keeps that chunk's packed inputs and its Abar and state buffers
instead, about 2 x ``CHUNK_BYTES`` per scan of the stack, and backward
packs and recomputes nothing for it. The scan keeps anything only when
``numerics``' one recording rule puts it on the tape, so under
``no_grad``, or with no input needing a gradient, nothing is recorded
and nothing is kept.
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Runs, Tensor, _node, _records

DISCRETIZE_MODES = ("euler", "zoh")
SLAB_BYTES = 4 << 20  # bytes per (S steps x n_0 rows, N, E) float64 array of one scan of a stack
CHUNK_BYTES = 256 << 10  # bytes per forward chunk array and scan: a few fit in a 1-2 MiB L2 cache


def _zoh_q(abar: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """q = (Abar - 1) / A, the zoh factor of Bbar, in out if given."""
    out = np.subtract(abar, 1.0, out=out)
    return np.divide(out, a, out=out)


@dataclass
class DiscreteParams:
    """The sources of the step operators: flat delta (..., L, E) and Bproj
    (..., L, N) holding the runs of ``runs`` end to end, A (..., E, N) and
    the mode, checked when the bundle is built. ``Abar`` (..., L, E, N),
    0 < Abar < 1, and ``Bbar`` are computed off the tape on first read and
    cached, broadcast over the leading axes; the recurrent scan reads
    neither."""

    delta: Tensor
    A: Tensor
    Bproj: Tensor
    mode: str
    runs: Runs

    def __post_init__(self):
        if self.mode not in DISCRETIZE_MODES:
            raise ConfigError(f"discretize: unknown mode {self.mode!r}, expected one of {DISCRETIZE_MODES}")
        delta, a, bproj = self.delta.shape, self.A.shape, self.Bproj.shape
        lead = a[:-2]
        if len(delta) != len(lead) + 2 or delta[:-2] != lead:
            raise ShapeError(f"discretize: expected flat (L, E) rows, got delta {delta}"
                             + (f" for A {a}" if lead else ""))
        self.runs.check("discretize", delta[-2])
        en = lead + delta[-1:] + bproj[-1:]
        if a != en:
            form = "(G, E, N)" if len(en) == 3 else "(E, N)"
            raise ShapeError(f"discretize: A {a} is not {form} = {en}, taking E from delta {delta} "
                             f"and N from Bproj {bproj}")
        if bproj[:-1] != delta[:-1]:
            raise ShapeError(f"discretize: Bproj {bproj} does not match delta {delta}")

    @cached_property
    def Abar(self) -> Tensor:
        return Tensor(np.exp(self.delta.data[..., None] * self.A.data[..., None, :, :]))

    @cached_property
    def Bbar(self) -> Tensor:
        if self.mode == "euler":
            return Tensor(self.delta.data[..., None] * self.Bproj.data[..., None, :])
        return Tensor(_zoh_q(self.Abar.data, self.A.data[..., None, :, :]) * self.Bproj.data[..., None, :])


def discretize(delta: Tensor, A: Tensor, Bproj: Tensor, mode: str = "euler", *,
               runs: Runs) -> DiscreteParams:
    """Bundle flat delta (L, E) and Bproj (L, N), their runs and A (E, N)
    for the scan, which forms the step operators per slab itself. A stack
    of G scans over the same runs puts one leading axis on all three:
    (G, L, E), (G, L, N) and (G, E, N). The bundle checks itself."""
    return DiscreteParams(delta=delta, A=A, Bproj=Bproj, mode=mode, runs=runs)


def _slab_states(h, abar, delta, at, bproj, x, mode, tmp, spans):
    """Fill abar (..., R, N, E) with the step operators of R packed rows
    and h (..., K + R, N, E), whose first K rows hold the state entering
    the first step, with their states: Bbar * x goes into rows K.., then
    each step adds Abar_t * h_{t-1} in place, one (..., k, N, E) block per
    step for the k sequences still running. delta and x are (..., R, E)
    and bproj (..., R, N) packed slices, spans their spans from
    ``Runs.spans``, at is A transposed to (..., N, E) and tmp a
    (..., B, N, E) scratch."""
    np.exp(np.einsum("...le,...ne->...lne", delta, at, out=abar), out=abar)
    k0 = h.shape[-3] - abar.shape[-3]
    bx = h[..., k0:, :, :]
    if mode == "euler":
        np.einsum("...le,...ln->...lne", delta, bproj, out=bx)
    else:
        _zoh_q(abar, at[..., None, :, :], out=bx)
        bx *= bproj[..., None]
    bx *= x[..., None, :]
    prev = h[..., :k0, :, :]
    lead, ne = abar.shape[:-3], abar.shape[-2:]
    for r0, r1, k in spans:  # each step's (..., k, N, E) block, time first
        a = abar[..., r0:r1, :, :].reshape(lead + (-1, k) + ne)
        s = bx[..., r0:r1, :, :].reshape(lead + (-1, k) + ne)
        if lead:
            a, s = a.swapaxes(0, 1), s.swapaxes(0, 1)
        part = tmp[..., :k, :, :]
        for a_t, h_prev, h_t in zip(a, itertools.chain((prev[..., :k, :, :],), s), s):
            np.multiply(a_t, h_prev, out=part)
            h_t += part
        prev = s[-1]


def _with_prev(op, v, h, spans):
    """v = op(v, h_{t-1}) in place for R packed rows v (..., R, N, E), where
    h (..., K + R, N, E) holds the K rows entering the first step and then
    the rows' states; spans as from ``Runs.spans``. Within a run the
    previous step sits k rows back; a later run's first step reads the
    head of the block before."""
    k0 = h.shape[-3] - v.shape[-3]
    for i, (r0, r1, k) in enumerate(spans):
        lo = r0
        if i:
            kp = spans[i - 1][2]
            lo = r0 + k
            op(v[..., r0:lo, :, :], h[..., k0 + r0 - kp : k0 + r0 - kp + k, :, :], out=v[..., r0:lo, :, :])
        op(v[..., lo:r1, :, :], h[..., k0 + lo - k : k0 + r1 - k, :, :], out=v[..., lo:r1, :, :])


def _check_shapes(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Runs:
    """The runs of the scan's input, after checking that x matches the
    bundle's delta and Cproj its Bproj; the bundle checked the rest."""
    if x.shape != dp.delta.shape:
        raise ShapeError(f"scan: x {x.shape} does not match delta {dp.delta.shape}")
    if cproj.shape != dp.Bproj.shape:
        raise ShapeError(f"scan: Cproj {cproj.shape} does not match Bproj {dp.Bproj.shape}")
    return dp.runs


def _slab_grads(g, src, at, mode, runs, slabs, checkpoints, kept):
    """The scan's input gradients (dx, ddelta, dA, dBproj, dCproj) for the
    flat output gradient g, all but dA in packed rows.
    src holds the flat arrays of x, delta, Bproj and Cproj, at is A
    transposed to (..., N, E) and checkpoints the state entering each slab.
    kept is None, or, for a scan the forward ran as one chunk, its packed
    x, delta, Bproj and Cproj and its Abar and state buffers, which stand
    in for the one slab's re-pack and recompute. Walks the slabs in
    reverse in the forward's packed layout; the slab buffers are freed on
    return."""
    gt = runs.pack(g)
    lead, (rows_all, e) = gt.shape[:-2], gt.shape[-2:]
    n = at.shape[-2]
    b = runs.width[0]
    size = runs.off[slabs[0].stop]  # rows of the first slab, the largest
    if kept is None:
        xt, dt, bt, ct = map(runs.pack, src)  # packed again rather than kept on the tape
        abar_buf, hs_buf = np.empty(lead + (size, n, e)), np.empty(lead + (b + size, n, e))
    else:
        xt, dt, bt, ct, abar_buf, hs_buf = kept
    dx, ddelta = np.empty(lead + (rows_all, e)), np.zeros(lead + (rows_all, e))
    dbp, dc = np.empty(lead + (rows_all, n)), np.empty(lead + (rows_all, n))
    da = np.zeros(lead + (n, e))
    dh_buf = np.empty(lead + (size, n, e))
    q_buf = np.empty(lead + (size, n, e)) if mode == "zoh" else None
    tmp = np.empty(lead + (b, n, e))
    carry = np.zeros(lead + (b, n, e))  # dL/dh_t flowing back into h_{t-1}, times Abar_t
    at_rows = at[..., None, :, :]  # against (..., rows, N, E)
    for sl, h0 in zip(reversed(slabs), reversed(checkpoints)):
        lo, hi = runs.off[sl.start], runs.off[sl.stop]
        r, k0, kl = hi - lo, runs.width[sl.start], runs.width[sl.stop - 1]
        spans = runs.spans(sl.start, sl.stop)
        ds, xs, bs, gs, cs = dt[..., lo:hi, :], xt[..., lo:hi, :], bt[..., lo:hi, :], gt[..., lo:hi, :], ct[..., lo:hi, :]
        ab, h = abar_buf[..., :r, :, :], hs_buf[..., : k0 + r, :, :]
        h[..., :k0, :, :] = h0
        if kept is None:
            _slab_states(h, ab, ds, at, bs, xs, mode, tmp, spans)
        dh = np.einsum("...le,...ln->...lne", gs, cs, out=dh_buf[..., :r, :, :])  # dL/dh_t from y_t
        dh[..., r - kl :, :, :] += carry[..., :kl, :, :]
        for i in reversed(range(len(spans))):  # the adjoint recurrence, in reverse
            r0, r1, k = spans[i]
            d = dh[..., r0:r1, :, :].reshape(lead + (-1, k, n, e))
            a = ab[..., r0:r1, :, :].reshape(lead + (-1, k, n, e))
            if lead:  # time first
                d, a = d.swapaxes(0, 1), a.swapaxes(0, 1)
            part = tmp[..., :k, :, :]
            for d_t, a_t, d_prev in zip(d[:0:-1], a[:0:-1], d[-2::-1]):
                np.multiply(d_t, a_t, out=part)
                d_prev += part
            if i:  # into the head of the previous step's wider block
                kp = spans[i - 1][2]
                np.multiply(d[0], a[0], out=part)
                dh[..., r0 - kp : r0 - kp + k, :, :] += part
            else:
                np.multiply(d[0], a[0], out=carry[..., :k, :, :])
        np.matmul(h[..., k0:, :, :], gs[..., None], out=dc[..., lo:hi, :, None])
        if mode == "euler":
            gb = np.matmul(bs[..., None, :], dh)[..., 0, :]  # sum_n Bproj * dh
            np.multiply(ds, gb, out=dx[..., lo:hi, :])
            np.multiply(xs, gb, out=ddelta[..., lo:hi, :])  # through Bbar = delta * Bproj
            np.matmul(dh, (ds * xs)[..., None], out=dbp[..., lo:hi, :, None])
            _with_prev(np.multiply, dh, h, spans)  # dL/dAbar
        else:
            dhq = _zoh_q(ab, at_rows, out=q_buf[..., :r, :, :])
            dhq *= dh
            np.matmul(bs[..., None, :], dhq, out=dx[..., lo:hi, None, :])  # sum_n Bproj * dh * q
            np.matmul(dhq, xs[..., None], out=dbp[..., lo:hi, :, None])
            dhq *= bs[..., None]
            # dL/dA through q, where dq/dA = -q / A and dL/dq = dh * x * Bproj
            da -= np.einsum("...lne,...le->...ne", dhq, xs) / at
            # dL/dAbar = dh * (h_{t-1} + x * Bproj / A): the recurrence and q
            w = np.einsum("...le,...ln->...lne", xs, bs, out=dhq)
            w /= at_rows
            _with_prev(np.add, w, h, spans)
            dh *= w
        dh *= ab  # dL/d(delta * A)
        ddelta[..., lo:hi, :] += np.einsum("...lne,...ne->...le", dh, at)
        da += np.einsum("...lne,...le->...ne", dh, ds)
    return dx, ddelta, da.swapaxes(-1, -2), dbp, dc


def _chunk_steps(runs: Runs, e: int, n: int) -> tuple:
    """(time steps per slab, time steps per forward chunk) of a scan over
    runs with E = e and N = n; a stack of such scans steps the same."""
    m, step_bytes = len(runs.width), 8 * runs.width[0] * e * n  # one step of one scan
    step = min(m, max(1, SLAB_BYTES // step_bytes))
    return step, min(step, max(1, CHUNK_BYTES // step_bytes))


def selective_scan_recurrent(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Sequential scan from h_0 = 0 over each run of ``dp.runs`` in a flat
    (L, E) input, or in each of a (G, L, E) stack whose sources carry the
    same leading axis; one tape node when a gradient is recorded."""
    runs = _check_shapes(x, dp, cproj)
    parents = (x, dp.delta, dp.A, dp.Bproj, cproj)
    record = _records(parents)
    mode = dp.mode
    # time-major packed, state before channel:
    # x, delta (..., L, E); Bproj, Cproj (..., L, N); A^T (..., N, E)
    src = (x.data, dp.delta.data, dp.Bproj.data, cproj.data)
    xt, dt, bt, ct = map(runs.pack, src)
    at = np.ascontiguousarray(dp.A.data.swapaxes(-1, -2))
    lead, (n, e) = at.shape[:-2], at.shape[-2:]
    m, b = len(runs.width), runs.width[0]
    step, chunk = _chunk_steps(runs, e, n)
    slabs = [slice(s0, min(m, s0 + step)) for s0 in range(0, m, step)]
    checkpoints = []  # the state entering each slab, kept only when recording
    y = np.empty(xt.shape)
    abar_buf = np.empty(lead + (chunk * b, n, e))
    hs_buf = np.zeros(lead + ((chunk + 1) * b, n, e))  # the rows entering the chunk, then its states
    tmp = np.empty(lead + (b, n, e))
    # a recorded scan whose steps all fit one chunk keeps that chunk's
    # inputs and buffers for backward, which then recomputes nothing
    kept = (xt, dt, bt, ct, abar_buf, hs_buf) if record and chunk == m else None
    for sl in slabs:
        if record:
            checkpoints.append(hs_buf[..., : runs.width[sl.start], :, :].copy())
        for c0 in range(sl.start, sl.stop, chunk):
            c1 = min(sl.stop, c0 + chunk)
            lo, hi = runs.off[c0], runs.off[c1]
            r, k0, kl = hi - lo, runs.width[c0], runs.width[c1 - 1]
            h = hs_buf[..., : k0 + r, :, :]
            _slab_states(h, abar_buf[..., :r, :, :], dt[..., lo:hi, :], at, bt[..., lo:hi, :], xt[..., lo:hi, :],
                         mode, tmp, runs.spans(c0, c1))
            # y[l,e] = sum_n c[l,n] * h[l,n,e]
            np.matmul(ct[..., lo:hi, None, :], h[..., k0:, :, :], out=y[..., lo:hi, None, :])
            h[..., :kl, :, :] = h[..., k0 + r - kl :, :, :]  # the last step's states enter the next chunk
    abar_buf = hs_buf = tmp = h = None  # gone, unless kept, before the unpacked output is formed

    def backward(g):
        grads = _slab_grads(g, src, at, mode, runs, slabs, checkpoints, kept)
        for p, grad in zip(parents, grads):  # unpacked once the slab buffers are freed
            if p.requires_grad:
                p._accum(grad if p is dp.A else runs.unpack(grad))

    return _node(runs.unpack(y), parents, backward)


# -- benchmarking (scan-bench CLI backend) ----------------------------------


def bench_scan(lengths, channels: int = 8, state: int = 8, reps: int = 5, seed: int = 0, reduce: str = "median"):
    """Time the recurrent scan on a random time-invariant instance per
    length. Each timed call runs a fresh ``discretize``, so it pays for
    forming its own step operators.

    Returns a list of row dicts {length, seconds}. reduce picks the
    statistic over reps: "median" (default) or "min" (noise-robust, for
    scaling fits). A length, channels, state or reps below 1, or another
    reduce, raises ConfigError.
    """
    lengths = list(lengths)
    if not all(isinstance(m, numbers.Integral) and m >= 1 for m in lengths):
        raise ConfigError(f"bench_scan: lengths must be positive integers, got {lengths}")
    for name, v in (("channels", channels), ("state", state), ("reps", reps)):
        if not isinstance(v, numbers.Integral) or v < 1:
            raise ConfigError(f"bench_scan: {name} must be a positive integer, got {v!r}")
    if reduce not in ("median", "min"):
        raise ConfigError(f"bench_scan: reduce must be 'median' or 'min', got {reduce!r}")
    rng = np.random.default_rng(seed)
    cells = []  # one per length, timed reps interleaved below
    for m in lengths:
        a_cont = -np.exp(rng.uniform(0.0, np.log(max(state, 2)), size=(channels, state)))
        delta0 = rng.uniform(0.05, 0.5, size=channels)
        bproj0 = rng.normal(size=state)
        c0 = rng.normal(size=state)
        xt = Tensor(rng.normal(size=(m, channels)))
        delta = Tensor(np.broadcast_to(delta0, (m, channels)).copy())
        bproj = Tensor(np.broadcast_to(bproj0, (m, state)).copy())
        cproj = Tensor(np.broadcast_to(c0, (m, state)).copy())
        src = (delta, Tensor(a_cont), bproj, "euler")

        def fn(xt=xt, src=src, cproj=cproj, runs=Runs.cached((int(m),))):
            return selective_scan_recurrent(xt, discretize(*src, runs=runs), cproj)

        fn()  # warm up
        cells.append({"length": int(m), "fn": fn, "times": []})
    # interleave reps across cells so a transient system stall cannot
    # poison every repetition of one cell
    for _ in range(reps):
        for cell in cells:
            t0 = time.perf_counter()
            cell["fn"]()
            cell["times"].append(time.perf_counter() - t0)
    stat = np.min if reduce == "min" else np.median
    return [{"length": c["length"], "seconds": float(stat(c["times"]))} for c in cells]
