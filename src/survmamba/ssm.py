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

``discretize`` computes only Abar, off the tape, and records the sources
it came from; ``DiscreteParams.Bbar`` is formed on first read, for the
cross-checks. The recurrent scan never forms a (B, M, E, N) Bbar: it is
one tape node with parents (x, delta, A, Bproj, Cproj) that runs in
slabs of time steps, writing each slab's Bbar * x straight into one
reused state buffer and stepping the states there. It keeps only the
hidden state entering each slab. Backward walks the slabs in reverse
with its own reused Abar, state and adjoint buffers: it recomputes Abar
and the slab's states from that checkpoint, runs the adjoint recurrence
and contracts through B and C once per slab into the five input
gradients. A slab holds ``SLAB_BYTES`` per (B, slab, E, N) array, so
short sequences are a single slab. Under ``no_grad`` nothing is recorded
and no checkpoint is kept.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, _grad_enabled, _node

DISCRETIZE_MODES = ("euler", "zoh")
SLAB_BYTES = 4 << 20  # bytes per (B, slab, E, N) float64 array in the scan


def _abar(delta: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """Abar = exp(delta * A) for delta (B, S, E) and A (E, N), in out if given."""
    out = np.multiply(delta[..., None], a, out=out)
    return np.exp(out, out=out)


def _zoh_q(abar: np.ndarray, a: np.ndarray, out=None) -> np.ndarray:
    """q = (Abar - 1) / A, the zoh factor of Bbar, in out if given."""
    out = np.subtract(abar, 1.0, out=out)
    return np.divide(out, a, out=out)


def _bbar(delta: np.ndarray, abar: np.ndarray, a: np.ndarray, bproj: np.ndarray, mode: str, out=None) -> np.ndarray:
    """Bbar = delta * Bproj (euler) or q * Bproj (zoh), (B, S, E, N), in out if given."""
    if mode == "euler":
        return np.multiply(delta[..., None], bproj[:, :, None, :], out=out)
    out = _zoh_q(abar, a, out=out)
    return np.multiply(out, bproj[:, :, None, :], out=out)


@dataclass
class DiscreteParams:
    """Step operator Abar of shape (B, M, E, N), 0 < Abar < 1, held off
    the tape, and the sources the scan differentiates through. ``Bbar``
    is computed from the sources on first read and cached; the recurrent
    scan never reads it."""

    Abar: Tensor
    delta: Tensor
    A: Tensor
    Bproj: Tensor
    mode: str

    @cached_property
    def Bbar(self) -> Tensor:
        return Tensor(_bbar(self.delta.data, self.Abar.data, self.A.data, self.Bproj.data, self.mode))


def discretize(delta: Tensor, A: Tensor, Bproj: Tensor, mode: str = "euler") -> DiscreteParams:
    """Broadcast delta (B, M, E) against A (E, N) into the (B, M, E, N)
    step operator Abar; Bproj (B, M, N) is kept for Bbar."""
    if mode not in DISCRETIZE_MODES:
        raise ConfigError(f"discretize: unknown mode {mode!r}, expected one of {DISCRETIZE_MODES}")
    return DiscreteParams(Abar=Tensor(_abar(delta.data, A.data)), delta=delta, A=A, Bproj=Bproj, mode=mode)


def _slab_states(hs, abar, delta, a, bproj, x, mode, tmp):
    """Fill hs (B, S + 1, E, N), whose slot 0 holds the entry state, with
    the slab's states: Bbar * x goes into slots 1..S, then each step adds
    Abar_t * h_{t-1} in place. tmp is a (B, E, N) scratch."""
    bx = _bbar(delta, abar, a, bproj, mode, out=hs[:, 1:])
    bx *= x[..., None]
    steps = hs.swapaxes(0, 1)  # per-step (B, E, N) views
    for a_t, h_prev, h in zip(abar.swapaxes(0, 1), steps, steps[1:]):
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
    abar = dp.Abar.data
    if x.ndim != 3:
        raise ShapeError(f"scan: expected (B, M, E) input, got {x.shape}")
    bmn = x.shape[:2] + (abar.shape[-1],)
    if abar.shape[:3] != x.shape or dp.delta.shape != x.shape or dp.Bproj.shape != bmn:
        raise ShapeError(f"scan: Abar {abar.shape} / delta {dp.delta.shape} / Bproj {dp.Bproj.shape} "
                         f"do not match x {x.shape}")
    if cproj.shape != bmn:
        raise ShapeError(f"scan: Cproj {cproj.shape} does not match (B, M, N)")


def selective_scan_recurrent(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Sequential scan from h_0 = 0; the reference and the one route that
    records a tape node."""
    _check_shapes(x, dp, cproj)
    parents = (x, dp.delta, dp.A, dp.Bproj, cproj)
    record = _grad_enabled() and any(p.requires_grad for p in parents)
    abar = dp.Abar.data
    xd, dd, ad, bd, cd, mode = x.data, dp.delta.data, dp.A.data, dp.Bproj.data, cproj.data, dp.mode
    b, m, e = xd.shape
    n = ad.shape[-1]
    step = min(m, max(1, SLAB_BYTES // (8 * b * e * n)))
    slabs = [slice(s0, min(m, s0 + step)) for s0 in range(0, m, step)]
    checkpoints = []  # the state entering each slab, kept only when recording
    y = np.empty((b, m, e))
    hs = np.empty((b, step + 1, e, n))  # slot 0 holds the state entering the slab
    hs[:, 0] = 0.0
    tmp = np.empty((b, e, n))
    for sl in slabs:
        s = sl.stop - sl.start
        if record:
            checkpoints.append(hs[:, 0].copy())
        _slab_states(hs[:, : s + 1], abar[:, sl], dd[:, sl], ad, bd[:, sl], xd[:, sl], mode, tmp)
        # y[b,t,e] = sum_n h[b,t,e,n] * c[b,t,n]
        y[:, sl] = np.matmul(hs[:, 1 : s + 1], cd[:, sl, :, None])[..., 0]
        hs[:, 0] = hs[:, s]

    def backward(g):
        dx, ddelta = np.empty((b, m, e)), np.zeros((b, m, e))
        dbp, dc = np.empty((b, m, n)), np.empty((b, m, n))
        da = np.zeros((e, n))
        abar_buf, dh_buf = np.empty((b, step, e, n)), np.empty((b, step, e, n))
        hs = np.empty((b, step + 1, e, n))
        q_buf = np.empty((b, step, e, n)) if mode == "zoh" else None
        tmp = np.empty((b, e, n))
        carry = np.zeros((b, e, n))  # dL/dh_t flowing back into h_{t-1}, times Abar_t
        for sl, h0 in zip(reversed(slabs), reversed(checkpoints)):
            s = sl.stop - sl.start
            ds, xs, bs, gs, cs = dd[:, sl], xd[:, sl], bd[:, sl], g[:, sl], cd[:, sl]
            ab = _abar(ds, ad, out=abar_buf[:, :s])
            h = hs[:, : s + 1]
            h[:, 0] = h0
            _slab_states(h, ab, ds, ad, bs, xs, mode, tmp)
            dh = np.multiply(gs[..., None], cs[:, :, None, :], out=dh_buf[:, :s])  # dL/dh_t from y_t
            dh_steps = dh.swapaxes(0, 1)  # per-step (B, E, N) views, walked in reverse
            dh_steps[-1] += carry
            for d, a_t, d_prev in zip(dh_steps[:0:-1], ab.swapaxes(0, 1)[:0:-1], dh_steps[-2::-1]):
                np.multiply(d, a_t, out=tmp)
                d_prev += tmp
            np.multiply(dh[:, 0], ab[:, 0], out=carry)
            dc[:, sl] = np.matmul(gs[:, :, None, :], h[:, 1:])[:, :, 0, :]
            if mode == "euler":
                gb = np.matmul(dh, bs[..., None])[..., 0]  # sum_n dh * Bproj
                np.multiply(ds, gb, out=dx[:, sl])
                np.multiply(xs, gb, out=ddelta[:, sl])  # through Bbar = delta * Bproj
                dbp[:, sl] = np.matmul((ds * xs)[:, :, None, :], dh)[:, :, 0, :]
                dh *= h[:, :-1]  # dL/dAbar
            else:
                dhq = _zoh_q(ab, ad, out=q_buf[:, :s])
                dhq *= dh
                dx[:, sl] = np.matmul(dhq, bs[..., None])[..., 0]  # sum_n dh * q * Bproj
                dbp[:, sl] = np.matmul(xs[:, :, None, :], dhq)[:, :, 0, :]
                dhq *= bs[:, :, None, :]
                # dL/dA through q, where dq/dA = -q / A and dL/dq = dh * x * Bproj
                da -= np.einsum("bten,bte->en", dhq, xs) / ad
                # dL/dAbar = dh * (h_{t-1} + x * Bproj / A): the recurrence and q
                w = np.multiply(xs[..., None], bs[:, :, None, :], out=q_buf[:, :s])
                w /= ad
                w += h[:, :-1]
                dh *= w
            dh *= ab  # dL/d(delta * A)
            ddelta[:, sl] += np.einsum("bten,en->bte", dh, ad)
            da += np.einsum("bten,bte->en", dh, ds)
        for p, grad in zip(parents, (dx, ddelta, da, dbp, dc)):
            if p.requires_grad:
                p._accum(grad)

    return _node(y, parents, backward)


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
    """Time each scan route on a shared LTI instance per length.

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
        dp = discretize(delta, Tensor(a_cont), bproj, "euler")
        xt = Tensor(x)
        ref = selective_scan_recurrent(xt, dp, cproj).data
        kern = lti_kernel(dp.Abar.data[0, 0], dp.Bbar.data[0, 0], c0, m)
        routes = {
            "recurrent": lambda xt=xt, dp=dp, cproj=cproj: selective_scan_recurrent(xt, dp, cproj).data,
            "parallel": lambda xt=xt, dp=dp, cproj=cproj: selective_scan_parallel(xt, dp, cproj).data,
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
