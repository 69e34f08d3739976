"""Selective state-space scan kernels.

Three mutually verifying routes through the same linear recurrence
h_t = Abar_t * h_{t-1} + Bbar_t * x_t, y_t = <C_t, h_t>:

* ``selective_scan_recurrent`` - the sequential reference, O(M*E*N) work.
* ``selective_scan_parallel``  - Blelloch up/down sweep over the
  associative operator (a1, b1) o (a2, b2) = (a1*a2, a2*b1 + b2).
* ``lti_kernel`` + convolution - valid only for time-invariant parameters.

Discretization converts the continuous pair (A, delta) into the step
operators: Abar = exp(delta * A) always; Bbar = delta * B ("euler") or
Bbar = ((exp(delta * A) - 1) / A) * B ("zoh").
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import Tensor, _node, exp, mul, reshape

DISCRETIZE_MODES = ("euler", "zoh")


@dataclass
class DiscreteParams:
    """Step operators Abar, Bbar of shape (B, M, E, N), 0 < Abar < 1."""

    Abar: Tensor
    Bbar: Tensor


def discretize(delta: Tensor, A: Tensor, Bproj: Tensor, mode: str = "euler") -> DiscreteParams:
    """Broadcast delta (B, M, E) against A (E, N) and Bproj (B, M, N) into
    (B, M, E, N) step operators."""
    if mode not in DISCRETIZE_MODES:
        raise ConfigError(f"discretize: unknown mode {mode!r}, expected one of {DISCRETIZE_MODES}")
    b, m, e = delta.shape
    n = A.shape[-1]
    d4 = reshape(delta, (b, m, e, 1))
    bp4 = reshape(Bproj, (b, m, 1, n))
    abar = exp(mul(d4, A))
    if mode == "euler":
        bbar = mul(d4, bp4)
    else:
        bbar = mul((abar - 1.0) / A, bp4)
    return DiscreteParams(Abar=abar, Bbar=bbar)


def _scan_forward(x, abar, bbar, c):
    """Shared recurrence core on raw arrays; returns (y, h_all, bx)."""
    b, m, e = x.shape
    n = abar.shape[-1]
    bx = bbar * x[..., None]
    h_all = np.empty((b, m, e, n))
    h = np.zeros((b, e, n))
    for t in range(m):
        np.multiply(abar[:, t], h, out=h)
        h += bx[:, t]
        h_all[:, t] = h
    # y[b,t,e] = sum_n h[b,t,e,n] * c[b,t,n]
    y = np.matmul(h_all, c[..., None])[..., 0]
    return y, h_all, bx


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
    h_all = abar * v[:, :m] + bx
    return h_all


def _make_scan(x: Tensor, dp: DiscreteParams, cproj: Tensor, parallel: bool) -> Tensor:
    abar, bbar, c = dp.Abar, dp.Bbar, cproj
    if x.ndim != 3:
        raise ShapeError(f"scan: expected (B, M, E) input, got {x.shape}")
    if abar.shape[:3] != x.shape or abar.shape != bbar.shape:
        raise ShapeError(f"scan: Abar {abar.shape} / Bbar {bbar.shape} do not match x {x.shape}")
    if c.shape != x.shape[:2] + (abar.shape[-1],):
        raise ShapeError(f"scan: Cproj {c.shape} does not match (B, M, N)")

    if parallel:
        bx = bbar.data * x.data[..., None]
        h_all = _scan_parallel_states_impl(abar.data, bx)
        y = np.matmul(h_all[:, :, :, None, :], c.data[:, :, None, :, None])[..., 0, 0]
        y = np.ascontiguousarray(y)
    else:
        y, h_all, bx = _scan_forward(x.data, abar.data, bbar.data, c.data)

    ad, bd, cd, xd = abar.data, bbar.data, c.data, x.data
    b_, m, e = xd.shape

    def backward(g):
        # adjoint recurrence, identical for both forward routes
        n = ad.shape[-1]
        gc = g[..., None] * cd[:, :, None, :]  # direct dL/dh_t term, (B,M,E,N)
        dbx = np.empty_like(bd)
        carry = np.zeros((b_, e, n))
        for t in range(m - 1, -1, -1):
            carry += gc[:, t]
            dbx[:, t] = carry
            np.multiply(carry, ad[:, t], out=carry)
        if abar.requires_grad:
            da = np.empty_like(dbx)
            da[:, 0] = 0.0
            np.multiply(dbx[:, 1:], h_all[:, :-1], out=da[:, 1:])
            abar._accum(da)
        if bbar.requires_grad:
            bbar._accum(dbx * xd[..., None])
        if x.requires_grad:
            x._accum((dbx * bd).sum(axis=-1))
        if cproj.requires_grad:
            # dC[b,t,n] = sum_e g[b,t,e] * h[b,t,e,n]
            cproj._accum(np.matmul(g[:, :, None, :], h_all)[:, :, 0, :])

    return _node(y, (x, abar, bbar, cproj), backward)


def selective_scan_recurrent(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Sequential scan from h_0 = 0; the reference implementation."""
    return _make_scan(x, dp, cproj, parallel=False)


def selective_scan_parallel(x: Tensor, dp: DiscreteParams, cproj: Tensor) -> Tensor:
    """Work-efficient parallel-scan route; matches the recurrent output
    to ~1e-10 (same math, different summation bracketing)."""
    return _make_scan(x, dp, cproj, parallel=True)


def scan_operator_combine(first: tuple, second: tuple) -> tuple:
    """The associative operator on (a, b) pairs: apply `first`, then `second`."""
    a1, b1 = first
    a2, b2 = second
    return (a1 * a2, a2 * b1 + b2)


def lti_kernel(abar, bbar, cproj, length: int) -> np.ndarray:
    """Kernel of the time-invariant system: K[e, k] = sum_n C[n] * Abar[e,n]^k * Bbar[e,n],
    i.e. (C Bbar, C Abar Bbar, ..., C Abar^{M-1} Bbar)."""
    abar = np.asarray(abar.data if isinstance(abar, Tensor) else abar, dtype=np.float64)
    bbar = np.asarray(bbar.data if isinstance(bbar, Tensor) else bbar, dtype=np.float64)
    c = np.asarray(cproj.data if isinstance(cproj, Tensor) else cproj, dtype=np.float64)
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
        for mode in modes:
            if mode == "recurrent":
                fn = lambda xt=xt, dp=dp, cproj=cproj: selective_scan_recurrent(xt, dp, cproj).data
            elif mode == "parallel":
                fn = lambda xt=xt, dp=dp, cproj=cproj: selective_scan_parallel(xt, dp, cproj).data
            elif mode == "conv":
                fn = lambda x=x, kern=kern: apply_lti_kernel(x, kern)
            else:
                raise ConfigError(f"scan-bench: unknown mode {mode!r}")
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
