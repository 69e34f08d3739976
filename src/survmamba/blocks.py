"""Composite sequence blocks: the bidirectional selective-scan block and
the two-modality interaction fusion block.

Both follow the same per-branch recipe: causal depthwise conv, SiLU,
input-dependent B/C/timescale projections, discretization, selective
scan. A branch is one tape node, folded as Mamba's ``mamba_inner_fn``
(Gu & Dao 2023) folds it: its forward runs that recipe in numpy, and the
scan as a node of its own on leaves it makes, through this module's
``discretize`` and ``selective_scan_recurrent``; its backward runs the
scan's closure and works back by hand through softplus, the
projections, SiLU and the conv. It keeps the conv output, its sigmoid
and the pre-softplus timescale, and forms the timescale's sigmoid and
the padded conv input again in backward. Under ``no_grad`` it keeps
nothing. Both blocks take flat (L, D) tokens holding independent
sequences end to end, and the ``numerics.Runs`` of those sequences: the
conv and the scan restart at every run. The bidirectional block runs
one branch forward and one on the reversed runs (re-reversing its
output), gates both by SiLU of a shared z-projection, sums, projects
back to the token dim and adds the residual. The fusion block runs one branch per modality and
cross-gates: each modality's scan output is gated by SiLU of the *other*
modality's z-projection; gated outputs are concatenated and projected,
with no residual path.

Output projections are zero-initialized, so a freshly built
bidirectional block is an exact identity and a fresh fusion block
returns exactly zero.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .numerics import (
    LayerNorm,
    LinearLayer,
    Module,
    Runs,
    Tensor,
    _conv1d,
    _conv1d_grads,
    _node,
    _records,
    _sigmoid_np,
    _softplus_np,
    concat,
    flip_runs,
    silu,
    uniform_init,
)
from .ssm import discretize, selective_scan_recurrent


def _check_tokens(where: str, tokens: Tensor, runs: Runs, d: int):
    """Tokens must be flat (L, d) rows that the runs cover."""
    if tokens.ndim != 2 or tokens.shape[1] != d:
        raise ShapeError(f"{where}: expected flat (L, {d}) tokens, got {tokens.shape}")
    runs.check(where, tokens.shape[0])


def _init_a_log(e: int, n: int) -> np.ndarray:
    """-A spans [1, n] log-spaced per state index, shared across channels."""
    if n == 1:
        span = np.ones(1)
    else:
        span = np.exp(np.linspace(0.0, math.log(n), n))
    return np.broadcast_to(np.log(span), (e, n)).copy()


def _init_dt_bias(rng: np.random.Generator, e: int, lo: float = 1e-3, hi: float = 1e-1) -> np.ndarray:
    """Bias such that softplus(bias) lands log-uniformly in [lo, hi]."""
    dt = np.exp(rng.uniform(math.log(lo), math.log(hi), size=e))
    return dt + np.log(-np.expm1(-dt))  # inverse softplus


class ScanBranch(Module):
    """One direction/modality of the selective scan: conv -> SiLU ->
    (B, C, delta) projections -> discretize -> scan, recorded as one tape
    node whose parents are the input and the branch's nine parameters."""

    def __init__(self, e: int, n: int, w: int, rng: np.random.Generator, disc_mode: str = "euler"):
        super().__init__()
        self.conv_kernel = Tensor(uniform_init(rng, (e, w), w), requires_grad=True)
        self.conv_bias = Tensor(np.zeros(e), requires_grad=True)
        self.linear_b = LinearLayer(e, n, rng)
        self.linear_c = LinearLayer(e, n, rng)
        self.linear_delta = Tensor(uniform_init(rng, (e, e), e), requires_grad=True)
        self.delta_bias = Tensor(_init_dt_bias(rng, e), requires_grad=True)
        self.a_log = Tensor(_init_a_log(e, n), requires_grad=True)
        self.disc_mode = disc_mode

    def __call__(self, x: Tensor, runs: Runs) -> Tensor:
        """x: flat (L, E) runs."""
        params = (self.conv_kernel, self.conv_bias, self.linear_b.weight, self.linear_b.bias,
                  self.linear_c.weight, self.linear_c.bias, self.linear_delta, self.delta_bias, self.a_log)
        kernel, cbias, wb, bb, wc, bc, wd, bd, a_log = params
        record = _records((x,) + params)
        conv = _conv1d(x.data, kernel.data, cbias.data, runs)
        sig = _sigmoid_np(conv)
        xs = conv * sig
        if not record:  # under no_grad each goes as soon as it is used
            conv = sig = None
        bproj = xs @ wb.data + bb.data
        cproj = xs @ wc.data + bc.data
        pre = xs @ wd.data + bd.data
        delta = _softplus_np(pre)
        if not record:
            pre = None
        a = -np.exp(a_log.data)
        leaves = [Tensor(v, requires_grad=record) for v in (xs, delta, a, bproj, cproj)]
        x_in, delta_in, a_in, b_in, c_in = leaves
        y = selective_scan_recurrent(x_in, discretize(delta_in, a_in, b_in, self.disc_mode, runs=runs), c_in)

        def backward(g):
            y._backward(g)
            dxs, ddelta, da, dbp, dcp = [t.grad for t in leaves]
            dpre = ddelta * _sigmoid_np(pre)
            dxs += dpre @ wd.data.T  # scan, delta, B, C: the order a tape of one node per op sums in
            dxs += dbp @ wb.data.T
            dxs += dcp @ wc.data.T
            dx, dk, dcb = _conv1d_grads(dxs * sig * (1.0 + conv * (1.0 - sig)), x.data, kernel.data, runs,
                                        x.requires_grad)
            grads = (dx, dk, dcb, xs.T @ dbp, dbp.sum(axis=0), xs.T @ dcp, dcp.sum(axis=0),
                     xs.T @ dpre, dpre.sum(axis=0), da * a)  # the last through A = -exp(a_log)
            for p, grad in zip((x,) + params, grads):
                if p.requires_grad:
                    p._accum(grad)

        return _node(y.data, (x,) + params, backward)


class BiMambaBlock(Module):
    """Bidirectional block over the runs of flat (L, D) tokens.

    The norm, x/z projections and the output projection are shared
    between directions; each direction owns its conv, B/C/delta
    projections and state-evolution parameters.
    """

    def __init__(self, d_model: int, e_expand: int, n_state: int = 16, conv_width: int = 4, *,
                 rng: np.random.Generator, disc_mode: str = "euler"):
        super().__init__()
        e = e_expand
        self.d_model, self.e_expand, self.n_state, self.conv_width = d_model, e, n_state, conv_width
        self.norm = LayerNorm(d_model)
        self.linear_x = LinearLayer(d_model, e, rng)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.fwd = ScanBranch(e, n_state, conv_width, rng, disc_mode)
        self.bwd = ScanBranch(e, n_state, conv_width, rng, disc_mode)
        self.linear_out = LinearLayer(e, d_model, rng, zero_init=True)

    def __call__(self, tokens: Tensor, runs: Runs) -> Tensor:
        _check_tokens("bi-mamba", tokens, runs, self.d_model)
        normed = self.norm(tokens)
        x = self.linear_x(normed)
        gate = silu(self.linear_z(normed))
        y_f = self.fwd(x, runs)
        y_b = flip_runs(self.bwd(flip_runs(x, runs), runs), runs)
        return self.linear_out(y_f * gate + y_b * gate) + tokens


class IFMModality(Module):
    """Per-modality parameters of the fusion block."""

    def __init__(self, d: int, e: int, n: int, w: int, rng, disc_mode: str):
        super().__init__()
        self.norm = LayerNorm(d)
        self.in_proj = LinearLayer(d, e, rng)
        self.branch = ScanBranch(e, n, w, rng, disc_mode)


class IFMBlock(Module):
    """Cross-gated two-modality fusion over two flat (L, D) token sets of
    equal shape that share one set of runs."""

    def __init__(self, d_model: int, e_expand: int, n_state: int = 16, conv_width: int = 4, *,
                 rng: np.random.Generator, disc_mode: str = "euler"):
        super().__init__()
        e = e_expand
        self.d_model, self.e_expand, self.n_state, self.conv_width = d_model, e, n_state, conv_width
        self.m1 = IFMModality(d_model, e, n_state, conv_width, rng, disc_mode)
        self.m2 = IFMModality(d_model, e, n_state, conv_width, rng, disc_mode)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.linear_out = LinearLayer(2 * e, d_model, rng, zero_init=True)

    def __call__(self, tokens_a: Tensor, tokens_b: Tensor, runs: Runs) -> Tensor:
        if tokens_a.shape != tokens_b.shape:
            raise ShapeError(
                f"ifm: modality shapes differ, {tokens_a.shape} vs {tokens_b.shape}; "
                "align sequence lengths before fusing"
            )
        _check_tokens("ifm", tokens_a, runs, self.d_model)
        n1 = self.m1.norm(tokens_a)
        n2 = self.m2.norm(tokens_b)
        y1 = self.m1.branch(self.m1.in_proj(n1), runs)
        y2 = self.m2.branch(self.m2.in_proj(n2), runs)
        z1 = silu(self.linear_z(n1))
        z2 = silu(self.linear_z(n2))
        return self.linear_out(concat([y1 * z2, y2 * z1], axis=-1))
