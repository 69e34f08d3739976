"""Composite sequence blocks: the bidirectional selective-scan block and
the two-modality interaction fusion block.

Both follow the same per-branch recipe: causal depthwise conv, SiLU,
input-dependent B/C/timescale projections, discretization, selective
scan. The bidirectional block runs one branch forward and one on the
reversed sequence (re-reversing its output), gates both by SiLU of a
shared z-projection, sums, projects back to the token dim and adds the
residual. Given lengths, the bidirectional block runs a flat (L, D)
input holding runs of those lengths end to end, each its own sequence:
the conv and the scan restart at every run, and the reverse branch flips
each run in place. The fusion block runs one branch per modality and
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
    Tensor,
    causal_depthwise_conv1d,
    concat,
    exp,
    flip_runs,
    linear,
    neg,
    silu,
    softplus,
    uniform_init,
)
from .ssm import check_lengths, discretize, selective_scan_recurrent


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
    (B, C, delta) projections -> discretize -> scan."""

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

    def __call__(self, x: Tensor, lengths=None) -> Tensor:
        xs = silu(causal_depthwise_conv1d(x, self.conv_kernel, self.conv_bias, lengths))
        bproj = self.linear_b(xs)
        cproj = self.linear_c(xs)
        delta = softplus(linear(xs, self.linear_delta) + self.delta_bias)
        a = neg(exp(self.a_log))
        dp = discretize(delta, a, bproj, self.disc_mode, lengths=lengths)
        return selective_scan_recurrent(xs, dp, cproj)


class BiMambaBlock(Module):
    """Bidirectional block over (B, M, D) token sequences or, with
    ``lengths``, over a flat (L, D) input of runs of those lengths laid end
    to end, each its own sequence.

    The norm, x/z projections and the output projection are shared
    between directions; each direction owns its conv, B/C/delta
    projections and state-evolution parameters.
    """

    def __init__(self, d_model: int, e_expand: int | None = None, n_state: int = 16,
                 conv_width: int = 4, rng: np.random.Generator | None = None,
                 disc_mode: str = "euler"):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        e = e_expand if e_expand is not None else 2 * d_model
        self.d_model, self.e_expand, self.n_state, self.conv_width = d_model, e, n_state, conv_width
        self.norm = LayerNorm(d_model)
        self.linear_x = LinearLayer(d_model, e, rng)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.fwd = ScanBranch(e, n_state, conv_width, rng, disc_mode)
        self.bwd = ScanBranch(e, n_state, conv_width, rng, disc_mode)
        self.linear_out = LinearLayer(e, d_model, rng, zero_init=True)

    def __call__(self, tokens: Tensor, lengths=None) -> Tensor:
        layout = "(B, M, D)" if lengths is None else "(L, D) with lengths"
        if tokens.ndim != (3 if lengths is None else 2) or tokens.shape[-1] != self.d_model:
            raise ShapeError(
                f"bi-mamba: expected {layout} input, D = {self.d_model}, got {tokens.shape}"
            )
        if tokens.shape[-2] < 1:
            raise ShapeError("bi-mamba: sequence length must be >= 1")
        lengths = check_lengths("bi-mamba", lengths, tokens.shape)
        normed = self.norm(tokens)
        x = self.linear_x(normed)
        gate = silu(self.linear_z(normed))
        y_f = self.fwd(x, lengths)
        y_b = flip_runs(self.bwd(flip_runs(x, lengths), lengths), lengths)
        return self.linear_out(y_f * gate + y_b * gate) + tokens


class IFMModality(Module):
    """Per-modality parameters of the fusion block."""

    def __init__(self, d: int, e: int, n: int, w: int, rng, disc_mode: str):
        super().__init__()
        self.norm = LayerNorm(d)
        self.in_proj = LinearLayer(d, e, rng)
        self.branch = ScanBranch(e, n, w, rng, disc_mode)


class IFMBlock(Module):
    """Cross-gated two-modality fusion over equal-shape (B, M, D) inputs."""

    def __init__(self, d_model: int, e_expand: int | None = None, n_state: int = 16,
                 conv_width: int = 4, rng: np.random.Generator | None = None,
                 disc_mode: str = "euler"):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        e = e_expand if e_expand is not None else 2 * d_model
        self.d_model, self.e_expand, self.n_state, self.conv_width = d_model, e, n_state, conv_width
        self.m1 = IFMModality(d_model, e, n_state, conv_width, rng, disc_mode)
        self.m2 = IFMModality(d_model, e, n_state, conv_width, rng, disc_mode)
        self.linear_z = LinearLayer(d_model, e, rng)
        self.linear_out = LinearLayer(2 * e, d_model, rng, zero_init=True)

    def __call__(self, tokens_a: Tensor, tokens_b: Tensor) -> Tensor:
        if tokens_a.shape != tokens_b.shape:
            raise ShapeError(
                f"ifm: modality shapes differ, {tokens_a.shape} vs {tokens_b.shape}; "
                "align sequence lengths before fusing"
            )
        if tokens_a.ndim != 3 or tokens_a.shape[-1] != self.d_model:
            raise ShapeError(f"ifm: expected (B, M, {self.d_model}) inputs, got {tokens_a.shape}")
        n1 = self.m1.norm(tokens_a)
        n2 = self.m2.norm(tokens_b)
        y1 = self.m1.branch(self.m1.in_proj(n1))
        y2 = self.m2.branch(self.m2.in_proj(n2))
        z1 = silu(self.linear_z(n1))
        z2 = silu(self.linear_z(n2))
        fused = concat([y1 * z2, y2 * z1], axis=-1)
        return self.linear_out(fused)
